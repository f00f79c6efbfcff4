"""The package's imports: scipy nowhere, sympy only in ``linalg``.

``linalg.factor_gaussian`` needs sympy's integer factorizer; everything
else is numpy and the standard library, so a dropped dependency cannot
creep back unnoticed.
"""

import ast
from pathlib import Path

import tracelab

SOURCES = sorted(Path(tracelab.__file__).parent.glob("*.py"))


def imported_roots(path: Path):
    """Top-level package names of every import statement in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_the_scan_sees_the_package():
    names = {path.name for path in SOURCES}
    assert {"linalg.py", "torus.py", "__init__.py"} <= names
    assert "sympy" in set(imported_roots(Path(tracelab.__file__).parent / "linalg.py"))


def test_no_scipy_and_sympy_only_in_linalg():
    found = []
    for path in SOURCES:
        for root in imported_roots(path):
            if root == "scipy" or (root == "sympy" and path.name != "linalg.py"):
                found.append(f"{path.name}: {root}")
    assert found == []
