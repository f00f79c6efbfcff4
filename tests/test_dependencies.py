"""The package's imports: numpy and the standard library, nothing else.

scipy and sympy serve only the tests (as oracles); a dropped dependency
cannot creep back unnoticed.
"""

import ast
import os
import subprocess
import sys
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
    assert {"linalg.py", "torus.py", "zfactor.py", "__init__.py"} <= names
    assert "numpy" in set(imported_roots(Path(tracelab.__file__).parent / "linalg.py"))


def test_no_scipy_and_no_sympy():
    found = []
    for path in SOURCES:
        for root in imported_roots(path):
            if root in ("scipy", "sympy"):
                found.append(f"{path.name}: {root}")
    assert found == []


def test_an_exact_run_through_the_factorizer_never_loads_sympy():
    # disc-z-mod-3z-growth factors integer norms on its way to the verdict
    code = (
        "import sys\n"
        "import tracelab.linalg as linalg\n"
        "from tracelab.cli import bundled_scenario_paths, main\n"
        "calls = []\n"
        "factor_list = linalg.factor_list\n"
        "linalg.factor_list = lambda f: calls.append(f) or factor_list(f)\n"
        "path = next(p for p in bundled_scenario_paths() if p.name == 'disc-z-mod-3z-growth.json')\n"
        "code = main(['verify', str(path)])\n"
        "print(code, len(calls) > 0, 'sympy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(tracelab.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "0 True False"
