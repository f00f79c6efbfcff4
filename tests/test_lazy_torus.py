"""The circle case loads only when it is used, and scipy never loads.

Each check runs in a fresh interpreter, because the test session itself
has long imported ``tracelab.torus``.
"""

import os
import subprocess
import sys
from pathlib import Path

import tracelab

TORUS_NAMES = (
    "BumpTestFunction",
    "GaussianTestFunction",
    "TorusTwist",
    "TruncationParams",
    "geometric_side_torus",
    "laplacian_expected_spectrum",
    "spectral_characters",
    "spectral_side_torus",
    "trivial_torus_twist",
    "twisted_laplacian_model",
    "verify_torus",
)


def fresh_python(code: str) -> str:
    """Standard output of ``code`` run by a new interpreter on this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(tracelab.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_loads_neither_torus_nor_scipy():
    out = fresh_python(
        "import sys, tracelab, tracelab.cli\n"
        "print(sorted(m for m in ('scipy', 'tracelab.torus') if m in sys.modules))"
    )
    assert out == "[]"


def test_non_torus_scenarios_never_load_scipy():
    out = fresh_python(
        "import sys\n"
        "from tracelab.cli import bundled_scenario_paths\n"
        "from tracelab.reporting import emit, load_scenario, run\n"
        "paths = [p for p in bundled_scenario_paths() if not p.name.startswith('torus-')]\n"
        "for backend in ('exact', 'approx'):\n"
        "    for path in paths:\n"
        "        scenario = load_scenario(path)\n"
        "        assert scenario.case != 'torus'\n"
        "        emit(run(scenario, backend_override=backend), 'structured')\n"
        "print(len(paths), 'scipy' in sys.modules, 'tracelab.torus' in sys.modules)"
    )
    assert out == "13 False False"


def test_parsing_a_torus_scenario_loads_it():
    out = fresh_python(
        "import sys\n"
        "from tracelab.cli import bundled_scenario_paths\n"
        "from tracelab.reporting import load_scenario\n"
        "path = next(p for p in bundled_scenario_paths() if p.name.startswith('torus-'))\n"
        "assert 'scipy' not in sys.modules\n"
        "load_scenario(path)\n"
        "print('scipy' in sys.modules, 'tracelab.torus' in sys.modules)"
    )
    assert out == "False True"


def test_no_bundled_scenario_loads_scipy():
    out = fresh_python(
        "import sys\n"
        "from tracelab.cli import bundled_scenario_paths\n"
        "from tracelab.reporting import emit, load_scenario, run\n"
        "paths = bundled_scenario_paths()\n"
        "for path in paths:\n"
        "    emit(run(load_scenario(path)), 'structured')\n"
        "print(len(paths), 'scipy' in sys.modules, 'tracelab.torus' in sys.modules)"
    )
    assert out == "17 False True"


def test_circle_case_names_resolve_from_the_torus_module():
    out = fresh_python(
        "import sys, tracelab\n"
        f"names = {TORUS_NAMES!r}\n"
        "listed = [name in dir(tracelab) for name in names]\n"
        "before = 'tracelab.torus' in sys.modules\n"
        "import tracelab.torus\n"
        "same = [getattr(tracelab, n) is getattr(tracelab.torus, n) for n in names]\n"
        "try:\n"
        "    tracelab.no_such_name\n"
        "    missing = 'resolved'\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(all(listed), before, all(same))\n"
        "print(missing)"
    )
    assert out.splitlines() == [
        "True False True",
        "module 'tracelab' has no attribute 'no_such_name'",
    ]


def test_from_import_of_a_circle_case_name():
    out = fresh_python(
        "from tracelab import TorusTwist, verify_torus\n"
        "import tracelab.torus as torus\n"
        "print(TorusTwist is torus.TorusTwist and verify_torus is torus.verify_torus)"
    )
    assert out == "True"


def test_the_torus_submodule_is_a_package_attribute():
    out = fresh_python(
        "import sys, tracelab\n"
        "listed = 'torus' in dir(tracelab)\n"
        "before = 'tracelab.torus' in sys.modules\n"
        "print(listed, before, tracelab.torus.TorusTwist is tracelab.TorusTwist)"
    )
    assert out == "True False True"
