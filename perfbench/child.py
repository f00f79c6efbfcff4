"""One pass of a workload, in a fresh interpreter.

Reads a JSON list of scenario texts on stdin, then does what a command-line
user pays for: ``import tracelab``, ``reporting.parse_scenario`` on every
item, then ``reporting.run`` and ``reporting.emit(..., "structured")`` on
every item that parsed.  Prints one JSON object on stdout with the
monotonic timestamps of each phase, the CPU time used by the end of set-up
and of the run, the outcome of every item and the peak resident set.

Usage: child.py plain | trace <spans-file> | count | versions

``plain`` installs nothing.  ``versions`` only reports the versions of
Python and of the imported libraries.  ``trace`` wraps the layers' entry points in
timing spans (see ``tracer.py``) and writes the spans to <spans-file>.
``count`` installs only the scalar-arithmetic counters and the bit-size
probe, whose per-call cost would distort the span timings.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def _now() -> tuple[int, int]:
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn timestamp, the
    # calibrator's readings and these share one time base; the second
    # reading is the CPU time this process has used since it started
    return time.monotonic_ns(), time.process_time_ns()


def _outcome_of_error(stage, exc):
    return {
        "stage": stage,
        "error": type(exc).__name__,
        "message": str(exc)[:500],
        "traceback": traceback.format_exc(limit=8),
    }


def run_pass(items, tracer=None):
    started = _now()
    if tracer is not None:
        with tracer.span("tracelab.import"):
            import tracelab  # noqa: F401
        tracer.install_spans()
    else:
        import tracelab  # noqa: F401
    from tracelab import reporting

    imported = _now()
    parsed = []
    for text in items:
        try:
            parsed.append((reporting.parse_scenario(text), None))
        except Exception as exc:  # every item's failure is recorded, not fatal
            parsed.append((None, _outcome_of_error("parse", exc)))
    set_up = _now()
    outcomes = []
    for scenario, failed in parsed:
        if failed is not None:
            outcomes.append(failed)
            continue
        try:
            report = reporting.run(scenario)
            outcomes.append({"emitted": reporting.emit(report, "structured")})
        except Exception as exc:  # as above
            outcomes.append(_outcome_of_error("run", exc))
    finished = _now()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "t_start": started[0],
        "t_import": imported[0],
        "t_setup": set_up[0],
        "t_run": finished[0],
        "cpu_setup": set_up[1],
        "cpu_run": finished[1],
        "maxrss_kb": peak_kb,
        "outcomes": outcomes,
    }


def main(argv):
    mode = argv[1]
    items = json.loads(sys.stdin.read())
    if mode == "plain":
        result = run_pass(items)
    elif mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        result = run_pass(items, tracer)
        wall_ns = result["t_run"] - result["t_start"]
        result["trace"] = tracer.summary(wall_ns)
        tracer.write_spans(argv[2])
    elif mode == "versions":
        import platform

        import numpy
        import scipy
        import sympy
        import tracelab

        result = {"versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "sympy": sympy.__version__,
            "tracelab": getattr(tracelab, "__version__", "unknown"),
        }}
    elif mode == "count":
        from tracer import Counter

        counter = Counter()
        import tracelab  # noqa: F401

        counter.install()
        result = run_pass(items)
        result["counts"] = counter.summary()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
