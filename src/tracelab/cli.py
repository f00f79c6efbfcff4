"""Command line front end.

Subcommands:

* ``verify <file...>`` -- run scenario files and emit reports,
* ``suite``            -- run every bundled scenario,
* ``filtration <file>``-- spectral-model property run for one file.

Each scenario is loaded, run and emitted in turn; an error in one is
reported on stderr with its path and the others still run.  Exit codes:
2 if any scenario had an input error (parse or schema), else 1 if any
report failed or a run raised, else 0.  Reports are emitted in input
order.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources

from .errors import ParseError, SchemaError, TraceLabError
from .reporting import emit, load_scenario, run


def bundled_scenario_paths():
    root = resources.files("tracelab").joinpath("scenarios")
    return sorted(
        (entry for entry in root.iterdir() if entry.name.endswith(".json")),
        key=lambda entry: entry.name,
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracelab",
        description="verification laboratory for twisted trace identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--backend", choices=["exact", "approx"], default=None,
                       help="override the scenario backend")
        p.add_argument("--tolerance", type=float, default=None,
                       help="override the scenario tolerance")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--emit", choices=["table", "structured"], default="table",
                       help="report format")

    p_verify = sub.add_parser("verify", help="verify scenario files")
    p_verify.add_argument("files", nargs="+")
    common(p_verify)

    p_suite = sub.add_parser("suite", help="run the bundled scenario suite")
    common(p_suite)

    p_filt = sub.add_parser("filtration", help="spectral-model property run")
    p_filt.add_argument("file")
    common(p_filt)
    return parser


def _run_one(path, args, case=None) -> int:
    """Load, run and emit one scenario; returns its exit code."""
    try:
        scenario = load_scenario(path)
        if case is not None and scenario.case != case:
            raise SchemaError(f"case: {args.command} needs a {case} scenario")
        report = run(scenario, args.backend, args.tolerance, args.seed)
    except (ParseError, SchemaError) as exc:
        print(f"input error: {path}: {exc}", file=sys.stderr)
        return 2
    except TraceLabError as exc:
        print(f"verification error: {path}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(emit(report, args.emit))
    return 0 if report.passed else 1


def _run_paths(paths, args) -> int:
    # every scenario runs; the worst exit code wins (2 over 1 over 0)
    return max([_run_one(p, args) for p in paths])


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "verify":
        return _run_paths(args.files, args)
    if args.command == "suite":
        return _run_paths([str(p) for p in bundled_scenario_paths()], args)
    if args.command == "filtration":
        return _run_one(args.file, args, case="spectral-model")
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
