"""Command line front end.

Subcommands:

* ``verify <file...>`` -- run scenario files and emit reports,
* ``suite``            -- run every bundled scenario,
* ``filtration <file>``-- spectral-model property run for one file.

Exit codes: 0 all reports pass, 1 at least one mathematical mismatch,
2 input error (parse or schema).  Reports are emitted in input order.
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


def _run_paths(paths, args) -> int:
    try:
        scenarios = [load_scenario(p) for p in paths]
    except (ParseError, SchemaError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        reports = [run(s, args.backend, args.tolerance, args.seed) for s in scenarios]
    except (ParseError, SchemaError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except TraceLabError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        sys.stdout.write(emit(report, args.emit))
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "verify":
        return _run_paths(args.files, args)
    if args.command == "suite":
        return _run_paths([str(p) for p in bundled_scenario_paths()], args)
    if args.command == "filtration":
        try:
            scenario = load_scenario(args.file)
        except (ParseError, SchemaError) as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return 2
        if scenario.case != "spectral-model":
            print("input error: filtration needs a spectral-model scenario",
                  file=sys.stderr)
            return 2
        return _run_paths([args.file], args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
