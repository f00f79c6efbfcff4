"""Regenerate the stored references the oracles compare against.

Run from the repository root:  python3 perfbench/make_reference.py

It writes perfbench/reference/<workload>.json, mapping item id to:

* suite, ladder-exact: the structured report of the item;
* ladder-approx: the direct trace of the same scenario on the exact
  backend (the exact backend is the oracle of the approx one).

The references freeze the program's output at the commit that generated
them.  Regenerate them only in a change that is meant to alter output,
and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402
from tracelab import reporting  # noqa: E402


def _report(text, backend=None):
    scenario = reporting.parse_scenario(text)
    report = reporting.run(scenario, backend_override=backend)
    if not report.passed:
        raise SystemExit(f"{scenario.id}: does not pass: {report.failures}")
    return report


def main():
    out_dir = HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    refs = {"suite": {}, "ladder-exact": {}, "ladder-approx": {}}
    for item in workloads.suite_scenarios(Path("src/tracelab/scenarios")):
        refs["suite"][item["id"]] = reporting.emit(_report(item["text"]), "structured")
    for variant in range(workloads.LADDER_VARIANTS):
        for scenario in workloads.ladder_scenarios("exact", variant):
            text = json.dumps(scenario, sort_keys=True)
            refs["ladder-exact"][scenario["id"]] = reporting.emit(_report(text), "structured")
        for scenario in workloads.ladder_scenarios("approx", variant):
            report = _report(json.dumps(scenario, sort_keys=True), backend="exact")
            refs["ladder-approx"][scenario["id"]] = report.sides["direct_trace"]["value"]
        print(f"variant {variant} done", flush=True)
    for workload, table in refs.items():
        path = out_dir / f"{workload}.json"
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path} ({len(table)} items)")


if __name__ == "__main__":
    main()
