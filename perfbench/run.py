"""tracelab benchmark: verdict time end to end, and where it goes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each pass of a workload runs in a fresh interpreter (``child.py``), one at
a time, with BLAS/OpenMP pinned to one thread, on one CPU beside the
calibrator of ``pace.py``.  The parent generates the workload's scenarios
from the seed, runs passes until ``--seconds`` is used up (at least two),
checks every item's outcome against its oracle and prints, last, one JSON
line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, each the median
over the passes; ``setup_s`` and ``run_s`` are CPU times rescaled to the
reference pace (see ``pace.py``).  With ``--trace 1`` they are the
per-layer ones, from traced passes (at least two) interleaved with
untraced ones, plus one counting pass; a traced run is not correct if a
wrapped entry point is missing, if a traced pass's self times sum to more
than its wall time, or if the counts differ between traced passes.  The lines
before it give a readable summary and the full record: versions, settings
and every pass's raw numbers.  The record is also written under
``.perfbench/`` in the checkout, with the spans of each traced pass.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import pace  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

MIN_PASSES = 2
MIN_TRACED_PASSES = 2
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
MAX_PASSES = 40
CHILD_TIMEOUT_S = 150
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class HarnessError(Exception):
    """The benchmark could not measure (as opposed to a wrong output)."""


def child_env(root: Path):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in THREAD_VARIABLES:
        env[name] = "1"
    # fixed string hashing, so that call counts repeat exactly
    env["PYTHONHASHSEED"] = "0"
    return env


def _finish(proc, what, payload=None):
    """Wait for a process (killing it after CHILD_TIMEOUT_S); its output."""
    try:
        out, err = proc.communicate(payload, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError(f"{what} exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise HarnessError(f"{what} exited {proc.returncode}: {(err or '').strip()[-2000:]}")
    return out


def spawn(root, env, mode, items, *extra):
    """One child interpreter, beside a calibrator unless it only reports
    versions; returns its result with the spawn time and the calibrator's
    samples."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, *extra]
    payload = json.dumps([item["text"] for item in items])
    pacer = None
    if mode != "versions":
        pacer = subprocess.Popen(
            [sys.executable, str(HERE / "pace.py")], cwd=root, env=env, text=True,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        )
    try:
        if pacer is not None and pacer.stdout.readline().strip() != "ready":
            raise HarnessError("the calibrator did not start")
        spawned = time.monotonic_ns()
        proc = subprocess.Popen(
            cmd, cwd=root, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        out = _finish(proc, f"{mode} pass", payload)
    finally:
        if pacer is not None:
            pacer.send_signal(signal.SIGTERM)
            samples = _finish(pacer, "the calibrator")
    result = json.loads(out)
    result["t_spawn"] = spawned
    result["wall_s"] = (time.monotonic_ns() - spawned) / 1e9
    if pacer is not None:
        result["pace"] = json.loads(samples)
    return result


def _pace(result, start, end):
    """Reference chunk time over the measured one, from start to end."""
    chunk_ns = pace.chunk_ns(result["pace"], result[start], result[end])
    if chunk_ns is None:
        raise HarnessError(f"the calibrator ran too few chunks between {start} and {end}")
    return pace.REFERENCE_CHUNK_NS / chunk_ns


def pass_numbers(result):
    setup_pace = _pace(result, "t_spawn", "t_setup")
    run_pace = _pace(result, "t_setup", "t_run")
    setup_cpu_s = result["cpu_setup"] / 1e9
    run_cpu_s = (result["cpu_run"] - result["cpu_setup"]) / 1e9
    return {
        "setup_s": setup_cpu_s * setup_pace,
        "run_s": run_cpu_s * run_pace,
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        "setup_cpu_s": setup_cpu_s,
        "run_cpu_s": run_cpu_s,
        "setup_pace": setup_pace,
        "run_pace": run_pace,
        "setup_wall_s": (result["t_setup"] - result["t_spawn"]) / 1e9,
        "run_wall_s": (result["t_run"] - result["t_setup"]) / 1e9,
        "interpreter_start_s": (result["t_start"] - result["t_spawn"]) / 1e9,
        "import_s": (result["t_import"] - result["t_start"]) / 1e9,
        "wall_s": result["wall_s"],
    }


def check_outcomes(items, result, references):
    failures = []
    for item, outcome in zip(items, result["outcomes"]):
        reason = oracle.check(item, outcome, references)
        if reason is not None:
            failures.append({"item": item["id"], "reason": reason})
    return failures


def layer_metrics(traced, counted, overhead):
    """Per-layer metrics: medians of self times over the traced passes,
    each rescaled by its pass's pace, counts from the first traced pass
    and from the counting pass."""
    metrics = {}
    for name, unit, source in LAYER_METRICS:
        kind = source[0]
        if kind == "overhead":
            value = overhead
        elif kind == "scalar":
            value = counted["counts"][source[1]]
        elif kind == "self":
            value = statistics.median(
                t["trace"]["by_name"].get(source[1], {}).get("self_ns", 0) / 1e9
                * _pace(t, "t_start", "t_run")
                for t in traced
            )
        else:
            trace = traced[0]["trace"]
            entry = trace["by_name"].get(source[1], {})
            value = {
                "calls": entry.get("calls", 0),
                "outer": entry.get("outer_calls", 0),
                "count": trace["counts"].get(source[1], 0),
                "max": trace["maxima"].get(source[1], 0),
            }[kind]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _counts_of(trace):
    return (
        {name: (e["calls"], e["outer_calls"]) for name, e in trace["by_name"].items()},
        trace["counts"],
        trace["maxima"],
    )


def measure(root, workload, seed, seconds, trace, out_dir):
    """Run one workload; returns (result line, record, readable lines)."""
    items, notes = workloads.generate(workload, seed, root / "src" / "tracelab" / "scenarios")
    ref_path = HERE / "reference" / f"{workload}.json"
    references = json.loads(ref_path.read_text(encoding="utf-8")) if ref_path.exists() else {}
    env = child_env(root)
    # unmeasured: byte-compiles the package and pages in its imports
    warm = spawn(root, env, "versions", [])

    plain, traced, counted = [], [], None
    started = time.monotonic()
    spans_dir = out_dir / "spans"
    while True:
        plain.append(spawn(root, env, "plain", items))
        if trace:
            spans_dir.mkdir(parents=True, exist_ok=True)
            path = spans_dir / f"{workload}-seed{seed}-pass{len(traced)}.json.gz"
            traced.append(spawn(root, env, "trace", items, str(path)))
        elapsed = time.monotonic() - started
        step = plain[-1]["wall_s"] + (traced[-1]["wall_s"] if trace else 0.0)
        enough = len(traced) >= MIN_TRACED_PASSES if trace else len(plain) >= MIN_PASSES
        if len(plain) >= MAX_PASSES or (enough and elapsed + step > seconds):
            break
    if trace:
        counted = spawn(root, env, "count", items)

    all_passes = plain + traced + ([counted] if counted else [])
    failures = []
    for result in all_passes:
        failures.extend(check_outcomes(items, result, references))
    attempted = len(items) * len(all_passes)

    numbers = [pass_numbers(r) for r in plain]
    summary = {k: statistics.median(n[k] for n in numbers) for k in numbers[0]}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "items": [item["id"] for item in items],
        "inputs": notes,
        "hygiene": {
            "passes": "one child interpreter per pass, run sequentially",
            "thread_variables": {name: env[name] for name in THREAD_VARIABLES},
            "PYTHONHASHSEED": env["PYTHONHASHSEED"],
            "nproc": os.cpu_count(),
            "pinned_cpu": sorted(os.sched_getaffinity(0)),
            "calibrator": {"nice": pace.NICE, "reference_chunk_ns": pace.REFERENCE_CHUNK_NS},
            "machine": platform.machine(),
            **warm["versions"],
        },
        "warmup_s": warm["wall_s"],
        "plain_passes": numbers,
        "summary": summary,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
    }
    problems = []
    if trace:
        traced_numbers = [pass_numbers(r) for r in traced]
        overhead = statistics.median(n["run_s"] for n in traced_numbers) / summary["run_s"]
        metrics = layer_metrics(traced, counted, overhead)
        record["traced_passes"] = [
            {**n, "spans": r["trace"]["spans"], "self_sum_s": r["trace"]["self_sum_ns"] / 1e9,
             "self_sum_within_wall": r["trace"]["self_sum_ns"] <= r["trace"]["wall_ns"]}
            for n, r in zip(traced_numbers, traced)
        ]
        record["layers"] = traced[0]["trace"]["by_name"]
        missing = traced[0]["trace"]["missing_targets"] + counted["counts"]["missing_targets"]
        if missing:
            problems.append(f"wrapped entry points not found: {', '.join(missing)}")
        if not all(p["self_sum_within_wall"] for p in record["traced_passes"]):
            problems.append("self times sum to more than the wall time of a traced pass")
        if any(_counts_of(r["trace"]) != _counts_of(traced[0]["trace"]) for r in traced):
            problems.append("counts differ between traced passes")
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}
    record["problems"] = problems
    record["metrics"] = metrics
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    line = {"correct": not failures and not problems, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    text = [
        f"{workload} seed={seed}: {len(plain)} untraced passes of {len(items)} items"
        + (f", {len(traced)} traced, 1 counting" if trace else ""),
        f"  setup_s      {summary['setup_s']:.4f} s   (paced median of {len(plain)}; wall {summary['setup_wall_s']:.4f} s)",
        f"  run_s        {summary['run_s']:.4f} s   (paced median of {len(plain)}; wall {summary['run_wall_s']:.4f} s)",
        f"  peak_rss_mb  {summary['peak_rss_mb']:.1f} MB  (median of {len(plain)})",
        f"  fail_ratio   {len(failures) / attempted:.4f} ratio ({len(failures)} of {attempted} item runs)",
    ]
    for failure in failures[:5]:
        text.append(f"  FAILED {failure['item']}: {failure['reason']}")
    for problem in problems:
        text.append(f"  TRACE CHECK FAILED: {problem}")
    return line, record, text


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tracelab" / "__init__.py").is_file():
        print("perfbench: run from the root of a tracelab checkout (no src/tracelab here)",
              file=sys.stderr)
        return 2
    # every pass and its calibrator inherit this one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out_dir = root / ".perfbench"
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    lines, table = {}, []
    try:
        for name in names:
            line, record, text = measure(root, name, args.seed, args.seconds, args.trace, out_dir)
            print("\n".join(text))
            print(json.dumps(record), flush=True)
            lines[name] = line
            table.append((name, record, line))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(lines[args.workload]))
        return 0
    print(f"{'workload':<14} {'setup_s':>10} {'run_s':>10} {'peak_rss_mb':>12} {'fail_ratio':>11}")
    for name, record, line in table:
        m = record["summary"]
        print(f"{name:<14} {m['setup_s']:>8.4f} s {m['run_s']:>8.4f} s {m['peak_rss_mb']:>9.1f} MB"
              f" {line['failed'] / line['attempted']:>11.4f}")
    print(json.dumps(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
