"""The machine's pace, measured beside each pass.

The CPU a pass runs on is shared with other machines' work, and its speed
drifts by tens of percent over seconds to minutes; the CPU time of a pass
drifts with it.  So each pass runs beside a calibrator: this program, on
the same CPU at a low priority (nice 15, about 3% of the CPU while the
pass computes), repeats one fixed chunk of exact rational arithmetic
(``Fraction`` products and sums kept in a dict, as the exact backend and
sympy do) and records when each chunk ended and the CPU time it had used
by then.  The CPU time a chunk takes over a phase of the pass measures
how fast the CPU ran during that phase, and a phase's CPU time is
rescaled to the reference pace by ``REFERENCE_CHUNK_NS / chunk_ns``.

On a shared 2-core VM the log CPU time of a pass's run phase followed
the log chunk time with a slope of 0.93 to 1.12 on the five workloads
(correlation 0.97 to 0.995), and the set-up phase, mostly imports, with
a slope of 0.75 to 1.0.  A plain integer loop, and random reads over a
few MB of list or dict, tracked the passes less closely (correlation
0.92 to 0.98, slopes 0.64 to 1.9).

Usage: pace.py     (prints "ready", runs until SIGTERM, then prints the
                    chunk end times and CPU times as one JSON object)

The parent pins itself to one CPU before it starts a pass, so the
calibrator and the pass inherit the same CPU.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import sys
import time
from array import array
from fractions import Fraction

NICE = 15
OPERANDS = tuple(Fraction(7919 * k + 1, 104729 + 13 * k) for k in range(64))
CHUNK_STEPS = 40
# CPU time of one chunk at the reference pace: a round figure near what
# it takes on an unloaded 2-core x86-64 VM with Python 3.11.  It only
# fixes the unit of the paced times; comparisons do not depend on it.
REFERENCE_CHUNK_NS = 250_000
# fewest chunks a phase needs for its pace to count as measured
MIN_CHUNKS = 20


def chunk():
    total, table = Fraction(0), {}
    for k in range(CHUNK_STEPS):
        total += OPERANDS[k] * OPERANDS[(7 * k) % 64]
        table[k, k & 3] = total
    return total


def main():
    os.nice(NICE)
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    ends, cpu = array("q"), array("q")
    mono, process = time.monotonic_ns, time.process_time_ns
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    while not stopped:
        chunk()
        ends.append(mono())
        cpu.append(process())
    sys.stdout.write(json.dumps({"ends": ends.tolist(), "cpu": cpu.tolist()}))
    return 0


def chunk_ns(samples, start_ns, end_ns):
    """Mean CPU time of the calibrator's chunks that ran wholly within
    [start_ns, end_ns], or None if fewer than MIN_CHUNKS did."""
    ends, cpu = samples["ends"], samples["cpu"]
    first = bisect.bisect_left(ends, start_ns)
    last = bisect.bisect_right(ends, end_ns) - 1
    if last - first < MIN_CHUNKS:
        return None
    return (cpu[last] - cpu[first]) / (last - first)


if __name__ == "__main__":
    sys.exit(main())
