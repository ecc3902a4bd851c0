"""The machine-speed probe that puts every benchmark time at reference speed.

On a shared host the speed of a core drifts: the same pure-Python loop
takes from 1.0 to 1.6 times its fastest time, in stretches from tens of
milliseconds to minutes, and two sets of runs minutes apart see different
mixes of those stretches.  A wall-clock time then measures the host as much
as the program.

So the timed loop runs this fixed kernel (about 0.3 ms) between ops, every
`INTERVAL_S` seconds, and every op's wall time is scaled by REF_KERNEL_S over
the median kernel time of the WINDOW probes before and the WINDOW probes
after it.  The result is the op's time at the speed where the kernel takes
REF_KERNEL_S.  Set-up is scaled the same way, by the median of
SETUP_REPEATS kernel runs before and after it.  The kernel is the kind of work
isocat does (fraction-free integer elimination with growing entries, gcd
normalisation of rows, tuple-keyed dicts), written here without any isocat
code, so no change to the engine can change the probe.

A probe runs with the garbage collector off and frees all it allocates, so
it leaves the collector's counts as it found them: probes, which fall at
times that differ between runs, do not move the engine's collections to
other ops.  The caller keeps the probe readings in arrays of numbers, which
the collector does not count either.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
from time import perf_counter

# the kernel's time on a 2-vCPU Xeon with Python 3.11.7 in its fast state;
# a scaled time is in "ms at reference speed", comparable across runs
REF_KERNEL_S = 0.2e-3
INTERVAL_S = 0.025      # between probes in the timed loop
WINDOW = 4              # probes on each side of an op that set its speed
SETUP_REPEATS = 15      # kernel runs on each side of set-up

_rng = random.Random("isocat-bench-calibrate")
_MATRIX = [[_rng.randint(-9, 9) for _ in range(10)] for _ in range(10)]
_ROWS = [[_rng.randint(-10**6, 10**6) * 6 for _ in range(12)] for _ in range(12)]


def kernel() -> int:
    # fraction-free Gaussian elimination, as in exact linear algebra
    rows = [list(r) for r in _MATRIX]
    n, prev, rank = len(rows), 1, 0
    for c in range(n):
        p = next((i for i in range(rank, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        pivot_row, pivot = rows[rank], rows[rank][c]
        for i in range(rank + 1, n):
            f = rows[i][c]
            rows[i] = [(pivot * x - f * y) // prev for x, y in zip(rows[i], pivot_row)]
        prev, rank = pivot, rank + 1
    # content removal, as in normalising a matrix of integers
    total = 0
    for row in _ROWS:
        g = 0
        for x in row:
            g = math.gcd(g, x)
        total += sum(x // g for x in row)
    # tuple-keyed dictionaries, as in bases and caches
    table = {}
    for i in range(200):
        table[(i % 13, i % 7, i)] = (i, i * i)
    return rank + total + len(table) + rows[-1][-1] % 97


def probe(repeats: int = 1) -> float:
    """The kernel's time now, in seconds: the median of `repeats` runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            t = perf_counter()
            kernel()
            times.append(perf_counter() - t)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` of wall time at reference speed, from probes around it."""
    return seconds * REF_KERNEL_S * 2 / (before + after)


def scale_ops(latencies, probe_at, probe_s) -> list[float]:
    """Op latencies at reference speed.

    Probe j ran before op `probe_at[j]` and read `probe_s[j]` seconds, in
    run order, with at least WINDOW probes before the first op and after the
    last.
    """
    out, j = [], 0
    for i, lat in enumerate(latencies):
        while probe_at[j + 1] <= i:
            j += 1
        # probe j is the last one before op i, probe j + 1 the first after
        near = probe_s[max(0, j - WINDOW + 1):j + 1 + WINDOW]
        out.append(lat * REF_KERNEL_S / statistics.median(near))
    return out
