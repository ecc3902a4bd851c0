"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is `run` (set-up, then the timed closed loop), `setup` (set-up only,
for the repeated `setup_s` samples) or `traced` (a `run` with every layer
wrapped in spans).  `bench/run.py` starts this with a fixed PYTHONHASHSEED
and aggregates the passes; running it by hand is for debugging.

Every time is reported twice: as measured on the wall clock, and scaled to
reference speed with the machine-speed probe of `calibrate.py`, which runs
before and after set-up and between ops every `calibrate.INTERVAL_S`.
"""

from __future__ import annotations

import argparse
import hashlib
from array import array
import json
import os
import resource
import statistics
import sys
from time import perf_counter

from calibrate import INTERVAL_S, SETUP_REPEATS, WINDOW, probe, scale, scale_ops

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# the timed loop stops after this long and the pass reports itself
# incomplete, so that a run always ends within its time limit
DEADLINE_S = 100.0


def _import_engine():
    """Import isocat from this checkout only, never from site-packages."""
    sys.path.insert(0, SRC)
    import isocat
    from isocat import checks, samples  # noqa: F401  (modules the CLI loads)
    if not os.path.abspath(isocat.__file__).startswith(SRC + os.sep):
        raise ImportError(f"isocat imported from {isocat.__file__}, not from {SRC}")


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond); with ten or fewer samples
    there is no such percentile and the maximum is returned with 0 beyond.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records, separators=(",", ":")).encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("run", "setup", "traced"), required=True)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    probe_before = probe(SETUP_REPEATS)
    t_setup = perf_counter()
    _import_engine()
    tracer = None
    if args.mode == "traced":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads  # after install(), so its imported names are the traced ones
    plan = workloads.WORKLOADS[args.workload](args.seed, args.seconds / 10)
    setup_s = perf_counter() - t_setup
    out = {"workload": args.workload, "seed": args.seed, "mode": args.mode, "setup_s": setup_s,
           "setup_ref_s": scale(setup_s, probe_before, probe(SETUP_REPEATS))}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    ops = plan.ops
    answers, latencies, errors, raised = [], [], {}, {}
    # probe j ran before op probe_at[j] and read kernel_s[j] seconds; WINDOW
    # probes before the first op and after the last enclose every op
    probe_at = array("q", [0] * WINDOW)
    kernel_s = array("d", [probe() for _ in range(WINDOW)])
    probe_s = 0.0
    deadline = perf_counter() + DEADLINE_S
    t0 = last_probe = perf_counter()
    for i, op in enumerate(ops):
        if perf_counter() - last_probe >= INTERVAL_S:
            t = perf_counter()
            probe_at.append(i)
            kernel_s.append(probe())
            last_probe = perf_counter()
            probe_s += last_probe - t
        if tracer is not None:
            tracer.op = i
        start = perf_counter()
        try:
            ans = op.call()
        except Exception as ex:  # an op that raises is a failed op; keep going
            ans = None
            raised[i] = type(ex).__name__
            errors[i] = f"{op.kind}: {raised[i]}: {ex}"
        latencies.append(perf_counter() - start)
        answers.append(ans)
        if perf_counter() > deadline:
            break
    wall = perf_counter() - t0 - probe_s
    if tracer is not None:
        tracer.op = -1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    done = len(answers)
    for _ in range(WINDOW):
        probe_at.append(done)
        kernel_s.append(probe())
    ref_latencies = scale_ops(latencies, probe_at, kernel_s)

    verdicts = plan.judge(ops[:done], answers)
    for i, err in enumerate(verdicts):
        if err is not None and i not in errors:
            errors[i] = f"{ops[i].kind}: {err}"
    flagged, uncertified = plan.certification(ops, answers)
    records = [["error", raised[i]] if i in raised else a for i, a in enumerate(answers)]
    by_kind: dict[str, list[float]] = {}
    for op, lat in zip(ops, ref_latencies):
        key = f"{op.kind}.m{op.meta['m']}" if "m" in op.meta else op.kind
        by_kind.setdefault(key, []).append(lat)
    value, pct, beyond = tail(latencies)
    ref_value, _, _ = tail(ref_latencies)
    kernel_sorted = sorted(kernel_s)
    out.update({
        "complete": done == len(ops),
        "attempted": done,
        "completed": done - sum(1 for a in answers if a is None),
        "failed": len(errors),
        "errors": [errors[i] for i in sorted(errors)][:10],
        "flagged_ops": flagged,
        "uncertified": uncertified,
        "wall_s": wall,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": value,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "ref_s": sum(ref_latencies),
        "ref_p50_s": statistics.median(ref_latencies),
        "ref_tail_s": ref_value,
        "probes": len(kernel_s),
        "probe_s": probe_s,
        "kernel_min_s": kernel_sorted[0],
        "kernel_p50_s": statistics.median(kernel_sorted),
        "kernel_max_s": kernel_sorted[-1],
        # medians at reference speed
        "median_by_kind_s": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "count_by_kind": {k: len(v) for k, v in sorted(by_kind.items())},
        "digest": digest(records),
        "peak_rss_mb": peak_rss_mb,
    })
    if args.workload == "check-suite":
        passes: dict[str, int] = {}
        for op, a in zip(ops, answers):
            key = f"{op.meta['scenario']}/{op.meta['suite']}"
            passes[key] = passes.get(key, 0) + (a[0] if a else 0)
        out["suite_passes"] = passes
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
