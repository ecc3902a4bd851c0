"""The isocat benchmark: one workload, one seed, one report.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(`bench/worker.py`) with PYTHONHASHSEED fixed, so the module-level hom cache
starts empty.  With `--trace 0` it makes one timed pass plus set-up-only
passes and prints the end-to-end metrics; with `--trace 1` it makes one
untraced and one traced pass and prints the per-layer metrics.  The last
line of standard output is one JSON object; the full record (machine,
digests, every metric) is written to `bench/results/`.

The times that the JSON line carries are at reference speed: each op's and
each set-up's wall time scaled by the machine-speed probe of
`calibrate.py`, run next to it.  The report prints the wall-clock values
beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

from calibrate import REF_KERNEL_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ("euler-small", "hom-wide", "decompose-ks", "check-suite")
HASH_SEED = "0"
SETUP_SAMPLES = 7       # set-ups per run (odd); setup_s is their median
RUN_LIMIT_S = 170.0     # the whole run, all passes included

# name, unit, better
END_TO_END = [
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
# per-layer metrics that every workload exercises; the traced run reports
# the workload-specific rest in its full record
PER_LAYER = [
    ("exactalg.elim.calls", "count", "lower"),
    ("exactalg.elim.self_s", "s", "lower"),
    ("exactalg.elim.cells", "count", "lower"),
    ("exactalg.elim.peak_bits", "bits", "lower"),
    ("exactalg.ratmatrix.new", "count", "lower"),
    ("exactalg.matmul.calls", "count", "lower"),
    ("exactalg.matmul.self_s", "s", "lower"),
    ("extcat.hom_basis.calls", "count", "lower"),
    ("extcat.hom_basis.self_s", "s", "lower"),
    ("extcat.hom_cache.hit_ratio", "ratio", "higher"),
    ("extcat.hom_cache.entries", "count", "lower"),
    ("extcat.hom.calls", "count", "lower"),
    ("extcat.hom.self_s", "s", "lower"),
    ("samples.random_object.total_s", "s", "lower"),
    ("species.catalog.total_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class RunError(RuntimeError):
    pass


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "platform": platform.platform(),
            "commit": commit(), "PYTHONHASHSEED": HASH_SEED}


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker(args, mode: str, deadline: float, spans_out: str | None = None) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise RunError(f"no time left for a {mode} pass")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} pass did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RunError(f"{mode} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def committed_digest(workload: str, seconds: int, seed: int) -> str | None:
    try:
        with open(DIGESTS) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(f"seconds={seconds}", {}).get(str(seed))


def expected_suite_passes(seconds: int) -> dict[str, int]:
    """What `checks.run_all` reports per scenario and suite when all pass."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from isocat import checks
    import workloads
    reps = workloads._sized(workloads.CHECK_REPS_PER_10S, seconds / 10)
    return {f"{s}/{name}": reps * max(1, int(workloads.CHECK_SAMPLES * weight))
            for s in workloads.CHECK_SCENARIOS for name, _, weight in checks.SUITES}


def verdict(args, passes: list[dict]) -> tuple[bool, list[str]]:
    """Correctness of a run: complete, no failed op, answers as committed."""
    notes = []
    for p in passes:
        if not p["complete"]:
            notes.append(f"{p['mode']} pass stopped at its deadline after {p['attempted']} ops")
        for err in p["errors"]:
            notes.append(f"{p['mode']} pass: {err}")
    digests = {p["digest"] for p in passes}
    if len(digests) > 1:
        notes.append(f"{args.workload}: traced and untraced passes gave different answers")
    pinned = committed_digest(args.workload, args.seconds, args.seed)
    if pinned is not None and pinned not in digests:
        notes.append(f"{args.workload}: answer digest differs from the committed one "
                     f"(seed {args.seed}, seconds {args.seconds})")
    if args.workload == "check-suite":
        want = expected_suite_passes(args.seconds)
        for p in passes:
            if p["suite_passes"] != want:
                notes.append("check-suite: pass counts differ from what run_all reports")
    ok = not notes
    return ok, notes


def end_to_end(main: dict, setups: list[dict]) -> dict[str, tuple[float, str]]:
    return {
        "ops_per_s": (main["completed"] / main["ref_s"], "1/s"),
        "op_p50_ms": (main["ref_p50_s"] * 1e3, "ms"),
        "op_tail_ms": (main["ref_tail_s"] * 1e3, "ms"),
        "setup_s": (statistics.median(p["setup_ref_s"] for p in setups), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "fail_ratio": (main["failed"] / main["attempted"], "ratio"),
        "uncertified_ratio": (main["uncertified"] / max(1, main["flagged_ops"]), "ratio"),
    }


def wall_clock(main: dict, setups: list[dict]) -> dict[str, float]:
    """The time metrics as the wall clock read them, for the report."""
    return {"ops_per_s": main["completed"] / main["wall_s"], "op_p50_ms": main["op_p50_s"] * 1e3,
            "op_tail_ms": main["op_tail_s"] * 1e3,
            "setup_s": statistics.median(p["setup_s"] for p in setups)}


def per_layer(untraced: dict, traced: dict) -> dict[str, tuple[float, str]]:
    out = {k: tuple(v) for k, v in traced["layers"].items()}
    for key, value in untraced["median_by_kind_s"].items():
        kind, _, m = key.partition(".")
        if m:
            out[f"extcat.{kind}.{m}_ms"] = (value * 1e3, "ms")
    out["trace.overhead_ratio"] = (traced["ref_s"] / untraced["ref_s"], "ratio")
    return dict(sorted(out.items()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "isocat", "__init__.py")):
        print(f"error: no isocat sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of an isocat checkout", file=sys.stderr)
        return 2

    deadline = perf_counter() + RUN_LIMIT_S
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-s{args.seconds}")
    try:
        if args.trace:
            main_pass = worker(args, "run", deadline)
            traced = worker(args, "traced", deadline, f"{stem}-spans.json.gz")
            passes = [main_pass, traced]
            metrics = per_layer(main_pass, traced)
            gated = [name for name, _, _ in PER_LAYER]
        else:
            # set-ups on both sides of the timed pass, so that their median
            # spans the machine's speed over the whole run
            setups = [worker(args, "setup", deadline) for _ in range(SETUP_SAMPLES // 2)]
            main_pass = worker(args, "run", deadline)
            setups.append(main_pass)
            setups += [worker(args, "setup", deadline) for _ in range(SETUP_SAMPLES // 2)]
            passes = [main_pass]
            metrics = end_to_end(main_pass, setups)
            wall = wall_clock(main_pass, setups)
            gated = [name for name, _, _ in END_TO_END]
    except RunError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1

    ok, notes = verdict(args, passes)
    report = passes[-1]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(), "correct": ok, "notes": notes,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "wall_clock": None if args.trace else wall, "passes": passes}
    with open(f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    m = record["machine"]
    print(f"isocat benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print(f"machine: Python {m['python']}, nproc {m['nproc']}, {m['cpu']}, "
          f"commit {m['commit'][:12]}, PYTHONHASHSEED={m['PYTHONHASHSEED']}")
    print(f"speed probe: {report['probes']} probes, kernel {report['kernel_min_s'] * 1e3:.3f}/"
          f"{report['kernel_p50_s'] * 1e3:.3f}/{report['kernel_max_s'] * 1e3:.3f} ms "
          f"(min/median/max), reference {REF_KERNEL_S * 1e3:.3f} ms; times below are at "
          "reference speed" + ("" if args.trace else ", wall clock in brackets"))
    for name, (value, unit) in metrics.items():
        extra = ""
        if not args.trace and name in wall:
            extra = f"  [wall {wall[name]:.6g} {unit}]"
        if name == "op_tail_ms":
            extra += (f"  (p{report['tail_percentile']:.2f}, {report['tail_beyond']} samples "
                     f"beyond, {report['attempted']} samples)")
        elif name == "setup_s":
            extra += f"  (median of {len(setups)} set-ups)"
        elif name == "fail_ratio":
            extra = f"  ({report['failed']} of {report['attempted']} ops)"
        elif name == "uncertified_ratio":
            extra = f"  ({report['uncertified']} of {report['flagged_ops']} flagged ops)"
        print(f"  {name:36s} {value:14.6g} {unit}{extra}")
    print(f"digest {report['digest']}"
          + ("" if committed_digest(args.workload, args.seconds, args.seed)
             else "  (no committed digest for this seed and size)"))
    for note in notes:
        print(f"FAIL: {note}")
    print(json.dumps({"correct": ok, "attempted": report["attempted"], "failed": report["failed"],
                      "metrics": {k: record["metrics"][k] for k in gated}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
