"""Self-test of the benchmark harness (about a minute on two cores).

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

Not collected by the repository's test run: it starts benchmark passes in
fresh interpreters and is meant to be run when the harness changes.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from isocat import checks  # noqa: E402
from isocat.catalog import FINITE_TYPE_IDS, catalog_scenario  # noqa: E402
from isocat.species import cartan_matrix, positive_roots, valued_graph  # noqa: E402

import calibrate  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_plan(plan, count: int) -> list:
    return [op.call() for op in plan.ops[:count]]


class HarnessTest(unittest.TestCase):
    def test_every_workload_runs_tiny(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                proc = bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                out = last_json(proc)
                self.assertTrue(out["correct"], proc.stdout)
                self.assertEqual(out["failed"], 0)
                self.assertGreater(out["attempted"], 0)

    def test_printed_metrics_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual(spec["command"], ["python3", "bench/run.py"])
        for trace, key, table in ((0, "end_to_end", run.END_TO_END), (1, "per_layer", run.PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            self.assertEqual(declared, {name: unit for name, unit, _ in table})
            self.assertEqual({m["name"]: m["better"] for m in spec[key]},
                             {name: better for name, _, better in table})
            proc = bench("--workload", "decompose-ks", "--seed", "3", "--seconds", "1",
                         "--trace", str(trace))
            self.assertEqual(proc.returncode, 0, proc.stderr)
            printed = last_json(proc)["metrics"]
            self.assertEqual({k: v["unit"] for k, v in printed.items()}, declared)
            for v in printed.values():
                self.assertIsInstance(v["value"], (int, float))

    def test_wrong_dimension_counts_one_failure(self):
        plan = workloads.setup_hom_wide(5, 0.1)
        answers = run_plan(plan, 4)  # the first two (hom, ext1) pairs
        self.assertEqual(plan.judge(plan.ops[:4], answers), [None] * 4)
        answers[1] += 1
        self.assertEqual(sum(v is not None for v in plan.judge(plan.ops[:4], answers)), 1)

        plan = workloads.setup_euler_small(5, 0.1)
        answers = run_plan(plan, 30)
        answers[7] -= 1
        self.assertEqual(sum(v is not None for v in plan.judge(plan.ops[:30], answers)), 1)

        plan = workloads.setup_decompose_ks(5, 0.1)
        answers = [op.call() for op in plan.ops]
        self.assertEqual([v for v in plan.judge(plan.ops, answers) if v], [])
        i = next(i for i, op in enumerate(plan.ops) if op.kind == "decompose-sum")
        answers[i][1][0] = tuple(x + 1 for x in answers[i][1][0])
        self.assertEqual(sum(v is not None for v in plan.judge(plan.ops, answers)), 1)

    def test_reference_speed_scaling(self):
        k, w = calibrate.REF_KERNEL_S, calibrate.WINDOW
        # a machine at half the reference speed: every time halves
        at, slow = [0] * w + [1] + [2] * w, [2 * k] * (2 * w + 1)
        for got, want in zip(calibrate.scale_ops([0.010, 0.030], at, slow), [0.005, 0.015]):
            self.assertAlmostEqual(got, want)
        # an op's speed is the median of the WINDOW probes on each side
        at = [0] * w + [1] * (2 * w - 1) + [2] * w
        kernel = [k] * w + [3 * k] * (3 * w - 1)
        first, second = calibrate.scale_ops([0.030, 0.030], at, kernel)
        self.assertAlmostEqual(first, 0.015)  # k on one side, 3k on the other
        self.assertAlmostEqual(second, 0.010)
        self.assertAlmostEqual(calibrate.scale(0.3, k, 2 * k), 0.2)

    def test_probe_leaves_collector_counts(self):
        import gc
        calibrate.probe()  # the first call sets up lasting state
        before = gc.get_count()[0]
        calibrate.probe(3)
        self.assertEqual(gc.get_count()[0], before)
        self.assertTrue(gc.isenabled())

    def test_suite_drive_reproduces_run_all(self):
        s = catalog_scenario("g2_threefold")
        want = {r.name: (r.passed, len(r.failures)) for r in checks.run_all(s, 11, 6)}
        got: dict[str, list[int]] = {}
        for op in workloads.suite_plan([catalog_scenario("g2_threefold")], 11, 6):
            passed, failed = op.call()
            acc = got.setdefault(op.meta["suite"], [0, 0])
            acc[0] += passed
            acc[1] += failed
        self.assertEqual({k: tuple(v) for k, v in got.items()}, want)

    def test_oracle_roots_match_engine(self):
        for name in FINITE_TYPE_IDS:
            s = catalog_scenario(name)
            engine = set(positive_roots(cartan_matrix(valued_graph(s))))
            self.assertEqual(oracles.positive_roots(s), engine, name)

    def test_ringel_form_matches_euler_form(self):
        from isocat.extcat import euler_form
        from isocat.samples import random_object
        rng = random.Random(4)
        for name in ("c3_surface", "b2_dual", "two_surfaces"):
            s = catalog_scenario(name)
            for _ in range(5):
                a, b = random_object(s, rng), random_object(s, rng)
                self.assertIsNone(oracles.check_hom_ext(s, a, b, euler_form(a, b), 0))

    def test_refuses_without_sources(self):
        bare = os.path.join(run.RESULTS, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(os.path.join(bare, "bench"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for f in os.listdir(HERE):
                if f.endswith((".py", ".json", ".md")):
                    shutil.copy(os.path.join(HERE, f), os.path.join(bare, "bench"))
            proc = bench("--workload", "hom-wide", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
