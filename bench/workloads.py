"""The four benchmark workloads, built from a seed against isocat's public API.

Each workload's `setup(seed, scale)` does the set-up that `setup_s` times
(scenario construction, root systems, seeded input generation) and returns
the op list.  An op's `call` is the timed part: one engine call plus a cheap
extraction of a compact answer.  `judge` runs after the timed phase and
compares every answer with an oracle from `oracles.py`.

`scale` is the requested measuring time over 10 seconds.  The op list is
sized from it, never from a clock, so two commits always do the same work
and the answer digest of a (workload, seed, seconds) triple is fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from isocat import checks
from isocat.catalog import FINITE_TYPE_IDS, catalog_scenario
from isocat.extcat import CERTIFIED, decompose, direct_sum_many, euler_form, ext1, hom
from isocat.reptype import construct_indecomposable, indecomposable_vectors
from isocat.samples import random_object_with, random_scenario

import oracles

# the criterion-3 sweep of the acceptance gate
SWEEP_SCENARIOS = ["d4_elliptic", "c3_surface", "g2_threefold", "c2", "b2_dual",
                   "a3", "two_surfaces", "product_no_coupling"]
WIDE_SCENARIOS = ["d4_elliptic", "g2_threefold", "c3_surface"]
# pairs per round and scenario at m = 3 and 4, and per run and scenario at
# m = 5.  Op cost falls in groups by scenario, multiplicity and kind, and the
# seeded eta moves each op by up to 20%.  The median and the tail sit still
# only inside a group of many ops: the median falls among the m = 3 ext1 ops,
# and the tail (ten ops beyond it) among the m = 4 ext1 ops, above which only
# the five or six slowest m = 5 ops lie.  Each further m = 5 pair pushes the
# tail up into the few ops of the m = 5 groups.
WIDE_PAIRS = {3: 8, 4: 5}
WIDE_TOP_M = 5
CHECK_SCENARIOS = ["c3_surface", "g2_threefold", "d4_elliptic"]
CHECK_SAMPLES = 100   # as in `isocat check --samples 100`
CHECK_REPS_PER_10S = 4
ROOT_TABLE_SEED = 2026  # as in the acceptance gate and `isocat indec --seed 2026`


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    meta: dict = field(default_factory=dict)


def _no_flags(ops, answers) -> tuple[int, int]:
    return 0, 0


@dataclass
class Plan:
    ops: list[Op]
    # per-op oracle verdicts (None = agrees), for the answers of the ops run
    judge: Callable[[list[Op], list[Any]], list[str | None]]
    # (ops that carry a certification flag, of which not certified)
    certification: Callable[[list[Op], list[Any]], tuple[int, int]] = _no_flags


def _sized(per_10s: float, scale: float, floor: int = 1) -> int:
    return max(floor, round(per_10s * scale))


# ----------------------------------------------------------------------
# euler-small: many sub-millisecond Euler forms, hot hom cache
# ----------------------------------------------------------------------

def balanced_multiplicities(s, rng: random.Random, copies: int = 3) -> list[dict[str, int]]:
    """`3 * copies` multiplicity vectors with entries in {0, 1, 2}.

    At every vertex each value occurs exactly `copies` times, and the shuffle
    decides how the vertices combine.  Marginally each vector is uniform, as
    in `random_object`.
    """
    columns = {}
    for v in s.vertex_order():
        col = [0, 1, 2] * copies
        rng.shuffle(col)
        columns[v] = col
    return [{v: columns[v][i] for v in columns} for i in range(3 * copies)]


def setup_euler_small(seed: int, scale: float) -> Plan:
    # the criterion-3 mix: the sweep catalog plus the gate's four random
    # scenarios, drawn from the gate's own fixed seed; the benchmark seed
    # draws the objects
    gen = random.Random("acc3-scenarios")
    scenarios = ([catalog_scenario(name) for name in SWEEP_SCENARIOS]
                 + [random_scenario(gen) for _ in range(4)])
    ops = []
    # five rounds at 15 s: the tail is the eleventh slowest of the few large
    # pairs of each round, and three rounds left it 10% apart between seeds
    for r in range(_sized(10 / 3, scale)):
        for k, s in enumerate(scenarios):
            # the multiplicities are a fixed design: the few pairs of large
            # objects on the 4-vertex number-field scenario set the run's
            # cost and tail, and a seeded draw of them moved both by 30%.
            # The seed draws every eta.
            design = balanced_multiplicities(s, random.Random(f"euler-small:design:{r}:{k}"))
            rng = random.Random(f"euler-small:{seed}:{r}:{k}")
            pool = [random_object_with(s, mult, rng) for mult in design]
            for a in pool:
                for b in pool:
                    ops.append(Op("euler", lambda a=a, b=b: euler_form(a, b),
                                  {"s": s, "a": a, "b": b}))
    # interleave the scenarios: the slow pairs then fall at many moments of
    # the run, and the tail does not hang on the machine's speed in one
    # stretch of it
    random.Random(f"euler-small:{seed}:order").shuffle(ops)

    def judge(ops, answers):
        out = []
        for op, ans in zip(ops, answers):
            m = op.meta
            out.append(None if ans is None else
                       oracles.check_hom_ext(m["s"], m["a"], m["b"], ans, 0))
        return out

    return Plan(ops, judge)


# ----------------------------------------------------------------------
# hom-wide: large hom / ext1 calls, elimination-bound
# ----------------------------------------------------------------------

def setup_hom_wide(seed: int, scale: float) -> Plan:
    scenarios = [catalog_scenario(name) for name in WIDE_SCENARIOS]
    pairs = []

    def pair(s, m, tag):
        rng = random.Random(f"hom-wide:{seed}:{tag}:{s.name}:{m}")
        mult = {v: m for v in s.vertex_order()}
        a = random_object_with(s, mult, rng)
        b = random_object_with(s, mult, rng)
        meta = {"s": s, "a": a, "b": b, "m": m}
        pairs.append([Op("hom", lambda a=a, b=b: len(hom(a, b)), meta),
                      Op("ext1", lambda a=a, b=b: ext1(a, b).dim, meta)])

    for r in range(_sized(1.4, scale)):
        for s in scenarios:
            for m, count in WIDE_PAIRS.items():
                for p in range(count):
                    pair(s, m, f"{r}:{p}")
    for p in range(_sized(0.6, scale)):
        for s in scenarios:
            pair(s, WIDE_TOP_M, f"top:{p}")
    # interleave the pairs, as in euler-small; a pair's hom and ext1 ops
    # stay adjacent
    random.Random(f"hom-wide:{seed}:order").shuffle(pairs)
    ops = [op for p in pairs for op in p]

    def judge(ops, answers):
        # each pair's hom and ext1 ops are adjacent; a mismatch is one failure,
        # booked on the ext1 op
        out = []
        for i, (op, ans) in enumerate(zip(ops, answers)):
            h = answers[i - 1]
            if op.kind == "hom" or ans is None or h is None:
                out.append(None)
                continue
            m = op.meta
            out.append(oracles.check_hom_ext(m["s"], m["a"], m["b"], h, ans))
        return out

    return Plan(ops, judge)


# ----------------------------------------------------------------------
# decompose-ks: root table construction, then Krull-Schmidt on sums
# ----------------------------------------------------------------------

def _decomposition(z):
    dec = decompose(z)
    return [dec.flag, sorted(oracles.dim_vector(sm.object) for sm in dec.summands)]


def balanced_sums(n_roots: int, rng: random.Random) -> list[list[int]]:
    """Root-index multisets: `n_roots` sums of each size 1..4.

    Among the sums of size k every root occurs exactly k times; the shuffle
    decides which roots meet in one sum.
    """
    sums = []
    for k in range(1, 5):
        pool = [i for i in range(n_roots) for _ in range(k)]
        rng.shuffle(pool)
        sums += [sorted(pool[j:j + k]) for j in range(0, len(pool), k)]
    return sums


def setup_decompose_ks(seed: int, scale: float) -> Plan:
    rounds = _sized(1, scale)
    construct_ops, sum_ops, draw_ops = [], [], []
    for name in FINITE_TYPE_IDS:
        s = catalog_scenario(name)
        engine_roots = indecomposable_vectors(s)
        bench_roots = oracles.positive_roots(s)
        table: dict[int, Any] = {}

        def construct(i, root, s=s, table=table):
            # the seeds of `build_root_table(s, seed=2026)`
            z = construct_indecomposable(s, root, ROOT_TABLE_SEED + 1000 * i)
            table[i] = z
            return oracles.dim_vector(z)

        for i, root in enumerate(engine_roots):
            construct_ops.append(Op("construct", partial(construct, i, root),
                                    {"root": root, "roots": bench_roots}))

        # which roots meet in a sum, and in which order, is one fixed balanced
        # design per round.  A draw of which roots meet decided the run's
        # slowest sums, and so its tail; a seeded order of the summands
        # decided the largest transient of a decompose, and moved peak_rss_mb
        # by 2.5 MB (10%) between seeds.
        rng = random.Random(f"decompose-ks:design:{name}:order")
        design = [p for r in range(rounds) for p in balanced_sums(
            len(engine_roots), random.Random(f"decompose-ks:design:{name}:{r}"))]
        for picks in design:
            rng.shuffle(picks)
        for picks in design:

            def decompose_sum(picks=picks, table=table):
                total, _, _ = direct_sum_many([table[i] for i in picks])
                return _decomposition(total)

            sum_ops.append(Op("decompose-sum", decompose_sum,
                              {"picks": picks, "table": table, "roots": bench_roots}))

        # a fixed multiplicity design, as in euler-small; the seed draws eta
        rng = random.Random(f"decompose-ks:{seed}:{name}:draws")
        for mult in [m for r in range(rounds) for m in balanced_multiplicities(
                s, random.Random(f"decompose-ks:design:{name}:draws:{r}"), copies=4)]:
            z = random_object_with(s, mult, rng)
            draw_ops.append(Op("decompose-draw", lambda z=z: _decomposition(z),
                               {"vector": oracles.dim_vector(z), "roots": bench_roots}))

    def judge(ops, answers):
        out = []
        for op, ans in zip(ops, answers):
            m = op.meta
            if ans is None:
                out.append(None)
            elif op.kind == "construct":
                out.append(None if tuple(ans) == tuple(m["root"]) and tuple(ans) in m["roots"]
                           else f"constructed vector {ans} is not the root {m['root']}")
            elif op.kind == "decompose-sum":
                flag, vecs = ans
                picked = [oracles.dim_vector(m["table"][i]) for i in m["picks"]]
                total = tuple(map(sum, zip(*picked)))
                certified = flag == CERTIFIED
                out.append(oracles.check_decomposition(
                    total, vecs, m["roots"] if certified else None,
                    picked if certified else None))
            else:
                flag, vecs = ans
                out.append(oracles.check_decomposition(
                    m["vector"], vecs, m["roots"] if flag == CERTIFIED else None))
        return out

    def certification(ops, answers):
        # a construct op only returns certified objects
        flags = [a[0] for op, a in zip(ops, answers) if op.kind != "construct" and a]
        return len(answers), sum(f != CERTIFIED for f in flags)

    # after the root table, interleave the scenarios, as in euler-small, in
    # a fixed order: a sum's largest transient depends on which hom bases
    # earlier ops have cached, and a seeded order moved peak_rss_mb by 10%
    decompose_ops = sum_ops + draw_ops
    random.Random("decompose-ks:order").shuffle(decompose_ops)
    return Plan(construct_ops + decompose_ops, judge, certification)


# ----------------------------------------------------------------------
# check-suite: `isocat check --samples 100`, one op per suite sample
# ----------------------------------------------------------------------

def suite_plan(scenarios, check_seed: int, samples: int) -> list[Op]:
    """The per-sample drive of `checks.run_all(s, check_seed, samples)`.

    Every suite draws its samples from one generator in sequence, so calling
    it once per sample on the same generator reproduces `run_all`.  The suite
    function is looked up on `checks` at call time, so a traced run sees the
    wrapped one.
    """
    ops = []
    for s in scenarios:
        for k, (name, suite, weight) in enumerate(checks.SUITES):
            rng = random.Random(f"{check_seed}:{k}")
            for _ in range(max(1, int(samples * weight))):
                def sample(s=s, rng=rng, fname=suite.__name__):
                    res = getattr(checks, fname)(s, rng, 1)
                    return [res.passed, len(res.failures)]

                ops.append(Op("check", sample, {"scenario": s.name, "suite": name}))
    return ops


def interleave(streams: list[list[Op]], rng: random.Random) -> list[Op]:
    """A seeded merge of the streams that keeps the order inside each one."""
    slots = [k for k, stream in enumerate(streams) for _ in stream]
    rng.shuffle(slots)
    heads = [iter(stream) for stream in streams]
    return [next(heads[k]) for k in slots]


def setup_check_suite(seed: int, scale: float) -> Plan:
    streams: list[list[Op]] = []
    for rep in range(_sized(CHECK_REPS_PER_10S, scale)):
        # fresh scenarios per repetition, as each `isocat check` builds its own
        scenarios = [catalog_scenario(name) for name in CHECK_SCENARIOS]
        by_suite: dict[tuple[str, str], list[Op]] = {}
        for op in suite_plan(scenarios, seed + 1_000_000 * rep, CHECK_SAMPLES):
            by_suite.setdefault((op.meta["scenario"], op.meta["suite"]), []).append(op)
        streams += by_suite.values()
    # each suite's samples draw in sequence from its own generator, so they
    # keep their order; across suites, scenarios and repetitions the samples
    # interleave, as in euler-small.  In run_all order the slowest samples
    # (decompose-recompose on g2_threefold) come in bursts of a few hundred
    # milliseconds, and the tail hung on the machine's speed in those bursts.
    ops = interleave(streams, random.Random(f"check-suite:{seed}:order"))
    # `run_all` computes the ring centre once per suite run, where one call
    # per sample would compute it on every sample: keep one per scenario
    centers = {}
    engine_ring_center = checks.ring_center

    def ring_center_once(s):
        if id(s) not in centers:
            centers[id(s)] = engine_ring_center(s)
        return centers[id(s)]

    checks.ring_center = ring_center_once
    # the suites keep decompose's flag to themselves; count it on the way out
    flags = []
    engine_decompose = checks.decompose

    def counted_decompose(z):
        dec = engine_decompose(z)
        flags.append(dec.flag)
        return dec

    checks.decompose = counted_decompose

    def judge(ops, answers):
        return [None if ans is None or ans == [1, 0] else f"suite {op.meta['suite']} on "
                f"{op.meta['scenario']} reported {ans[1]} failure(s)"
                for op, ans in zip(ops, answers)]

    def certification(ops, answers):
        return len(flags), sum(f != CERTIFIED for f in flags)

    return Plan(ops, judge, certification)


WORKLOADS = {
    "euler-small": setup_euler_small,
    "hom-wide": setup_hom_wide,
    "decompose-ks": setup_decompose_ks,
    "check-suite": setup_check_suite,
}
