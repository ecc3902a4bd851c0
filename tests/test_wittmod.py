"""Tests for the nilpotent-operator model of the unipotent isogeny category."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocat.exactalg import RatMatrix
from isocat.wittmod import (
    VModule,
    WittError,
    WittPartition,
    _jordan_frame,
    _rank_sequence,
    find_invertible_intertwiner,
    hom_dim,
    intertwiner_basis,
    realize_partition,
    witt_partition,
)


def conjugated_realization(p, seed):
    """A random change of basis applied to the block realization."""
    base = realize_partition(p)
    n = p.size
    if n == 0:
        return base
    rng = random.Random(seed)
    while True:
        g = RatMatrix.from_rows([[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)])
        if g.rank() == n:
            break
    return VModule(n, g * base.v_op * g.inverse())


def partitions_of(n):
    """All partitions of n, parts descending."""
    if n == 0:
        yield ()
        return
    def rec(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for p in range(min(rest, maxpart), 0, -1):
            for tail in rec(rest - p, p):
                yield (p,) + tail
    yield from rec(n, n)


def test_zero_operator_partition():
    m = VModule(3, RatMatrix.zeros(3, 3))
    assert witt_partition(m).parts == (1, 1, 1)


def test_single_block_partition():
    m = realize_partition(WittPartition((3,)))
    assert witt_partition(m).parts == (3,)


def test_rank_sequence_two_two():
    m = realize_partition(WittPartition((2, 2)))
    v = m.v_op
    assert v.rank() == 2 and (v * v).rank() == 0
    assert witt_partition(m).parts == (2, 2)


def test_non_nilpotent_rejected():
    with pytest.raises(WittError):
        VModule(2, RatMatrix.identity(2))


def dense_rank_sequence(v):
    """[rank(V^0), ..., rank(V^n)] from the dense powers: the reference for `_rank_sequence`."""
    seq, power = [v.rows], RatMatrix.identity(v.rows)
    for _ in range(v.rows):
        power = power * v
        seq.append(power.rank())
    return seq


def test_rank_sequence_matches_dense_powers():
    rng = random.Random("rank-sequence")
    ops = [conjugated_realization(WittPartition(parts), k).v_op
           for k, parts in enumerate([(3, 2, 2, 1), (4, 4), (5, 1, 1), (2, 1)])]
    for n in range(1, 7):  # strictly upper triangular, so nilpotent
        ops.append(RatMatrix.from_rows([[rng.randrange(-4, 5) if j > i else 0 for j in range(n)]
                                        for i in range(n)]))
    ops += [RatMatrix.identity(3), RatMatrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 2]]),
            RatMatrix.from_rows([[rng.randrange(-3, 4) for _ in range(5)] for _ in range(5)])]
    for v in ops:
        assert _rank_sequence(v) == dense_rank_sequence(v)
    # a non-nilpotent operator: the sequence settles at a nonzero rank
    assert _rank_sequence(ops[-2]) == [3, 2, 1, 1]
    with pytest.raises(WittError, match="not nilpotent"):
        VModule(3, ops[-2])


def test_rank_sequence_of_a_large_partition():
    m = realize_partition(WittPartition((200, 100, 20)))
    seq = _rank_sequence(m.v_op)
    assert len(seq) == 321 and seq[:3] == [320, 317, 314] and seq[200:] == [0] * 121
    assert witt_partition(m).parts == (200, 100, 20)


def test_the_rank_sequence_is_computed_once_per_module(monkeypatch):
    import isocat.wittmod as wittmod

    calls = []
    monkeypatch.setattr(wittmod, "_rank_sequence", lambda v: calls.append(v) or _rank_sequence(v))
    p = WittPartition((4, 2, 1))
    assert witt_partition(realize_partition(p)) == p
    assert len(calls) == 1
    v = realize_partition(p).v_op
    calls.clear()
    m = VModule(7, v)
    assert witt_partition(m) == p and len(calls) == 1
    assert m.ranks == (7, 4, 2, 1, 0, 0, 0, 0) and m == realize_partition(p)


def test_roundtrip_all_partitions_up_to_12():
    for n in range(0, 13):
        for parts in partitions_of(n):
            p = WittPartition(parts)
            assert witt_partition(realize_partition(p)) == p


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=0, max_size=5))
def test_roundtrip_random_partitions(parts):
    p = WittPartition(tuple(parts))
    assert witt_partition(realize_partition(p)) == p


def test_hom_dim_formula_against_brute_force():
    rng = random.Random(2)
    for _ in range(20):
        p = WittPartition(tuple(rng.randrange(1, 4) for _ in range(rng.randrange(1, 3))))
        q = WittPartition(tuple(rng.randrange(1, 4) for _ in range(rng.randrange(1, 3))))
        brute = len(intertwiner_basis(realize_partition(p), realize_partition(q)))
        assert hom_dim(p, q) == brute


def test_hom_dim_end_of_single_block():
    for n in range(1, 6):
        p = WittPartition((n,))
        assert hom_dim(p, p) == n
        assert len(intertwiner_basis(realize_partition(p), realize_partition(p))) == n


def test_hom_dim_one_vs_k():
    for k in range(1, 6):
        assert hom_dim(WittPartition((1,)), WittPartition((k,))) == 1


def test_hom_dim_symmetric():
    p = WittPartition((3, 1))
    q = WittPartition((2, 2))
    assert hom_dim(p, q) == hom_dim(q, p)


def test_partition_of_direct_sum_is_multiset_union():
    rng = random.Random(9)
    for _ in range(15):
        p = WittPartition(tuple(rng.randrange(1, 5) for _ in range(rng.randrange(1, 3))))
        q = WittPartition(tuple(rng.randrange(1, 5) for _ in range(rng.randrange(1, 3))))
        a, b = realize_partition(p), realize_partition(q)
        top = a.v_op.hstack(RatMatrix.zeros(a.dim, b.dim))
        bot = RatMatrix.zeros(b.dim, a.dim).hstack(b.v_op)
        total = VModule(a.dim + b.dim, top.vstack(bot))
        assert witt_partition(total) == WittPartition(p.parts + q.parts)


def test_equal_partitions_have_invertible_intertwiner():
    rng = random.Random(4)
    for trial in range(15):
        n = rng.randrange(1, 9)
        parts = []
        rest = n
        while rest:
            k = rng.randrange(1, rest + 1)
            parts.append(k)
            rest -= k
        p = WittPartition(tuple(parts))
        m1 = conjugated_realization(p, seed=trial)
        m2 = conjugated_realization(p, seed=trial + 1000)
        t = find_invertible_intertwiner(m1, m2)
        assert t is not None
        assert t * m1.v_op == m2.v_op * t
        assert t.rank() == m1.dim


def test_distinct_partitions_admit_no_invertible_intertwiner():
    rng = random.Random(6)
    for trial in range(15):
        n = rng.randrange(2, 9)
        ps = [WittPartition(t) for t in partitions_of(n)]
        p, q = rng.sample(ps, 2)
        m1 = conjugated_realization(p, seed=trial)
        m2 = conjugated_realization(q, seed=trial + 500)
        # the certificate: rank sequences differ, so no invertible T can
        # intertwine them; the frame construction agrees
        r1 = [ (m1.v_op if k == 1 else _power(m1.v_op, k)).rank() for k in range(1, n + 1)]
        r2 = [ (m2.v_op if k == 1 else _power(m2.v_op, k)).rank() for k in range(1, n + 1)]
        assert r1 != r2
        assert find_invertible_intertwiner(m1, m2) is None


def test_jordan_frame_conjugates_to_the_block_realization():
    # P^-1 V P is the block realization itself, chain by chain in its order,
    # on conjugated realizations of all 138 partitions of size <= 10
    count = 0
    for n in range(1, 11):
        for parts in partitions_of(n):
            p = WittPartition(parts)
            m = conjugated_realization(p, seed=count)
            frame = _jordan_frame(m)
            assert frame.rank() == n, parts
            assert m.v_op * frame == frame * realize_partition(p).v_op, parts
            count += 1
    assert count == 138
    assert _jordan_frame(VModule(0, RatMatrix.zeros(0, 0))) == RatMatrix.zeros(0, 0)


def test_intertwiner_exists_exactly_for_equal_partitions():
    # every ordered pair of partitions of each n <= 7, as conjugated realizations
    pairs = 0
    for n in range(1, 8):
        ps = [WittPartition(t) for t in partitions_of(n)]
        firsts = [conjugated_realization(p, seed=k) for k, p in enumerate(ps)]
        seconds = [conjugated_realization(p, seed=k + 500) for k, p in enumerate(ps)]
        for p, m1 in zip(ps, firsts):
            for q, m2 in zip(ps, seconds):
                t = find_invertible_intertwiner(m1, m2)
                if p == q:
                    assert t is not None and t.rank() == n and t * m1.v_op == m2.v_op * t, p
                else:
                    assert t is None, (p, q)
                pairs += 1
    assert pairs == 434  # the squares of 1, 2, 3, 5, 7, 11, 15 partitions


def _power(m, k):
    out = RatMatrix.identity(m.rows)
    for _ in range(k):
        out = out * m
    return out
