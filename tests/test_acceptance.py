"""Acceptance gate: every criterion at its stated sample counts.

Each test prints one PASS line on success (run with -s to see them); a
failing assertion is the corresponding FAIL.  All counts here are the
stated minimums, not tuned-down stand-ins.
"""

import random

from isocat.catalog import FINITE_TYPE_IDS, catalog_scenario
from isocat.exactalg import RatMatrix, algebra_center, radical
from isocat.extcat import (
    decompose,
    direct_sum_many,
    end_algebra,
    ext1,
    euler_form,
    hom,
    is_projective,
    is_universal,
    projective_resolution,
    simple_y_object,
    torsion_pair,
    universal_extension_of,
    verify_short_exact,
    x_only,
    y_only,
)
from isocat.reptype import build_root_table, classify, highest_root_d4, indecomposable_vectors
from isocat.samples import random_object, random_scenario, random_short_exact
from isocat.species import ValuedGraph, cartan_matrix, positive_roots, ring_center, valued_graph
from isocat.wittmod import (
    WittPartition,
    find_invertible_intertwiner,
    realize_partition,
    witt_partition,
)

from test_extcat import end_y_algebra
from test_wittmod import conjugated_realization

SWEEP_SCENARIOS = ["d4_elliptic", "c3_surface", "g2_threefold", "c2", "b2_dual",
                   "a3", "two_surfaces", "product_no_coupling"]


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


# ----------------------------------------------------------------------
# 1. classification of the catalog scenarios
# ----------------------------------------------------------------------

def test_criterion_1_classification():
    expected = {
        "d4_elliptic": ("finite", "D4"),
        "c3_surface": ("finite", "C3"),
        "g2_threefold": ("finite", "G2"),
    }
    for name, (verdict, diagram) in expected.items():
        c = classify(catalog_scenario(name))
        assert (c.verdict, c.diagram) == (verdict, diagram), name
        assert c.case == diagram
    c = classify(catalog_scenario("two_surfaces"))
    assert c.verdict == "infinite" and c.diagram == "not-dynkin"
    _report(1, "catalog classification D4 / C3 / G2 / infinite, exact")


# ----------------------------------------------------------------------
# 2. positive-root counts against the Lie-dimension oracle
# ----------------------------------------------------------------------

LIE_DIM = {"A2": 8, "A3": 15, "B2": 10, "C2": 10, "B3": 21, "C3": 21,
           "D4": 28, "G2": 14}
RANK = {"A2": 2, "A3": 3, "B2": 2, "C2": 2, "B3": 3, "C3": 3, "D4": 4, "G2": 2}


def _oracle(name):
    return (LIE_DIM[name] - RANK[name]) // 2


def test_criterion_2_root_counts():
    cases = {
        "a2": ("A2", 3), "c2": ("C2", 4), "b2_dual": ("B2", 4),
        "a3": ("A3", 6), "g2_threefold": ("G2", 6), "c3_surface": ("C3", 9),
        "d4_elliptic": ("D4", 12),
    }
    for scen, (name, count) in cases.items():
        roots = positive_roots(cartan_matrix(valued_graph(catalog_scenario(scen))))
        assert len(roots) == count == _oracle(name), scen
    # B3 has no catalog scenario; enumerate it from its valued graph
    b3 = ValuedGraph(["1", "0", "2"], [("0", "1", 1, 1), ("0", "2", 1, 2)])
    roots = positive_roots(cartan_matrix(b3))
    assert len(roots) == 9 == _oracle("B3")
    # unique highest root of the D4 star with multiplicities (2; 1, 1, 1)
    d4 = catalog_scenario("d4_elliptic")
    rd = cartan_matrix(valued_graph(d4))
    center = rd.vertices.index("u")
    highest = [r for r in positive_roots(rd) if r[center] == 2]
    assert len(highest) == 1 and sorted(highest[0]) == [1, 1, 1, 2]
    _report(2, "root counts A2:3 B2/C2:4 A3:6 G2:6 B3/C3:9 D4:12, (dim-rank)/2 "
               "cross-check, highest D4 root (2;1,1,1)")


# ----------------------------------------------------------------------
# 3. five-term exact sequence on 2000 seeded pairs, 8 scenarios
# ----------------------------------------------------------------------

def test_criterion_3_five_term_sequence():
    gen = random.Random("acc3-scenarios")
    sweep = [catalog_scenario(name) for name in SWEEP_SCENARIOS]
    sweep += [random_scenario(gen) for _ in range(4)]
    pairs_per_scenario = 170
    total = 0
    for k, s in enumerate(sweep):
        rng = random.Random(f"acc3:{k}")
        for _ in range(pairs_per_scenario):
            a = random_object(s, rng)
            b = random_object(s, rng)
            euler_form(a, b)  # raises on any violation of the identity
            total += 1
    assert total >= 2000 and len(sweep) >= 5
    _report(3, f"Euler identity exact on {total} random pairs over "
               f"{len(sweep)} scenarios ({len(sweep) - len(SWEEP_SCENARIOS)} random)")


# ----------------------------------------------------------------------
# 4. heredity: length-1 resolutions, projective terms, ext probes
# ----------------------------------------------------------------------

def test_criterion_4_heredity_and_projectives():
    resolutions = 0
    scenarios = ["d4_elliptic", "c3_surface", "g2_threefold", "c2", "b2_dual"]
    seen_projectives = {}
    for k, name in enumerate(scenarios):
        s = catalog_scenario(name)
        rng = random.Random(f"acc4:{k}")
        for _ in range(100):
            z = random_object(s, rng)
            res = projective_resolution(z)
            res.verify()
            for p in (res.p1, res.p0):
                assert is_projective(p)
                assert all(p.eta[x].rank() == p.eta[x].cols for x in s.x_ids)
                seen_projectives.setdefault((name, p.dimension_vector()), p)
            assert is_projective(z) == all(z.eta[x].rank() == z.eta[x].cols
                                           for x in s.x_ids)
            resolutions += 1
    assert resolutions >= 500
    # ext vanishing probed per distinct projective class (ext1 only depends
    # on the isomorphism class, pinned by the dimension vector here)
    probes = 0
    for (name, dims), p in seen_projectives.items():
        s = p.scenario
        rng = random.Random(f"acc4-probe:{name}:{dims}")
        for _ in range(100):
            target = random_object(s, rng, max_mult=1)
            assert ext1(p, target).dim == 0
            probes += 1
    _report(4, f"{resolutions} exact length-1 resolutions; ext1(P,-)=0 on "
               f"{probes} probes over {len(seen_projectives)} projective classes")


# ----------------------------------------------------------------------
# 5. torsion-pair axioms on 200 random short exact sequences
# ----------------------------------------------------------------------

def test_criterion_5_torsion_pair():
    scenarios = ["d4_elliptic", "c3_surface", "g2_threefold", "c2", "b2_dual"]
    ses_count = 0
    for k, name in enumerate(scenarios):
        s = catalog_scenario(name)
        rng = random.Random(f"acc5:{k}")
        for _ in range(40):
            z = random_object(s, rng)
            assert hom(x_only(z), y_only(z)) == []
            inc, proj = torsion_pair(z)
            assert verify_short_exact(inc, proj)
            a_inc, a_proj = random_short_exact(s, rng, max_mult=1)
            assert verify_short_exact(a_inc, a_proj)
            for side in ("x", "y"):
                assert _side_exact(a_inc, a_proj, side)
            ses_count += 1
    assert ses_count >= 200
    _report(5, f"hom vanishing across the pair, exact canonical sequences, "
               f"exact projections on {ses_count} random short exact sequences")


def _side_exact(inc, proj, side):
    s = inc.source.scenario
    ids = s.x_ids if side == "x" else s.y_ids
    min_ = inc.u if side == "x" else inc.v
    mout = proj.u if side == "x" else proj.v
    parts = ((inc.source.x, inc.target.x, proj.target.x) if side == "x"
             else (inc.source.y, inc.target.y, proj.target.y))
    for v in ids:
        a, b, c = parts[0][v].dim, parts[1][v].dim, parts[2][v].dim
        if min_[v].rank() != a or mout[v].rank() != c or a + c != b:
            return False
    return True


# ----------------------------------------------------------------------
# 6. characterizations of universal extensions
# ----------------------------------------------------------------------

def test_criterion_6_universality_consistency():
    samples = 0
    for k, name in enumerate(SWEEP_SCENARIOS):
        s = catalog_scenario(name)
        rng = random.Random(f"acc6:{k}")
        for _ in range(63):
            z = random_object(s, rng, max_mult=1)
            is_universal(z)  # raises InternalConsistencyError on disagreement
            samples += 1
    assert samples >= 500
    # End(E(Y)) == End(Y) as algebras, on every catalog y-simple and sums
    checked = 0
    for name in FINITE_TYPE_IDS + ["two_surfaces", "product_no_coupling"]:
        s = catalog_scenario(name)
        rng = random.Random(f"acc6y:{name}")
        ys = [simple_y_object(s, y) for y in s.y_ids]
        if len(ys) > 1:
            total, _, _ = direct_sum_many(ys)
            ys.append(total)
        for yobj in ys:
            ey = universal_extension_of(yobj)
            assert is_universal(ey).verdict
            endy, _ = end_y_algebra(yobj)
            basis = hom(ey, ey)
            assert len(basis) == endy.dim
            flats = []
            for m in basis:
                row = []
                for v in s.y_ids:
                    row.extend(e for rr in m.v[v].to_fractions() for e in rr)
                flats.append(row)
            if flats and any(row for row in flats):
                assert RatMatrix.from_rows(flats).rank() == len(basis)
            for a in basis:
                for b in basis:
                    comp = a.compose(b)
                    for v in s.y_ids:
                        assert comp.v[v] == a.v[v] * b.v[v]
            checked += 1
    _report(6, f"three characterizations agree on {samples} random objects; "
               f"End(E(Y)) = End(Y) as algebras on {checked} catalog Y")


# ----------------------------------------------------------------------
# 7. centers
# ----------------------------------------------------------------------

def test_criterion_7_centers():
    assert ring_center(catalog_scenario("d4_elliptic")).dim == 1
    s = catalog_scenario("product_no_coupling")
    expected = 0
    for _, handle in s.x_vertices + s.y_vertices:
        center, _ = algebra_center(handle.spec)
        expected += center.dim
    got = ring_center(s).dim
    assert got == expected == 4
    _report(7, "center(d4_elliptic) = Q; uncoupled center splits as the "
               f"sum of vertex centers ({got})")


# ----------------------------------------------------------------------
# 8. Krull-Schmidt at desk scale
# ----------------------------------------------------------------------

def test_criterion_8_krull_schmidt():
    tables = {}
    for name in FINITE_TYPE_IDS:
        s = catalog_scenario(name)
        table = build_root_table(s, seed=2026)
        assert all(e.certified for e in table.entries)
        assert len(table.entries) == len(indecomposable_vectors(s))
        tables[name] = table
    trials = 0
    per_scenario = 29
    for name in FINITE_TYPE_IDS:
        table = tables[name]
        rng = random.Random(f"acc8:{name}")
        for _ in range(per_scenario):
            picks = [rng.choice(table.entries).object
                     for _ in range(rng.randrange(1, 5))]
            total, _, _ = direct_sum_many(picks)
            dec = decompose(total)
            assert dec.flag == "certified"
            got = sorted(sm.object.dimension_vector() for sm in dec.summands)
            want = sorted(p.dimension_vector() for p in picks)
            assert got == want
            trials += 1
    assert trials >= 200
    _report(8, f"one certified indecomposable per root on all {len(tables)} "
               f"finite scenarios; {trials} random-sum recoveries exact")


def test_criterion_8b_highest_root_object():
    z = highest_root_d4(catalog_scenario("d4_elliptic"))
    assert z.dimension_vector() == (2, 1, 1, 1)
    alg = end_algebra(z)
    assert alg.dim - len(radical(alg)) == 1
    assert ext1(z, z).dim == 0
    _report(8, "(supplement) D4 highest-root object certified with End/rad = Q "
               "and no self-extensions")


# ----------------------------------------------------------------------
# 9. Witt classification
# ----------------------------------------------------------------------

def _partitions_of(n):
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


def test_criterion_9_witt_classification():
    count = 0
    for n in range(1, 13):
        for parts in _partitions_of(n):
            p = WittPartition(parts)
            assert witt_partition(realize_partition(p)) == p
            count += 1
    assert count == 271  # number of nonempty partitions of 1..12
    rng = random.Random("acc9")
    pairs = 0
    all_partitions = {n: [WittPartition(t) for t in _partitions_of(n)]
                      for n in range(1, 9)}
    while pairs < 100:
        n = rng.randrange(1, 9)
        p = rng.choice(all_partitions[n])
        q = rng.choice(all_partitions[n])
        m1 = conjugated_realization(p, seed=pairs)
        m2 = conjugated_realization(q, seed=pairs + 7919)
        t = find_invertible_intertwiner(m1, m2, seed=pairs)
        if p == q:
            assert t is not None
            assert t * m1.v_op == m2.v_op * t and t.rank() == m1.dim
        else:
            assert _rank_profile(m1) != _rank_profile(m2)
            assert t is None
        pairs += 1
    _report(9, f"partition roundtrip on all {count} partitions of size <= 12; "
               f"equality <=> invertible intertwiner on {pairs} random pairs")


def _rank_profile(m):
    out = []
    power = RatMatrix.identity(m.dim)
    for _ in range(m.dim):
        power = power * m.v_op
        out.append(power.rank())
    return out


# ----------------------------------------------------------------------
# 10. explicitly out of scope
# ----------------------------------------------------------------------

def test_criterion_10_out_of_scope_documented():
    # existence questions for the underlying varieties and fields are not
    # desk-reproducible; they enter only through user-supplied scenario data
    _report(10, "existence of instantiating varieties/fields excluded by design; "
                "covered only through user-supplied scenarios")
