"""Tests for classification and construction of indecomposables."""

import random

import pytest

from isocat.catalog import FINITE_TYPE_IDS, catalog_scenario
from isocat.exactalg import AlgebraSpec, radical
from isocat.extcat import decompose, direct_sum_many, end_algebra, ext1, euler_form, hom
from isocat.reptype import (
    build_root_table,
    classify,
    construct_indecomposable,
    highest_root_d4,
    indecomposable_vectors,
    isomorphic,
)
from isocat.species import (
    DivisionAlgebraHandle,
    ScenarioError,
    SpeciesScenario,
    asserted_division_algebra,
    rationals,
    right_regular_bimodule,
)


def test_classify_catalog_cases():
    expected = {
        "d4_elliptic": ("finite", "D4", "D4"),
        "c3_surface": ("finite", "C3", "C3"),
        "g2_threefold": ("finite", "G2", "G2"),
        "a2": ("finite", "A2", "A2"),
        "a3": ("finite", "A3", "A3"),
        "c2": ("finite", "C2", "C2"),
        "two_surfaces": ("infinite", "not-dynkin", "none"),
        "b2_dual": ("finite", "B2", "none"),
    }
    for name, (verdict, diagram, case) in expected.items():
        c = classify(catalog_scenario(name))
        assert (c.verdict, c.diagram, c.case) == (verdict, diagram, case), name


def test_classify_labels_satisfy_formula():
    for name in ("d4_elliptic", "c3_surface", "g2_threefold", "c2", "a3"):
        c = classify(catalog_scenario(name))
        assert c.conditions
        for cond in c.conditions:
            assert cond["label_matches_formula"], (name, cond)


def test_classify_invariant_under_vertex_permutation():
    s = catalog_scenario("c3_surface")
    perm = SpeciesScenario("c3_permuted", s.x_vertices,
                           list(reversed(s.y_vertices)), s.bimodules)
    a, b = classify(s), classify(perm)
    assert (a.verdict, a.diagram, a.case) == (b.verdict, b.diagram, b.case)


def test_classify_invariant_under_isomorphic_presentation():
    # Q(sqrt 2) in the basis (1, 1 + sqrt 2): same field, different constants
    alt = AlgebraSpec(
        [[[1, 0], [0, 1]], [[0, 1], [1, 2]]],
        [1, 0],
    )
    handle = asserted_division_algebra(alt)
    q = rationals()
    m = Bimodule_for(handle)
    s = SpeciesScenario("c2_alt", [("u", q)], [("a1", handle)], {("u", "a1"): m})
    c = classify(s)
    ref = classify(catalog_scenario("c2"))
    assert (c.verdict, c.diagram) == (ref.verdict, ref.diagram)


def Bimodule_for(handle: DivisionAlgebraHandle):
    return right_regular_bimodule(rationals(), handle)


def test_indecomposable_vectors_counts():
    assert len(indecomposable_vectors(catalog_scenario("a2"))) == 3
    assert len(indecomposable_vectors(catalog_scenario("g2_threefold"))) == 6
    vecs = indecomposable_vectors(catalog_scenario("d4_elliptic"))
    assert len(vecs) == 12
    central = [v for v in vecs if v[0] == 2]
    assert central == [(2, 1, 1, 1)]


def test_indecomposable_vectors_rejects_infinite_type():
    with pytest.raises(ScenarioError):
        indecomposable_vectors(catalog_scenario("two_surfaces"))


def test_construct_simple_root_gives_simple_object():
    s = catalog_scenario("c3_surface")
    order = s.vertex_order()
    root = tuple(1 if v == "a2" else 0 for v in order)
    z = construct_indecomposable(s, root, seed=3)
    assert z.dimension_vector() == root
    assert z.total_dim() == 2  # the quadratic field, multiplicity one


def test_construct_a2_root_is_universal_extension():
    s = catalog_scenario("a2")
    z = construct_indecomposable(s, (1, 1), seed=9)
    assert z.eta["u"].rank() == 1
    from isocat.extcat import simple_y_object, universal_extension_of
    ey = universal_extension_of(simple_y_object(s, "a1"))
    assert isomorphic(z, ey)


def test_construct_rejects_non_root():
    s = catalog_scenario("a2")
    with pytest.raises(ScenarioError):
        construct_indecomposable(s, (2, 0), seed=1)


def test_root_tables_all_finite_scenarios():
    for name in FINITE_TYPE_IDS:
        s = catalog_scenario(name)
        table = build_root_table(s, seed=11)
        vecs = table.dimension_vectors()
        assert len(vecs) == len(set(vecs)) == len(indecomposable_vectors(s))
        assert all(e.certified for e in table.entries)


def test_reconstruction_is_isomorphic_to_stored():
    s = catalog_scenario("c2")
    table = build_root_table(s, seed=13)
    rng = random.Random(0)
    for entry in table.entries:
        again = construct_indecomposable(s, entry.root, seed=999)
        assert isomorphic(entry.object, again, rng)


def test_highest_root_d4():
    s = catalog_scenario("d4_elliptic")
    z = highest_root_d4(s)
    assert z.dimension_vector() == (2, 1, 1, 1)
    alg = end_algebra(z)
    rad = radical(alg)
    assert alg.dim - len(rad) == 1  # End/rad is Q
    # self-extensions vanish; cross-checked through the Euler identity
    assert ext1(z, z).dim == 0
    assert euler_form(z, z) == len(hom(z, z))


def test_highest_root_shape_mismatch():
    with pytest.raises(ScenarioError):
        highest_root_d4(catalog_scenario("c3_surface"))


def test_krull_schmidt_roundtrip_small():
    rng = random.Random(101)
    s = catalog_scenario("d4_elliptic")
    table = build_root_table(s, seed=17)
    for _ in range(5):
        picks = [rng.choice(table.entries).object for _ in range(rng.randrange(1, 4))]
        total, _, _ = direct_sum_many(picks)
        dec = decompose(total)
        assert dec.flag == "certified"
        got = sorted(sm.object.dimension_vector() for sm in dec.summands)
        assert got == sorted(p.dimension_vector() for p in picks)


def test_root_table_entries_are_real_roots_of_the_tits_form():
    # q(a) = sum_v f_v a_v^2 - sum_(x,y) dim_Q(M_xy) a_x a_y with f_v = [D_v:Q],
    # read off the scenario's algebra and bimodule dimensions only
    checked = 0
    for name in FINITE_TYPE_IDS:
        s = catalog_scenario(name)
        order = s.vertex_order()
        f = {v: s.algebra(v).dim for v in order}

        def ringel(a, b):
            da, db = dict(zip(order, a)), dict(zip(order, b))
            return (sum(f[v] * da[v] * db[v] for v in order)
                    - sum(bm.dim * da[y] * db[x] for (x, y), bm in s.bimodules.items()))

        for entry in build_root_table(s, 2026).entries:
            z, q = entry.object, ringel(entry.root, entry.root)
            assert euler_form(z, z) == len(hom(z, z)) == q, (name, entry.root)
            assert ext1(z, z).dim == 0, (name, entry.root)
            assert q in f.values(), (name, entry.root)  # a real root
            checked += 1
    assert checked == 44  # A2, A3, B2, C2, C3, D4, G2: 3 + 6 + 4 + 4 + 9 + 12 + 6 roots
