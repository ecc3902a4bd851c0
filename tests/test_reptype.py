"""Tests for classification and construction of indecomposables."""

import itertools
import math
import random
from collections import Counter

import pytest

import isocat.extcat as extcat
from isocat import reptype
from isocat.catalog import CATALOG_IDS, FINITE_TYPE_IDS, catalog_scenario
from isocat.exactalg import AlgebraSpec, Polynomial, radical
from isocat.extcat import (
    CERTIFIED,
    canonical_object,
    decompose,
    direct_sum_many,
    end_algebra,
    ext1,
    euler_form,
    hom,
)
from isocat.reptype import (
    ConstructionError,
    build_root_table,
    classify,
    construct_indecomposable,
    indecomposable_vectors,
)
from isocat.species import (
    DivisionAlgebraHandle,
    ScenarioError,
    SpeciesScenario,
    asserted_division_algebra,
    number_field,
    rationals,
    right_regular_bimodule,
    tensor_bimodule,
)
from isocat.samples import random_object, random_scenario

from test_exactalg import _gauss_jordan
from test_extcat import ringel_form


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


# the hand-made table that `classify` once read its case from: for one Q
# x-vertex meeting every y-vertex, the sorted (dim_Q M_i, [D_i : Q]) per y
TABLE_CASES = {
    1: {((1, 1),): "A2", ((2, 2),): "C2", ((3, 3),): "G2"},
    2: {((1, 1), (1, 1)): "A3", ((1, 1), (2, 2)): "C3"},
    3: {((1, 1), (1, 1), (1, 1)): "D4"},
}


def table_case(s, finite: bool) -> str:
    """The case the table gives s, from the scenario data alone."""
    if len(s.x_ids) != 1 or s.algebra(s.x_ids[0]).dim != 1 or not finite:
        return "none"
    x = s.x_ids[0]
    if any((x, y) not in s.bimodules for y in s.y_ids):
        return "none"
    shape = tuple(sorted((s.bimodules[x, y].dim, s.algebra(y).dim) for y in s.y_ids))
    return TABLE_CASES.get(len(shape), {}).get(shape, "none")


def test_classify_cases_match_the_table_they_replace():
    # the catalog, random draws, and every shape of one Q centre meeting 1-4
    # y-vertices over Q, Q(sqrt 2), Q(i) and the cubic field, with M = D or D^2
    q = rationals()
    fields = [q] + [number_field(Polynomial(c)) for c in ([-2, 0, 1], [1, 0, 1], [-1, -1, 0, 1])]
    sweep = [catalog_scenario(name) for name in CATALOG_IDS]
    rng = random.Random("classify-cases")
    sweep += [random_scenario(rng) for _ in range(3000)]
    options = [(f, k) for f in fields for k in (1, 2)]
    for n in range(1, 5):
        for shape in itertools.combinations_with_replacement(options, n):
            sweep.append(SpeciesScenario("shape", [("u", q)], [(f"y{j}", f) for j, (f, _) in enumerate(shape)],
                                         {("u", f"y{j}"): tensor_bimodule(q, f, copies=k)
                                          for j, (f, k) in enumerate(shape)}))
    sweep.append(SpeciesScenario("lone", [("u", q)], [], {}))
    cases = []
    for s in sweep:
        c = classify(s)
        assert c.case == table_case(s, c.finite), s.name
        cases.append(c.case)
    assert classify(sweep[-1]).case == "none" and classify(sweep[-1]).finite
    assert set(cases) == {"none", "A2", "C2", "G2", "A3", "C3", "D4"}


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


def has_invertible_hom_basis_element(a, b):
    """Whether some element of the `hom(a, b)` basis is invertible at every vertex.

    For indecomposable a and b this decides a = b up to isomorphism: when
    they are isomorphic the radical rad(a, b) is a proper subspace of
    Hom(a, b), so no basis lies inside it.
    """
    return any(all(m.rows == m.cols == m.rank() for m in (*f.u.values(), *f.v.values()))
               for f in hom(a, b))


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
    assert has_invertible_hom_basis_element(z, ey)


def test_construct_rejects_non_root():
    s = catalog_scenario("a2")
    with pytest.raises(ScenarioError):
        construct_indecomposable(s, (2, 0), seed=1)


def test_construction_rejects_a_sample_that_is_not_rigid(monkeypatch):
    # the zero-eta object of the root (1, 1) of a2 is X + Y: semisimple, so
    # Ext^1(z, z) != 0.  Drawn first, it is rejected, and the samples after
    # it are those of the unpatched construction, which draws no more
    s = catalog_scenario("a2")
    semisimple = canonical_object(s, {"u": 1, "a1": 1})
    dim = ext1(semisimple, semisimple).dim
    assert dim
    real, draws = reptype.random_object_with, []

    def counted(scenario, mult, rng, eta_bound=2):
        draws.append(mult)
        return real(scenario, mult, rng, eta_bound)

    def semisimple_first(*args, **kwargs):
        if draws:
            return counted(*args, **kwargs)
        draws.append("semisimple")
        return semisimple

    monkeypatch.setattr(reptype, "random_object_with", counted)
    want = construct_indecomposable(s, (1, 1), seed=9)
    plain = len(draws)
    draws.clear()
    monkeypatch.setattr(reptype, "random_object_with", semisimple_first)
    got = construct_indecomposable(s, (1, 1), seed=9)
    assert len(draws) == plain + 1 and got.data_key() == want.data_key()
    # every rejected sample's dim Ext^1 is in the attempt log the error carries
    monkeypatch.setattr(reptype, "random_object_with", lambda *args, **kwargs: semisimple)
    with pytest.raises(ConstructionError) as info:
        construct_indecomposable(s, (1, 1), seed=9)
    assert info.value.attempts == [f"attempt {k}: dim Ext^1(z, z) = {dim}"
                                   for k in range(reptype._SAMPLES)]


def test_root_tables_all_finite_scenarios():
    # a rigid construction is certified indecomposable by decompose's End
    # path, which shares no code with the Ext^1 rank that selected it;
    # decompose itself answers each entry from the leaf the construction left
    for name in FINITE_TYPE_IDS:
        s = catalog_scenario(name)
        table = build_root_table(s, seed=11)
        vecs = table.dimension_vectors()
        assert len(vecs) == len(set(vecs)) == len(indecomposable_vectors(s))
        assert all(e.certified for e in table.entries)
        for e in table.entries:
            assert s._nodes[e.object.data_key()] == CERTIFIED
            assert extcat._split_or_leaf(e.object, extcat._end_basis(e.object)) == (None, CERTIFIED), (name, e.root)
            dec = decompose(e.object)
            assert len(dec.summands) == 1 and dec.flag == CERTIFIED, (name, e.root)


def test_reconstruction_is_isomorphic_to_stored():
    s = catalog_scenario("c2")
    table = build_root_table(s, seed=13)
    for entry in table.entries:
        again = construct_indecomposable(s, entry.root, seed=999)
        assert has_invertible_hom_basis_element(entry.object, again)
    # the witness is no formality: distinct roots' indecomposables have none
    for a, b in itertools.permutations(table.entries, 2):
        assert not has_invertible_hom_basis_element(a.object, b.object), (a.root, b.root)


def test_highest_root_d4():
    s = catalog_scenario("d4_elliptic")
    z = construct_indecomposable(s, (2, 1, 1, 1), seed=1)
    assert z.dimension_vector() == (2, 1, 1, 1)
    alg = end_algebra(z)
    rad = radical(alg)
    assert alg.dim - len(rad) == 1  # End/rad is Q
    # self-extensions vanish; cross-checked through the Euler identity
    assert ext1(z, z).dim == 0
    assert euler_form(z, z) == len(hom(z, z))
    dec = decompose(z)
    assert len(dec.summands) == 1 and dec.flag == CERTIFIED


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
    # q(a) = <a, a> is the Tits form
    checked = 0
    for name in FINITE_TYPE_IDS:
        s = catalog_scenario(name)
        f = {v: s.algebra(v).dim for v in s.vertex_order()}
        for entry in build_root_table(s, 2026).entries:
            z, q = entry.object, ringel_form(s, entry.root, entry.root)
            assert euler_form(z, z) == len(hom(z, z)) == q, (name, entry.root)
            assert ext1(z, z).dim == 0, (name, entry.root)
            assert q in f.values(), (name, entry.root)  # a real root
            checked += 1
    assert checked == 44  # A2, A3, B2, C2, C3, D4, G2: 3 + 6 + 4 + 4 + 9 + 12 + 6 roots


def test_hom_and_ext_between_root_table_entries_follow_directedness():
    # every indecomposable of a Dynkin species is directing (Ringel, LNM 1099,
    # 2.4), so at most one of Hom(A, B) and Ext^1(A, B) is nonzero and both
    # dims come from q = <dim A, dim B>: max(q, 0) and max(-q, 0); dim A is
    # read off the components' Q-dimensions
    pairs = 0
    for name in FINITE_TYPE_IDS:
        s = catalog_scenario(name)
        objs = [e.object for e in build_root_table(s, 2026).entries]
        dims = [tuple({**z.x, **z.y}[v].dim // s.algebra(v).dim for v in s.vertex_order()) for z in objs]
        for (a, da), (b, db) in itertools.product(zip(objs, dims), repeat=2):
            q = ringel_form(s, da, db)
            assert (len(hom(a, b)), ext1(a, b).dim) == (max(q, 0), max(-q, 0)), (name, da, db)
            pairs += 1
    assert pairs == 338  # 3^2 + 6^2 + 4^2 + 4^2 + 9^2 + 12^2 + 6^2


def ext_orthogonal_splits(s, roots, target):
    """Every multiset of roots summing to target whose members are pairwise
    Ext-orthogonal, reading dim Ext^1(T_a, T_b) as max(-<a, b>, 0)."""
    def orthogonal(a, b):
        return ringel_form(s, a, b) >= 0 and ringel_form(s, b, a) >= 0

    found = []

    def walk(start, rest, picked):
        if not any(rest):
            found.append(picked)
        for k in range(start, len(roots)):
            r = roots[k]
            if all(a <= b for a, b in zip(r, rest)) and all(orthogonal(r, p) for p in picked):
                walk(k, [b - a for a, b in zip(r, rest)], picked + [r])

    walk(0, list(target), [])
    return found


def auslander_multiplicities(s, roots, h):
    """H^-1 . h with H[i][j] = max(<r_i, r_j>, 0) = dim Hom(T_i, T_j), in Fractions."""
    n = len(roots)
    rows, pivots = _gauss_jordan([[max(ringel_form(s, a, b), 0) for b in roots] + [h_a]
                                  for a, h_a in zip(roots, h)], n + 1)
    assert pivots == list(range(n))  # H is invertible
    return [r[n] for r in rows]


def test_certified_decompositions_match_the_form_only_oracles():
    # a rigid object is fixed by its dimension vector: its summands are the
    # one Ext-orthogonal multiset of roots summing to it (Kac 1982); and the
    # multiplicities of any z are H^-1 . h(z), h(z)_i = dim Hom(T_i, z)
    # (Auslander 1982).  Only the Ringel form and len(hom(T_i, z)) enter.
    rigid = compared = 0
    for name in FINITE_TYPE_IDS:
        s = catalog_scenario(name)
        table = build_root_table(s, 2026)
        roots = [e.root for e in table.entries]
        rng = random.Random(sum(map(ord, name)))
        for _ in range(20):
            z = random_object(s, rng, max_mult=2)
            mult = auslander_multiplicities(s, roots, [len(hom(e.object, z)) for e in table.entries])
            assert all(m.denominator == 1 and m >= 0 for m in mult), (name, z.dimension_vector(), mult)
            predicted = sorted(r for r, m in zip(roots, mult) for _ in range(int(m)))
            if ext1(z, z).dim == 0:
                splits = ext_orthogonal_splits(s, roots, z.dimension_vector())
                assert [sorted(p) for p in splits] == [predicted], (name, z.dimension_vector())
                rigid += 1
            dec = decompose(z)
            if dec.flag == CERTIFIED:
                assert sorted(sm.object.dimension_vector() for sm in dec.summands) == predicted, name
                compared += 1
    assert rigid == 130 and compared >= 138  # of 140 objects


# Coxeter number h and Weyl group order |W| of each Dynkin type of rank n; B stands for B and C
COXETER = {
    "A": lambda n: (n + 1, math.factorial(n + 1)),
    "B": lambda n: (2 * n, 2 ** n * math.factorial(n)),
    "D": lambda n: (2 * n - 2, 2 ** (n - 1) * math.factorial(n)),
    "G": lambda n: (6, 12),
}


def valued_edges(s):
    """(x, y, weight) per bimodule: weight d_xy . d_yx = (dim M / dim D_x)(dim M / dim D_y)."""
    return [(x, y, (bm.dim // s.algebra(x).dim) * (bm.dim // s.algebra(y).dim)) for (x, y), bm in s.bimodules.items()]


def connected(s):
    """Whether the valued graph of s, its vertices joined by its bimodules, is connected."""
    verts = s.vertex_order()
    reached, todo = {verts[0]}, [verts[0]]
    while todo:
        v = todo.pop()
        for x, y in s.bimodules:
            for a, b in ((x, y), (y, x)):
                if a == v and b not in reached:
                    reached.add(b)
                    todo.append(b)
    return reached == set(verts)


def dynkin_letter(s):
    """The type letter of a connected Dynkin scenario, read off its bimodule and algebra dimensions.

    An edge (x, y) has weight d_xy . d_yx (`valued_edges`): 1 single, 2
    double, 3 triple.  The graph must be a tree, and only the shapes A,
    B/C, D and G2 are named.
    """
    verts, edges = s.vertex_order(), valued_edges(s)
    assert len(edges) == len(verts) - 1 and connected(s), s.name  # a tree
    degree, heavy = Counter(v for x, y, _ in edges for v in (x, y)), [e for e in edges if e[2] > 1]
    if not heavy:
        branch = [v for v in verts if degree[v] > 2]
        if not branch:
            return "A"
        [b] = branch
        legs = [y if x == b else x for x, y, _ in edges if b in (x, y)]
        assert degree[b] == 3 and sum(degree[v] == 1 for v in legs) >= 2, s.name
        return "D"
    [(x, y, w)] = heavy
    assert max(degree.values()) <= 2, s.name
    if w == 3:
        assert len(verts) == 2, s.name
        return "G"
    assert w == 2 and min(degree[x], degree[y]) == 1, s.name  # the double edge ends the path: not F4
    return "B"


def complete_exceptional_sequences(dims, n):
    """The number of exceptional sequences of length n among exceptional objects E_0..E_N-1, from
    dims[i][j] = (dim Hom(E_i, E_j), dim Ext^1(E_i, E_j)): each E_j has Hom = Ext^1 = 0 into every E_i before it."""
    def extend(seq):
        if len(seq) == n:
            return 1
        return sum(extend(seq + [j]) for j in range(len(dims)) if not any(any(dims[j][i]) for i in seq))
    return extend([])


def exceptional_count(s):
    """(complete exceptional sequences of s's root table, its exceptional pairs), from the engine's hom and
    ext1 dims; asserts that every entry is exceptional, the count is n! h^n / |W| for the type read by
    `dynkin_letter`, and no exceptional pair has both Hom and Ext^1 in the other direction."""
    objs = [e.object for e in build_root_table(s, 2026).entries]
    dims = [[(len(hom(a, b)), ext1(a, b).dim) for b in objs] for a in objs]
    assert all(h and not e for h, e in (dims[i][i] for i in range(len(objs)))), s.name
    n = len(s.vertex_order())
    count, pairs = complete_exceptional_sequences(dims, n), 0
    h, w = COXETER[dynkin_letter(s)](n)
    assert count == math.factorial(n) * h ** n // w, s.name
    for i, j in itertools.permutations(range(len(objs)), 2):
        if not any(dims[j][i]):  # (E_i, E_j) is an exceptional pair
            assert not all(dims[i][j]), (s.name, i, j)
            pairs += 1
    return count, pairs


def test_complete_exceptional_sequences_number_n_factorial_h_to_the_n_over_the_weyl_group():
    # over a Dynkin species every indecomposable is exceptional, and the
    # complete exceptional sequences number n! h^n / |W| (Obaid, Nauman, Al
    # Shammakh, Fakieh and Ringel, Colloq. Math. 133, 2013): the type alone
    # gives it, and the count reads only the engine's hom and ext1 dims.  In a
    # hereditary category an exceptional pair (E, F) has Hom(E, F) = 0 or
    # Ext^1(E, F) = 0 (Ringel 1994).  The catalog's finite scenarios first,
    # then the connected Dynkin draws of one seeded `random_scenario`
    # generator.  Its fields are Q and quadratic, so its edges weigh 1, 2 or
    # 4, and a 4-vertex path cannot carry a double edge in its middle (F4):
    # a connected draw is Dynkin exactly when it is a tree with at most one
    # edge of weight 2 and none heavier, and the engine's finite-type verdict
    # must say the same
    counts, pairs = {}, 0
    for name in FINITE_TYPE_IDS:
        counts[name], found = exceptional_count(catalog_scenario(name))
        pairs += found
    assert counts == {"a2": 3, "a3": 16, "b2_dual": 4, "c2": 4, "c3_surface": 27, "d4_elliptic": 162,
                      "g2_threefold": 6}
    assert pairs == 123
    rng, drawn = random.Random("exceptional-sequences"), Counter()
    for s in [random_scenario(rng) for _ in range(200)]:  # 200 draws: about 0.15 s
        if not connected(s):
            continue
        weights = Counter(w for _, _, w in valued_edges(s))
        dynkin = sum(weights.values()) == len(s.vertex_order()) - 1 and set(weights) <= {1, 2} and weights[2] <= 1
        assert (s.roots is not None) == dynkin, s.name
        if dynkin:
            exceptional_count(s)
            drawn[f"{dynkin_letter(s)}{len(s.vertex_order())}"] += 1
    assert drawn == {"B2": 13, "B3": 2, "A2": 3}
