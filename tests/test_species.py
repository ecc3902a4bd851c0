"""Tests for scenarios, valued graphs, Cartan data and the ring center."""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from isocat.catalog import CATALOG_IDS, FINITE_TYPE_IDS, catalog_scenario
from isocat.exactalg import AlgebraSpec, Polynomial, RatMatrix, orbit_basis
from isocat.extcat import (
    TripleError,
    TripleObject,
    VertexSpace,
    _space_error,
    canonical_object,
    direct_sum,
    hom,
    universal_extension_of,
)
from isocat.species import (
    Bimodule,
    RootDatum,
    ScenarioError,
    SpeciesScenario,
    ValuedGraph,
    asserted_division_algebra,
    cartan_matrix,
    dynkin_name,
    is_finite_type,
    number_field,
    positive_roots,
    rationals,
    right_regular_bimodule,
    ring_center,
    scalar_bimodule,
    tensor_bimodule,
    valued_graph,
)

from test_exactalg import multiply

F = Fraction

# dimension of the simple Lie algebra per Dynkin name; root count oracle is
# (dim - rank) / 2, computed independently of the reflection closure
LIE_DIMS = {"A": lambda n: n * (n + 2), "B": lambda n: n * (2 * n + 1),
            "C": lambda n: n * (2 * n + 1), "D": lambda n: n * (2 * n - 1)}
EXCEPTIONAL_DIMS = {"G2": 14, "F4": 52, "E6": 78, "E7": 133, "E8": 248}


def root_count_oracle(name: str) -> int:
    if name in EXCEPTIONAL_DIMS:
        dim = EXCEPTIONAL_DIMS[name]
        rank = int(name[1])
    else:
        family, rank = name[0], int(name[1:])
        dim = LIE_DIMS[family](rank)
    return (dim - rank) // 2


# ----------------------------------------------------------------------
# handles and bimodules
# ----------------------------------------------------------------------

def test_number_field_requires_irreducible():
    with pytest.raises(ScenarioError):
        number_field(Polynomial([-1, 0, 1]))  # t^2 - 1 splits


@pytest.mark.parametrize("minpoly", [
    Polynomial([1000000000007, 0, 0, 0, 0, 0, 1]),  # constant term over the divisor budget
    Polynomial([-2] + [0] * 12 + [1]),  # t^13 - 2: over the factorizer's degree cap
])
def test_number_field_rejects_uncertifiable_minpoly(minpoly):
    with pytest.raises(ScenarioError, match="could not be certified"):
        number_field(minpoly)


def test_asserted_division_rejects_zero_divisors():
    qq = AlgebraSpec([[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1])
    with pytest.raises(ScenarioError):
        asserted_division_algebra(qq)


def test_asserted_division_accepts_field():
    gauss = number_field(Polynomial([1, 0, 1]))
    h = asserted_division_algebra(gauss.spec)
    assert h.certification == "asserted-division"


def test_bimodule_validation_catches_noncommuting_actions():
    d2 = number_field(Polynomial([-2, 0, 1]))
    left = [RatMatrix.identity(2), RatMatrix.from_rows([[0, 1], [2, 0]])]
    right = [RatMatrix.identity(2), RatMatrix.from_rows([[0, 2], [1, 0]])]
    with pytest.raises(ScenarioError):
        Bimodule(d2, d2, 2, left, right)


def law_defects(alg):
    """(defect, the predicate the law check reports, dim, action matrices) over alg = Q(t), t^2 = 2."""
    eye, lt = alg.left_mats
    return [
        ("count", "needs one action matrix", 2, [eye]),
        ("shape", "wrong shape", 2, [eye, RatMatrix.identity(3)]),
        ("free", "not free", 3, [RatMatrix.identity(3)] * 2),
        ("unital", "not unital", 2, [eye.scale(2), lt]),
        ("multiplicative", "multiplicative at (1,1)", 2, [eye, lt + eye]),  # (t + 1)^2 != 2
    ]


def nonassociative_table():
    """e_0 the unit, e_1 e_1 = e_2, e_1 e_2 = e_1, other products 0: (e_1 e_1) e_1 = 0 != e_1 (e_1 e_1)."""
    basis = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    zero = [0, 0, 0]
    return [basis, [basis[1], basis[2], basis[1]], [basis[2], zero, zero]]


def test_every_law_defect_is_rejected_by_algebras_bimodules_and_vertex_spaces():
    from isocat.exactalg import AlgebraError, action_error
    from isocat.fileio import FormatError, matrix_to_json, object_from_json, object_to_json

    c2, q = catalog_scenario("c2"), rationals()
    d2 = c2.algebra("a1")
    z = canonical_object(c2, {"u": 1, "a1": 1})
    for defect, predicate, dim, mats in law_defects(d2.spec):
        assert predicate in action_error(d2.spec, mats, dim), defect
        assert predicate in _space_error(d2.spec, VertexSpace(dim, mats)), defect
        with pytest.raises(TripleError, match=re.escape(predicate)):
            TripleObject(c2, {**z.x, "a1": VertexSpace(dim, mats)}, z.eta)
        doc = object_to_json(z)
        doc["y"]["a1"] = {"dim": dim, "action": [matrix_to_json(m) for m in mats]}
        with pytest.raises(FormatError):  # the loader's own count and shape checks come first
            object_from_json(doc, c2)
        with pytest.raises(ScenarioError, match=f"left action .*{re.escape(predicate)}"):
            Bimodule(d2, q, dim, mats, [RatMatrix.identity(dim)])
        right = "anti-multiplicative" if defect == "multiplicative" else predicate
        with pytest.raises(ScenarioError, match=f"right action .*{re.escape(right)}"):
            Bimodule(q, d2, dim, [RatMatrix.identity(dim)], mats)
    # a structure table is its own left multiplication, free over itself; the
    # other defects are a grid of the wrong count or shape, a unit that is no
    # left unit and a table that is not associative (no right unit: below)
    sqrt2 = d2.spec.constants
    bad_tables = [
        ("grid is not dim^3", sqrt2[:1] + [sqrt2[1][:1]], [1, 0]),
        ("grid is not dim^3", [[sqrt2[0][0] + [0], sqrt2[0][1]], sqrt2[1]], [1, 0]),
        ("unit vector has wrong length", sqrt2, [1]),
        ("left multiplication is not unital", sqrt2, [2, 0]),
        ("left multiplication is not multiplicative at (1,1)", nonassociative_table(), [1, 0, 0]),
    ]
    for message, table, unit in bad_tables:
        with pytest.raises(AlgebraError, match=re.escape(message)):
            AlgebraSpec(table, unit)


def test_a_left_unit_that_is_no_right_unit_is_rejected():
    # e_i e_j = e_j is associative, and every u with u_0 + u_1 = 1 is a left
    # unit; e_0 u = u != e_0 for u = e_1
    from isocat.exactalg import AlgebraError

    table = [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]
    for unit in ([1, 0], [0, 1], [2, -1]):
        with pytest.raises(AlgebraError, match="right multiplication is not unital"):
            AlgebraSpec(table, unit)


def power_basis_table(minpoly):
    """c[i][j] = the coordinates of t^(i+j) mod minpoly in the basis 1, t, ..., t^(d-1)."""
    m = minpoly.monic().coeffs
    d = len(m) - 1
    powers = [[F(int(k == i)) for k in range(d)] for i in range(d)]
    while len(powers) < 2 * d - 1:  # times t, with t^d = -sum_k m_k t^k
        prev = powers[-1]
        powers.append([(prev[k - 1] if k else 0) - prev[-1] * m[k] for k in range(d)])
    return [[powers[i + j] for j in range(d)] for i in range(d)]


def test_constants_round_trip_on_every_catalog_algebra():
    tables = [quaternion_table()]
    for name in CATALOG_IDS:
        s = catalog_scenario(name)
        for v in s.vertex_order():
            h = s.algebra(v)
            table = power_basis_table(h.minpoly)
            assert h.spec.constants == table
            tables.append((table, h.spec.unit))
    for table, unit in tables:
        alg = AlgebraSpec(table, unit)
        assert alg.constants == table
        assert all(type(x) is Fraction for m in alg.constants for row in m for x in row)


def test_bimodule_axiom_holds_on_catalog():
    # (a.m).b == a.(m.b) on all basis triples, for every catalog bimodule
    for name in CATALOG_IDS:
        s = catalog_scenario(name)
        for bm in s.bimodules.values():
            for la in bm.left_action:
                for rb in bm.right_action:
                    assert la * rb == rb * la


def test_right_basis_spans():
    d2 = number_field(Polynomial([-2, 0, 1]))
    bm = right_regular_bimodule(rationals(), d2)
    assert bm.right_basis() == [0]
    assert bm.orbit_matrix().rank() == 2


def test_scenario_rejects_mismatched_bimodule():
    q = rationals()
    d2 = number_field(Polynomial([-2, 0, 1]))
    bm = scalar_bimodule(q, q, 1)
    with pytest.raises(ScenarioError):
        SpeciesScenario("bad", [("u", q)], [("a1", d2)], {("u", "a1"): bm})


# ----------------------------------------------------------------------
# valued graphs / Cartan matrices
# ----------------------------------------------------------------------

def test_valued_graph_d4():
    g = valued_graph(catalog_scenario("d4_elliptic"))
    assert sorted(e[:2] for e in g.edges) == [("u", "a1"), ("u", "a2"), ("u", "a3")]
    assert all((dab, dba) == (1, 1) for _, _, dab, dba in g.edges)


def test_valued_graph_g2():
    g = valued_graph(catalog_scenario("g2_threefold"))
    assert g.edges == [("u", "a1", 3, 1)]


def test_valued_graph_two_surfaces():
    g = valued_graph(catalog_scenario("two_surfaces"))
    assert all((dab, dba) == (2, 2) for _, _, dab, dba in g.edges)


def test_cartan_a2():
    g = valued_graph(catalog_scenario("a2"))
    rd = cartan_matrix(g)
    assert rd.cartan == [[2, -1], [-1, 2]]


def test_cartan_22_edge_degenerate():
    g = ValuedGraph(["p", "q"], [("p", "q", 2, 2)])
    rd = cartan_matrix(g)
    assert rd.cartan == [[2, -2], [-2, 2]]
    det = rd.cartan[0][0] * rd.cartan[1][1] - rd.cartan[0][1] * rd.cartan[1][0]
    assert det == 0
    assert not is_finite_type(rd)


def test_cartan_g2_offdiagonal():
    rd = cartan_matrix(valued_graph(catalog_scenario("g2_threefold")))
    assert sorted([rd.cartan[0][1], rd.cartan[1][0]]) == [-3, -1]
    assert is_finite_type(rd)


def test_cartan_orientation_pins_b3_c3():
    # the convention is fixed by these two diagrams landing on the standard
    # Cartan matrices of their names
    b3 = ValuedGraph(["1", "0", "2"], [("0", "1", 1, 1), ("0", "2", 1, 2)],
                     {"0": "x", "1": "y", "2": "y"})
    rd = cartan_matrix(b3)
    i = {v: k for k, v in enumerate(rd.vertices)}
    assert rd.cartan[i["0"]][i["2"]] == -1
    assert rd.cartan[i["2"]][i["0"]] == -2
    assert dynkin_name(b3) == "B3"
    c3 = ValuedGraph(["1", "0", "2"], [("0", "1", 1, 1), ("0", "2", 2, 1)],
                     {"0": "x", "1": "y", "2": "y"})
    assert dynkin_name(c3) == "C3"


def test_cartan_of_cycles_is_infinite_type():
    tri = ValuedGraph(["a", "b", "c"],
                      [("a", "b", 1, 1), ("b", "c", 1, 1), ("a", "c", 1, 1)])
    rd = cartan_matrix(tri)
    assert rd.cartan == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    assert not is_finite_type(rd)
    # f = (1, 2, 2, 1) symmetrizes this 4-cycle: d_ab f_a = d_ba f_b on each edge
    square = ValuedGraph(["a", "b", "c", "d"],
                         [("a", "b", 2, 1), ("b", "c", 1, 1), ("c", "d", 1, 2), ("d", "a", 1, 1)])
    rd = cartan_matrix(square)
    assert rd.cartan == [[2, -2, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -2, 2]]
    assert not is_finite_type(rd)


def _sylvester_positive_definite(s):
    """Every leading principal minor of the symmetric s is positive, by Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in s]
    n = len(a)
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            q = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= q * a[k][j]
    return True


def _species_shaped_graph(rng, n):
    """A connected random graph with degrees f and edge Q-dimensions divisible by lcm(f_a, f_b)."""
    f = [rng.choice((1, 2, 3, 4, 6)) for _ in range(n)]
    tree = [(i, rng.randrange(i)) for i in range(1, n)]
    chords = [(i, j) for i in range(n) for j in range(i) if (i, j) not in tree and rng.random() < 0.2]
    edges = []
    for a, b in tree + chords:
        dim = math.lcm(f[a], f[b]) * rng.choice((1, 1, 1, 2))
        edges.append((str(a), str(b), dim // f[a], dim // f[b]))
    return f, ValuedGraph([str(i) for i in range(n)], edges)


def test_finite_type_matches_sylvester_on_the_symmetrized_form():
    # the reference builds S = diag(f) C itself and shares no engine code
    rng = random.Random(1612)
    cyclic = finite = 0
    for _ in range(1500):
        n = rng.randint(1, 6)
        f, g = _species_shaped_graph(rng, n)
        s = [[2 * f[i] if i == j else 0 for j in range(n)] for i in range(n)]  # diag(f) C from the edges
        for a, b, dab, dba in g.edges:
            s[int(a)][int(b)], s[int(b)][int(a)] = -f[int(a)] * dab, -f[int(b)] * dba
        assert all(s[i][j] == s[j][i] for i in range(n) for j in range(n))
        expected = _sylvester_positive_definite(s)
        assert is_finite_type(cartan_matrix(g)) == expected == (dynkin_name(g) != "not-dynkin"), g
        cyclic += len(g.edges) >= n
        finite += expected
    assert cyclic > 300 and finite > 300


def test_root_datum_rejects_a_one_sided_zero():
    with pytest.raises(ScenarioError, match="vanish together"):
        RootDatum([[2, -1], [0, 2]], ["a", "b"])
    with pytest.raises(ScenarioError, match="diagonal"):
        RootDatum([[2, -1], [-1, 1]], ["a", "b"])
    with pytest.raises(ScenarioError, match="<= 0"):
        RootDatum([[2, 1], [1, 2]], ["a", "b"])


def test_finite_type_d4_star():
    rd = cartan_matrix(valued_graph(catalog_scenario("d4_elliptic")))
    assert is_finite_type(rd)


def test_finite_type_disjoint_g2_pair():
    g = ValuedGraph(["a", "b", "c", "d"], [("a", "b", 3, 1), ("c", "d", 3, 1)])
    rd = cartan_matrix(g)
    assert is_finite_type(rd)
    assert dynkin_name(g) == "G2+G2"


# ----------------------------------------------------------------------
# positive roots
# ----------------------------------------------------------------------

def test_positive_roots_a2():
    rd = cartan_matrix(valued_graph(catalog_scenario("a2")))
    roots = positive_roots(rd)
    assert set(roots) == {(1, 0), (0, 1), (1, 1)}
    assert len(roots) == root_count_oracle("A2")


def test_positive_roots_g2():
    rd = cartan_matrix(valued_graph(catalog_scenario("g2_threefold")))
    roots = positive_roots(rd)
    assert len(roots) == 6 == root_count_oracle("G2")


def test_positive_roots_d4_highest_root():
    rd = cartan_matrix(valued_graph(catalog_scenario("d4_elliptic")))
    roots = positive_roots(rd)
    assert len(roots) == 12 == root_count_oracle("D4")
    center = rd.vertices.index("u")
    highest = [r for r in roots if r[center] == 2]
    assert len(highest) == 1
    assert sorted(highest[0]) == [1, 1, 1, 2]


def test_positive_roots_closed_under_reflections():
    rd = cartan_matrix(valued_graph(catalog_scenario("c3_surface")))
    roots = positive_roots(rd)
    assert len(roots) == root_count_oracle("C3")
    rootset = set(roots)
    n = rd.rank
    for v in roots:
        for i in range(n):
            t = sum(rd.cartan[i][j] * v[j] for j in range(n))
            w = list(v)
            w[i] -= t
            if all(x >= 0 for x in w):
                assert tuple(w) in rootset


def test_positive_roots_requires_finite_type():
    rd = cartan_matrix(valued_graph(catalog_scenario("two_surfaces")))
    with pytest.raises(ScenarioError):
        positive_roots(rd)


# ----------------------------------------------------------------------
# naming
# ----------------------------------------------------------------------

def test_dynkin_names_catalog():
    expected = {
        "a2": "A2", "a3": "A3", "b2_dual": "B2", "c2": "C2",
        "c3_surface": "C3", "d4_elliptic": "D4", "g2_threefold": "G2",
        "two_surfaces": "not-dynkin", "product_no_coupling": "A1+A1+A1",
    }
    for name, want in expected.items():
        assert dynkin_name(valued_graph(catalog_scenario(name))) == want


def test_dynkin_name_from_root_datum():
    rd = cartan_matrix(valued_graph(catalog_scenario("c2")))
    assert dynkin_name(rd) == "C2"


def test_dynkin_name_e_series():
    def path(n):
        return [(str(i), str(i + 1), 1, 1) for i in range(n - 1)]

    e6 = ValuedGraph([str(i) for i in range(5)] + ["b"], path(5) + [("2", "b", 1, 1)])
    assert dynkin_name(e6) == "E6"
    e7 = ValuedGraph([str(i) for i in range(6)] + ["b"], path(6) + [("2", "b", 1, 1)])
    assert dynkin_name(e7) == "E7"
    e8 = ValuedGraph([str(i) for i in range(7)] + ["b"], path(7) + [("2", "b", 1, 1)])
    assert dynkin_name(e8) == "E8"
    for n in (5, 6, 9):  # a fork at one end of a path
        dn = ValuedGraph([str(i) for i in range(n - 1)] + ["b"], path(n - 1) + [("1", "b", 1, 1)])
        assert dynkin_name(dn) == f"D{n}"
        assert len(positive_roots(cartan_matrix(dn))) == n * (n - 1) == root_count_oracle(f"D{n}")
    assert len(positive_roots(cartan_matrix(e7))) == 63 == root_count_oracle("E7")
    # a hub with arms (2, 2, 2) is the Euclidean E6~, and a second fork makes D~n
    assert dynkin_name(ValuedGraph([str(i) for i in range(5)] + ["b", "c"],
                                   path(5) + [("2", "b", 1, 1), ("b", "c", 1, 1)])) == "not-dynkin"
    assert dynkin_name(ValuedGraph([str(i) for i in range(5)] + ["b", "c"],
                                   path(5) + [("1", "b", 1, 1), ("3", "c", 1, 1)])) == "not-dynkin"
    f4 = ValuedGraph(["0", "1", "2", "3"],
                     [("0", "1", 1, 1), ("1", "2", 1, 2), ("2", "3", 1, 1)])
    assert dynkin_name(f4) == "F4"
    # same labels with the double edge at the end is B4, not F4
    b4 = ValuedGraph(["0", "1", "2", "3"],
                     [("0", "1", 1, 1), ("1", "2", 1, 1), ("2", "3", 1, 2)])
    assert dynkin_name(b4) == "B4"


def labelled_trees(n):
    """The n^(n-2) labelled trees on vertices 0..n-1, as edge lists, from their Pruefer sequences."""
    if n < 3:
        yield [(0, 1)][:n - 1]
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        for v in seq:
            leaf = degree.index(1)
            edges.append((leaf, v))
            degree[leaf] -= 1
            degree[v] -= 1
        edges.append(tuple(i for i in range(n) if degree[i] == 1))
        yield edges


def test_dynkin_name_agrees_with_positive_definiteness_on_every_small_tree():
    # the namer reads shapes, never the Cartan form; is_finite_type reads
    # only the form, and the root count of a name comes from its Lie algebra
    values = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]
    named = 0
    for n in range(1, 6):
        trees = list(labelled_trees(n))
        assert len(trees) == max(1, n ** (n - 2))
        verts = [str(i) for i in range(n)]
        for tree in trees:
            for vals in itertools.product(values, repeat=n - 1):
                g = ValuedGraph(verts, [(str(a), str(b), p, q) for (a, b), (p, q) in zip(tree, vals)])
                name, rd = dynkin_name(g), cartan_matrix(g)
                assert (name != "not-dynkin") == is_finite_type(rd), g
                if name != "not-dynkin":
                    named += 1
                    assert len(positive_roots(rd)) == root_count_oracle(name), g
    assert named == 469


def test_dynkin_name_of_a_cycle_is_not_dynkin():
    # a component with a cycle has no leaf to peel; it is refused before the peeling
    tri = ValuedGraph(["a", "b", "c"], [("a", "b", 1, 1), ("b", "c", 1, 1), ("c", "a", 1, 1)])
    square = ValuedGraph(["a", "b", "c", "d"],
                         [("a", "b", 1, 1), ("b", "c", 1, 2), ("c", "d", 1, 1), ("d", "a", 1, 1)])
    assert dynkin_name(tri) == dynkin_name(square) == "not-dynkin"
    extra = ValuedGraph(["a", "b", "c", "p", "q"], tri.edges + [("p", "q", 1, 3)])
    assert dynkin_name(extra) == "not-dynkin"
    assert dynkin_name(ValuedGraph(["a", "b", "c", "p", "q"], tri.edges[:2] + [("p", "q", 1, 3)])) == "A3+G2"


def test_catalog_finite_vs_infinite():
    for name in FINITE_TYPE_IDS:
        rd = cartan_matrix(valued_graph(catalog_scenario(name)))
        assert is_finite_type(rd), name
    assert not is_finite_type(cartan_matrix(valued_graph(catalog_scenario("two_surfaces"))))


# ----------------------------------------------------------------------
# ring center
# ----------------------------------------------------------------------

def test_ring_center_d4_is_q():
    center = ring_center(catalog_scenario("d4_elliptic"))
    assert center.dim == 1


def test_ring_center_product_case():
    s = catalog_scenario("product_no_coupling")
    center = ring_center(s)
    expected = sum(h.dim for _, h in s.x_vertices + s.y_vertices)  # all fields here
    assert center.dim == expected == 4


def test_ring_center_c3():
    center = ring_center(catalog_scenario("c3_surface"))
    assert center.dim == 1


def test_ring_center_is_commutative_unital():
    for name in CATALOG_IDS:
        c = ring_center(catalog_scenario(name))
        assert c.algebra.is_commutative()
        unit = c.algebra.unit
        for i in range(c.dim):
            assert multiply(c.algebra, unit, c.algebra.basis_vector(i)) == c.algebra.basis_vector(i)


def test_ring_center_elements_satisfy_constraints():
    s = catalog_scenario("c3_surface")
    c = ring_center(s)
    for el in c.elements:
        for (x, y), bm in s.bimodules.items():
            assert (RatMatrix.combine(bm.left_action, el[x], bm.dim, bm.dim)
                    == RatMatrix.combine(bm.right_action, el[y], bm.dim, bm.dim))


def test_tensor_bimodule_labels():
    q = rationals()
    d2 = number_field(Polynomial([-2, 0, 1]))
    bm = tensor_bimodule(d2, d2, copies=1)
    s = SpeciesScenario("t", [("u", d2)], [("a1", d2)], {("u", "a1"): bm})
    g = valued_graph(s)
    assert g.edges == [("u", "a1", 2, 2)]


# ----------------------------------------------------------------------
# the greedy orbit basis behind bimodule right bases
# ----------------------------------------------------------------------

def greedy_orbit_reference(mats, dim):
    """Column-by-column greedy loop, the construction orbit_basis replaces."""
    picked, cols, span = [], [], None
    for cand in range(dim):
        e = RatMatrix.zeros(dim, 1)
        e.num[cand][0] = 1
        if span is not None and span.solve(e) is not None:
            continue
        picked.append(cand)
        cols.extend(m * e for m in mats)
        span = cols[0]
        for c in cols[1:]:
            span = span.hstack(c)
        if len(picked) * len(mats) == dim:
            break
    return picked, span if span is not None else RatMatrix.zeros(dim, 0)


def test_orbit_basis_reproduces_every_catalog_right_basis():
    for name in CATALOG_IDS:
        for bm in catalog_scenario(name).bimodules.values():
            picked, span = greedy_orbit_reference(bm.right_action, bm.dim)
            assert orbit_basis(bm.right_action, bm.dim) == (picked, span)
            assert (bm.right_basis(), bm.orbit_matrix()) == (picked, span)


def quaternion_table():
    """The structure constants and unit of H = (-1, -1 / Q) in the basis (i, j, k, 1)."""
    signs = {(1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0), (1, 2): (1, 3), (2, 1): (-1, 3),
             (2, 3): (1, 1), (3, 2): (-1, 1), (3, 1): (1, 2), (1, 3): (-1, 2)}
    order = [1, 2, 3, 0]  # standard indices 1, i, j, k = 0..3
    consts = []
    for a in order:
        row = []
        for b in order:
            sign, c = (1, a + b) if 0 in (a, b) else signs[(a, b)]  # one factor is 1
            row.append([sign if order[k] == c else 0 for k in range(4)])
        consts.append(row)
    return consts, [0, 0, 0, 1]


def quaternions_from_i():
    """H in the basis (i, j, k, 1), so e_0 = i is not the unit."""
    return asserted_division_algebra(AlgebraSpec(*quaternion_table()))


def test_canonical_spaces_never_run_orbit_basis(monkeypatch):
    # the bimodules' right bases fix the tensor slots; past them, canonical
    # spaces, direct sums of canonical objects, their F spaces and hom run no
    # orbit_basis, even over algebras whose e_0 is not the unit
    import isocat.exactalg as exactalg
    import isocat.species as species

    def no_orbit_basis(*args):
        raise AssertionError("orbit_basis ran past the bimodule right bases")

    odd = asserted_division_algebra(AlgebraSpec([[[4, -2], [1, 0]], [[1, 0], [0, 1]]], [0, 1]))
    quat, q = quaternions_from_i(), rationals()
    quat_s = SpeciesScenario("quat", [("u", q), ("w", odd)], [("a", quat), ("b", odd)],
                             {("u", "a"): tensor_bimodule(q, quat), ("w", "b"): tensor_bimodule(odd, odd)})
    sweep = (catalog_scenario("g2_threefold"), quat_s)
    for s in sweep:
        for bm in s.bimodules.values():
            bm.right_basis()
    monkeypatch.setattr(exactalg, "orbit_basis", no_orbit_basis)
    monkeypatch.setattr(species, "orbit_basis", no_orbit_basis)
    for s in sweep:
        a = canonical_object(s, {v: 1 + (v in s.y_ids) for v in s.vertex_order()})
        total, _, _ = direct_sum(a, canonical_object(s, {y: 1 for y in s.y_ids}))
        for y in s.y_ids:
            assert total.y[y].canonical == (s.algebra(y).key(), 3)
        ey = universal_extension_of(total)
        assert len(hom(ey, ey)) > 0 and len(hom(total, ey)) > 0


def test_non_free_spaces_are_rejected():
    d2 = number_field(Polynomial([-2, 0, 1]))
    odd = [RatMatrix.identity(3), RatMatrix.from_rows([[0, 2, 0], [1, 0, 0], [0, 0, 1]])]
    assert _space_error(d2.spec, VertexSpace(3, odd)) == "vertex space is not free over its algebra"
    c2 = catalog_scenario("c2")
    z = canonical_object(c2, {"u": 1, "a1": 1})
    with pytest.raises(TripleError, match="not free"):
        TripleObject(c2, {**z.x, "a1": VertexSpace(3, odd)}, z.eta)
    with pytest.raises(ScenarioError):
        Bimodule(rationals(), d2, 3, [RatMatrix.identity(3)], odd)
    # past the constructor's checks, the right basis itself reports non-freeness
    bm = right_regular_bimodule(rationals(), d2)
    bm.dim, bm.left_action, bm.right_action = 3, [RatMatrix.identity(3)], odd
    bm._right_basis = bm._orbit_matrix = None
    with pytest.raises(ScenarioError, match="not free"):
        bm.right_basis()
