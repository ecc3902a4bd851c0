"""Species scenarios, valued graphs, Cartan data and the triangular-ring center.

A scenario is the finite datum of a triangular matrix ring: division
algebras on an x-side and a y-side, plus bimodules across the sides.  The
valued graph of a scenario drives the finite-representation-type test
(read off the Cartan matrix: every leading principal minor positive) and the
positive root enumeration used to index indecomposables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .exactalg import (
    AlgebraSpec,
    FactorBudget,
    FactorBudgetExceeded,
    Polynomial,
    RatMatrix,
    _center,
    _combine,
    _flat_columns,
    _flat_matrices,
    _int_columns,
    _int_vector,
    _kernel,
    action_error,
    is_irreducible,
    orbit_basis,
    regular_algebra_from_min_poly,
    structure_constants,
)


class ScenarioError(ValueError):
    pass


CERTIFIED_FIELD = "certified-field"
ASSERTED_DIVISION = "asserted-division"

_SMOKE_SAMPLES = 1000
_SMOKE_SEED = 91


@dataclass(frozen=True)
class DivisionAlgebraHandle:
    """A division algebra vertex label.

    `certified-field` handles are Q or Q[t]/(m) with m verified irreducible;
    anything else is accepted as `asserted-division` after a randomized
    invertibility smoke test (division is not re-proved).
    """

    spec: AlgebraSpec
    certification: str
    minpoly: Optional[Polynomial] = None

    @property
    def dim(self) -> int:
        return self.spec.dim

    def key(self) -> tuple:
        return self.spec.key()


def rationals() -> DivisionAlgebraHandle:
    alg = AlgebraSpec([[[1]]], [1])
    return DivisionAlgebraHandle(alg, CERTIFIED_FIELD, Polynomial([-1, 1]))


def number_field(minpoly: Polynomial) -> DivisionAlgebraHandle:
    """Q[t]/(m) with basis 1, t, ..., t^(deg-1); m must be irreducible.

    Irreducibility is decided by a budgeted factorization; a minimal
    polynomial whose factorization runs over budget, or over the degree the
    factorizer handles, is rejected as uncertified.
    """
    try:
        irreducible = is_irreducible(minpoly, FactorBudget())
    except (FactorBudgetExceeded, ValueError) as ex:
        raise ScenarioError(f"irreducibility of {minpoly!r:.40} could not be certified: {ex}") from ex
    if not irreducible:
        raise ScenarioError(f"{minpoly!r:.40} is reducible over Q; not a field")
    alg = regular_algebra_from_min_poly(minpoly)
    return DivisionAlgebraHandle(alg, CERTIFIED_FIELD, minpoly.monic())


def asserted_division_algebra(spec: AlgebraSpec) -> DivisionAlgebraHandle:
    rng = random.Random(_SMOKE_SEED)
    for _ in range(_SMOKE_SAMPLES):
        coords = [Fraction(rng.randrange(-5, 6)) for _ in range(spec.dim)]
        if all(x == 0 for x in coords):
            continue
        if not spec.is_invertible(coords):
            raise ScenarioError("smoke test found a non-invertible nonzero element")
    return DivisionAlgebraHandle(spec, ASSERTED_DIVISION)


# ======================================================================
# Bimodules
# ======================================================================

class Bimodule:
    """A finite-dimensional Q-space with commuting left/right algebra actions.

    Left action matrices are a unital representation of the x-side algebra;
    right action matrices represent right multiplication (so they compose
    contravariantly).  A right basis over the y-side division algebra is
    computed greedily over the standard basis and cached; it fixes the slot
    layout of every tensor space built from this bimodule.
    """

    def __init__(self, left_alg: DivisionAlgebraHandle, right_alg: DivisionAlgebraHandle,
                 dim: int, left_action: Sequence[RatMatrix], right_action: Sequence[RatMatrix]):
        self.left_alg = left_alg
        self.right_alg = right_alg
        self.dim = dim
        self.left_action = list(left_action)
        self.right_action = list(right_action)
        self._validate()
        self._right_basis: list[int] | None = None
        self._orbit_matrix: RatMatrix | None = None
        self._left_coord_table: dict[int, list[list[list[Fraction]]]] = {}

    def _validate(self) -> None:
        A, D = self.left_alg.spec, self.right_alg.spec
        for side, alg, mats in (("left", A, self.left_action), ("right", D, self.right_action)):
            err = action_error(alg, mats, self.dim, opposite=side == "right")
            if err is not None:
                raise ScenarioError(f"{side} action {err}")
        for i in range(A.dim):
            for j in range(D.dim):
                if self.left_action[i] * self.right_action[j] != self.right_action[j] * self.left_action[i]:
                    raise ScenarioError(f"left/right actions fail to commute at ({i},{j})")

    @property
    def rank_over_right(self) -> int:
        return self.dim // self.right_alg.dim

    def right_basis(self) -> list[int]:
        """Indices of a greedy right basis of M over the y-side algebra."""
        if self._right_basis is None:
            self._compute_right_basis()
        return self._right_basis

    def orbit_matrix(self) -> RatMatrix:
        """Columns (i, b) = (basis element m_i) * e_b; a Q-basis of M."""
        if self._orbit_matrix is None:
            self._compute_right_basis()
        return self._orbit_matrix

    def _compute_right_basis(self) -> None:
        picked, span = orbit_basis(self.right_action, self.dim)
        if len(picked) * self.right_alg.dim != self.dim:
            raise ScenarioError("bimodule is not free over the right algebra")
        self._right_basis = picked
        self._orbit_matrix = span

    def left_coords(self, a_index: int) -> list[list[list[Fraction]]]:
        """D-coordinates of e_a * m_i over the right basis.

        Entry [i][k] is the y-algebra coordinate vector d with
        e_a * m_i = sum_k m_k * d_k.
        """
        if a_index not in self._left_coord_table:
            basis = self.right_basis()
            nd = self.right_alg.dim
            # the images e_a * m_i are the basis columns of the left action
            coords = self.orbit_matrix().solve(self.left_action[a_index].submatrix(range(self.dim), basis))
            if coords is None:
                raise ScenarioError("left action does not preserve the module")  # unreachable
            grid = coords.to_fractions()
            self._left_coord_table[a_index] = [[[grid[k * nd + b][i] for b in range(nd)]
                                                for k in range(len(basis))] for i in range(len(basis))]
        return self._left_coord_table[a_index]


def scalar_bimodule(left: DivisionAlgebraHandle, right: DivisionAlgebraHandle, dim: int) -> Bimodule:
    """Q^dim with both algebras acting by scalars (both must be Q)."""
    if left.dim != 1 or right.dim != 1:
        raise ScenarioError("scalar bimodule requires Q on both sides")
    eye = RatMatrix.identity(dim)
    return Bimodule(left, right, dim, [eye], [eye])


def right_regular_bimodule(left: DivisionAlgebraHandle, right: DivisionAlgebraHandle) -> Bimodule:
    """The y-side algebra itself; x-side must be Q and acts by scalars."""
    if left.dim != 1:
        raise ScenarioError("x-side must be Q for the right regular bimodule")
    D = right.spec
    return Bimodule(left, right, D.dim, [RatMatrix.identity(D.dim)], list(D.right_mats))


def left_regular_bimodule(left: DivisionAlgebraHandle, right: DivisionAlgebraHandle) -> Bimodule:
    """The x-side algebra itself; y-side must be Q and acts by scalars."""
    if right.dim != 1:
        raise ScenarioError("y-side must be Q for the left regular bimodule")
    A = left.spec
    return Bimodule(left, right, A.dim, list(A.left_mats), [RatMatrix.identity(A.dim)])


def tensor_bimodule(left: DivisionAlgebraHandle, right: DivisionAlgebraHandle,
                    copies: int = 1) -> Bimodule:
    """(A tensor_Q D)^copies with the outer actions."""
    A, D = left.spec, right.spec
    eye_copies = RatMatrix.identity(copies)
    eye_d = RatMatrix.identity(D.dim)
    eye_a = RatMatrix.identity(A.dim)
    lmats = [eye_copies.kron(A.left_mats[i].kron(eye_d)) for i in range(A.dim)]
    rmats = [eye_copies.kron(eye_a.kron(D.right_mats[j])) for j in range(D.dim)]
    return Bimodule(left, right, copies * A.dim * D.dim, lmats, rmats)


# ======================================================================
# Scenarios
# ======================================================================

class SpeciesScenario:
    """The full datum behind a triangular matrix ring.

    x-vertices and y-vertices carry division algebra handles; bimodules are
    keyed by (x id, y id) and absent keys mean the zero bimodule, so a zero
    bimodule given is not stored.  Edges only ever connect the two sides.
    """

    def __init__(self, name: str,
                 x_vertices: Sequence[tuple[str, DivisionAlgebraHandle]],
                 y_vertices: Sequence[tuple[str, DivisionAlgebraHandle]],
                 bimodules: dict[tuple[str, str], Bimodule]):
        self.name = name
        self.x_vertices = list(x_vertices)
        self.y_vertices = list(y_vertices)
        self.bimodules = {key: bm for key, bm in bimodules.items() if bm.dim}
        self.x_ids = [v for v, _ in self.x_vertices]
        self.y_ids = [v for v, _ in self.y_vertices]
        self._handles = dict(self.x_vertices + self.y_vertices)
        self._canonical_fspaces: dict = {}  # extcat's shared F spaces of canonical Y, by y multiplicities
        self._nodes: dict = {}  # leaves proved by extcat's decompose or rigidity certificate: data_key() -> flag
        self._validate()

    def _validate(self) -> None:
        if len(self._handles) != len(self.x_ids) + len(self.y_ids):
            raise ScenarioError("vertex ids must be unique")
        xmap, ymap = dict(self.x_vertices), dict(self.y_vertices)
        for (x, y), bm in self.bimodules.items():
            if x not in xmap or y not in ymap:
                raise ScenarioError(f"bimodule ({x}, {y}) does not connect an x-vertex to a y-vertex")
            if bm.left_alg.key() != xmap[x].key() or bm.right_alg.key() != ymap[y].key():
                raise ScenarioError(f"bimodule ({x}, {y}) algebras do not match its endpoints")

    def algebra(self, vertex: str) -> DivisionAlgebraHandle:
        return self._handles[vertex]

    def vertex_order(self) -> list[str]:
        return self.x_ids + self.y_ids

    @cached_property
    def roots(self) -> Optional[tuple[tuple[int, ...], ...]]:
        """The positive roots in vertex order, enumerated on first read and kept; None in infinite type."""
        r = cartan_matrix(valued_graph(self))
        return tuple(positive_roots(r)) if is_finite_type(r) else None


# ======================================================================
# Valued graphs and root data
# ======================================================================

@dataclass
class ValuedGraph:
    """Simple graph with an ordered value pair per edge.

    An edge (a, b, d_ab, d_ba) is undirected; the pair records the two
    labels relative to its endpoints.  `side` tags are carried along when
    the graph comes from a scenario (x side / y side) and may be None.

    The graph must be symmetrizable (Dlab-Ringel): some positive f has
    d_ab f_a = d_ba f_b on every edge.  f_v = [D_v : Q] symmetrizes a
    scenario's graph and every tree is symmetrizable; nothing checks a
    cycle built by hand.
    """

    vertices: list[str]
    edges: list[tuple[str, str, int, int]]
    side: dict[str, Optional[str]] = field(default_factory=dict)

    def __post_init__(self):
        seen = set()
        for a, b, dab, dba in self.edges:
            if dab <= 0 or dba <= 0:
                raise ScenarioError("edge values must be positive")
            if a == b or frozenset((a, b)) in seen:
                raise ScenarioError("valued graph must be simple")
            seen.add(frozenset((a, b)))

    def adjacency(self) -> dict[str, list[tuple[str, int, int]]]:
        adj: dict[str, list[tuple[str, int, int]]] = {v: [] for v in self.vertices}
        for a, b, dab, dba in self.edges:
            adj[a].append((b, dab, dba))
            adj[b].append((a, dba, dab))
        return adj

    def components(self) -> list[list[str]]:
        adj = self.adjacency()
        seen: set[str] = set()
        comps = []
        for v in self.vertices:
            if v in seen:
                continue
            comp = []
            stack = [v]
            seen.add(v)
            while stack:
                u = stack.pop()
                comp.append(u)
                for w, _, _ in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            comps.append(comp)
        return comps


@dataclass
class RootDatum:
    """Cartan matrix: c_ii = 2, c_ij <= 0 otherwise, and c_ij = 0 exactly when c_ji = 0."""

    cartan: list[list[int]]
    vertices: list[str]

    def __post_init__(self):
        n, c = len(self.cartan), self.cartan
        for i in range(n):
            if c[i][i] != 2:
                raise ScenarioError("Cartan diagonal must be 2")
            for j in range(n):
                if i != j and c[i][j] > 0:
                    raise ScenarioError("Cartan off-diagonal entries must be <= 0")
                if (c[i][j] == 0) != (c[j][i] == 0):
                    raise ScenarioError("Cartan entries c_ij and c_ji must vanish together")

    @property
    def rank(self) -> int:
        return len(self.cartan)


def valued_graph(s: SpeciesScenario) -> ValuedGraph:
    """One vertex per species vertex; an edge per nonzero bimodule.

    The edge at (x, y) carries (dim of M over the x algebra, dim of M over
    the y algebra).
    """
    side = {v: "x" for v in s.x_ids}
    side.update({v: "y" for v in s.y_ids})
    edges = []
    for (x, y), bm in sorted(s.bimodules.items(), key=lambda kv: (s.x_ids.index(kv[0][0]),
                                                                  s.y_ids.index(kv[0][1]))):
        nx, ny = s.algebra(x).dim, s.algebra(y).dim
        if bm.dim % nx or bm.dim % ny:
            raise ScenarioError(f"bimodule at ({x}, {y}) has Q-dimension {bm.dim}, "
                                f"not divisible by an acting algebra dimension")
        edges.append((x, y, bm.dim // nx, bm.dim // ny))
    return ValuedGraph(s.vertex_order(), edges, side)


def cartan_matrix(g: ValuedGraph) -> RootDatum:
    """Cartan matrix of a valued graph: c_ab = -d_ab and c_ba = -d_ba for an edge (a, b, d_ab, d_ba)."""
    order = {v: i for i, v in enumerate(g.vertices)}
    n = len(g.vertices)
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b, dab, dba in g.edges:
        i, j = order[a], order[b]
        c[i][j] = -dab
        c[j][i] = -dba
    return RootDatum(c, list(g.vertices))


def ringel_form(s: SpeciesScenario, a: Sequence[int], b: Sequence[int]) -> int:
    """<a, b> = sum_v [D_v:Q] a_v b_v - sum_(x,y) dim_Q(M_xy) a_y b_x on dimension vectors in vertex order:
    dim Hom - dim Ext^1, the category being hereditary (Dlab-Ringel), from the vertex degrees and bimodule dims."""
    da, db = dict(zip(s.vertex_order(), a)), dict(zip(s.vertex_order(), b))
    return (sum(s.algebra(v).dim * da[v] * db[v] for v in da)
            - sum(bm.dim * da[y] * db[x] for (x, y), bm in s.bimodules.items()))


def is_finite_type(r: RootDatum) -> bool:
    """Finite type, read off the Cartan matrix: every leading principal minor is positive.

    C = F^-1 S with S symmetric and F = diag(f) positive, f_v = [D_v : Q]
    for a species (d_xy f_x = dim_Q M_xy = d_yx f_y).  Each leading principal
    minor of C is S's divided by a positive product, so Sylvester's
    criterion for S reads the same on C.  A no-swap fraction-free (Bareiss)
    elimination divides exactly on any integer matrix, and its pivots are
    those minors.
    """
    n = r.rank
    a = [list(row) for row in r.cartan]
    prev = 1
    for k in range(n):
        piv = a[k][k]
        if piv <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (piv * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = piv
    return True


_ROOT_ENUM_CAP = 100000


def positive_roots(r: RootDatum) -> list[tuple[int, ...]]:
    """All positive roots, as the reflection closure of the simple roots."""
    if not is_finite_type(r):
        raise ScenarioError("positive root enumeration requires finite type")
    n = r.rank
    c = r.cartan
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simples)
    work = list(simples)
    steps = 0
    while work:
        v = work.pop()
        for i in range(n):
            t = sum(c[i][j] * v[j] for j in range(n))
            w = list(v)
            w[i] = v[i] - t
            w = tuple(w)
            if w != v and all(x >= 0 for x in w) and w not in seen:
                seen.add(w)
                work.append(w)
        steps += 1
        if steps > _ROOT_ENUM_CAP:
            raise ScenarioError(f"positive root enumeration exceeded {_ROOT_ENUM_CAP} steps")
    return sorted(seen, key=lambda v: (sum(v), v))


# -- Dynkin diagram naming ---------------------------------------------

def _component_name(comp: list[str], g: ValuedGraph) -> Optional[str]:
    """The Dynkin name of a connected component from the shape of its tree, or None.

    A path with no multiple edge (value product above 1) is A_n.  With one,
    product 3 is G2 on two vertices; product 2 is F4 as the middle edge of
    four vertices, else it must end the path, which is B_n when the end
    vertex's value is 2 and C_n when it is 1.  A hub with three arms of
    simple edges is D_n for arm lengths (1, 1, k) and E_n for (1, 2, k <= 4).
    """
    edges = [e for e in g.edges if e[0] in comp]
    if len(edges) != len(comp) - 1:
        return None  # a connected graph with a cycle is no tree, so no Dynkin diagram
    n, adj = len(comp), g.adjacency()
    multiple = [e for e in edges if e[2] * e[3] > 1]
    hubs = [v for v in comp if len(adj[v]) > 2]
    if hubs:
        hub = hubs[0]
        if len(hubs) > 1 or len(adj[hub]) > 3 or multiple:
            return None
        arms = []
        for w, _, _ in adj[hub]:
            prev, length = hub, 1
            while len(adj[w]) == 2:
                prev, w, length = w, next(u for u, _, _ in adj[w] if u != prev), length + 1
            arms.append(length)
        arms.sort()
        if arms[:2] == [1, 1]:
            return f"D{n}"
        return f"E{n}" if arms[:2] == [1, 2] and arms[2] <= 4 else None
    if not multiple:
        return f"A{n}"
    if len(multiple) > 1:
        return None
    a, b, dab, dba = multiple[0]
    if dab * dba == 3:
        return "G2" if n == 2 else None
    if dab * dba != 2:
        return None
    if n == 2:
        # B2 and C2 are one valued graph; the side tags (x vertex = the
        # central vertex of the diagram list) give the stated orientation
        if g.side.get(comp[0]) is None:
            return "C2"
        return "C2" if (dab if g.side.get(a) == "x" else dba) == 2 else "B2"
    if len(adj[a]) == len(adj[b]) == 2:
        return "F4" if n == 4 else None
    return f"B{n}" if (dba if len(adj[b]) == 1 else dab) == 2 else f"C{n}"


def dynkin_name(g: ValuedGraph | RootDatum) -> str:
    """Name of the diagram up to valued-graph isomorphism, or "not-dynkin".

    Disjoint unions of named diagrams come back as a sorted '+'-join, e.g.
    "A1+G2".
    """
    if isinstance(g, RootDatum):
        g = _graph_from_cartan(g)
    names = []
    for comp in g.components():
        name = _component_name(comp, g)
        if name is None:
            return "not-dynkin"
        names.append(name)
    return "+".join(sorted(names))


def _graph_from_cartan(r: RootDatum) -> ValuedGraph:
    n = r.rank
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if r.cartan[i][j]:
                edges.append((r.vertices[i], r.vertices[j], -r.cartan[i][j], -r.cartan[j][i]))
    return ValuedGraph(list(r.vertices), edges)


# ======================================================================
# Center of the triangular matrix ring
# ======================================================================

@dataclass
class RingCenter:
    """The center, as a commutative algebra plus its embedding.

    `elements[k][v]` is the coordinate vector (in the vertex algebra at v)
    of the k-th basis element's component at vertex v.
    """

    algebra: AlgebraSpec
    elements: list[dict[str, list[Fraction]]]

    @property
    def dim(self) -> int:
        return self.algebra.dim


def ring_center(s: SpeciesScenario) -> RingCenter:
    """Solve the centrality constraints x*m = m*y across every bimodule.

    Unknowns range over the centers of the vertex algebras; a pair is
    central in the triangular ring iff the left action of its x-component
    equals the right action of its y-component on every bimodule.
    """
    vertex_ids = s.vertex_order()
    cbases = {v: _center(s.algebra(v).spec) for v in vertex_ids}
    # the column of one unknown: its left action on each bimodule at its
    # x-vertex, minus its right action on each bimodule at its y-vertex
    bims = sorted(s.bimodules.items())
    columns = []
    for v in vertex_ids:
        c = cbases[v]
        for k in range(c.cols):
            coeffs = [r[k] for r in c.num]
            columns.append(_flat_matrices([
                _combine(bm.left_action, coeffs, c.den, bm.dim, bm.dim) if v == x else
                _combine(bm.right_action, [-e for e in coeffs], c.den, bm.dim, bm.dim) if v == y else
                RatMatrix.zeros(bm.dim, bm.dim) for (x, y), bm in bims]))
    solutions = _kernel(_flat_columns(columns, sum(bm.dim ** 2 for _, bm in bims)))
    n = solutions.cols
    comps, start = {}, 0
    for v in vertex_ids:
        nc = cbases[v].cols
        comps[v] = cbases[v] * solutions.submatrix(range(start, start + nc), range(n))
        start += nc
    elements = [{v: comps[v].column(k) for v in vertex_ids} for k in range(n)]
    # products and the unit in the ring's own coordinates (all vertex
    # components in a row), where the elements are linearly independent
    ambient = sum(s.algebra(v).dim for v in vertex_ids)

    def stacked(blocks: list[RatMatrix]) -> RatMatrix:
        flat, d = _flat_matrices(blocks)
        return RatMatrix(ambient, n, [flat[i * n:(i + 1) * n] for i in range(ambient)], d)

    products = []
    for k in range(n):
        blocks = []
        for v in vertex_ids:
            c, dv = comps[v], s.algebra(v).dim
            blocks.append(_combine(s.algebra(v).spec.left_mats, [r[k] for r in c.num], c.den, dv, dv) * c)
        products += _int_columns(stacked(blocks))
    unit = _int_vector([t for v in vertex_ids for t in s.algebra(v).spec.unit])
    alg = structure_constants(stacked([comps[v] for v in vertex_ids]), [*products, unit])
    if alg is None:
        raise ScenarioError("triangular ring unit is not in the computed center")
    if not alg.is_commutative():
        raise ScenarioError("computed center is not commutative")  # unreachable
    return RingCenter(alg, elements)
