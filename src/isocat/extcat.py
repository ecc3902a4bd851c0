"""The category of triples (X, Y, eta) over a species scenario.

An object assigns a module to every vertex (its `parts`, one space per
vertex) and, per x-vertex, a structure map eta from the induced tensor
space F(Y) into the x-component.  A morphism is one equivariant map per
vertex (its `maps`), u on the x-vertices and v on the y-vertices, with
u . eta = eta' . F(v); x, y, u and v are per-side views for outside
callers.  Hom and Ext^1 are the kernel and cokernel of psi(u, v) =
u . eta - eta' . F(v), from the nonzero entries of the equivariant bases:
hom reads psi's v block off the v basis as blocks with disjoint rows and
builds no v column, and ranks each distinct block alone unless its
left-null rows are needed; ext1 takes dim Ext^1 = nrows - rank(psi) from
hom's rank, which hom keeps on its source object for the last target it
was asked for, and reads its classes off hom's blocks and u-only system
when they are read.  Also here: universal extensions, length-1 projective
resolutions, kernels/cokernels/images, torsion pairs, endomorphism
algebras and an exact Krull-Schmidt-style decomposition.

Each tensor space F(Y)_x is a `VertexSpace` of the x algebra like any
other, with its y block offsets.  It uses the slot basis m_i (x) f_c
ordered (i, c): for the bimodule at (x, y), m_0..m_{r-1} is the greedy
right basis of M over the y algebra and f_c is the basis the y component
already has.  So F(v) is I_r (x) v, and block (k, i) of e_a's action on
F(Y) is the action on Y of the y coordinates of the m_k part of e_a . m_i,
which the bimodule keeps in integers from construction.  The slot layout is
part of every object's identity, so serialized objects round-trip exactly.

Canonical components are shared values: `canonical_space` returns one
space per (algebra instance, multiplicity), held by the algebra, and the F
spaces of a Y whose parts all act exactly as those shared spaces are one
value per (scenario instance, y multiplicities), held by the scenario.
They live as long as their algebra or scenario; only a shared canonical
space's v-block grouping is written.  Hom terms between canonical spaces are the algebra's
`pair_terms`, kept by the algebra.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm
from typing import Callable, Iterable, Optional, Sequence

from .exactalg import (
    AlgebraSpec,
    FactorBudget,
    FactorBudgetExceeded,
    RatMatrix,
    _assemble,
    _back_solve,
    _back_solver,
    _block_copies,
    _combine,
    _combine_terms,
    _commutant_coords,
    _echelon,
    _eliminated,
    _flat_columns,
    _flat_matrices,
    _int_factor,
    _int_min_poly_matrix,
    _int_poly_bezout,
    _int_poly_exact_div,
    _int_poly_mul,
    _int_squarefree,
    _quotient_algebra,
    _nonzero_entries,
    _null_rows,
    _null_space,
    _radical,
    _vector_min_poly,
    action_error,
    commutant_basis,
    structure_constants,
)
from .species import DivisionAlgebraHandle, SpeciesScenario


class TripleError(ValueError):
    pass


class InternalConsistencyError(RuntimeError):
    """A statement the machinery relies on failed to verify."""


# ======================================================================
# Vertex spaces
# ======================================================================

class VertexSpace:
    """A Q-space with a unital action of one vertex algebra.

    `canonical` is (algebra key, multiplicity) for a `canonical_space`.  A
    tensor space F(Y)_x has `offsets`, where each y block starts; other
    spaces have None.  A shared canonical space has `_groups`, `_v_groups`
    of its v basis by (target, raw).
    """

    __slots__ = ("dim", "action", "_key", "canonical", "offsets", "_groups")

    def __init__(self, dim: int, action: Sequence[RatMatrix],
                 canonical: Optional[tuple] = None, offsets: Optional[dict[str, int]] = None):
        self.dim = dim
        self.action = list(action)
        self.canonical = canonical
        self.offsets = offsets
        self._key = self._groups = None

    def key(self) -> tuple:
        if self._key is None:
            self._key = (self.dim, tuple(m.key() for m in self.action))
        return self._key


def canonical_space(handle: DivisionAlgebraHandle, mult: int) -> VertexSpace:
    """mult copies of the algebra acting on itself from the left: e_b acts by I_mult (x) L_b.

    One shared value per (algebra instance, mult), held by the algebra for
    its lifetime; nothing may write to it.
    """
    if type(mult) is not int or mult < 0:
        raise TripleError(f"multiplicity must be a non-negative int, not {mult!r}")
    spec = handle.spec
    space = spec._canonical_spaces.get(mult)
    if space is None:
        action = [_block_copies(mult, lm) for lm in spec.left_mats]
        space = spec._canonical_spaces[mult] = VertexSpace(mult * spec.dim, action, canonical=(spec.key(), mult))
        space._groups = {}
    return space


def _shared(alg: AlgebraSpec, vs: VertexSpace) -> bool:
    """Whether vs is the shared `canonical_space` of this algebra instance."""
    return vs.canonical is not None and alg._canonical_spaces.get(vs.canonical[1]) is vs


def _acts_canonically(handle: DivisionAlgebraHandle, vs: VertexSpace) -> bool:
    """Whether vs is, or acts exactly as, `canonical_space` of its multiplicity.

    Compares with the shared space when the algebra holds one, else with
    temporary block copies, so no space is stored on the algebra.
    """
    spec, (m, r) = handle.spec, divmod(vs.dim, handle.dim)
    if r:
        return False
    space = spec._canonical_spaces.get(m)
    return vs.action == (space.action if space is not None else [_block_copies(m, lm) for lm in spec.left_mats])


# ======================================================================
# Equivariant hom spaces (with cache)
# ======================================================================

Terms = tuple[list[list[tuple[int, int, int]]], int]  # a basis as `_nonzero_entries` gives it

_HOM_CACHE: dict[tuple, Terms] = {}  # commutant bases, as their terms


def _hom_dim(alg: AlgebraSpec, src, dst) -> int:
    """The length of `_hom_terms(alg, src, dst)`: over a division algebra D every module is free,
    so dim Hom_D(V, W) = dim V . dim W / dim D (Dlab-Ringel)."""
    return src.dim * dst.dim // alg.dim


def _hom_terms(alg: AlgebraSpec, src: VertexSpace, dst: VertexSpace) -> Terms:
    """Basis of the algebra-equivariant maps src -> dst, as `_nonzero_entries` (terms, den).

    Over zero spaces and over Q it is written out; between canonical spaces
    it is the algebra's `pair_terms`; other pairs read their commutant basis
    through `_HOM_CACHE`.
    """
    if src.dim == 0 or dst.dim == 0:
        return [], 1
    if alg.dim == 1:  # a Q action is scalar, so every map is equivariant
        return [[(k, l, 1)] for k in range(dst.dim) for l in range(src.dim)], 1
    if src.canonical is not None and dst.canonical is not None and src.canonical[0] == dst.canonical[0]:
        return alg.pair_terms(src.canonical[1], dst.canonical[1])
    key = (alg.key(), src.key(), dst.key())
    if key not in _HOM_CACHE:
        _HOM_CACHE[key] = _nonzero_entries(commutant_basis(src.action, dst.action), dst.dim, src.dim)
    return _HOM_CACHE[key]


def equivariant_hom_basis(alg: AlgebraSpec, src: VertexSpace, dst: VertexSpace) -> list[RatMatrix]:
    """Basis of the algebra-equivariant maps src -> dst, as matrices built from `_hom_terms`."""
    terms, den = _hom_terms(alg, src, dst)
    return [_combine_terms([ents], [1], den, dst.dim, src.dim) for ents in terms]


# ======================================================================
# Tensor structure
# ======================================================================

def _build_fspaces(scenario: SpeciesScenario, parts: dict[str, VertexSpace]) -> dict[str, VertexSpace]:
    """The tensor spaces F(Y)_x of parts' y parts, as `_fresh_fspaces` builds them.

    F(Y) depends only on the y actions, so when every y part acts exactly as the shared `canonical_space`
    of its own vertex's algebra (is it, or equals it, as a retract piece
    may), the result is one shared value per (scenario instance, y
    multiplicities), held by the scenario for its lifetime; nothing may
    write to it.  Every other input is built afresh by `_fresh_fspaces`.
    """
    if not all(_acts_canonically(scenario.algebra(y), parts[y]) for y in scenario.y_ids):
        return _fresh_fspaces(scenario, parts)
    key = tuple(parts[y].dim // scenario.algebra(y).dim for y in scenario.y_ids)
    if key not in scenario._canonical_fspaces:
        scenario._canonical_fspaces[key] = _fresh_fspaces(scenario, parts)
    return scenario._canonical_fspaces[key]


def _fresh_fspaces(scenario: SpeciesScenario, parts: dict[str, VertexSpace]) -> dict[str, VertexSpace]:
    """New F spaces F(Y)_x of parts' y parts, each with its y block offsets and the action of the x algebra.

    Cell (k, i) of the r x r grid at y, for e_a, is the m_k part of e_a . m_i: the
    action of d / den on Y_y for each nonzero cell (k, i, d) of the bimodule's
    integer `left_terms[a]` over its `left_den`.  Nothing is looked up or memoised.
    """
    out = {}
    for x in scenario.x_ids:
        offsets: dict[str, int] = {}
        total = 0
        for y in scenario.y_ids:
            bm = scenario.bimodules.get((x, y))
            width = bm.rank_over_right * parts[y].dim if bm is not None else 0
            if width:
                offsets[y] = total
                total += width
        action = []
        for a in range(scenario.algebra(x).dim):
            cells = []
            for y, off in offsets.items():
                vs, n, bm = parts[y], parts[y].dim, scenario.bimodules[(x, y)]
                cells += [(off + k * n, off + i * n, _combine(vs.action, d, bm.left_den, n, n))
                          for k, i, d in bm.left_terms[a]]
            action.append(_assemble(total, total, cells))
        out[x] = VertexSpace(total, action, offsets=offsets)
    return out


def _block_diag(blocks: list[RatMatrix]) -> RatMatrix:
    placed = []
    r = c = 0
    for b in blocks:
        placed.append((r, c, b))
        r, c = r + b.rows, c + b.cols
    return _assemble(r, c, placed)


def _eta_f(z2: "TripleObject", x: str, v: dict, src_f: dict[str, VertexSpace]) -> RatMatrix:
    """eta'_x . F(v) for v: Y -> z2.y, with no F(v) = I_r (x) v_y built: slot i of y's columns is eta'
    at its own slot i of y times v_y (a v_y given as a list of indices is the unit columns there)."""
    eta, sf, df, blocks = z2.eta[x], src_f[x], z2.f[x], []
    for y in sf.offsets.keys() & df.offsets.keys():  # a y block in one F space alone meets only zeros
        m, n2 = v[y], z2.parts[y].dim
        for i in range(z2.scenario.bimodules[(x, y)].rank_over_right):
            at = range(df.offsets[y] + i * n2, df.offsets[y] + (i + 1) * n2)
            b = eta.submatrix(range(eta.rows), [at[j] for j in m] if isinstance(m, list) else at)
            b = b if isinstance(m, list) else b * m
            blocks.append((0, sf.offsets[y] + i * b.cols, b))
    return _assemble(eta.rows, sf.dim, blocks)


# ======================================================================
# Objects and morphisms
# ======================================================================

class TripleObject:
    """An object (X, Y, eta) over a fixed scenario; the constructor checks every invariant (`validate`).

    parts holds one `VertexSpace` per vertex, in vertex order, x-vertices
    then y-vertices; eta holds one map F(Y)_x -> X_x per x-vertex.  `x` and
    `y`, the x parts and the y parts, are read-only views for outside
    callers; each builds a dict.  `_ext1` is the one attribute written after
    construction: `hom(self, z2)` memoises (weak z2, dim Ext^1) there for
    `ext1`, so it keeps no target alive.
    """

    def __init__(self, scenario: SpeciesScenario, parts: dict[str, VertexSpace], eta: dict[str, RatMatrix]):
        _check_ids(scenario, parts, eta)
        err = _components_error(scenario, parts)  # before F(Y) is built on the parts
        if err is not None:
            raise TripleError(err)
        parts = {v: parts[v] for v in scenario.vertex_order()}
        self._setup(scenario, parts, eta, _build_fspaces(scenario, parts))
        err = _eta_error(self)
        if err is not None:
            raise TripleError(err)

    x = property(lambda self: {x: self.parts[x] for x in self.scenario.x_ids})
    y = property(lambda self: {y: self.parts[y] for y in self.scenario.y_ids})

    @classmethod
    def _with_fspaces(cls, scenario: SpeciesScenario, parts: dict[str, VertexSpace],
                      eta: dict[str, RatMatrix], fspaces: dict[str, VertexSpace]) -> "TripleObject":
        """The object over parts, in vertex order, with `_build_fspaces(scenario, parts)` built already, for
        parts and an eta its caller vouches for: only eta's presence and shapes are checked."""
        z = cls.__new__(cls)
        z._setup(scenario, parts, eta, fspaces)
        return z

    def _setup(self, scenario: SpeciesScenario, parts: dict[str, VertexSpace],
               eta: dict[str, RatMatrix], fspaces: dict[str, VertexSpace]) -> None:
        self.scenario = scenario
        self.parts = parts
        self.eta = dict(eta)
        self.f = fspaces
        self._ext1 = None
        for xv in scenario.x_ids:
            m = self.eta.get(xv)
            if m is None:
                raise TripleError(f"missing eta component at {xv!r}")
            if (m.rows, m.cols) != (parts[xv].dim, fspaces[xv].dim):
                raise TripleError(f"eta at {xv!r} has shape {m.rows}x{m.cols}, "
                                  f"expected {parts[xv].dim}x{fspaces[xv].dim}")

    def total_dim(self) -> int:
        return sum(vs.dim for vs in self.parts.values())

    def dimension_vector(self) -> tuple[int, ...]:
        """Multiplicities over the vertex division algebras, in vertex order."""
        out = []
        for v, part in self.parts.items():
            n = self.scenario.algebra(v).dim
            if part.dim % n:
                raise TripleError(f"component at {v!r} is not free over its algebra")
            out.append(part.dim // n)
        return tuple(out)

    def data_key(self) -> tuple:
        return (tuple(vs.key() for vs in self.parts.values()),
                tuple(self.eta[v].key() for v in self.scenario.x_ids))

    def __repr__(self) -> str:
        return f"TripleObject({self.scenario.name}, dims={self.dimension_vector()})"


def _check_ids(s: SpeciesScenario, vertex_keys: Iterable[str], eta_keys: Iterable[str] = ()) -> None:
    """Raise `TripleError` naming the first vertex key that is not a vertex of s, or eta key that is not an x-vertex."""
    for keys, ids, kind in ((vertex_keys, s.vertex_order(), "a vertex"), (eta_keys, s.x_ids, "an x-vertex")):
        bad = [k for k in keys if k not in ids]
        if bad:
            raise TripleError(f"{bad[0]!r} is not {kind} of {s.name!r}")


def _space_error(alg: AlgebraSpec, vs: VertexSpace) -> Optional[str]:
    """None if vs is a free unital representation of alg, else the first violation."""
    err = action_error(alg, vs.action, vs.dim)
    return None if err is None else f"vertex space {err}"


def _components_error(s: SpeciesScenario, parts: dict[str, VertexSpace]) -> Optional[str]:
    """None if every component is present and a unital representation, else the first violation.

    A shared canonical space at a vertex of its own algebra instance is
    skipped: it acts by I_m (x) L_b, and `AlgebraSpec` checked L's laws.
    """
    for ids, side in ((s.x_ids, "x"), (s.y_ids, "y")):
        for v in ids:
            if v not in parts:
                return f"missing {side} component at {v!r}"
            spec, vs = s.algebra(v).spec, parts[v]
            if _shared(spec, vs):
                continue
            err = _space_error(spec, vs)
            if err is not None:
                return f"{side}-component at {v!r}: {err}"
    return None


def _eta_error(z: TripleObject) -> Optional[str]:
    """None if every eta is equivariant, else the first violation."""
    s = z.scenario
    for xv in s.x_ids:
        alg = s.algebra(xv).spec
        eta = z.eta[xv]
        fsp = z.f[xv]
        for a in range(alg.dim):
            if eta * fsp.action[a] != z.parts[xv].action[a] * eta:
                return f"eta at {xv!r} is not equivariant for algebra basis element {a}"
    return None


def validate(z: TripleObject) -> Optional[str]:
    """None if every invariant holds, else the first violation."""
    return _components_error(z.scenario, z.parts) or _eta_error(z)


@dataclass
class TripleMorphism:
    """One equivariant map per vertex, maps[w]: source_w -> target_w, with a commuting eta square.

    maps runs in vertex order, x-vertices then y-vertices.  `u` and `v`, its
    x part and its y part, are read-only views for outside callers; each
    builds a dict.
    """

    source: TripleObject
    target: TripleObject
    maps: Mapping[str, RatMatrix]

    u = property(lambda self: {x: self.maps[x] for x in self.source.scenario.x_ids})
    v = property(lambda self: {y: self.maps[y] for y in self.source.scenario.y_ids})

    def check(self) -> Optional[str]:
        s = self.source.scenario
        if self.target.scenario is not s:
            return "source and target live over different scenarios"
        for ids, name in ((s.x_ids, "u"), (s.y_ids, "v")):
            for w in ids:  # the map's presence and shape, before any product with it
                f, src, dst = self.maps.get(w), self.source.parts[w], self.target.parts[w]
                if f is None:
                    return f"missing {name} map at {w!r}"
                if f.rows != dst.dim or f.cols != src.dim:
                    return f"{name} at {w!r} has shape {f.rows}x{f.cols}, expected {dst.dim}x{src.dim}"
                # a Q action is scalar: all maps commute
                if s.algebra(w).dim > 1 and any(f * m != n * f for m, n in zip(src.action, dst.action)):
                    return f"{name} at {w!r} not equivariant"
        if len(self.maps) > len(self.source.parts):  # every vertex has its map, so some key is not a vertex
            return f"map at {next(w for w in self.maps if w not in self.source.parts)!r}, which is not a vertex"
        for xv in s.x_ids:
            if self.maps[xv] * self.source.eta[xv] != _eta_f(self.target, xv, self.maps, self.source.f):
                return f"eta square does not commute at {xv!r}"
        return None

    def _keyed(self, other: "TripleMorphism") -> None:
        """Raise `TripleError` with `check`'s report unless each side has one map per vertex of its source."""
        for m in (self, other):
            if m.maps.keys() != m.source.parts.keys():  # then check stops at a map before any eta square
                raise TripleError(m.check())

    def compose(self, other: "TripleMorphism") -> "TripleMorphism":
        """self . other (apply other first)."""
        _same_scenario(other.source, self.target)
        if not _same_object(other.target, self.source):
            raise TripleError("composition endpoint mismatch")
        self._keyed(other)
        return TripleMorphism(other.source, self.target, {w: m * other.maps[w] for w, m in self.maps.items()})

    def __add__(self, other: "TripleMorphism") -> "TripleMorphism":
        _same_scenario(self.source, self.target)
        if not (_same_object(self.source, other.source) and _same_object(self.target, other.target)):
            raise TripleError("sum endpoint mismatch")
        self._keyed(other)
        return TripleMorphism(self.source, self.target, {w: m + other.maps[w] for w, m in self.maps.items()})

    def __sub__(self, other: "TripleMorphism") -> "TripleMorphism":
        return self + TripleMorphism(other.source, other.target, {w: -m for w, m in other.maps.items()})

    def scale(self, c) -> "TripleMorphism":
        return TripleMorphism(self.source, self.target, {w: m.scale(c) for w, m in self.maps.items()})

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.maps.values())

    def flatten(self) -> list[Fraction]:
        flat, den = _flat_morphism(self)
        return [Fraction(e, den) for e in flat]


def _flat_morphism(m: TripleMorphism) -> tuple[list[int], int]:
    """The entries `TripleMorphism.flatten` lists, as integers over one denominator, in vertex order."""
    return _flat_matrices([m.maps[w] for w in m.source.parts])


def zero_morphism(src: TripleObject, dst: TripleObject) -> TripleMorphism:
    return TripleMorphism(src, dst, {w: RatMatrix.zeros(dst.parts[w].dim, vs.dim) for w, vs in src.parts.items()})


def _combine_morphisms(src: TripleObject, dst: TripleObject, basis: Sequence[TripleMorphism],
                       coeffs: Sequence) -> TripleMorphism:
    """sum_k coeffs[k] * basis[k] for morphisms src -> dst, one matrix per vertex."""
    return TripleMorphism(src, dst, {w: RatMatrix.combine([m.maps[w] for m in basis], coeffs, dst.parts[w].dim, vs.dim)
                                     for w, vs in src.parts.items()})


def identity_morphism(z: TripleObject) -> TripleMorphism:
    return TripleMorphism(z, z, {w: RatMatrix.identity(vs.dim) for w, vs in z.parts.items()})


# -- convenient constructors -------------------------------------------

def canonical_object(scenario: SpeciesScenario, mult: dict[str, int],
                     eta: dict[str, RatMatrix] | None = None) -> TripleObject:
    """Object with canonically presented components of given multiplicities.

    With eta omitted, every structure map is zero.  A mult key that is not a
    vertex, or an eta key that is not an x-vertex, is an error.
    """
    eta = eta or {}
    _check_ids(scenario, mult, eta)
    parts = {v: canonical_space(scenario.algebra(v), mult.get(v, 0)) for v in scenario.vertex_order()}
    fsp = _build_fspaces(scenario, parts)
    full_eta = {x: eta[x] if x in eta else RatMatrix.zeros(parts[x].dim, fsp[x].dim) for x in scenario.x_ids}
    return TripleObject(scenario, parts, full_eta)


def simple_x_object(scenario: SpeciesScenario, x: str) -> TripleObject:
    return canonical_object(scenario, {x: 1})


def simple_y_object(scenario: SpeciesScenario, y: str) -> TripleObject:
    return canonical_object(scenario, {y: 1})


def x_only(z: TripleObject) -> TripleObject:
    s = z.scenario
    parts = {v: vs if v in z.eta else canonical_space(s.algebra(v), 0) for v, vs in z.parts.items()}
    eta = {x: RatMatrix.zeros(parts[x].dim, 0) for x in s.x_ids}
    return TripleObject._with_fspaces(s, parts, eta, _build_fspaces(s, parts))


def y_only(z: TripleObject) -> TripleObject:
    s = z.scenario
    parts = {v: canonical_space(s.algebra(v), 0) if v in z.eta else vs for v, vs in z.parts.items()}
    eta = {x: RatMatrix.zeros(0, z.f[x].dim) for x in s.x_ids}
    return TripleObject._with_fspaces(s, parts, eta, z.f)


# ======================================================================
# Hom and Ext
# ======================================================================

def _same_scenario(z: TripleObject, z2: TripleObject) -> SpeciesScenario:
    """The scenario of a pair, which must be one instance: two scenarios may share a name."""
    if z.scenario is not z2.scenario:
        raise TripleError("objects live over different scenarios")
    return z.scenario


def _same_object(z: TripleObject, z2: TripleObject) -> bool:
    """Whether z and z2 are one object: the same instance, or equal data over one scenario."""
    return z is z2 or (_same_scenario(z, z2) and z.data_key() == z2.data_key())


def _bases(z: TripleObject, z2: TripleObject) -> tuple[dict[str, Terms], dict[str, Terms]]:
    """The bases of a pair as `_hom_terms`: Hom(z_w, z2_w) per vertex w, in vertex order (u on the
    x-vertices, v on the y-vertices), and Hom(F(Y), X') per x-vertex over a field larger than Q, where
    `_columns` reads coordinates off it (over Q they are the entries)."""
    s = _same_scenario(z, z2)
    return ({w: _hom_terms(s.algebra(w).spec, vs, z2.parts[w]) for w, vs in z.parts.items()},
            {x: _hom_terms(s.algebra(x).spec, z.f[x], z2.parts[x]) for x in s.x_ids if s.algebra(x).dim > 1})


def hom_space_dims(z: TripleObject, z2: TripleObject) -> tuple[int, int, int]:
    """(dim Hom on x parts, dim Hom on y parts, dim Hom(F(Y), X')), sums of `_hom_dim`s: no basis is built.

    One pass over the vertices sizes a pair: `hom`, and so cold `ext1`, and
    `euler_form` (su + sv - sf) size it once.
    """
    s, parts, f, dst = _same_scenario(z, z2), z.parts, z.f, z2.parts
    su = sv = sf = 0
    for x in s.x_ids:
        alg = s.algebra(x).spec
        su += _hom_dim(alg, parts[x], dst[x])
        sf += _hom_dim(alg, f[x], dst[x])
    for y in s.y_ids:
        sv += _hom_dim(s.algebra(y).spec, parts[y], dst[y])
    return su, sv, sf


def _columns(z: TripleObject, z2: TripleObject, parts: list, fbases: dict[str, Terms]) -> list[list[tuple[int, int]]]:
    """psi's columns for the basis terms of each (vertex w, terms, big) of parts, in that order, each over
    big times its den, rows increasing: u . eta at an x-vertex (eta.den divides big), -(eta' . F(v)) at
    a y-vertex (each eta'.den divides big).  F(v) = I_r (x) v on y's block, so entry (k, j) of v meets
    eta'_x's column dst + i * n2 + k of each slot i and lands in column src + i * n1 + j of F(Y)_x.  An
    image is {row-major index: integer}: over Q the index is psi's row; else one `_commutant_coords` per
    x-vertex reads it off the Hom(F(Y)_x, X'_x) commutant basis (F is never canonical), and its exact
    recombination check proves the image equivariant.  x's block of psi's rows starts at off."""
    s, cols, off = z.scenario, [[] for _, terms, _ in parts for _ in terms], 0
    for x in s.x_ids:
        width, at, imgs, c = z.f[x].dim, [], [], 0  # at: the column of each image
        for w, terms, big in parts:
            built = len(imgs)
            if w == x:  # row i of u . eta is the sum of e * (row j of eta) over u's entries (i, j, e)
                f = big // z.eta[x].den
                rows = [[(l, f * g) for l, g in enumerate(row) if g] for row in z.eta[x].num]
                for ents in terms:
                    img = {}
                    for i, j, e in ents:
                        for l, g in rows[j]:
                            p = i * width + l
                            img[p] = img.get(p, 0) + e * g
                    imgs.append(img)
            elif w not in z.eta and terms and w in z.f[x].offsets:  # nonzero v terms: both F spaces hold w
                eta2, n1, n2, scale = z2.eta[x], z.parts[w].dim, z2.parts[w].dim, -(big // z2.eta[x].den)
                src, dst, ecols = z.f[x].offsets[w], z2.f[x].offsets[w], {}  # ecols[k]: (base, scale * entry)
                for i in range(s.bimodules[(x, w)].rank_over_right):
                    for a, row in enumerate(eta2.num):
                        for k, g in enumerate(row[dst + i * n2:dst + (i + 1) * n2]):
                            if g:
                                ecols.setdefault(k, []).append((a * width + src + i * n1, scale * g))
                for ents in terms:
                    img = {}
                    for k, j, e in ents:
                        for base, g in ecols.get(k, ()):
                            img[base + j] = img.get(base + j, 0) + g * e
                    imgs.append(img)
            at += range(c, c + len(imgs) - built)
            c += len(terms)
        if x not in fbases:  # over Q
            for c, img in zip(at, imgs):
                cols[c] += sorted((off + p, e) for p, e in img.items() if e)
        elif imgs:
            coords = _commutant_coords(*fbases[x], width, imgs)
            if coords is None:
                raise InternalConsistencyError("map is not equivariant: no coordinates")
            for c, ents in zip(at, coords):
                cols[c] += [(off + k, e) for k, e in ents]
        off += len(fbases[x][0]) if x in fbases else width * z2.parts[x].dim  # x's rows: Hom(F(Y)_x, X'_x)
    return cols


def _v_groups(terms: list, dim: int, raw: bool) -> tuple[list[tuple[int, list]], list]:
    """(uses, patterns): one y's v columns grouped for `_v_blocks`, from its v basis terms alone.

    F(v) = I_r (x) v, so v_l meets only psi's rows (x, a, slot i, j) for the
    source indices j < dim of its terms: a union-find over those j groups
    the columns (local, right to left).  Where y meets x-vertices over Q
    alone (raw), those rows are psi's, so a group's terms are taken relative
    to its root j0 and groups of one term pattern share one W; beyond Q no
    group shifts.  uses is (pattern length, [(row shift, columns)]) per
    distinct pattern, and patterns their terms, in order.
    """
    root = list(range(dim))

    def find(j: int) -> int:
        while root[j] != j:
            j = root[j]
        return j
    for ents in terms:
        for _, j, _ in ents[1:]:
            root[find(j)] = find(ents[0][1])
    groups: dict[int, list[int]] = {}
    for l in range(len(terms) - 1, -1, -1):  # columns right to left
        groups.setdefault(find(terms[l][0][1]), []).append(l)
    uses: dict[tuple, list] = {}  # term pattern -> (row shift, columns) per group
    for j0, ls in groups.items():
        shift = j0 if raw else 0
        key = tuple([tuple([(k, j - shift, e) for k, j, e in terms[l]]) for l in ls])
        uses.setdefault(key, []).append((shift, ls))
    return [(len(key), shifts) for key, shifts in uses.items()], [ents for key in uses for ents in key]


def _v_blocks(z: TripleObject, z2: TripleObject, bases: dict[str, Terms], fbases: dict[str, Terms],
              nu: int, den: int) -> list[tuple[list[int], list[int], tuple]]:
    """psi's nonzero v columns over den as blocks (columns, rows, W) with disjoint rows.

    W has a tuple of (local row j, integer) per column, columns right to
    left; local row j is psi's row rows[j].  The groups and term patterns
    of `_v_groups` depend on the two y spaces and raw alone, so between
    shared canonical y parts they are built once and kept in the source's
    `_groups`; other y parts group per call.  One `_columns` call per y
    reads each pattern once, through the commutant basis beyond Q.
    """
    s, blocks, c0 = z.scenario, [], nu
    for y in s.y_ids:
        (terms, vden), alg, src, dst = bases[y], s.algebra(y).spec, z.parts[y], z2.parts[y]
        raw = not any(y in z.f[x].offsets for x in fbases)  # y meets x-vertices over Q alone
        memo = src._groups if _shared(alg, src) and _shared(alg, dst) else {}
        if (dst, raw) not in memo:
            memo[dst, raw] = _v_groups(terms, src.dim, raw)
        uses, patterns = memo[dst, raw]
        cols = iter(_columns(z, z2, [(y, patterns, den // vden)], fbases))
        for n, shifts in uses:
            at = {}  # W's local rows, in order of appearance
            w = tuple(tuple((at.setdefault(r, len(at)), e) for r, e in next(cols)) for _ in range(n))
            if at:  # else the pattern's columns are 0
                blocks += [([c0 + l for l in ls], [r + shift for r in at], w) for shift, ls in shifts]
        c0 += len(terms)
    return blocks


def _w_echelon(w: tuple, ident: bool) -> tuple[list[int], list[dict[int, int]], list[dict[int, int]]]:
    """(P, ech, N): `_echelon` of a block W's rows, built fresh, or of [W | I]'s when ident.

    P are W's pivots and ech their rows.  With ident, local row j is 1 at
    column n + j, and N, the rows pivoting there, are W's left-null rows in
    `_echelon`'s key order: they are only summed, never eliminated again.
    """
    n, rows = len(w), {}
    for k, col in enumerate(w):
        for j, e in col:
            rows.setdefault(j, {})[k] = e
    if ident:
        for j, row in rows.items():
            row[n + j] = 1
    pivots, ech, _, _ = _echelon(list(rows.values()))
    r = bisect_left(pivots, n)
    return pivots[:r], ech[:r], ech[r:]


def hom(z: TripleObject, z2: TripleObject) -> Sequence[TripleMorphism]:
    """Basis of the space of morphisms z -> z2, built as read: `_hom`'s, which also keeps dim Ext^1 for `ext1`."""
    return _hom(z, z2)[0]()


def _column_den(z: TripleObject, z2: TripleObject, bases: dict[str, Terms]) -> int:
    """The one denominator over which `_columns` gives psi's columns as integers, for `_bases`'s vertex table."""
    big = lcm(*(z2.eta[x].den for x in z.scenario.x_ids))
    return lcm(*[d * (z.eta[w].den if w in z.eta else big) for w, (_, d) in bases.items()])


def _hom(z: TripleObject, z2: TripleObject) -> tuple[Callable[[], Sequence[TripleMorphism]], int,
                                                      Callable[[], tuple]]:
    """(basis of Hom(z, z2) on call, dim Ext^1, classes): psi's kernel from its Y-side blocks; nrows - rank.

    psi's columns go right to left, the v columns first: eliminating the u
    block I (x) eta^T first would build Schur-complement rows from minors of
    eta.  The rank phase eliminates each distinct block W of `_v_blocks`
    alone, with no v column of psi built: its pivots P are the v pivot
    columns.  A W with more rows than columns is eliminated as [W | I] in
    its place, and a W whose rank is below its rows as [W | I] after it,
    for the left-null rows N; unless the blocks' ranks fill psi's rows, the
    u-only system S = Pi . U is eliminated too, where Pi holds the unit
    rows at the rows no block meets and each block's N on its rows.  The
    basis phase, on the first read, solves [W | I] once per distinct W for
    G = W_P^-1 on its pivot rows, eliminating it then if the rank phase did
    not.  The basis is the identity on the free columns, in column order,
    as one elimination of psi's rows gives it: element k is its free column
    (a u column with the ones S pairs it with), less G of its image on the
    v pivot columns.  z's `_ext1` keeps (weak z2, nrows - rank), the dim of
    Ext^1, for `ext1`.  classes() gives (F, P) for coker psi on call: K =
    L . Pi spans psi's left null space, L from one `_null_space` of S's
    columns; F, where K's reduced rows end, from one `_echelon` of K with
    its keys reversed; P = K_F^-1 . K.  With no N rows, Pi keeps the row
    order and P = K, F at L's free columns, with no more elimination: by
    matroid duality the columns left free left to right are the ones K's
    rows end at.  It raises `InternalConsistencyError` unless P . psi = 0.
    An empty psi is the identity, and so is P.  The basis comes as a maker
    that `hom` calls, so a cold `ext1`, which reads the dim and the classes
    alone, builds no basis sequence and no morphism table.
    """
    su, sv, nrows = hom_space_dims(z, z2)
    nu, ncols = su, su + sv
    if not (nrows and ncols):  # every column is free: the identity, with no elimination
        z._ext1 = (weakref.ref(z2), nrows)
        return lambda: _unit_basis(z, z2, ncols), nrows, lambda: (list(range(nrows)), RatMatrix.identity(nrows))
    s, (bases, fbases) = z.scenario, _bases(z, z2)
    den = _column_den(z, z2, bases)
    uparts = [(x, bases[x][0], den // bases[x][1]) for x in s.x_ids]  # psi's u columns over den, built when needed
    echs, blocks = {}, []  # W -> its elimination; (columns, rows, W, elimination) per block
    piv, met = set(), set()  # the v pivot columns; the rows the blocks meet
    cols, sys_rows, placed = [], [], []  # psi's u columns, once built; S; each block's N on its rows, in block order
    for ccols, crows, w in _v_blocks(z, z2, bases, fbases, nu, den):
        met.update(crows)
        if (ew := echs.get(w)) is None:  # W's elimination, W hashed once per block
            n, m = len(w), len(crows)
            pivots, ech, nulls = _w_echelon(w, m > n)  # W alone unless it has more rows than columns
            if len(pivots) < m <= n:  # a rank below its rows: [W | I], for N
                pivots, ech, nulls = _w_echelon(w, True)
            ew = echs[w] = (n, m, pivots, ech, nulls)
        blocks.append((ccols, crows, w, ew))
        piv.update([ccols[p] for p in ew[2]])
    if len(piv) < nrows:  # the v block is not onto: S holds what the u columns must do
        cols += _columns(z, z2, uparts, fbases)
        urow = _by_row(cols[::-1])  # psi's u rows, u column c keyed nu - 1 - c
        sys_rows += [urow[r] for r in sorted(urow) if r not in met]
        placed += [{crows[j - n]: a for j, a in nrow.items()} for _, crows, _, (n, *_, ns) in blocks for nrow in ns]
        sys_rows += [_row_sum(prow.items(), urow) for prow in placed]
    spivots, sech, _, _ = _echelon(sys_rows) if any(sys_rows) else ([], [], 1, 1)
    scols, rank = [nu - 1 - f for f in spivots], len(piv) + len(spivots)
    z._ext1 = (weakref.ref(z2), nrows - rank)
    free, phase = sorted(set(range(ncols)).difference(piv, scols)), []  # phase: the basis phase's one result

    def basis() -> tuple:
        cols[:] = cols or _columns(z, z2, uparts, fbases)
        solved = {w: _back_solve(pivots, ech if len(pivots) < m else _w_echelon(w, True)[1], range(n, n + m))
                  for w, (n, m, pivots, ech, _) in echs.items()}  # W of full row rank: [W | I] now
        gden, ent, gat = lcm(*(d for d, _ in solved.values())), dict(enumerate(cols)), {}
        for ccols, crows, w, (_, _, pivots, _, _) in blocks:
            (d, zs), pcols = solved[w], [ccols[p] for p in pivots]
            for r, g in zip(crows, zs):  # gat[r]: G's column at row r, times gden, as (v column, entry)
                gat[r] = [(p, x * (gden // d)) for p, x in zip(pcols, g) if x]
            for c, col in zip(ccols, w):
                ent[c] = [(crows[j], e) for j, e in col]
        phase.append((gden, gat, ent, _back_solver(spivots, sech)))
        return phase[0]

    def vector(k: int) -> tuple[list[int], int]:
        gden, gat, ent, solve = phase[0] if phase else basis()
        vec, c = [0] * ncols, free[k]
        d, zf = solve(nu - 1 - c) if c < nu else (1, [])  # a free u column with the ones S pairs it with
        for c, x in zip([c, *scols], [-d, *zf]):
            if x:  # x times column c, less G of it on the v pivot columns
                vec[c] = -x * gden
                for r, e in ent.get(c, ()):
                    for p, g in gat.get(r, ()):
                        vec[p] += x * e * g
        return vec, d * gden

    def classes() -> tuple[list[int], RatMatrix]:
        unmet = [r for r in range(nrows) if r not in met]
        pi = dict(enumerate([{r: 1} for r in unmet] + placed))  # Pi's rows
        cols[:] = cols or (_columns(z, z2, uparts, fbases) if pi else [])
        pit = _by_row(prow.items() for prow in pi.values())  # Pi's columns
        lmat, lfree = _null_space([_row_sum(col, pit) for col in cols], len(pi))  # L, from S's columns
        k = [_row_sum(((i, x) for i, x in enumerate(lrow) if x), pi) for lrow in lmat.num]  # K = L . Pi
        if placed:
            pivots, ech, _, _ = _echelon([{nrows - 1 - r: e for r, e in reversed(row.items())} for row in k])
            d, zs = _back_solve(pivots, ech, range(nrows - 1, -1, -1))  # K_F^-1 . K, at psi's rows in order
            free, rows = sorted(nrows - 1 - p for p in pivots), [list(row) for row in zip(*zs)][::-1]
        else:  # Pi keeps the row order: K is already reduced, the identity at F, L's free columns
            free, rows, d = [unmet[f] for f in lfree], [[row.get(r, 0) for r in range(nrows)] for row in k], lmat.den
        proj = RatMatrix._fresh(len(k), nrows, rows, d)
        psi = _by_row(cols + [[(crows[j], e) for j, e in col] for _, crows, w, _ in blocks for col in w] if k else [])
        if any(_row_sum(((r, x) for r, x in enumerate(row) if x), psi) for row in proj.num):  # P . psi, row by row
            raise InternalConsistencyError("Ext^1's projection does not kill psi")
        return free, proj

    def basis_of_hom() -> _OnDemand:
        morphism = _kernel_morphism(z, z2, bases)
        return _OnDemand(ncols - rank, lambda k: morphism(*vector(k)))
    return basis_of_hom, nrows - rank, classes


def _unit_basis(z: TripleObject, z2: TripleObject, n: int) -> _OnDemand:
    """Hom(z, z2) for an empty psi: the identity on its n columns, each element built as read."""
    unit = _kernel_morphism(z, z2, None)
    return _OnDemand(n, lambda k: unit([0] * k + [1] + [0] * (n - 1 - k), 1))


def _by_row(cols: Iterable[Iterable[tuple[int, int]]]) -> dict[int, dict[int, int]]:
    """Sparse columns, each of (row, entry) pairs, as {row: {column: entry}}, the columns numbered in order."""
    rows: dict[int, dict[int, int]] = {}
    for c, col in enumerate(cols):
        for r, e in col:
            rows.setdefault(r, {})[c] = e
    return rows


def _row_sum(terms: Iterable[tuple[int, int]], rows: dict[int, dict[int, int]]) -> dict[int, int]:
    """sum of a . rows[k] over the terms (k, a), keys increasing, zeros dropped; a missing row is 0."""
    acc = {}
    for k, a in terms:
        for j, e in rows.get(k, {}).items():
            acc[j] = acc.get(j, 0) + a * e
    return {j: acc[j] for j in sorted(acc) if acc[j]}


def _end_basis(z: TripleObject) -> Sequence[TripleMorphism]:
    """decompose's basis of End(z): the identity on psi's left-to-right free columns, built as read.

    `decompose` tries candidates in basis order, so its answers depend on the
    basis, and this is the basis they are pinned to; it goes once they no
    longer do.  It keeps no pair state.  psi's rows come from one `_columns`
    call over `_column_den`, as `_hom` builds its u columns, and are
    eliminated once, left to right; element k is back-solved for its own
    free column on its first read, by one `_back_solver` for all of them.
    """
    su, sv, nrows = hom_space_dims(z, z)
    bases, rows = None, {}
    if nrows and su + sv:
        bases, fbases = _bases(z, z)
        den = _column_den(z, z, bases)
        rows = _by_row(_columns(z, z, [(w, terms, den // d) for w, (terms, d) in bases.items()], fbases))
    pivots, ech, _, _ = _echelon([rows[r] for r in sorted(rows)])
    free, morphism = sorted(set(range(su + sv)).difference(pivots)), _kernel_morphism(z, z, bases)
    solve = _back_solver(pivots, ech)

    def element(k: int) -> TripleMorphism:
        d, zf = solve(free[k])
        vec = [0] * (su + sv)
        for p, x in zip([free[k], *pivots], [d, *(-x for x in zf)]):
            vec[p] = x
        return morphism(vec, d)
    return _OnDemand(len(free), element)


class _OnDemand(Sequence):
    """A read-only sequence of n items, equal to their list: item k is make(k), built on first read, then kept."""

    def __init__(self, n: int, make) -> None:
        self._items, self._make = [None] * n, make

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, k: int | slice):
        at = range(len(self._items))[k]  # a negative index counts from the end; IndexError past it
        if isinstance(at, range):  # a slice: the list of its items
            return [self[i] for i in at]
        if self._items[at] is None:
            self._items[at] = self._make(at)
        return self._items[at]

    def __iter__(self):
        return map(self.__getitem__, range(len(self._items)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, _OnDemand)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)


def _kernel_morphism(z: TripleObject, z2: TripleObject, bases: Optional[dict[str, Terms]]):
    """(vec, den) -> the morphism z -> z2 of psi's kernel vector vec / den, over `_bases(z, z2)`'s vertex table.

    Each vertex map is one integer grid from its basis's entries, tabled on
    the first call (from `_bases` then, when bases is None).
    """
    sparse = []

    def morphism(vec: list[int], vden: int) -> TripleMorphism:
        if not sparse:
            table = bases or _bases(z, z2)[0]
            sparse.extend((w, *table[w], z2.parts[w].dim, vs.dim) for w, vs in z.parts.items())
        coeffs = iter(vec)  # each vertex takes the next len(terms) coefficients
        return TripleMorphism(z, z2, {w: _combine_terms(terms, coeffs, vden * den, rows, cols)
                                      for w, terms, den, rows, cols in sparse})
    return morphism


class ExtResult:
    """dim, coset representatives in Hom(F(Y), X'), and the projection.

    The projection maps Hom(F(Y), X') coordinates (concatenated over
    x-vertices in scenario order) onto cokernel coordinates.  basis and
    projection are each made by its function on its first read, then kept.
    """

    def __init__(self, dim: int, basis: Callable[[], list[dict[str, RatMatrix]]],
                 projection: Callable[[], RatMatrix]):
        self.dim, self._basis, self._projection = dim, basis, projection

    basis = cached_property(lambda self: self._basis())
    projection = cached_property(lambda self: self._projection())


def ext1(z: TripleObject, z2: TripleObject) -> ExtResult:
    """Cokernel of psi(u, v) = u . eta - eta' . F(v): dim from hom's rank, the classes from hom's blocks.

    dim Ext^1 = nrows - rank(psi) is read off z's `_ext1` when `hom(z, z2)`
    wrote it last, and is otherwise the one `_hom` of the pair returns,
    which builds no psi.  The slot is read once, and never after `_hom`: a
    hom of another target may write it at any time.  The classes are that
    `_hom`'s `classes()`, or a new `_hom`'s after a slot read, solved on the
    first class read, which raises `InternalConsistencyError` unless they
    number dim; representative k is the Hom(F(Y), X') basis element F[k].
    """
    s, slot, done = z.scenario, z._ext1, []  # done: the classes' one result
    _, dim, classes = (None, slot[1], None) if slot is not None and slot[0]() is z2 else _hom(z, z2)

    def solved() -> tuple[list[int], RatMatrix]:  # (F, P)
        if not done:
            free, proj = (classes or _hom(z, z2)[2])()
            if len(free) != dim:
                raise InternalConsistencyError(f"hom's rank gives dim Ext^1 {dim}, psi's left null space {len(free)}")
            done.append((free, proj))
        return done[0]

    def basis() -> list[dict[str, RatMatrix]]:
        free, at = solved()[0], 0  # at: where x's block of psi's rows starts
        reps = [{} for _ in free]
        for x in s.x_ids:
            ents, den = _hom_terms(s.algebra(x).spec, z.f[x], z2.parts[x])
            for rep, c in zip(reps, free):  # Hom(F(Y)_x, X'_x) basis element c - at; zero off its range
                one = ents[c - at:c - at + 1] if c >= at else []
                rep[x] = _combine_terms(one, [1], den, z2.parts[x].dim, z.f[x].dim)
            at += len(ents)
        return reps
    return ExtResult(dim, basis, lambda: solved()[1])


def euler_form(z: TripleObject, z2: TripleObject) -> int:
    """dim Hom - dim Ext^1 = su + sv - sf, by rank-nullity, from `hom_space_dims`: no psi, no elimination.

    The category is hereditary, so this depends only on the two dimension
    vectors; `species.ringel_form` gives it from them without `_hom_dim`.
    """
    su, sv, sf = hom_space_dims(z, z2)
    return su + sv - sf


# ======================================================================
# Universal extensions, projectives, resolutions
# ======================================================================

def universal_extension(scenario: SpeciesScenario, parts: dict[str, VertexSpace]) -> TripleObject:
    """E(Y) = (F(Y), Y, identity) for the y parts Y of parts (its x parts, if any, are not read)."""
    fsp = _build_fspaces(scenario, parts)
    eta = {x: RatMatrix.identity(vs.dim) for x, vs in fsp.items()}
    parts = {v: fsp[v] if v in fsp else parts[v] for v in scenario.vertex_order()}
    return TripleObject._with_fspaces(scenario, parts, eta, fsp)


def universal_extension_of(z: TripleObject) -> TripleObject:
    return universal_extension(z.scenario, z.parts)


def is_projective(z: TripleObject) -> bool:
    """Projectivity is injectivity of every eta component."""
    return all(z.eta[x].rank() == z.eta[x].cols for x in z.scenario.x_ids)


@dataclass
class Resolution:
    """0 -> p1 -> p0 -> z -> 0 with projective p1, p0."""

    z: TripleObject
    p1: TripleObject
    p0: TripleObject
    d1: TripleMorphism
    d0: TripleMorphism

    def verify(self) -> None:
        if not is_projective(self.p1) or not is_projective(self.p0):
            raise InternalConsistencyError("resolution terms are not projective")
        if not self.d0.compose(self.d1).is_zero():
            raise InternalConsistencyError("resolution differentials do not compose to zero")
        if not _exact_by_ranks(self.d1, self.d0):
            raise InternalConsistencyError("resolution is not a short exact sequence")


def projective_resolution(z: TripleObject) -> Resolution:
    """The canonical length-1 resolution through X x E(Y)."""
    ey = universal_extension_of(z)
    p1 = x_only(ey)  # (F(Y), 0, 0)
    p0, (i_x, i_e), _ = direct_sum(x_only(z), ey)
    # d1 = (eta, iota): w |-> (eta w, w)
    d1 = TripleMorphism(p1, p0, {w: i_x.maps[w] * z.eta[w] + i_e.maps[w] if w in z.eta
                                 else RatMatrix.zeros(p0.parts[w].dim, 0) for w in z.parts})
    # d0 = f - mu: (x, w, y) |-> x - eta w on the x side, -y on the y side
    d0 = TripleMorphism(p0, z, {w: RatMatrix.identity(vs.dim).hstack(z.eta[w].scale(-1)) if w in z.eta
                                else RatMatrix.identity(vs.dim).scale(-1) for w, vs in z.parts.items()})
    return Resolution(z, p1, p0, d1, d0)


# ======================================================================
# Direct sums
# ======================================================================

def _stack_spaces(handle: DivisionAlgebraHandle, parts: list[VertexSpace]) -> VertexSpace:
    if all(p.canonical is not None and p.canonical[0] == parts[0].canonical[0] for p in parts):
        return canonical_space(handle, sum(p.canonical[1] for p in parts))
    return VertexSpace(sum(p.dim for p in parts), [_block_diag(list(ms)) for ms in zip(*(p.action for p in parts))])


def direct_sum(a: TripleObject, b: TripleObject):
    """(a (+) b, inclusions, projections), each a pair."""
    total, incs, projs = direct_sum_many([a, b])
    return total, tuple(incs), tuple(projs)


def direct_sum_many(objs: Sequence[TripleObject]):
    """(total, inclusions, projections) of a nonempty family; one object is its own sum.

    The parts at each vertex stack in order.  Summand k's eta fills k's rows;
    its F column for slot m_i and basis vector j of Y_y goes to column
    fsp.offsets[y] + i . dim Y_y + at[y][k] + j.  The maps are `_OnDemand`,
    as `hom`'s basis: each is written as unit blocks on first read.
    """
    if not objs:
        raise TripleError("direct sum of an empty family is the zero object; build it directly")
    objs = tuple(objs)  # read again when a map is built
    for z in objs:
        s = _same_scenario(objs[0], z)
    at = {v: list(accumulate((z.parts[v].dim for z in objs), initial=0)) for v in s.vertex_order()}
    if len(objs) == 1:
        total = objs[0]
    else:
        parts = {v: _stack_spaces(s.algebra(v), [z.parts[v] for z in objs]) for v in s.vertex_order()}
        fsp = _build_fspaces(s, parts)
        eta = {}
        for x in s.x_ids:
            den = lcm(*(z.eta[x].den for z in objs))
            num = [[0] * fsp[x].dim for _ in range(parts[x].dim)]
            for k, z in enumerate(objs):
                cols = [fsp[x].offsets[y] + i * parts[y].dim + at[y][k] + j for y in z.f[x].offsets
                        for i in range(s.bimodules[(x, y)].rank_over_right) for j in range(z.parts[y].dim)]
                c = den // z.eta[x].den
                for row, out in zip(z.eta[x].num, num[at[x][k]:]):
                    for col, e in zip(cols, row):
                        out[col] = c * e
            eta[x] = RatMatrix._fresh(parts[x].dim, fsp[x].dim, num, den)
        total = TripleObject._with_fspaces(s, parts, eta, fsp)

    def maps(k: int, unit) -> dict[str, RatMatrix]:
        return {v: unit(vs.dim, range(at[v][k], at[v][k + 1])) for v, vs in total.parts.items()}
    return (total, _OnDemand(len(objs), lambda k: TripleMorphism(objs[k], total, maps(k, _unit_columns))),
            _OnDemand(len(objs), lambda k: TripleMorphism(total, objs[k], maps(k, _unit_rows))))


def _unit_columns(n: int, at: Sequence[int]) -> RatMatrix:
    """The n x len(at) matrix whose column j is the unit vector at[j]: it writes coordinates at (an inclusion)."""
    num = [[0] * len(at) for _ in range(n)]
    for j, c in enumerate(at):
        num[c][j] = 1
    return RatMatrix._of(n, len(at), num)


def _unit_rows(n: int, at: Sequence[int]) -> RatMatrix:
    """The len(at) x n matrix whose row j is the unit vector at[j]: it reads coordinates at (a projection)."""
    return RatMatrix._of(len(at), n, [[0] * c + [1] + [0] * (n - 1 - c) for c in at])


# ======================================================================
# Kernels, cokernels, images, torsion pair
#
# Each sub- or quotient object is a `_retract` along p, i with p . i = 1,
# read off reduced coordinates; one `TripleMorphism.check` of the
# inclusion or projection proves it, and nothing is solved.
# ======================================================================

def _retract(z: TripleObject, p: dict, i: dict) -> TripleObject:
    """The object w on vertex maps p: z -> w and i: w -> z with p . i = id at every vertex.

    w acts by p . m . i and has eta p_x . eta_x . F(i).  That is z's own
    structure exactly when i is a morphism w -> z (a subobject) or p is one
    z -> w (a quotient), so a caller checks one inclusion or projection.  A
    vertex over Q acts by c . I, so it is the shared `canonical_space`; other
    parts stay unshared spaces (a shared one would switch w's hom terms from
    the commutant basis to `pair_terms`, a different basis), while w's F
    spaces are the shared ones whenever its y parts act canonically.
    A p (an i) given as a list of indices is the unit rows (columns) there.
    """
    s, parts = z.scenario, {}
    for v, vs in z.parts.items():
        h, dim = s.algebra(v), len(p[v]) if isinstance(p[v], list) else p[v].rows
        action = [_sandwich(p[v], m, i[v]) for m in vs.action] if h.spec.dim > 1 else []
        parts[v] = VertexSpace(dim, action) if action else canonical_space(h, dim)
    fsp = _build_fspaces(s, parts)
    eta = {x: _sandwich(p[x], _eta_f(z, x, i, fsp)) for x in s.x_ids}
    return TripleObject._with_fspaces(s, parts, eta, fsp)


def _sandwich(p, m: RatMatrix, i=None) -> RatMatrix:
    """p . m . i (p . m with no i), where a p (an i) given as a list of indices selects rows (columns) first."""
    if isinstance(i, list):
        m, i = m.submatrix(range(m.rows), i), None
    m = m.submatrix(p, range(m.cols)) if isinstance(p, list) else p * m
    return m if i is None else m * i


def _checked(m: TripleMorphism) -> TripleMorphism:
    err = m.check()
    if err is not None:
        raise InternalConsistencyError(f"retract map is not a morphism: {err}")
    return m


@dataclass
class AbelianOps:
    kernel: TripleObject
    kernel_inclusion: TripleMorphism
    image: TripleObject
    image_inclusion: TripleMorphism      # image -> target
    image_projection: TripleMorphism     # source -> image
    cokernel: TripleObject
    cokernel_projection: TripleMorphism  # target -> cokernel


def _frames(f: TripleMorphism):
    """(im, ker, C) by vertex: f's source frames of its image and kernel, one `_eliminated` per block.

    With R = rref(f) at pivot columns P and N = `_null_rows(f)` at free columns
    F, the image is the retract along im = (p, i) = (R, I[:, P]), included by
    C = f[:, P] (f = C . R), and the kernel along ker = (I[F, :], K = N^T),
    included by K (the identity at F); I[:, P] and I[F, :] are given as P and F.
    """
    im, ker, c = ({}, {}), ({}, {}), {}
    for v, m in f.maps.items():
        im[0][v], im[1][v], null, ker[0][v] = _eliminated(m)
        c[v], ker[1][v] = m.submatrix(range(m.rows), im[1][v]), null.transpose()
    return im, ker, c


def abelian_ops(f: TripleMorphism) -> AbelianOps:
    """Kernel, image and cokernel of a morphism, each a `_retract` with its one map checked.

    The kernel and image are f's source on `_frames(f)`; the cokernel is f's
    target on p = pi = N, i = the identity at N's free columns (their index
    list), for N = `_null_rows` of C^T (pi is checked): one more elimination
    per block.
    """
    z, z2 = f.source, f.target
    _same_scenario(z, z2)
    im, ker, c = _frames(f)
    cok = ({}, {})  # (p, i) by vertex
    for v, m in c.items():
        cok[0][v], cok[1][v] = _null_rows(m.transpose())
    kernel, image, cokernel = _retract(z, *ker), _retract(z, *im), _retract(z2, *cok)
    return AbelianOps(kernel, _checked(TripleMorphism(kernel, z, ker[1])),
                      image, _checked(TripleMorphism(image, z2, c)), TripleMorphism(z, image, im[0]),
                      cokernel, _checked(TripleMorphism(z2, cokernel, cok[0])))


def verify_short_exact(inc: TripleMorphism, proj: TripleMorphism) -> bool:
    """0 -> A -> B -> C -> 0 exactness, checked componentwise by ranks."""
    return proj.compose(inc).is_zero() and _exact_by_ranks(inc, proj)


def _exact_by_ranks(inc: TripleMorphism, proj: TripleMorphism) -> bool:
    """Given proj . inc = 0: inc injective, proj surjective and dim B = dim A + dim C everywhere."""
    for vtx in inc.source.parts:
        a, b, c = (z.parts[vtx].dim for z in (inc.source, inc.target, proj.target))
        if inc.maps[vtx].rank() != a or proj.maps[vtx].rank() != c or a + c != b:
            return False
    return True


def torsion_pair(z: TripleObject) -> tuple[TripleMorphism, TripleMorphism]:
    """The canonical sequence 0 -> (X,0,0) -> z -> (0,Y,0) -> 0."""
    unit = identity_morphism(z).maps
    inc = TripleMorphism(x_only(z), z, {w: m if w in z.eta else RatMatrix.zeros(m.rows, 0) for w, m in unit.items()})
    proj = TripleMorphism(z, y_only(z), {w: RatMatrix.zeros(0, m.cols) if w in z.eta else m for w, m in unit.items()})
    return inc, proj


# ======================================================================
# Endomorphism algebras and universality
# ======================================================================

def end_algebra(z: TripleObject, basis: Sequence[TripleMorphism] | None = None) -> AlgebraSpec:
    """Structure constants of End(z) in the given basis, by default `hom(z, z)`'s.

    That is the identity on psi's free columns taken right to left.
    `decompose` passes its left-to-right `_end_basis` (its answers depend
    on the basis order).  Both bases are built as read, and this reads,
    so builds, every element, each back-solved by the basis's one solver.
    """
    if basis is None:
        basis = hom(z, z)
    unit = _flat_morphism(identity_morphism(z))
    alg = structure_constants(_flat_columns([_flat_morphism(m) for m in basis], len(unit[0])),
                              [*(_flat_morphism(a.compose(b)) for a in basis for b in basis), unit])
    if alg is None:
        raise InternalConsistencyError("End(z) is not closed under composition or misses the identity")
    return alg


@dataclass
class UniversalityReport:
    verdict: bool
    eta_isomorphism: bool
    end_transport: bool
    self_ext_vanishes: bool
    kernel_detected: bool
    hom_to_x_vanishes: bool
    ext_to_x_vanishes: bool


def is_universal(z: TripleObject) -> UniversalityReport:
    """Test the three characterizations of a universal extension; they must agree.

    (1) eta is an isomorphism; (2) endomorphisms restrict isomorphically to
    the y part, self-extensions vanish, and the x part detects ker(eta);
    (3) hom and ext to every x-side simple vanish.  The detection clause in
    (2) is forced: with an x component that cannot see ker(eta) at some
    vertex (e.g. X = 0 there while F(Y) is not), endomorphism transport and
    self-ext vanishing both hold for non-universal objects, so the bare
    transport reading would genuinely diverge from (1) and (3).  Divergence
    of the three as implemented is a fatal inconsistency.
    """
    s = z.scenario
    rank = {x: z.eta[x].rank() for x in s.x_ids}
    crit1 = all(z.eta[x].rows == z.eta[x].cols == rank[x] for x in s.x_ids)

    end_basis = hom(z, z)
    sv = hom_space_dims(z, z)[1]
    vflat_len = sum(z.parts[y].dim ** 2 for y in s.y_ids)
    vflats = [_flat_matrices([m.maps[y] for y in s.y_ids]) for m in end_basis]
    vrank = _flat_columns(vflats, vflat_len).rank() if vflats else 0
    transport = (len(end_basis) == sv == vrank)
    self_ext = ext1(z, z).dim == 0
    # at one vertex all nonzero modules are isotypic, so ker(eta) is seen by
    # the x component iff the component is nonzero wherever the kernel is
    detected = all(rank[x] == z.eta[x].cols or z.parts[x].dim > 0 for x in s.x_ids)
    crit2 = transport and self_ext and detected

    hom_x = True
    ext_x = True
    for x in s.x_ids:
        sx = simple_x_object(s, x)
        if len(hom(z, sx)) != 0:
            hom_x = False
        if ext1(z, sx).dim != 0:
            ext_x = False
    crit3 = hom_x and ext_x

    if not (crit1 == crit2 == crit3):
        raise InternalConsistencyError(
            f"universality characterizations disagree: eta-iso={crit1}, "
            f"end-transport={crit2}, x-vanishing={crit3} on {z!r}")
    return UniversalityReport(crit1, crit1, transport, self_ext, detected, hom_x, ext_x)


# ======================================================================
# Decomposition into indecomposables
# ======================================================================

CERTIFIED = "certified"
NO_FURTHER = "no-further-splitting-found"


@dataclass
class Summand:
    """One indecomposable summand with its inclusion into and projection out of the decomposed object.

    A summand split off by support alone has unit maps, each vertex's
    matrix written when it is first read (`_UnitMaps`); a summand below an
    End split has its maps composed on the way down.
    """

    object: TripleObject
    inclusion: TripleMorphism
    projection: TripleMorphism


@dataclass
class Decomposition:
    summands: list[Summand]
    flag: str

    def idempotents(self) -> list[TripleMorphism]:
        return [s.inclusion.compose(s.projection) for s in self.summands]


def _total_matrix(m: TripleMorphism) -> RatMatrix:
    return _block_diag(list(m.maps.values()))


def _image_split(z: TripleObject, e: TripleMorphism):
    """z = im e (+) ker e for an idempotent e: ((piece, inclusion, projection), same for ker e), both nonzero.

    Both pieces are retracts on `_frames(e)`, one elimination per block, and
    each inclusion is checked.  im e is included by C and projected by R
    (R . C = 1 as e = C . R is idempotent); ker e = im(1 - e) is included by
    K and projected by (1 - e)[F, :], the coordinates of 1 - e in K's columns.
    """
    im, ker, c = _frames(e)
    comp = {}  # (1 - e)[F, :]
    for v, m in e.maps.items():
        rows = [[m.den * (j == r) - x for j, x in enumerate(m.num[r])] for r in ker[0][v]]
        comp[v] = RatMatrix._fresh(len(rows), m.cols, rows, m.den)
    pieces = []
    for (p, i), inc, proj in ((im, c, im[0]), (ker, ker[1], comp)):
        w = _retract(z, p, i)
        pieces.append((w, _checked(TripleMorphism(w, z, inc)), TripleMorphism(z, w, proj)))
    if not all(p[0].total_dim() for p in pieces):
        raise InternalConsistencyError("idempotent split produced a zero piece")
    return pieces


def _support_split(z: TripleObject):
    """z's pieces, each (piece, inclusion, projection), along the connected components of its support; None for one.

    A node is one D-block of a part that is the shared `canonical_space`;
    any other nonzero part is one node.  eta_x's nonzero entries join their
    row's block to the block of Y_y coordinate (column - offsets[y]) mod
    dim Y_y.  A piece has canonical parts of its block counts and eta's
    sub-grid at its rows and F columns.  Each piece is proved by one
    `_prove_projection` of its unit rows, by selection on z's integer rows
    with no matrix built: together the projections make z -> (+) pieces an
    isomorphism at every vertex, so each inclusion is a morphism too.  The
    maps are `_UnitMaps`, unit columns and unit rows written on first read.
    """
    s, node, n = z.scenario, {}, 0  # node[v]: the node of each coordinate of z.parts[v]
    for v, vs in z.parts.items():
        size = s.algebra(v).dim if _shared(s.algebra(v).spec, vs) else vs.dim or 1
        node[v], n = [n + c // size for c in range(vs.dim)], n + -(-vs.dim // size)
    col_node = {x: [node[y][(c - off) % z.parts[y].dim] for y, off in z.f[x].offsets.items()  # of each F column
                    for c in range(off, off + s.bimodules[(x, y)].rank_over_right * z.parts[y].dim)] for x in s.x_ids}
    root = list(range(n))

    def find(a: int) -> int:
        while root[a] != a:
            a = root[a]
        return a
    for x in s.x_ids:
        for r, row in zip(node[x], z.eta[x].num):
            for c in (c for c, e in zip(col_node[x], row) if e):
                root[find(c)] = find(r)
    comps: dict[int, int] = {}  # component root -> piece index, in order of first node
    label = [comps.setdefault(find(a), len(comps)) for a in range(n)]
    if len(comps) < 2:
        return None
    ats, fcols = [{v: [] for v in node} for _ in comps], [{x: [] for x in s.x_ids} for _ in comps]
    for groups, by in ((ats, node), (fcols, col_node)):  # each coordinate, each F column, to its piece
        for v, nodes in by.items():
            for c, a in enumerate(nodes):
                groups[label[a]][v].append(c)
    pieces = []
    for at, cols in zip(ats, fcols):
        parts = {v: vs if not _shared(s.algebra(v).spec, vs) and at[v]
                 else canonical_space(s.algebra(v), len(at[v]) // s.algebra(v).dim) for v, vs in z.parts.items()}
        eta = {x: z.eta[x].submatrix(at[x], cols[x]) for x in s.x_ids}
        w = TripleObject._with_fspaces(s, parts, eta, _build_fspaces(s, parts))
        _prove_projection(z, w, at)
        pieces.append((w, TripleMorphism(w, z, _UnitMaps(z.parts, at, _unit_columns)),
                       TripleMorphism(z, w, _UnitMaps(z.parts, at, _unit_rows))))
    return pieces


def _prove_projection(z: TripleObject, w: TripleObject, at: dict[str, list[int]]) -> None:
    """Raise `InternalConsistencyError` unless p, the unit rows at at[v] at every vertex v, is a morphism z -> w.

    As strong as `TripleMorphism.check` of p, with no matrix built: whole
    integer rows are compared over a common denominator.  Over a field
    larger than Q, p . m_z is m_z's rows at at[v] and m_w . p is m_w placed
    at columns at[v], for every algebra basis element.  At each x, p . eta_z
    is eta_z's rows at at[x], and eta_w . F(p) is eta_w with the column of
    its slot i and Y_y coordinate j placed at z's F column
    offsets[y] + i . dim Y_y + at[y][j], as F(p) = I_r (x) p_y.
    """
    s = z.scenario
    for v, vs in z.parts.items():
        if len(at[v]) != w.parts[v].dim:
            raise InternalConsistencyError(f"retract map is not a morphism: p at {v!r} has the wrong shape")
        if s.algebra(v).dim > 1:
            src = [len(at[v])] * vs.dim  # z's column c holds w's column src[c]; past w's last column, 0
            for j, c in enumerate(at[v]):
                src[c] = j
            if not all(_placed_rows_agree(mz, at[v], mw, src) for mz, mw in zip(vs.action, w.parts[v].action)):
                raise InternalConsistencyError(f"retract map is not a morphism: p at {v!r} not equivariant")
    for x in s.x_ids:
        zf, wf = z.f[x], w.f[x]
        src = [wf.dim] * zf.dim
        for y, off in wf.offsets.items():
            zoff, n1, n2 = zf.offsets[y], z.parts[y].dim, w.parts[y].dim
            for i in range(s.bimodules[(x, y)].rank_over_right):
                for j, c in enumerate(at[y]):
                    src[zoff + i * n1 + c] = off + i * n2 + j
        if not _placed_rows_agree(z.eta[x], at[x], w.eta[x], src):
            raise InternalConsistencyError(f"retract map is not a morphism: eta square does not commute at {x!r}")


def _placed_rows_agree(zm: RatMatrix, rows: list[int], wm: RatMatrix, src: list[int]) -> bool:
    """Whether row rows[k] of zm equals row k of wm placed by src: src[c] is the wm column placed at zm's
    column c, or wm.cols where that column is 0.  Whole integer rows over lcm(zm.den, wm.den), by `==`."""
    d = lcm(zm.den, wm.den)
    a, b = d // zm.den, d // wm.den
    for r, wrow in zip(rows, wm.num):
        placed, zrow = list(map((wrow + [0]).__getitem__, src)), zm.num[r]
        if placed != zrow if a == b == 1 else [a * e for e in zrow] != [b * e for e in placed]:
            return False
    return True


class _UnitMaps(Mapping):
    """A unit inclusion's or projection's maps: unit(dim of parts[v], at[v]) at each vertex v, written on first read.

    It holds parts and at, and no object, so a decomposition that holds it has no reference cycle.
    """

    __slots__ = ("_parts", "_at", "_unit", "_built")

    def __init__(self, parts: dict[str, VertexSpace], at: dict[str, list[int]],
                 unit: Callable[[int, Sequence[int]], RatMatrix]) -> None:
        self._parts, self._at, self._unit, self._built = parts, at, unit, {}

    def __getitem__(self, v: str) -> RatMatrix:
        m = self._built.get(v)
        if m is None:
            m = self._built[v] = self._unit(self._parts[v].dim, self._at[v])
        return m

    def __iter__(self):
        return iter(self._parts)

    def __len__(self) -> int:
        return len(self._parts)


def _combinations(end_basis: Sequence[TripleMorphism]):
    """The pairwise sums, then the pairwise products, of the basis candidates."""
    n = len(end_basis)
    yield from (end_basis[i] + end_basis[j] for i in range(n) for j in range(i + 1, n))
    yield from (end_basis[i].compose(end_basis[j]) for i in range(n) for j in range(n) if i != j)


def _coprime_parts(f: list[int]) -> tuple[list[int], list[int]] | None:
    """Split a primitive integer polynomial into two nontrivial coprime primitive parts.

    Cheap routes first: a pure t-power factor (the Fitting split of a
    non-nilpotent non-invertible element), then the square-free multiplicity
    groups; only a square-free irreducible-power candidate falls back to a
    budgeted Kronecker factorization, and a budget overrun means "no split
    found via this element", never a wrong answer.
    """
    v = next(i for i, c in enumerate(f) if c)
    if 0 < v < len(f) - 1:
        return [0] * v + [1], f[v:]
    groups = _int_squarefree(f)
    g0, m0 = groups[0]
    if len(groups) < 2:
        if len(g0) < 3:
            return None
        try:
            facs = _int_factor(g0, budget=FactorBudget())
        except FactorBudgetExceeded:
            return None
        if len(facs) < 2:
            return None
        g0 = facs[0][0]
    part = [1]
    for _ in range(m0):
        part = _int_poly_mul(part, g0)
    return part, _int_poly_exact_div(f, part)


def _splitting_idempotent(z: TripleObject,
                          candidates: Iterable[TripleMorphism]) -> TripleMorphism | None:
    """The idempotent of the first candidate whose minimal polynomial splits, or None.

    Its blocks B, over one denominator and content, are integers: e = f(B) / d by Horner,
    with the zero, identity and e^2 = e (acc^2 = d acc) tests on each block.
    """
    for raw in candidates:
        flat, den = _flat_morphism(raw)
        k = gcd(*flat)
        if not k:
            continue
        blocks = [RatMatrix._of(m.rows, m.cols, [[x * (den // m.den) // k for x in r] for r in m.num])
                  for m in raw.maps.values()]
        split = _coprime_parts(_int_min_poly_matrix(*blocks))
        if split is None:
            continue
        t, g = _int_poly_bezout(*split)
        if len(g) != 1:
            raise InternalConsistencyError("coprime minimal polynomial parts share a factor")
        d, f, accs = g[0], _int_poly_mul(t, split[1]), []
        for b in blocks:
            acc = RatMatrix.zeros(b.rows, b.rows)
            for c in reversed(f):
                acc = acc * b  # a fresh grid
                for i, r in enumerate(acc.num):
                    r[i] += c
            accs.append(acc)
        if all(a.is_zero() for a in accs) or all(a == RatMatrix.identity(a.rows).scale(d) for a in accs):
            continue
        if any(a * a != a.scale(d) for a in accs):
            raise InternalConsistencyError("constructed projector is not idempotent")
        return TripleMorphism(z, z, {w: RatMatrix._fresh(a.rows, a.rows, a.num, d) for w, a in zip(raw.maps, accs)})
    return None


def _is_field(alg: AlgebraSpec) -> bool:
    if alg.dim == 0 or not alg.is_commutative():
        return False
    if alg.dim == 1:
        return True
    # primitive element: some small combination with full-degree minimal
    # polynomial, the primitive integer one of L_a started at the unit
    e = [alg.basis_vector(i) for i in range(alg.dim)]
    candidates = e + [[a + k * b for a, b in zip(e[i], e[j])]
                      for i in range(alg.dim) for j in range(i + 1, alg.dim) for k in (1, 2)]
    unit = RatMatrix.from_rows([[c] for c in alg.unit])
    for cand in candidates:
        f = _vector_min_poly(alg.left_multiplication(cand), unit)
        if len(f) - 1 == alg.dim:
            try:
                facs = _int_factor(f, FactorBudget())
            except FactorBudgetExceeded:
                return False  # certification declined, never guessed
            return len(facs) == 1 and facs[0][1] == 1
    return False


def _leaf_certified(z: TripleObject, end_basis: Sequence[TripleMorphism]) -> bool:
    alg = end_algebra(z, end_basis)
    rad = _radical(alg)
    quo = _quotient_algebra(alg, rad) if rad.rows else alg
    return _is_field(quo)


def _is_scalar_identity(a: TripleMorphism) -> bool:
    """Whether a is c . id for a nonzero rational c."""
    flat, _ = _flat_morphism(a)
    unit, _ = _flat_morphism(identity_morphism(a.source))
    c = flat[unit.index(1)]
    return c != 0 and all(x == c * u for x, u in zip(flat, unit))


def _split_or_leaf(z: TripleObject,
                   end_basis: Sequence[TripleMorphism]) -> tuple[TripleMorphism | None, str]:
    """(a splitting idempotent, _) or (None, the flag of z as a leaf)."""
    if len(end_basis) == 1:  # End(z) = Q, a field
        if not _is_scalar_identity(end_basis[0]):
            raise InternalConsistencyError("End(z) is not closed under composition or misses the identity")
        return None, CERTIFIED
    e = _splitting_idempotent(z, end_basis)
    if e is not None:
        return e, CERTIFIED
    if _leaf_certified(z, end_basis):
        return None, CERTIFIED  # End(z) is local: no sum or product splits either
    return _splitting_idempotent(z, _combinations(end_basis)), NO_FURTHER


def certified_by_rigidity(z: TripleObject) -> bool:
    """Whether rigidity proves z indecomposable: finite type, a positive root vector and Ext^1(z, z) = 0.

    Over a Dynkin species every indecomposable is exceptional, and a rigid
    object is fixed by its vector (Dlab-Ringel), so a rigid object whose
    vector is a root is that root's indecomposable.  It costs one hom rank
    phase, with no basis and no End algebra; infinite type is one verdict
    held by the scenario.  A proved z is remembered in the node memo.
    """
    s = z.scenario
    if s.roots is None or z.dimension_vector() not in s.roots or ext1(z, z).dim:
        return False
    s._nodes[z.data_key()] = CERTIFIED
    return True


def _split(w: TripleObject, maps: tuple | None, summands: list[Summand]) -> str:
    """`decompose`'s node: appends w's summands, returns their flag; maps = (w -> z, z -> w) for a piece.
    The memo, then the support components, then the rigidity certificate, then the End basis.  Not a
    closure over itself, so a decomposition holds no reference cycle and dies when dropped."""
    nodes, key = w.scenario._nodes, w.data_key()
    flag, pieces = nodes.get(key), None
    if flag is None:
        pieces = _support_split(w)
        if pieces is None and certified_by_rigidity(w):
            flag = CERTIFIED
        elif pieces is None:
            e, flag = _split_or_leaf(w, _end_basis(w))
            pieces = None if e is None else _image_split(w, e)
    if pieces is None:
        nodes[key] = flag
        summands.append(Summand(w, *(maps or (identity_morphism(w), identity_morphism(w)))))
        return flag
    flag = CERTIFIED
    for piece, inc, proj in pieces:
        if maps is not None:  # w is a piece: compose once on the way down
            inc, proj = maps[0].compose(inc), proj.compose(maps[1])
        if _split(piece, (inc, proj), summands) != CERTIFIED:
            flag = NO_FURTHER
    return flag


def decompose(z: TripleObject) -> Decomposition:
    """Split z into indecomposable summands with explicit idempotents.

    z is indecomposable exactly when End(z) is local, and then no element
    gives a splitting idempotent (Fitting), so a proved-local End ends the
    search.  Each node is answered by the first that decides it:
    - the memo: the scenario remembers by `data_key()` each leaf decided
      here or proved by `certified_by_rigidity` (the root table's entries
      included), with its flag, and a known leaf is a summand with that flag;
    - the support components (`_support_split`): a node whose eta joins its
      blocks into two or more components is their direct sum, read off its
      data with no elimination, each piece proved by one selection on the
      integer rows of its unit projection (`_prove_projection`), so a sum of
      decided objects gives known leaves, and its unit maps written per
      vertex when first read;
    - the rigidity certificate (`certified_by_rigidity`): in finite type a
      node with a positive root vector and Ext^1 = 0 is a certified leaf,
      at the cost of one hom rank phase;
    - the End basis, left to connected nodes that are not rigid roots and
      to infinite type: End = Q . id is a certified leaf; else the
      `_end_basis` elements are tried, then the End/rad field certificate (a
      commutative End/rad with a primitive element of irreducible minimal
      polynomial), then the pairwise sums and products, and the first
      candidate whose minimal polynomial has coprime parts splits z by
      `_image_split`.
    A node's maps to and from z pass down to its pieces, composed once per
    level.  The flag is "certified" when every leaf is certified, else
    "no-further-splitting-found".  Split nodes, failed splits and errors are
    not remembered; only keys and flags are, so no object is kept alive.
    """
    summands: list[Summand] = []
    return Decomposition(summands, _split(z, None, summands) if z.total_dim() else CERTIFIED)
