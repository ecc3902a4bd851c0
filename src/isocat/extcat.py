"""The category of triples (X, Y, eta) over a species scenario.

An object assigns a module to every vertex and, per x-vertex, a structure
map eta from the induced tensor space F(Y) into the x-component.  Morphisms
are pairs of equivariant block maps (u, v) with u . eta = eta' . F(v).  Hom
and Ext^1 are the kernel and cokernel of psi(u, v) = u . eta - eta' . F(v),
built once per call as sparse integer columns from the nonzero entries of
the equivariant bases.  Also here: universal extensions, length-1
projective resolutions, kernels/cokernels/images, torsion pairs,
endomorphism algebras and an exact Krull-Schmidt-style decomposition.

Tensor spaces use the slot basis m_i (x) f_c ordered (i, c): for the
bimodule at (x, y), m_0..m_{r-1} is the greedy right basis of M over the y
algebra and f_c is the basis the y component already has.  So F(v) is
I_r (x) v, and block (k, i) of e_a's action on F(Y) is the action of
d = left_coords(a)[i][k] on Y.  The slot layout is part of every object's
identity, so serialized objects round-trip exactly.

Canonical components are shared values: `canonical_space` returns one
space per (algebra instance, multiplicity), held by the algebra, and the F
spaces of a Y whose parts are all those shared spaces are one value per
(scenario instance, y multiplicities), held by the scenario.  They live as
long as their algebra or scenario; only their hom-term memo is written.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .exactalg import (
    AlgebraSpec,
    FactorBudget,
    FactorBudgetExceeded,
    RatMatrix,
    _block_copies,
    _combine_terms,
    _commutant_coords,
    _echelon,
    _flat_columns,
    _flat_matrices,
    _int_factor,
    _int_min_poly_matrix,
    _int_poly_bezout,
    _int_poly_exact_div,
    _int_poly_mul,
    _int_squarefree,
    _kernel,
    _quotient_algebra,
    _nonzero_entries,
    _null_rows,
    _null_space,
    _radical,
    action_error,
    commutant_basis,
    is_irreducible,
    min_poly,
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
    shared value has `_memo`, its `_hom_terms` by target; `_proved` marks a
    shared canonical space whose laws a checked object proved.
    """

    __slots__ = ("dim", "action", "_key", "canonical", "_memo", "_proved")

    def __init__(self, dim: int, action: Sequence[RatMatrix],
                 canonical: Optional[tuple] = None):
        self.dim = dim
        self.action = list(action)
        self.canonical = canonical
        self._key = self._memo = None
        self._proved = False

    def key(self) -> tuple:
        if self._key is None:
            self._key = (self.dim, tuple(m.key() for m in self.action))
        return self._key

    def act(self, coords: Sequence[Fraction]) -> RatMatrix:
        return RatMatrix.combine(self.action, coords, self.dim, self.dim)


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
        space._memo = {}
    return space


def _shared(alg: AlgebraSpec, vs: VertexSpace) -> bool:
    """Whether vs is the shared `canonical_space` of this algebra instance."""
    return vs.canonical is not None and alg._canonical_spaces.get(vs.canonical[1]) is vs


# ======================================================================
# Equivariant hom spaces (with cache)
# ======================================================================

Terms = tuple[list[list[tuple[int, int, int]]], int]  # a basis as `_nonzero_entries` gives it

_HOM_CACHE: dict[tuple, Terms] = {}  # commutant bases, as their terms


def _hom_terms(alg: AlgebraSpec, src: VertexSpace, dst: VertexSpace) -> Terms:
    """Basis of the algebra-equivariant maps src -> dst, as `_nonzero_entries` (terms, den).

    Over zero spaces, over Q and between canonical spaces (unit(s, t) (x) R_b in
    the order (s, t, b)) it is written in closed form; other pairs read their
    commutant basis through `_HOM_CACHE`.  Beyond Q (cheap to rebuild), terms
    between shared values (dst alg's shared space, src too or a shared F
    space) are kept in src's `_memo`.
    """
    if src.dim == 0 or dst.dim == 0:
        return [], 1
    if alg.dim == 1:  # a Q action is scalar, so every map is equivariant
        return [[(k, l, 1)] for k in range(dst.dim) for l in range(src.dim)], 1
    memo = src._memo if _shared(alg, dst) and (src.canonical is None or _shared(alg, src)) else None
    if memo is not None and dst in memo:
        return memo[dst]
    if src.canonical is not None and dst.canonical is not None and src.canonical[0] == dst.canonical[0]:
        n = alg.dim
        cells, den = alg.right_terms()
        terms = [[(s * n + i, t * n + j, e) for i, j, e in cell]
                 for s in range(dst.canonical[1]) for t in range(src.canonical[1]) for cell in cells], den
    else:
        key = (alg.key(), src.key(), dst.key())
        if key not in _HOM_CACHE:
            _HOM_CACHE[key] = _nonzero_entries(commutant_basis(src.action, dst.action), dst.dim, src.dim)
        terms = _HOM_CACHE[key]
    if memo is not None:
        memo[dst] = terms
    return terms


def equivariant_hom_basis(alg: AlgebraSpec, src: VertexSpace, dst: VertexSpace) -> list[RatMatrix]:
    """Basis of the algebra-equivariant maps src -> dst, as matrices built from `_hom_terms`."""
    terms, den = _hom_terms(alg, src, dst)
    return [_combine_terms([ents], [1], den, dst.dim, src.dim) for ents in terms]


# ======================================================================
# Tensor structure
# ======================================================================

class FSpace:
    """The tensor space F(Y) at one x-vertex: y block offsets and (not from `_f_layout`) action."""

    __slots__ = ("dim", "offsets", "space")

    def __init__(self, dim: int, offsets: dict[str, int], space: Optional[VertexSpace]):
        self.dim = dim
        self.offsets = offsets
        self.space = space


def _f_layout(scenario: SpeciesScenario, y_parts: dict[str, VertexSpace]) -> dict[str, FSpace]:
    """The tensor spaces' dims and y block offsets, without their actions."""
    out: dict[str, FSpace] = {}
    for x in scenario.x_ids:
        offsets: dict[str, int] = {}
        total = 0
        for y in scenario.y_ids:
            bm = scenario.bimodules.get((x, y))
            width = bm.rank_over_right * y_parts[y].dim if bm is not None else 0
            if width:
                offsets[y] = total
                total += width
        out[x] = FSpace(total, offsets, None)
    return out


def _build_fspaces(scenario: SpeciesScenario,
                   y_parts: dict[str, VertexSpace]) -> dict[str, FSpace]:
    """`_f_layout` with the action of the x algebra on each tensor space.

    When every y part is the shared `canonical_space` of its own vertex's
    algebra, the result is one shared value per (scenario instance, y
    multiplicities), held by the scenario for its lifetime; nothing may
    write to it.  Every other input is built afresh.
    """
    mults = []
    for y in scenario.y_ids:
        if not _shared(scenario.algebra(y).spec, y_parts[y]):
            return _fspaces(scenario, y_parts)
        mults.append(y_parts[y].canonical[1])
    key = tuple(mults)
    shared = scenario._canonical_fspaces.get(key)
    if shared is None:
        shared = scenario._canonical_fspaces[key] = _fspaces(scenario, y_parts)
        for fsp in shared.values():
            fsp.space._memo = {}
    return shared


def _fspaces(scenario: SpeciesScenario, y_parts: dict[str, VertexSpace]) -> dict[str, FSpace]:
    """The tensor spaces with their actions, built afresh.

    Cell (k, i) of the r x r grid at y, for e_a, is the m_k part of e_a . m_i: the
    action of d = left_coords(a)[i][k] on Y_y.
    """
    out = _f_layout(scenario, y_parts)
    for x, fsp in out.items():
        action = []
        for a in range(scenario.algebra(x).dim):
            cells = []
            for y, off in fsp.offsets.items():
                vs, d = y_parts[y], y_parts[y].dim
                for i, row in enumerate(scenario.bimodules[(x, y)].left_coords(a)):
                    cells += [(off + k * d, off + i * d, vs.act(c)) for k, c in enumerate(row) if any(c)]
            action.append(_assemble(fsp.dim, fsp.dim, cells))
        fsp.space = VertexSpace(fsp.dim, action)
    return out


def _assemble(rows: int, cols: int, blocks: Sequence[tuple[int, int, RatMatrix]]) -> RatMatrix:
    """The rows x cols matrix with each (row offset, column offset, block) written in.

    Entries outside the blocks are zero; all blocks go into one integer
    grid over their common denominator.
    """
    den = lcm(*(b.den for _, _, b in blocks))
    num = [[0] * cols for _ in range(rows)]
    for r0, c0, b in blocks:
        k = den // b.den
        for i, row in enumerate(b.num):
            num[r0 + i][c0:c0 + b.cols] = [k * e for e in row] if k != 1 else row
    return RatMatrix._fresh(rows, cols, num, den)


def _block_diag(blocks: list[RatMatrix]) -> RatMatrix:
    placed = []
    r = c = 0
    for b in blocks:
        placed.append((r, c, b))
        r, c = r + b.rows, c + b.cols
    return _assemble(r, c, placed)


def _f_map(scenario: SpeciesScenario, v: dict[str, RatMatrix],
           src_f: dict[str, FSpace], dst_f: dict[str, FSpace], x: str) -> RatMatrix:
    """Matrix of F(v) at the x-vertex: I_r (x) v_y on the block of each y."""
    sf, df = src_f[x], dst_f[x]
    ys = [y for y in scenario.y_ids if y in sf.offsets or y in df.offsets]
    blocks: list[RatMatrix] = []
    for y in ys:
        blocks += [v[y]] * scenario.bimodules[(x, y)].rank_over_right
    if not blocks:
        return RatMatrix.zeros(df.dim, sf.dim)
    return _block_diag(blocks)


# ======================================================================
# Objects and morphisms
# ======================================================================

class TripleObject:
    """An object (X, Y, eta) over a fixed scenario."""

    def __init__(self, scenario: SpeciesScenario, x_parts: dict[str, VertexSpace],
                 y_parts: dict[str, VertexSpace], eta: dict[str, RatMatrix],
                 check: bool = True):
        self._setup(scenario, x_parts, y_parts, eta, None, check)

    @classmethod
    def _with_fspaces(cls, scenario: SpeciesScenario, x_parts: dict[str, VertexSpace],
                      y_parts: dict[str, VertexSpace], eta: dict[str, RatMatrix],
                      fspaces: dict[str, FSpace]) -> "TripleObject":
        """The unchecked object over y_parts, with `_build_fspaces(scenario, y_parts)` built already."""
        z = cls.__new__(cls)
        z._setup(scenario, x_parts, y_parts, eta, fspaces, check=False)
        return z

    def _setup(self, scenario: SpeciesScenario, x_parts: dict[str, VertexSpace],
               y_parts: dict[str, VertexSpace], eta: dict[str, RatMatrix],
               fspaces: Optional[dict[str, FSpace]], check: bool) -> None:
        self.scenario = scenario
        self.x = dict(x_parts)
        self.y = dict(y_parts)
        self.eta = dict(eta)
        for xv in scenario.x_ids:
            if xv not in self.x:
                raise TripleError(f"missing x component at {xv!r}")
        for yv in scenario.y_ids:
            if yv not in self.y:
                raise TripleError(f"missing y component at {yv!r}")
        err = _components_error(scenario, self.x, self.y) if check else None
        if err is not None:
            raise TripleError(err)
        self.f = fspaces if fspaces is not None else _build_fspaces(scenario, self.y)
        for xv in scenario.x_ids:
            m = self.eta.get(xv)
            if m is None:
                raise TripleError(f"missing eta component at {xv!r}")
            if (m.rows, m.cols) != (self.x[xv].dim, self.f[xv].dim):
                raise TripleError(f"eta at {xv!r} has shape {m.rows}x{m.cols}, "
                                  f"expected {self.x[xv].dim}x{self.f[xv].dim}")
        err = _eta_error(self) if check else None
        if err is not None:
            raise TripleError(err)

    def total_dim(self) -> int:
        return (sum(v.dim for v in self.x.values())
                + sum(v.dim for v in self.y.values()))

    def dimension_vector(self) -> tuple[int, ...]:
        """Multiplicities over the vertex division algebras, in vertex order."""
        out = []
        for v in self.scenario.vertex_order():
            n = self.scenario.algebra(v).dim
            part = self.x.get(v) or self.y.get(v)
            if part.dim % n:
                raise TripleError(f"component at {v!r} is not free over its algebra")
            out.append(part.dim // n)
        return tuple(out)

    def data_key(self) -> tuple:
        return (tuple(self.x[v].key() for v in self.scenario.x_ids),
                tuple(self.y[v].key() for v in self.scenario.y_ids),
                tuple(self.eta[v].key() for v in self.scenario.x_ids))

    def __repr__(self) -> str:
        return f"TripleObject({self.scenario.name}, dims={self.dimension_vector()})"


def _space_error(alg: AlgebraSpec, vs: VertexSpace) -> Optional[str]:
    """None if vs is a free unital representation of alg, else the first violation."""
    err = action_error(alg, vs.action, vs.dim)
    return None if err is None else f"vertex space {err}"


def _components_error(s: SpeciesScenario, x_parts: dict[str, VertexSpace],
                      y_parts: dict[str, VertexSpace]) -> Optional[str]:
    """None if every component is a unital representation, else the first violation.

    A shared canonical space is proved once, by the first checked object
    that has it at a vertex of its own algebra.
    """
    for ids, parts, side in ((s.x_ids, x_parts, "x"), (s.y_ids, y_parts, "y")):
        for v in ids:
            spec, vs = s.algebra(v).spec, parts[v]
            if vs._proved and _shared(spec, vs):
                continue
            err = _space_error(spec, vs)
            if err is not None:
                return f"{side}-component at {v!r}: {err}"
            vs._proved |= _shared(spec, vs)
    return None


def _eta_error(z: TripleObject) -> Optional[str]:
    """None if every eta is equivariant, else the first violation."""
    s = z.scenario
    for xv in s.x_ids:
        alg = s.algebra(xv).spec
        eta = z.eta[xv]
        fsp = z.f[xv]
        for a in range(alg.dim):
            if eta * fsp.space.action[a] != z.x[xv].action[a] * eta:
                return f"eta at {xv!r} is not equivariant for algebra basis element {a}"
    return None


def validate(z: TripleObject) -> Optional[str]:
    """None if every invariant holds, else the first violation."""
    return _components_error(z.scenario, z.x, z.y) or _eta_error(z)


@dataclass
class TripleMorphism:
    """A pair of equivariant component maps with a commuting eta square."""

    source: TripleObject
    target: TripleObject
    u: dict[str, RatMatrix]
    v: dict[str, RatMatrix]

    def check(self) -> Optional[str]:
        s = self.source.scenario
        for ids, maps, src, dst, name in ((s.x_ids, self.u, self.source.x, self.target.x, "u"),
                                          (s.y_ids, self.v, self.source.y, self.target.y, "v")):
            for w in ids:
                if any(maps[w] * m != n * maps[w] for m, n in zip(src[w].action, dst[w].action)):
                    return f"{name} at {w!r} not equivariant"
        for xv in s.x_ids:
            fv = _f_map(s, self.v, self.source.f, self.target.f, xv)
            if self.u[xv] * self.source.eta[xv] != self.target.eta[xv] * fv:
                return f"eta square does not commute at {xv!r}"
        return None

    def compose(self, other: "TripleMorphism") -> "TripleMorphism":
        """self . other (apply other first)."""
        if other.target is not self.source and other.target.data_key() != self.source.data_key():
            raise TripleError("composition endpoint mismatch")
        u = {x: self.u[x] * other.u[x] for x in self.u}
        v = {y: self.v[y] * other.v[y] for y in self.v}
        return TripleMorphism(other.source, self.target, u, v)

    def __add__(self, other: "TripleMorphism") -> "TripleMorphism":
        u = {x: self.u[x] + other.u[x] for x in self.u}
        v = {y: self.v[y] + other.v[y] for y in self.v}
        return TripleMorphism(self.source, self.target, u, v)

    def __sub__(self, other: "TripleMorphism") -> "TripleMorphism":
        return self + other.scale(-1)

    def scale(self, c) -> "TripleMorphism":
        u = {x: m.scale(c) for x, m in self.u.items()}
        v = {y: m.scale(c) for y, m in self.v.items()}
        return TripleMorphism(self.source, self.target, u, v)

    def is_zero(self) -> bool:
        return (all(m.is_zero() for m in self.u.values())
                and all(m.is_zero() for m in self.v.values()))

    def flatten(self) -> list[Fraction]:
        flat, den = _flat_morphism(self)
        return [Fraction(e, den) for e in flat]


def _flat_morphism(m: TripleMorphism) -> tuple[list[int], int]:
    """The entries `TripleMorphism.flatten` lists, as integers over one denominator."""
    s = m.source.scenario
    return _flat_matrices([m.u[x] for x in s.x_ids] + [m.v[y] for y in s.y_ids])


def zero_morphism(src: TripleObject, dst: TripleObject) -> TripleMorphism:
    s = src.scenario
    u = {x: RatMatrix.zeros(dst.x[x].dim, src.x[x].dim) for x in s.x_ids}
    v = {y: RatMatrix.zeros(dst.y[y].dim, src.y[y].dim) for y in s.y_ids}
    return TripleMorphism(src, dst, u, v)


def _combine_morphisms(src: TripleObject, dst: TripleObject, basis: Sequence[TripleMorphism],
                       coeffs: Sequence) -> TripleMorphism:
    """sum_k coeffs[k] * basis[k] for morphisms src -> dst, one matrix per vertex."""
    s = src.scenario
    u = {x: RatMatrix.combine([m.u[x] for m in basis], coeffs, dst.x[x].dim, src.x[x].dim)
         for x in s.x_ids}
    v = {y: RatMatrix.combine([m.v[y] for m in basis], coeffs, dst.y[y].dim, src.y[y].dim)
         for y in s.y_ids}
    return TripleMorphism(src, dst, u, v)


def identity_morphism(z: TripleObject) -> TripleMorphism:
    s = z.scenario
    u = {x: RatMatrix.identity(z.x[x].dim) for x in s.x_ids}
    v = {y: RatMatrix.identity(z.y[y].dim) for y in s.y_ids}
    return TripleMorphism(z, z, u, v)


# -- convenient constructors -------------------------------------------

def canonical_object(scenario: SpeciesScenario, mult: dict[str, int],
                     eta: dict[str, RatMatrix] | None = None,
                     check: bool = True) -> TripleObject:
    """Object with canonically presented components of given multiplicities.

    With eta omitted, every structure map is zero.  A mult key that is not a
    vertex, or an eta key that is not an x-vertex, is an error.
    """
    eta = eta or {}
    for keys, ids, kind in ((mult, scenario.vertex_order(), "a vertex"), (eta, scenario.x_ids, "an x-vertex")):
        bad = [k for k in keys if k not in ids]
        if bad:
            raise TripleError(f"{bad[0]!r} is not {kind} of {scenario.name!r}")
    x_parts = {x: canonical_space(scenario.algebra(x), mult.get(x, 0)) for x in scenario.x_ids}
    y_parts = {y: canonical_space(scenario.algebra(y), mult.get(y, 0)) for y in scenario.y_ids}
    fsp = _build_fspaces(scenario, y_parts)
    full_eta = {x: eta[x] if x in eta else RatMatrix.zeros(x_parts[x].dim, fsp[x].dim) for x in scenario.x_ids}
    return TripleObject(scenario, x_parts, y_parts, full_eta, check=check)


def simple_x_object(scenario: SpeciesScenario, x: str) -> TripleObject:
    return canonical_object(scenario, {x: 1})


def simple_y_object(scenario: SpeciesScenario, y: str) -> TripleObject:
    return canonical_object(scenario, {y: 1})


def x_only(z: TripleObject) -> TripleObject:
    s = z.scenario
    y_parts = {y: canonical_space(s.algebra(y), 0) for y in s.y_ids}
    eta = {x: RatMatrix.zeros(z.x[x].dim, 0) for x in s.x_ids}
    return TripleObject(s, dict(z.x), y_parts, eta, check=False)


def y_only(z: TripleObject) -> TripleObject:
    s = z.scenario
    x_parts = {x: canonical_space(s.algebra(x), 0) for x in s.x_ids}
    eta = {x: RatMatrix.zeros(0, z.f[x].dim) for x in s.x_ids}
    return TripleObject._with_fspaces(s, x_parts, dict(z.y), eta, z.f)


# ======================================================================
# Hom and Ext
# ======================================================================

def _same_scenario(z: TripleObject, z2: TripleObject) -> SpeciesScenario:
    if z.scenario is not z2.scenario and z.scenario.name != z2.scenario.name:
        raise TripleError("objects live over different scenarios")
    return z.scenario


def _bases(z: TripleObject, z2: TripleObject) -> tuple[dict[str, Terms], dict[str, Terms], dict[str, Terms]]:
    """The u, v and Hom(F(Y), X') bases of a pair, as `_hom_terms`."""
    s = z.scenario
    return ({x: _hom_terms(s.algebra(x).spec, z.x[x], z2.x[x]) for x in s.x_ids},
            {y: _hom_terms(s.algebra(y).spec, z.y[y], z2.y[y]) for y in s.y_ids},
            {x: _hom_terms(s.algebra(x).spec, z.f[x].space, z2.x[x]) for x in s.x_ids})


def hom_space_dims(z: TripleObject, z2: TripleObject) -> tuple[int, int, int]:
    """(dim Hom on x parts, dim Hom on y parts, dim Hom(F(Y), X'))."""
    return tuple(sum(len(t) for t, _ in b.values()) for b in _bases(z, z2))


def _psi_data(z: TripleObject, z2: TripleObject):
    """Bases and the sparse integer columns of psi(u, v) = u . eta - eta' . F(v) for a pair.

    Returns (ubases, vbases, fbases, offsets, (nrows, columns)), bases as
    `_hom_terms`.  Column c (u basis elements, then v basis elements, in
    vertex order) is columns[c] = (its nonzero (row, integer) entries, rows
    increasing, den); the rows are the Hom(F(Y), X') basis, x's block from
    offsets[x].  Each image u_k . eta or -(eta' . F(v_l)) is written as its
    nonzero {row-major index: integer} at each x-vertex.  Over Q the index is
    the coordinate; else `_commutant_coords` reads it off the Hom(F(Y), X')
    commutant basis (F is never canonical) and its exact recombination
    check proves the image equivariant.  A u column is over uden * eta.den;
    a v column's x blocks are scaled to vden times the lcm of the eta'
    denominators.
    """
    s = _same_scenario(z, z2)
    ubases, vbases, fbases = _bases(z, z2)
    images = {x: [] for x in s.x_ids}  # (column, entries)
    dens = []
    for x in s.x_ids:
        eta, width = z.eta[x], z.f[x].dim
        rows = [[(l, g) for l, g in enumerate(row) if g] for row in eta.num]
        terms, uden = ubases[x]
        for ents in terms:  # row i of u_k . eta is the sum of e * (row j of eta) over u_k's entries
            img = {}
            for i, j, e in ents:
                for l, g in rows[j]:
                    p = i * width + l
                    img[p] = img.get(p, 0) + e * g
            images[x].append((len(dens), img))
            dens.append(uden * eta.den)
    big = lcm(*(z2.eta[x].den for x in s.x_ids))
    for y in s.y_ids:
        terms, vden = vbases[y]
        n1, n2 = z.y[y].dim, z2.y[y].dim
        for x in s.x_ids:
            # nonzero v terms mean both F spaces hold a y block
            if not terms or y not in z.f[x].offsets:
                continue
            eta2, width = z2.eta[x], z.f[x].dim
            src, dst, scale = z.f[x].offsets[y], z2.f[x].offsets[y], -big // eta2.den
            # F(v_l) is I_r (x) v_l on the y block: entry (k, j) of v_l meets
            # eta' column dst + i * n2 + k and lands at column src + i * n1 + j
            at = [[] for _ in range(n2)]
            for i in range(s.bimodules[(x, y)].rank_over_right):
                for a, row in enumerate(eta2.num):
                    for k, g in enumerate(row[dst + i * n2:dst + (i + 1) * n2]):
                        if g:
                            at[k].append((a * width + src + i * n1, scale * g))
            for l, ents in enumerate(terms, len(dens)):
                img = {}
                for k, j, e in ents:
                    for base, g in at[k]:
                        img[base + j] = img.get(base + j, 0) + g * e
                images[x].append((l, img))
        dens += [big * vden] * len(terms)
    offsets: dict[str, int] = {}
    columns = [[] for _ in dens]
    nrows = 0
    for x in s.x_ids:
        (fterms, fden), imgs = fbases[x], images[x]
        offsets[x] = nrows
        if s.algebra(x).dim == 1:
            for c, img in imgs:
                columns[c] += sorted((nrows + p, e) for p, e in img.items() if e)
        elif imgs:
            coords = _commutant_coords(fterms, fden, z.f[x].dim, [img for _, img in imgs])
            if coords is None:
                raise InternalConsistencyError("map is not equivariant: no coordinates")
            for (c, _), ents in zip(imgs, coords):
                columns[c] += [(nrows + k, e) for k, e in ents]
        nrows += len(fterms)
    return ubases, vbases, fbases, offsets, (nrows, list(zip(columns, dens)))


def _psi_rows(nrows: int, columns: list) -> list[dict[int, int]]:
    """psi's rows as `_echelon` input, over the lcm of the columns' denominators."""
    den = lcm(*(d for _, d in columns))
    rows = [{} for _ in range(nrows)]
    for c, (ents, d) in enumerate(columns):
        k = den // d
        for r, e in ents:
            rows[r][c] = e * k
    return rows


def hom(z: TripleObject, z2: TripleObject) -> list[TripleMorphism]:
    """Basis of the space of morphisms z -> z2: the kernel of psi, from its rows.

    Each kernel vector accumulates into one integer grid per vertex from the
    nonzero entries of that vertex's basis.
    """
    s = z.scenario
    ubases, vbases, _, _, (nrows, columns) = _psi_data(z, z2)
    ker, _ = _null_space(_psi_rows(nrows, columns), len(columns))
    sides = ((0, s.x_ids, ubases, z.x, z2.x), (1, s.y_ids, vbases, z.y, z2.y))
    sparse = [(side, w, *bases[w], dst[w].dim, src[w].dim)
              for side, ids, bases, src, dst in sides for w in ids]
    out = []
    for vec in ker.num:
        coeffs, parts = iter(vec), ({}, {})
        for side, w, terms, den, rows, cols in sparse:  # each takes the next len(terms) coefficients
            parts[side][w] = _combine_terms(terms, coeffs, ker.den * den, rows, cols)
        out.append(TripleMorphism(z, z2, *parts))
    return out


@dataclass
class ExtResult:
    """dim, coset representatives in Hom(F(Y), X'), and the projection.

    The projection maps Hom(F(Y), X') coordinates (concatenated over
    x-vertices in scenario order) onto cokernel coordinates.
    """

    dim: int
    basis: list[dict[str, RatMatrix]]
    projection: RatMatrix


def ext1(z: TripleObject, z2: TripleObject) -> ExtResult:
    """Cokernel of psi(u, v) = u . eta - eta' . F(v), from psi's columns read as rows."""
    s = z.scenario
    _, _, fbases, offsets, (nrows, columns) = _psi_data(z, z2)
    proj, free = _null_space([dict(ents) for ents, _ in columns], nrows)

    def rep(x: str, k: int) -> RatMatrix:  # Hom(F(Y)_x, X'_x) basis element k; zero off its range
        terms, den = fbases[x]
        return _combine_terms(terms[k:k + 1] if k >= 0 else [], [1], den, z2.x[x].dim, z.f[x].dim)

    return ExtResult(len(free), [{x: rep(x, c - offsets[x]) for x in s.x_ids} for c in free], proj)


def hom_ext_dims(z: TripleObject, z2: TripleObject) -> tuple[int, int, tuple[int, int, int]]:
    """(dim Hom, dim Ext^1, hom_space_dims) from one build of psi.

    dim Hom is ncols - rank(psi) by eliminating psi's rows, and dim Ext^1 is
    nrows - rank(psi) by eliminating its columns: two eliminations of two
    separately built row sets (none when psi has no rows or no columns).
    """
    ubases, vbases, _, _, (nrows, columns) = _psi_data(z, z2)
    su, sv = (sum(len(t) for t, _ in b.values()) for b in (ubases, vbases))
    h, e = len(columns), nrows
    if nrows and columns:
        h -= len(_echelon(_psi_rows(nrows, columns))[0])
        e -= len(_echelon([dict(ents) for ents, _ in columns])[0])
    return h, e, (su, sv, nrows)


def euler_form(z: TripleObject, z2: TripleObject) -> int:
    """dim hom - dim ext1, from one psi; checked against the five-term sequence.

    h and e come from `hom_ext_dims`' two eliminations, of psi's rows and of
    its columns, and h - e must equal su + sv - sf on every call.
    """
    h, e, (su, sv, sf) = hom_ext_dims(z, z2)
    if h - e != su + sv - sf:
        raise InternalConsistencyError(
            f"five-term sequence violated: hom={h}, ext={e}, dims=({su},{sv},{sf})")
    return h - e


# ======================================================================
# Universal extensions, projectives, resolutions
# ======================================================================

def universal_extension(scenario: SpeciesScenario,
                        y_parts: dict[str, VertexSpace]) -> TripleObject:
    """E(Y) = (F(Y), Y, identity)."""
    fsp = _build_fspaces(scenario, y_parts)
    x_parts = {x: fsp[x].space for x in scenario.x_ids}
    eta = {x: RatMatrix.identity(fsp[x].dim) for x in scenario.x_ids}
    return TripleObject._with_fspaces(scenario, x_parts, dict(y_parts), eta, fsp)


def universal_extension_of(z: TripleObject) -> TripleObject:
    return universal_extension(z.scenario, z.y)


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
    s = z.scenario
    p1 = TripleObject(
        s,
        {x: z.f[x].space for x in s.x_ids},
        {y: canonical_space(s.algebra(y), 0) for y in s.y_ids},
        {x: RatMatrix.zeros(z.f[x].dim, 0) for x in s.x_ids},
        check=False)
    ey = universal_extension_of(z)
    p0, (i_x, i_e), _ = direct_sum(x_only(z), ey)
    # d1 = (eta, iota): w |-> (eta w, w)
    u1 = {x: i_x.u[x] * z.eta[x] + i_e.u[x] for x in s.x_ids}
    d1 = TripleMorphism(p1, p0, u1, {y: RatMatrix.zeros(p0.y[y].dim, 0) for y in s.y_ids})
    # d0 = f - mu: (x, w, y) |-> x - eta w on the x side, -y on the y side
    u0 = {x: RatMatrix.identity(z.x[x].dim).hstack(z.eta[x].scale(-1)) for x in s.x_ids}
    v0 = {y: RatMatrix.identity(z.y[y].dim).scale(-1) for y in s.y_ids}
    d0 = TripleMorphism(p0, z, u0, v0)
    return Resolution(z, p1, p0, d1, d0)


# ======================================================================
# Direct sums
# ======================================================================

def _stack_spaces(handle: DivisionAlgebraHandle, a: VertexSpace, b: VertexSpace) -> VertexSpace:
    if a.canonical is not None and b.canonical is not None and a.canonical[0] == b.canonical[0]:
        return canonical_space(handle, a.canonical[1] + b.canonical[1])
    return VertexSpace(a.dim + b.dim, [_block_diag([ma, mb]) for ma, mb in zip(a.action, b.action)])


def direct_sum(a: TripleObject, b: TripleObject):
    """(a (+) b, inclusions, projections)."""
    s = _same_scenario(a, b)
    x_parts = {x: _stack_spaces(s.algebra(x), a.x[x], b.x[x]) for x in s.x_ids}
    y_parts = {y: _stack_spaces(s.algebra(y), a.y[y], b.y[y]) for y in s.y_ids}
    fsp = _build_fspaces(s, y_parts)

    def inclusion(m: int, n: int, second: bool) -> RatMatrix:
        d = n if second else m
        return _assemble(m + n, d, [(m if second else 0, 0, RatMatrix.identity(d))])

    ia_u = {x: inclusion(a.x[x].dim, b.x[x].dim, False) for x in s.x_ids}
    ib_u = {x: inclusion(a.x[x].dim, b.x[x].dim, True) for x in s.x_ids}
    ia_v = {y: inclusion(a.y[y].dim, b.y[y].dim, False) for y in s.y_ids}
    ib_v = {y: inclusion(a.y[y].dim, b.y[y].dim, True) for y in s.y_ids}
    eta = {}
    for x in s.x_ids:
        fa = _f_map(s, ia_v, a.f, fsp, x)
        fb = _f_map(s, ib_v, b.f, fsp, x)
        # F of the inclusions is a slot permutation, so its inverse is its transpose
        lhs = (ia_u[x] * a.eta[x]).hstack(ib_u[x] * b.eta[x])
        eta[x] = lhs * fa.hstack(fb).transpose()
    total = TripleObject._with_fspaces(s, x_parts, y_parts, eta, fsp)
    inc_a = TripleMorphism(a, total, ia_u, ia_v)
    inc_b = TripleMorphism(b, total, ib_u, ib_v)
    # the projections are the transposed inclusions
    proj_a = TripleMorphism(total, a, {x: m.transpose() for x, m in ia_u.items()},
                            {y: m.transpose() for y, m in ia_v.items()})
    proj_b = TripleMorphism(total, b, {x: m.transpose() for x, m in ib_u.items()},
                            {y: m.transpose() for y, m in ib_v.items()})
    return total, (inc_a, inc_b), (proj_a, proj_b)


def direct_sum_many(objs: Sequence[TripleObject]):
    """Iterated direct sum; returns (total, inclusions, projections)."""
    if not objs:
        raise TripleError("direct sum of an empty family is the zero object; build it directly")
    total = objs[0]
    incs = [identity_morphism(total)]
    projs = [identity_morphism(total)]
    for nxt in objs[1:]:
        total2, (ia, ib), (pa, pb) = direct_sum(total, nxt)
        incs = [ia.compose(m) for m in incs] + [ib]
        projs = [m.compose(pa) for m in projs] + [pb]
        total = total2
    return total, incs, projs


# ======================================================================
# Kernels, cokernels, images, torsion pair
# ======================================================================

def _subspace_object(z: TripleObject, x_cols: dict[str, RatMatrix],
                     y_cols: dict[str, RatMatrix]) -> tuple[TripleObject, TripleMorphism]:
    """Subobject spanned by action-stable columns, with its inclusion."""
    s = z.scenario
    x_parts, y_parts = {}, {}
    for ids, parts, cols, amb in ((s.x_ids, x_parts, x_cols, z.x), (s.y_ids, y_parts, y_cols, z.y)):
        for vtx in ids:
            inc = cols[vtx]
            action = []
            for m in amb[vtx].action:
                sol = inc.solve(m * inc)
                if sol is None:
                    raise InternalConsistencyError(f"subspace at {vtx!r} is not action-stable")
                action.append(sol)
            parts[vtx] = VertexSpace(inc.cols, action)
    fsp = _f_layout(s, y_parts)
    eta = {}
    for x in s.x_ids:
        fi = _f_map(s, y_cols, fsp, z.f, x)
        target = z.eta[x] * fi
        sol = x_cols[x].solve(target)
        if sol is None:
            raise InternalConsistencyError(f"eta does not restrict to the subobject at {x!r}")
        eta[x] = sol
    sub = TripleObject(s, x_parts, y_parts, eta, check=False)
    return sub, TripleMorphism(sub, z, dict(x_cols), dict(y_cols))


def _quotient_object(z: TripleObject, x_sub: dict[str, RatMatrix],
                     y_sub: dict[str, RatMatrix]) -> tuple[TripleObject, TripleMorphism]:
    """Quotient by the action-stable column spans, with its projection."""
    s = z.scenario
    x_parts, y_parts = {}, {}
    pro_u, pro_v = {}, {}
    for ids, parts, subs, amb, pro in ((s.x_ids, x_parts, x_sub, z.x, pro_u),
                                       (s.y_ids, y_parts, y_sub, z.y, pro_v)):
        for vtx in ids:
            # proj is the identity on the free columns, so the induced action
            # X with X . proj = proj . m is proj . m read at those columns
            proj, free = _null_rows(subs[vtx].transpose())
            images = [proj * m for m in amb[vtx].action]
            action = [pm.submatrix(range(proj.rows), free) for pm in images]
            if any(a * proj != pm for a, pm in zip(action, images)):
                raise InternalConsistencyError(f"subspace at {vtx!r} is not action-stable")
            parts[vtx] = VertexSpace(proj.rows, action)
            pro[vtx] = proj
    fsp = _f_layout(s, y_parts)
    eta = {}
    for x in s.x_ids:
        fpi = _f_map(s, pro_v, z.f, fsp, x)
        rhs = (pro_u[x] * z.eta[x]).transpose()
        sol = fpi.transpose().solve(rhs)
        if sol is None:
            raise InternalConsistencyError(f"eta does not descend to the quotient at {x!r}")
        eta[x] = sol.transpose()
    quo = TripleObject(s, x_parts, y_parts, eta, check=False)
    return quo, TripleMorphism(z, quo, pro_u, pro_v)


@dataclass
class AbelianOps:
    kernel: TripleObject
    kernel_inclusion: TripleMorphism
    image: TripleObject
    image_inclusion: TripleMorphism      # image -> target
    image_projection: TripleMorphism     # source -> image
    cokernel: TripleObject
    cokernel_projection: TripleMorphism  # target -> cokernel


def _image(f: TripleMorphism) -> tuple[TripleObject, TripleMorphism, TripleMorphism]:
    """(image, inclusion, f onto the image), spanned by the pivot columns of f."""
    ix = {x: m.submatrix(range(m.rows), m.column_space_pivots()) for x, m in f.u.items()}
    iy = {y: m.submatrix(range(m.rows), m.column_space_pivots()) for y, m in f.v.items()}
    image, inc = _subspace_object(f.target, ix, iy)
    pu = {x: ix[x].solve(m) for x, m in f.u.items()}
    pv = {y: iy[y].solve(m) for y, m in f.v.items()}
    if None in pu.values() or None in pv.values():
        raise InternalConsistencyError("image coordinates failed to solve")
    return image, inc, TripleMorphism(f.source, image, pu, pv)


def abelian_ops(f: TripleMorphism) -> AbelianOps:
    """Kernel, image and cokernel of a morphism, with their structure maps."""
    s = f.source.scenario
    z, z2 = f.source, f.target
    kx = {x: _kernel(f.u[x]) for x in s.x_ids}
    ky = {y: _kernel(f.v[y]) for y in s.y_ids}
    kernel, k_inc = _subspace_object(z, kx, ky)
    image, i_inc, i_proj = _image(f)
    cok, c_proj = _quotient_object(z2, i_inc.u, i_inc.v)
    return AbelianOps(kernel, k_inc, image, i_inc, i_proj, cok, c_proj)


def verify_short_exact(inc: TripleMorphism, proj: TripleMorphism) -> bool:
    """0 -> A -> B -> C -> 0 exactness, checked componentwise by ranks."""
    return proj.compose(inc).is_zero() and _exact_by_ranks(inc, proj)


def _exact_by_ranks(inc: TripleMorphism, proj: TripleMorphism) -> bool:
    """Given proj . inc = 0: inc injective, proj surjective and dim B = dim A + dim C everywhere."""
    s = inc.source.scenario
    for ids, f, g, sa, sb, sc in ((s.x_ids, inc.u, proj.u, inc.source.x, inc.target.x, proj.target.x),
                                  (s.y_ids, inc.v, proj.v, inc.source.y, inc.target.y, proj.target.y)):
        for vtx in ids:
            a, b, c = sa[vtx].dim, sb[vtx].dim, sc[vtx].dim
            if f[vtx].rank() != a or g[vtx].rank() != c or a + c != b:
                return False
    return True


def torsion_pair(z: TripleObject) -> tuple[TripleMorphism, TripleMorphism]:
    """The canonical sequence 0 -> (X,0,0) -> z -> (0,Y,0) -> 0."""
    s = z.scenario
    sub = x_only(z)
    quo = y_only(z)
    inc = TripleMorphism(sub, z,
                         {x: RatMatrix.identity(z.x[x].dim) for x in s.x_ids},
                         {y: RatMatrix.zeros(z.y[y].dim, 0) for y in s.y_ids})
    proj = TripleMorphism(z, quo,
                          {x: RatMatrix.zeros(0, z.x[x].dim) for x in s.x_ids},
                          {y: RatMatrix.identity(z.y[y].dim) for y in s.y_ids})
    return inc, proj


# ======================================================================
# Endomorphism algebras and universality
# ======================================================================

def end_algebra(z: TripleObject, basis: list[TripleMorphism] | None = None) -> AlgebraSpec:
    """Structure constants of End(z) in the computed hom basis."""
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
    crit1 = all(z.eta[x].rows == z.eta[x].cols and z.eta[x].rank() == z.eta[x].rows
                for x in s.x_ids)

    end_basis = hom(z, z)
    sv = sum(len(_hom_terms(s.algebra(y).spec, z.y[y], z.y[y])[0]) for y in s.y_ids)
    vflat_len = sum(z.y[y].dim ** 2 for y in s.y_ids)
    vflats = [_flat_matrices([m.v[y] for y in s.y_ids]) for m in end_basis]
    vrank = _flat_columns(vflats, vflat_len).rank() if vflats else 0
    transport = (len(end_basis) == sv == vrank)
    self_ext = ext1(z, z).dim == 0
    # at one vertex all nonzero modules are isotypic, so ker(eta) is seen by
    # the x component iff the component is nonzero wherever the kernel is
    detected = all(z.eta[x].rank() == z.eta[x].cols or z.x[x].dim > 0
                   for x in s.x_ids)
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
    s = m.source.scenario
    blocks = [m.u[x] for x in s.x_ids] + [m.v[y] for y in s.y_ids]
    blocks = [b for b in blocks if b.rows or b.cols]
    if not blocks:
        return RatMatrix.identity(0)
    return _block_diag(blocks)


def _poly_on_morphism(f: list[int], den: int, a: TripleMorphism) -> TripleMorphism:
    """f(a) / den for integer coefficients f, ascending, by Horner."""
    z = a.source
    acc = zero_morphism(z, z)
    ident = identity_morphism(z)
    for c in reversed(f):
        acc = acc.compose(a) if not acc.is_zero() else zero_morphism(z, z)
        if c:
            acc = acc + ident.scale(c)
    return acc.scale(Fraction(1, den))


def _image_split(z: TripleObject, e: TripleMorphism):
    """Split z along an idempotent e; returns ((obj, inc, proj), same for 1-e)."""
    pieces = [_image(idem) for idem in (e, identity_morphism(z) - e)]
    if pieces[0][0].total_dim() + pieces[1][0].total_dim() != z.total_dim():
        raise InternalConsistencyError("idempotent split lost dimensions")
    return pieces


def _combinations(end_basis: list[TripleMorphism]):
    """The pairwise sums, then the pairwise products, of the basis candidates."""
    n = len(end_basis)
    for i in range(n):
        for j in range(i + 1, n):
            yield end_basis[i] + end_basis[j]
    for i in range(n):
        for j in range(n):
            if i != j:
                yield end_basis[i].compose(end_basis[j])


def _coprime_parts(f: list[int]) -> tuple[list[int], list[int]] | None:
    """Split a primitive integer polynomial into two nontrivial coprime primitive parts.

    Cheap routes first: a pure t-power factor (the Fitting split of a
    non-nilpotent non-invertible element), then the square-free multiplicity
    groups; only a square-free irreducible-power candidate falls back to a
    budgeted Kronecker factorization, and a budget overrun means "no split
    found via this element", never a wrong answer.
    """
    v = 0
    while v < len(f) and f[v] == 0:
        v += 1
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


def _normalized_candidate(a: TripleMorphism) -> TripleMorphism:
    """Scale a nonzero morphism so its entries are coprime integers."""
    flat, den = _flat_morphism(a)
    g = gcd(*flat)
    return a.scale(Fraction(den, g)) if g else a


def _splitting_idempotent(z: TripleObject,
                          candidates: Iterable[TripleMorphism]) -> TripleMorphism | None:
    """The idempotent of the first candidate whose minimal polynomial splits, or None."""
    for raw in candidates:
        if raw.is_zero():
            continue
        a = _normalized_candidate(raw)
        split = _coprime_parts(_int_min_poly_matrix(_total_matrix(a)))
        if split is None:
            continue
        part, rest = split
        t, g = _int_poly_bezout(part, rest)
        if len(g) != 1:
            raise InternalConsistencyError("coprime minimal polynomial parts share a factor")
        e = _poly_on_morphism(_int_poly_mul(t, rest), g[0], a)
        if e.is_zero() or (e - identity_morphism(z)).is_zero():
            continue
        if not (e.compose(e) - e).is_zero():
            raise InternalConsistencyError("constructed projector is not idempotent")
        return e
    return None


def _is_field(alg: AlgebraSpec) -> bool:
    if alg.dim == 0 or not alg.is_commutative():
        return False
    if alg.dim == 1:
        return True
    # primitive element: some small combination with full-degree minimal polynomial
    candidates = [alg.basis_vector(i) for i in range(alg.dim)]
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            candidates.append([a + b for a, b in zip(alg.basis_vector(i), alg.basis_vector(j))])
            candidates.append([a + 2 * b for a, b in zip(alg.basis_vector(i), alg.basis_vector(j))])
    for cand in candidates:
        p = min_poly(cand, alg)
        if p.degree == alg.dim:
            try:
                return is_irreducible(p, budget=FactorBudget())
            except FactorBudgetExceeded:
                return False  # certification declined, never guessed
    return False


def _leaf_certified(z: TripleObject, end_basis: list[TripleMorphism]) -> bool:
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
                   end_basis: list[TripleMorphism]) -> tuple[TripleMorphism | None, str]:
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


def decompose(z: TripleObject) -> Decomposition:
    """Split z into indecomposable summands with explicit idempotents.

    z is indecomposable exactly when End(z) is local, and then no element
    gives a splitting idempotent (Fitting), so a proved-local End ends the
    search.  At each node: End = Q . id is a certified leaf at once; else
    the hom basis elements are tried, then the End/rad field certificate
    (a commutative End/rad with a primitive element of irreducible minimal
    polynomial), then the pairwise sums and products.  The first candidate
    whose minimal polynomial has coprime parts splits z.  The flag is
    "certified" when every leaf is certified, else "no-further-splitting-found".
    """
    if z.total_dim() == 0:
        return Decomposition([], CERTIFIED)
    e, flag = _split_or_leaf(z, hom(z, z))
    if e is None:
        return Decomposition([Summand(z, identity_morphism(z), identity_morphism(z))], flag)
    summands: list[Summand] = []
    flag = CERTIFIED
    for piece, inc, proj in _image_split(z, e):
        if piece.total_dim() == 0:
            raise InternalConsistencyError("idempotent split produced a zero piece")
        subdec = decompose(piece)
        if subdec.flag != CERTIFIED:
            flag = NO_FURTHER
        for sm in subdec.summands:
            summands.append(Summand(sm.object,
                                    inc.compose(sm.inclusion),
                                    sm.projection.compose(proj)))
    return Decomposition(summands, flag)
