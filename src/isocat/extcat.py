"""The category of triples (X, Y, eta) over a species scenario.

An object assigns a module to every vertex and, per x-vertex, a structure
map eta from the induced tensor space F(Y) into the x-component.  Morphisms
are pairs of equivariant block maps (u, v) making the square
u . eta = eta' . F(v) commute.  Hom and Ext^1 fall out of one linear map

    psi(u, v) = u . eta - eta' . F(v)

as kernel and cokernel; the module also provides universal extensions,
length-1 projective resolutions, kernels/cokernels/images, torsion pairs,
endomorphism algebras and an exact Krull-Schmidt-style decomposition.

Tensor spaces use a canonical slot basis: for the bimodule at (x, y), a
greedy right basis m_0..m_{r-1} of M over the y algebra, a greedy y-algebra
basis v_0..v_{s-1} of the y component over its standard basis, and slots
m_i (x) (e_b . v_j) ordered (i, j, b).  The slot layout is part of every
object's identity, so serialized objects round-trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .exactalg import (
    AlgebraSpec,
    FactorBudget,
    FactorBudgetExceeded,
    Polynomial,
    RatMatrix,
    _quotient_by_rows,
    factor_rational,
    is_irreducible,
    min_poly,
    min_poly_matrix,
    poly_xgcd,
    quotient_algebra,
    quotient_space,
    radical,
    squarefree_decomposition,
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
    """A Q-space with a unital action of one vertex algebra."""

    __slots__ = ("dim", "action", "_key", "_frame", "canonical")

    def __init__(self, dim: int, action: Sequence[RatMatrix],
                 canonical: Optional[tuple] = None):
        self.dim = dim
        self.action = list(action)
        self.canonical = canonical
        self._key = None
        self._frame = None

    def key(self) -> tuple:
        if self._key is None:
            self._key = (self.dim, tuple(m.key() for m in self.action))
        return self._key

    def act(self, coords: Sequence[Fraction]) -> RatMatrix:
        acc = RatMatrix.zeros(self.dim, self.dim)
        for m, c in zip(self.action, coords):
            if c:
                acc = acc + m.scale(c)
        return acc

    def frame(self) -> tuple[RatMatrix, RatMatrix]:
        """(P, P^-1) for the greedy algebra-basis coordinates of this space.

        Column (j, b) of P is e_b . v_j for the greedy basis v_0..v_{s-1};
        for canonically presented spaces P is the identity.
        """
        if self._frame is None:
            nd = len(self.action)
            if self.dim == 0:
                eye = RatMatrix.identity(0)
                self._frame = (eye, eye)
            else:
                cols: list[RatMatrix] = []
                span: RatMatrix | None = None
                picked = 0
                for cand in range(self.dim):
                    e = RatMatrix.zeros(self.dim, 1)
                    e.num[cand][0] = 1
                    if span is not None and span.solve(e) is not None:
                        continue
                    picked += 1
                    for b in range(nd):
                        cols.append(self.action[b] * e)
                    span = cols[0]
                    for c in cols[1:]:
                        span = span.hstack(c)
                    if picked * nd == self.dim:
                        break
                if picked * nd != self.dim:
                    raise TripleError("vertex space is not free over its algebra")
                p = span
                eye = RatMatrix.identity(self.dim)
                pinv = eye if p == eye else p.inverse()
                self._frame = (p, pinv)
        return self._frame


def canonical_space(handle: DivisionAlgebraHandle, mult: int) -> VertexSpace:
    """mult copies of the algebra acting on itself from the left."""
    n = handle.dim
    eye = RatMatrix.identity(mult)
    action = [eye.kron(handle.spec.left_mats[b]) for b in range(n)]
    return VertexSpace(mult * n, action, canonical=(handle.key(), mult))


def zero_space(handle: DivisionAlgebraHandle) -> VertexSpace:
    return canonical_space(handle, 0)


# ======================================================================
# Equivariant hom spaces (with cache)
# ======================================================================

_HOM_CACHE: dict[tuple, list[RatMatrix]] = {}


def equivariant_hom_basis(alg: AlgebraSpec, src: VertexSpace, dst: VertexSpace) -> list[RatMatrix]:
    """Basis of the algebra-equivariant maps src -> dst."""
    if src.dim == 0 or dst.dim == 0:
        return []
    if alg.dim == 1:
        out = []
        for k in range(dst.dim):
            for l in range(src.dim):
                m = RatMatrix.zeros(dst.dim, src.dim)
                m.num[k][l] = 1
                out.append(m)
        return out
    key = (alg.key(), src.key(), dst.key())
    if key in _HOM_CACHE:
        return _HOM_CACHE[key]
    if (src.canonical is not None and dst.canonical is not None
            and src.canonical[0] == dst.canonical[0]):
        ms, md = src.canonical[1], dst.canonical[1]
        basis = []
        for s in range(md):
            for t in range(ms):
                unit = RatMatrix.zeros(md, ms)
                unit.num[s][t] = 1
                for b in range(alg.dim):
                    basis.append(unit.kron(alg.right_mats[b]))
        _HOM_CACHE[key] = basis
        return basis
    rows: list[list[Fraction]] = []
    sd, dd = src.dim, dst.dim
    for a in range(alg.dim):
        lhs = dst.action[a].kron(RatMatrix.identity(sd))
        rhs = RatMatrix.identity(dd).kron(src.action[a].transpose())
        diff = lhs - rhs
        rows.extend(diff.to_fractions())
    kern = RatMatrix.from_rows(rows).kernel_basis()
    basis = []
    for vec in kern:
        grid = [[vec[r * sd + c] for c in range(sd)] for r in range(dd)]
        basis.append(RatMatrix.from_rows(grid))
    _HOM_CACHE[key] = basis
    return basis


def _combine_basis(basis: Sequence[RatMatrix], coeffs: Sequence[Fraction],
                   rows: int, cols: int) -> RatMatrix:
    acc = RatMatrix.zeros(rows, cols)
    for m, c in zip(basis, coeffs):
        if c:
            acc = acc + m.scale(c)
    return acc


# ======================================================================
# Tensor structure
# ======================================================================

class FSpace:
    """The tensor space F(Y) at one x-vertex, with its slot layout."""

    __slots__ = ("dim", "layout", "offsets", "space")

    def __init__(self, dim: int, layout: list[tuple[str, int]], offsets: dict[str, int],
                 space: VertexSpace):
        self.dim = dim
        self.layout = layout
        self.offsets = offsets
        self.space = space


def _build_fspaces(scenario: SpeciesScenario,
                   y_parts: dict[str, VertexSpace]) -> dict[str, FSpace]:
    out: dict[str, FSpace] = {}
    for x in scenario.x_ids:
        alg = scenario.algebra(x).spec
        layout: list[tuple[str, int]] = []
        offsets: dict[str, int] = {}
        total = 0
        blocks: list[tuple[str, int]] = []  # (y, slot rank r)
        for y in scenario.y_ids:
            bm = scenario.bimodules.get((x, y))
            if bm is None:
                continue
            r = bm.rank_over_right
            width = r * y_parts[y].dim
            if width == 0:
                continue
            layout.append((y, width))
            offsets[y] = total
            blocks.append((y, r))
            total += width
        action = []
        for a in range(alg.dim):
            block_mats: list[RatMatrix] = []
            for y, r in blocks:
                bm = scenario.bimodules[(x, y)]
                vs = y_parts[y]
                p, pinv = vs.frame()
                dco = bm.left_coords(a)
                vdim = vs.dim
                rows_acc = None
                for k in range(r):
                    row_acc = None
                    for i in range(r):
                        d = dco[i][k]
                        if all(c == 0 for c in d):
                            cell = RatMatrix.zeros(vdim, vdim)
                        else:
                            cell = pinv * vs.act(d) * p
                        row_acc = cell if row_acc is None else row_acc.hstack(cell)
                    rows_acc = row_acc if rows_acc is None else rows_acc.vstack(row_acc)
                block_mats.append(rows_acc)
            action.append(_block_diag(block_mats) if block_mats else RatMatrix.identity(0))
        out[x] = FSpace(total, layout, offsets, VertexSpace(total, action))
    return out


def _block_diag(blocks: list[RatMatrix]) -> RatMatrix:
    total_c = sum(b.cols for b in blocks)
    out = None
    co = 0
    for b in blocks:
        left = RatMatrix.zeros(b.rows, co)
        right = RatMatrix.zeros(b.rows, total_c - co - b.cols)
        row = left.hstack(b).hstack(right)
        out = row if out is None else out.vstack(row)
        co += b.cols
    return out if out is not None else RatMatrix.zeros(0, 0)


def _f_map(scenario: SpeciesScenario, src_y: dict[str, VertexSpace],
           dst_y: dict[str, VertexSpace], v: dict[str, RatMatrix],
           src_f: dict[str, FSpace], dst_f: dict[str, FSpace], x: str) -> RatMatrix:
    """Matrix of F(v) at the x-vertex, in the canonical slot bases."""
    sf, df = src_f[x], dst_f[x]
    src_layout = dict(sf.layout)
    dst_layout = dict(df.layout)
    ys = [y for y in scenario.y_ids if y in src_layout or y in dst_layout]
    blocks: list[RatMatrix] = []
    for y in ys:
        bm = scenario.bimodules[(x, y)]
        r = bm.rank_over_right
        ps, _ = src_y[y].frame()
        _, pdinv = dst_y[y].frame()
        t = pdinv * v[y] * ps
        blocks.append(RatMatrix.identity(r).kron(t))
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
        self.f = _build_fspaces(scenario, self.y)
        for xv in scenario.x_ids:
            m = self.eta.get(xv)
            if m is None:
                raise TripleError(f"missing eta component at {xv!r}")
            if (m.rows, m.cols) != (self.x[xv].dim, self.f[xv].dim):
                raise TripleError(f"eta at {xv!r} has shape {m.rows}x{m.cols}, "
                                  f"expected {self.x[xv].dim}x{self.f[xv].dim}")
        if check:
            err = validate(self)
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


def validate(z: TripleObject) -> Optional[str]:
    """None if every invariant holds, else the first violation."""
    s = z.scenario
    for ids, parts, side in ((s.x_ids, z.x, "x"), (s.y_ids, z.y, "y")):
        for v in ids:
            alg = s.algebra(v).spec
            vs = parts[v]
            if len(vs.action) != alg.dim:
                return f"{side}-component at {v!r}: one action matrix per algebra basis element required"
            for m in vs.action:
                if (m.rows, m.cols) != (vs.dim, vs.dim):
                    return f"{side}-component at {v!r}: action matrix shape mismatch"
            if vs.dim == 0:
                continue
            if vs.act(alg.unit) != RatMatrix.identity(vs.dim):
                return f"{side}-component at {v!r}: action is not unital"
            for i in range(alg.dim):
                for j in range(alg.dim):
                    prod = alg.multiply(alg.basis_vector(i), alg.basis_vector(j))
                    if vs.action[i] * vs.action[j] != vs.act(prod):
                        return f"{side}-component at {v!r}: action not multiplicative at ({i},{j})"
    for xv in s.x_ids:
        alg = s.algebra(xv).spec
        eta = z.eta[xv]
        fsp = z.f[xv]
        for a in range(alg.dim):
            if eta * fsp.space.action[a] != z.x[xv].action[a] * eta:
                return f"eta at {xv!r} is not equivariant for algebra basis element {a}"
    return None


@dataclass
class TripleMorphism:
    """A pair of equivariant component maps with a commuting eta square."""

    source: TripleObject
    target: TripleObject
    u: dict[str, RatMatrix]
    v: dict[str, RatMatrix]

    def check(self) -> Optional[str]:
        s = self.source.scenario
        for xv in s.x_ids:
            alg = s.algebra(xv).spec
            for a in range(alg.dim):
                if self.u[xv] * self.source.x[xv].action[a] != self.target.x[xv].action[a] * self.u[xv]:
                    return f"u at {xv!r} not equivariant"
        for yv in s.y_ids:
            alg = s.algebra(yv).spec
            for a in range(alg.dim):
                if self.v[yv] * self.source.y[yv].action[a] != self.target.y[yv].action[a] * self.v[yv]:
                    return f"v at {yv!r} not equivariant"
        for xv in s.x_ids:
            fv = _f_map(s, self.source.y, self.target.y, self.v,
                        self.source.f, self.target.f, xv)
            if self.u[xv] * self.source.eta[xv] != self.target.eta[xv] * fv:
                return f"eta square does not commute at {xv!r}"
        return None

    def f_map(self, x: str) -> RatMatrix:
        return _f_map(self.source.scenario, self.source.y, self.target.y, self.v,
                      self.source.f, self.target.f, x)

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
        out: list[Fraction] = []
        s = self.source.scenario
        for x in s.x_ids:
            out.extend(e for row in self.u[x].to_fractions() for e in row)
        for y in s.y_ids:
            out.extend(e for row in self.v[y].to_fractions() for e in row)
        return out


def zero_morphism(src: TripleObject, dst: TripleObject) -> TripleMorphism:
    s = src.scenario
    u = {x: RatMatrix.zeros(dst.x[x].dim, src.x[x].dim) for x in s.x_ids}
    v = {y: RatMatrix.zeros(dst.y[y].dim, src.y[y].dim) for y in s.y_ids}
    return TripleMorphism(src, dst, u, v)


def identity_morphism(z: TripleObject) -> TripleMorphism:
    s = z.scenario
    u = {x: RatMatrix.identity(z.x[x].dim) for x in s.x_ids}
    v = {y: RatMatrix.identity(z.y[y].dim) for y in s.y_ids}
    return TripleMorphism(z, z, u, v)


# -- convenient constructors -------------------------------------------

def zero_object(scenario: SpeciesScenario) -> TripleObject:
    return canonical_object(scenario, {})


def canonical_object(scenario: SpeciesScenario, mult: dict[str, int],
                     eta: dict[str, RatMatrix] | None = None,
                     check: bool = True) -> TripleObject:
    """Object with canonically presented components of given multiplicities.

    With eta omitted, every structure map is zero.
    """
    x_parts = {x: canonical_space(scenario.algebra(x), mult.get(x, 0)) for x in scenario.x_ids}
    y_parts = {y: canonical_space(scenario.algebra(y), mult.get(y, 0)) for y in scenario.y_ids}
    fsp = _build_fspaces(scenario, y_parts)
    full_eta = {}
    for x in scenario.x_ids:
        if eta is not None and x in eta:
            full_eta[x] = eta[x]
        else:
            full_eta[x] = RatMatrix.zeros(x_parts[x].dim, fsp[x].dim)
    return TripleObject(scenario, x_parts, y_parts, full_eta, check=check)


def simple_x_object(scenario: SpeciesScenario, x: str) -> TripleObject:
    return canonical_object(scenario, {x: 1})


def simple_y_object(scenario: SpeciesScenario, y: str) -> TripleObject:
    return canonical_object(scenario, {y: 1})


def x_only(z: TripleObject) -> TripleObject:
    s = z.scenario
    y_parts = {y: zero_space(s.algebra(y)) for y in s.y_ids}
    eta = {x: RatMatrix.zeros(z.x[x].dim, 0) for x in s.x_ids}
    return TripleObject(s, dict(z.x), y_parts, eta, check=False)


def y_only(z: TripleObject) -> TripleObject:
    s = z.scenario
    x_parts = {x: zero_space(s.algebra(x)) for x in s.x_ids}
    fsp = _build_fspaces(s, z.y)
    eta = {x: RatMatrix.zeros(0, fsp[x].dim) for x in s.x_ids}
    return TripleObject(s, x_parts, dict(z.y), eta, check=False)


# ======================================================================
# Hom and Ext
# ======================================================================

def _same_scenario(z: TripleObject, z2: TripleObject) -> SpeciesScenario:
    if z.scenario is not z2.scenario and z.scenario.name != z2.scenario.name:
        raise TripleError("objects live over different scenarios")
    return z.scenario


def _u_bases(z: TripleObject, z2: TripleObject) -> dict[str, list[RatMatrix]]:
    s = z.scenario
    return {x: equivariant_hom_basis(s.algebra(x).spec, z.x[x], z2.x[x]) for x in s.x_ids}


def _v_bases(z: TripleObject, z2: TripleObject) -> dict[str, list[RatMatrix]]:
    s = z.scenario
    return {y: equivariant_hom_basis(s.algebra(y).spec, z.y[y], z2.y[y]) for y in s.y_ids}


def _fhom_bases(z: TripleObject, z2: TripleObject) -> dict[str, list[RatMatrix]]:
    s = z.scenario
    return {x: equivariant_hom_basis(s.algebra(x).spec, z.f[x].space, z2.x[x]) for x in s.x_ids}


def hom_space_dims(z: TripleObject, z2: TripleObject) -> tuple[int, int, int]:
    """(dim Hom on x parts, dim Hom on y parts, dim Hom(F(Y), X'))."""
    su = sum(len(b) for b in _u_bases(z, z2).values())
    sv = sum(len(b) for b in _v_bases(z, z2).values())
    sf = sum(len(b) for b in _fhom_bases(z, z2).values())
    return su, sv, sf


def _v_basis_f_blocks(z: TripleObject, z2: TripleObject,
                      vbases: dict[str, list[RatMatrix]]) -> dict[str, dict[tuple[str, int], RatMatrix]]:
    """eta' . F(v_l) per x-vertex, for each v-space basis element."""
    s = z.scenario
    out: dict[str, dict[tuple[str, int], RatMatrix]] = {x: {} for x in s.x_ids}
    for y in s.y_ids:
        basis = vbases[y]
        if not basis:
            continue
        ps, _ = z.y[y].frame()
        _, pdinv = z2.y[y].frame()
        for l, vmat in enumerate(basis):
            t = pdinv * vmat * ps
            for x in s.x_ids:
                bm = s.bimodules.get((x, y))
                if bm is None or z.f[x].dim == 0:
                    continue
                sf, df = z.f[x], z2.f[x]
                if y not in sf.offsets:
                    continue
                r = bm.rank_over_right
                blk = RatMatrix.identity(r).kron(t)
                src_off = sf.offsets[y]
                # G = eta'_x restricted to the y block of F(Y'), times blk
                dst_off = df.offsets.get(y)
                eta2 = z2.eta[x]
                if dst_off is None:
                    g = RatMatrix.zeros(z2.x[x].dim, blk.cols)
                else:
                    cols = list(range(dst_off, dst_off + blk.rows))
                    g = eta2.submatrix(range(eta2.rows), cols) * blk
                out[x][(y, l)] = (src_off, g)
    return out


def _psi_data(z: TripleObject, z2: TripleObject):
    """Bases and the one matrix of psi(u, v) = u . eta - eta' . F(v) for a pair.

    Returns (ubases, vbases, fbases, offsets, psi).  psi has one column per
    u basis element, then per v basis element (vertices in scenario order),
    and one row per Hom(F(Y), X') basis element, the block of x-vertex x
    starting at offsets[x]; Hom(z, z2) is its kernel and Ext^1 its cokernel.
    At each x-vertex the images of all basis elements are coordinatised in
    one batch: flattened entries over Q, else one solve against the stacked
    Hom(F(Y), X') basis, which has full column rank.
    """
    s = _same_scenario(z, z2)
    ubases = _u_bases(z, z2)
    vbases = _v_bases(z, z2)
    fbases = _fhom_bases(z, z2)
    images: dict[str, list] = {x: [] for x in s.x_ids}  # (column, entries, den)
    ncols = 0
    for x in s.x_ids:
        eta = z.eta[x]
        for uk in ubases[x]:
            w = uk * eta
            images[x].append((ncols, [e for r in w.num for e in r], w.den))
            ncols += 1
    fblocks = _v_basis_f_blocks(z, z2, vbases)
    for y in s.y_ids:
        for l in range(len(vbases[y])):
            for x in s.x_ids:
                hit = fblocks[x].get((y, l))
                if hit is None:
                    continue
                src_off, g = hit
                pad = [0] * (z.f[x].dim - src_off - g.cols)
                flat: list[int] = []
                for r in g.num:
                    flat += [0] * src_off
                    flat += [-e for e in r]
                    flat += pad
                images[x].append((ncols, flat, g.den))
            ncols += 1
    offsets: dict[str, int] = {}
    blocks = []
    total_f = 0
    den = 1
    for x in s.x_ids:
        fb, imgs = fbases[x], images[x]
        offsets[x] = total_f
        total_f += len(fb)
        if not fb:
            if any(e for _, flat, _ in imgs for e in flat):
                raise InternalConsistencyError("nonzero map in a zero hom space")
            continue
        if not imgs:
            continue
        nflat = z2.x[x].dim * z.f[x].dim
        coords = _flat_columns([(flat, d) for _, flat, d in imgs], nflat)
        if s.algebra(x).dim > 1:
            coordizer = _flat_columns([([e for r in m.num for e in r], m.den) for m in fb], nflat)
            coords = coordizer.solve(coords)
            if coords is None:
                raise InternalConsistencyError("map is not equivariant: no coordinates")
        blocks.append((offsets[x], [c for c, _, _ in imgs], coords))
        den = den * coords.den // gcd(den, coords.den)
    num = [[0] * ncols for _ in range(total_f)]
    for off, cols, coords in blocks:
        k = den // coords.den
        for i, row in enumerate(coords.num):
            out = num[off + i]
            for j, e in zip(cols, row):
                out[j] = e * k
    return ubases, vbases, fbases, offsets, RatMatrix(total_f, ncols, num, den)


def _flat_columns(columns: Sequence[tuple[list[int], int]], nrows: int) -> RatMatrix:
    """The matrix with these columns, each given as (integer entries, denominator)."""
    den = 1
    for _, d in columns:
        den = den * d // gcd(den, d)
    scaled = [flat if d == den else [e * (den // d) for e in flat] for flat, d in columns]
    return RatMatrix(nrows, len(scaled), [list(r) for r in zip(*scaled)], den)


def hom(z: TripleObject, z2: TripleObject) -> list[TripleMorphism]:
    """Basis of the space of morphisms z -> z2: the kernel of psi."""
    s = z.scenario
    ubases, vbases, _, _, psi = _psi_data(z, z2)
    out = []
    for vec in psi.kernel_basis():
        u = {}
        pos = 0
        for x in s.x_ids:
            nb = len(ubases[x])
            u[x] = _combine_basis(ubases[x], vec[pos:pos + nb], z2.x[x].dim, z.x[x].dim)
            pos += nb
        v = {}
        for y in s.y_ids:
            nb = len(vbases[y])
            v[y] = _combine_basis(vbases[y], vec[pos:pos + nb], z2.y[y].dim, z.y[y].dim)
            pos += nb
        out.append(TripleMorphism(z, z2, u, v))
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
    """Cokernel of psi(u, v) = u . eta - eta' . F(v)."""
    s = z.scenario
    _, _, fbases, offsets, psi = _psi_data(z, z2)
    qdim, proj, pivots = _quotient_by_rows(psi.transpose())
    pivset = set(pivots)
    free = [c for c in range(psi.rows) if c not in pivset]
    reps = []
    for c in free:
        rep = {}
        for x in s.x_ids:
            fb = fbases[x]
            off = offsets[x]
            if off <= c < off + len(fb):
                rep[x] = fb[c - off]
            else:
                rep[x] = RatMatrix.zeros(z2.x[x].dim, z.f[x].dim)
        reps.append(rep)
    return ExtResult(qdim, reps, proj)


def hom_ext_dims(z: TripleObject, z2: TripleObject) -> tuple[int, int, tuple[int, int, int]]:
    """(dim Hom, dim Ext^1, hom_space_dims) from one build of psi.

    dim Hom is ncols - rank(psi) and dim Ext^1 is total_f - rank(psi^T),
    two separate eliminations; su, sv and sf are read off the bases that
    the psi build holds.
    """
    ubases, vbases, _, _, psi = _psi_data(z, z2)
    su = sum(len(b) for b in ubases.values())
    sv = sum(len(b) for b in vbases.values())
    h = psi.cols - psi.rank()
    e = psi.rows - psi.transpose().rank()
    return h, e, (su, sv, psi.rows)


def euler_form(z: TripleObject, z2: TripleObject) -> int:
    """dim hom - dim ext1, from one psi; checked against the five-term sequence.

    The kernel and cokernel dimensions come from two eliminations (psi and
    psi^T), and h - e must equal su + sv - sf on every call.
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
    return TripleObject(scenario, x_parts, dict(y_parts), eta, check=False)


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
        comp = self.d0.compose(self.d1)
        if not comp.is_zero():
            raise InternalConsistencyError("resolution differentials do not compose to zero")
        for side, src, mid, dst in (("u", self.p1.x, self.p0.x, self.z.x),
                                    ("v", self.p1.y, self.p0.y, self.z.y)):
            for vtx in src:
                m1 = self.d1.u[vtx] if side == "u" else self.d1.v[vtx]
                m0 = self.d0.u[vtx] if side == "u" else self.d0.v[vtx]
                r1 = m1.rank()
                r0 = m0.rank()
                if r1 != src[vtx].dim:
                    raise InternalConsistencyError("first differential is not injective")
                if r0 != dst[vtx].dim:
                    raise InternalConsistencyError("augmentation is not surjective")
                if r1 + r0 != mid[vtx].dim:
                    raise InternalConsistencyError("resolution is not exact in the middle")


def projective_resolution(z: TripleObject) -> Resolution:
    """The canonical length-1 resolution through X x E(Y)."""
    s = z.scenario
    p1 = TripleObject(
        s,
        {x: z.f[x].space for x in s.x_ids},
        {y: zero_space(s.algebra(y)) for y in s.y_ids},
        {x: RatMatrix.zeros(z.f[x].dim, 0) for x in s.x_ids},
        check=False)
    ey = universal_extension_of(z)
    p0, (i_x, i_e), _ = direct_sum(x_only(z), ey)
    # d1 = (eta, iota): w |-> (eta w, w)
    u1 = {}
    for x in s.x_ids:
        u1[x] = i_x.u[x] * z.eta[x] + i_e.u[x]
    v1 = {y: RatMatrix.zeros(p0.y[y].dim, 0) for y in s.y_ids}
    d1 = TripleMorphism(p1, p0, u1, v1)
    # d0 = f - mu: (x, w, y) |-> x - eta w on the x side, -y on the y side
    u0 = {}
    for x in s.x_ids:
        nx, nf = z.x[x].dim, z.f[x].dim
        u0[x] = RatMatrix.identity(nx).hstack(z.eta[x].scale(-1))
    v0 = {y: RatMatrix.identity(z.y[y].dim).scale(-1) for y in s.y_ids}
    d0 = TripleMorphism(p0, z, u0, v0)
    return Resolution(z, p1, p0, d1, d0)


# ======================================================================
# Direct sums
# ======================================================================

def _stack_spaces(a: VertexSpace, b: VertexSpace) -> VertexSpace:
    action = []
    for ma, mb in zip(a.action, b.action):
        top = ma.hstack(RatMatrix.zeros(a.dim, b.dim))
        bot = RatMatrix.zeros(b.dim, a.dim).hstack(mb)
        action.append(top.vstack(bot))
    canon = None
    if a.canonical is not None and b.canonical is not None and a.canonical[0] == b.canonical[0]:
        canon = (a.canonical[0], a.canonical[1] + b.canonical[1])
    return VertexSpace(a.dim + b.dim, action, canonical=canon)


def direct_sum(a: TripleObject, b: TripleObject):
    """(a (+) b, inclusions, projections)."""
    s = _same_scenario(a, b)
    x_parts = {x: _stack_spaces(a.x[x], b.x[x]) for x in s.x_ids}
    y_parts = {y: _stack_spaces(a.y[y], b.y[y]) for y in s.y_ids}
    fsp = _build_fspaces(s, y_parts)
    ia_u = {x: RatMatrix.identity(a.x[x].dim).vstack(RatMatrix.zeros(b.x[x].dim, a.x[x].dim))
            for x in s.x_ids}
    ib_u = {x: RatMatrix.zeros(a.x[x].dim, b.x[x].dim).vstack(RatMatrix.identity(b.x[x].dim))
            for x in s.x_ids}
    ia_v = {y: RatMatrix.identity(a.y[y].dim).vstack(RatMatrix.zeros(b.y[y].dim, a.y[y].dim))
            for y in s.y_ids}
    ib_v = {y: RatMatrix.zeros(a.y[y].dim, b.y[y].dim).vstack(RatMatrix.identity(b.y[y].dim))
            for y in s.y_ids}
    eta = {}
    for x in s.x_ids:
        fa = _f_map(s, a.y, y_parts, ia_v, a.f, fsp, x)
        fb = _f_map(s, b.y, y_parts, ib_v, b.f, fsp, x)
        change = fa.hstack(fb)
        lhs = (ia_u[x] * a.eta[x]).hstack(ib_u[x] * b.eta[x])
        if change.cols == 0:
            eta[x] = RatMatrix.zeros(x_parts[x].dim, fsp[x].dim)
        else:
            eta[x] = lhs * change.inverse()
    total = TripleObject(s, x_parts, y_parts, eta, check=False)
    inc_a = TripleMorphism(a, total, ia_u, ia_v)
    inc_b = TripleMorphism(b, total, ib_u, ib_v)
    pa_u = {x: RatMatrix.identity(a.x[x].dim).hstack(RatMatrix.zeros(a.x[x].dim, b.x[x].dim))
            for x in s.x_ids}
    pb_u = {x: RatMatrix.zeros(b.x[x].dim, a.x[x].dim).hstack(RatMatrix.identity(b.x[x].dim))
            for x in s.x_ids}
    pa_v = {y: RatMatrix.identity(a.y[y].dim).hstack(RatMatrix.zeros(a.y[y].dim, b.y[y].dim))
            for y in s.y_ids}
    pb_v = {y: RatMatrix.zeros(b.y[y].dim, a.y[y].dim).hstack(RatMatrix.identity(b.y[y].dim))
            for y in s.y_ids}
    proj_a = TripleMorphism(total, a, pa_u, pa_v)
    proj_b = TripleMorphism(total, b, pb_u, pb_v)
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
    fsp = _build_fspaces(s, y_parts)
    eta = {}
    for x in s.x_ids:
        fi = _f_map(s, y_parts, z.y, y_cols, fsp, z.f, x)
        target = z.eta[x] * fi
        sol = x_cols[x].solve(target)
        if sol is None:
            raise InternalConsistencyError(f"eta does not restrict to the subobject at {x!r}")
        eta[x] = sol
    sub = TripleObject(s, x_parts, y_parts, eta, check=False)
    return sub, TripleMorphism(sub, z, dict(x_cols), dict(y_cols))


def _quotient_object(z: TripleObject, x_sub: dict[str, list[list[Fraction]]],
                     y_sub: dict[str, list[list[Fraction]]]) -> tuple[TripleObject, TripleMorphism]:
    """Quotient by action-stable subspaces, with its projection."""
    s = z.scenario
    x_parts, y_parts = {}, {}
    pro_u, pro_v = {}, {}
    for ids, parts, subs, amb, pro in ((s.x_ids, x_parts, x_sub, z.x, pro_u),
                                       (s.y_ids, y_parts, y_sub, z.y, pro_v)):
        for vtx in ids:
            qdim, proj = quotient_space(amb[vtx].dim, subs[vtx])
            action = []
            for m in amb[vtx].action:
                rhs = (proj * m).transpose()
                sol = proj.transpose().solve(rhs)
                if sol is None:
                    raise InternalConsistencyError(f"subspace at {vtx!r} is not action-stable")
                action.append(sol.transpose())
            parts[vtx] = VertexSpace(qdim, action)
            pro[vtx] = proj
    fsp = _build_fspaces(s, y_parts)
    eta = {}
    for x in s.x_ids:
        fpi = _f_map(s, z.y, y_parts, pro_v, z.f, fsp, x)
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


def abelian_ops(f: TripleMorphism) -> AbelianOps:
    """Kernel, image and cokernel of a morphism, with their structure maps."""
    s = f.source.scenario
    z, z2 = f.source, f.target
    kx = {x: RatMatrix.from_cols(f.u[x].kernel_basis(), rows=z.x[x].dim) for x in s.x_ids}
    ky = {y: RatMatrix.from_cols(f.v[y].kernel_basis(), rows=z.y[y].dim) for y in s.y_ids}
    kernel, k_inc = _subspace_object(z, kx, ky)
    ix = {x: f.u[x].submatrix(range(z2.x[x].dim), f.u[x].column_space_pivots()) for x in s.x_ids}
    iy = {y: f.v[y].submatrix(range(z2.y[y].dim), f.v[y].column_space_pivots()) for y in s.y_ids}
    image, i_inc = _subspace_object(z2, ix, iy)
    pu = {x: ix[x].solve(f.u[x]) for x in s.x_ids}
    pv = {y: iy[y].solve(f.v[y]) for y in s.y_ids}
    if any(m is None for m in pu.values()) or any(m is None for m in pv.values()):
        raise InternalConsistencyError("image coordinates failed to solve")
    i_proj = TripleMorphism(z, image, pu, pv)
    cok, c_proj = _quotient_object(z2,
                                   {x: [ix[x].column(j) for j in range(ix[x].cols)] for x in s.x_ids},
                                   {y: [iy[y].column(j) for j in range(iy[y].cols)] for y in s.y_ids})
    return AbelianOps(kernel, k_inc, image, i_inc, i_proj, cok, c_proj)


def verify_short_exact(inc: TripleMorphism, proj: TripleMorphism) -> bool:
    """0 -> A -> B -> C -> 0 exactness, checked componentwise by ranks."""
    if not proj.compose(inc).is_zero():
        return False
    s = inc.source.scenario
    for vtx in s.x_ids:
        a, b, c = inc.source.x[vtx].dim, inc.target.x[vtx].dim, proj.target.x[vtx].dim
        if inc.u[vtx].rank() != a or proj.u[vtx].rank() != c or a + c != b:
            return False
    for vtx in s.y_ids:
        a, b, c = inc.source.y[vtx].dim, inc.target.y[vtx].dim, proj.target.y[vtx].dim
        if inc.v[vtx].rank() != a or proj.v[vtx].rank() != c or a + c != b:
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
    n = len(basis)
    if n == 0:
        return AlgebraSpec([], [], _skip_validation=True)
    flat_len = len(basis[0].flatten())
    stacked = RatMatrix.from_cols([m.flatten() for m in basis], rows=flat_len)
    constants = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            prod = basis[i].compose(basis[j])
            coords = stacked.solve(RatMatrix.from_rows([[e] for e in prod.flatten()]))
            if coords is None:
                raise InternalConsistencyError("endomorphism composition left the hom space")
            constants[i][j] = coords.column(0)
    unit = stacked.solve(RatMatrix.from_rows([[e] for e in identity_morphism(z).flatten()]))
    if unit is None:
        raise InternalConsistencyError("identity is missing from End(z)")
    return AlgebraSpec(constants, unit.column(0))


def end_y_algebra(z: TripleObject) -> tuple[AlgebraSpec, list[dict[str, RatMatrix]]]:
    """End of the y part alone, as an algebra plus its matrix basis."""
    s = z.scenario
    vb = {y: equivariant_hom_basis(s.algebra(y).spec, z.y[y], z.y[y]) for y in s.y_ids}
    basis: list[dict[str, RatMatrix]] = []
    for y in s.y_ids:
        for m in vb[y]:
            elem = {yy: RatMatrix.zeros(z.y[yy].dim, z.y[yy].dim) for yy in s.y_ids}
            elem[y] = m
            basis.append(elem)
    n = len(basis)
    if n == 0:
        return AlgebraSpec([], [], _skip_validation=True), []

    def flat(e):
        out = []
        for y in s.y_ids:
            out.extend(x for row in e[y].to_fractions() for x in row)
        return out

    stacked = RatMatrix.from_cols([flat(e) for e in basis], rows=len(flat(basis[0])))
    constants = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            prod = {y: basis[i][y] * basis[j][y] for y in s.y_ids}
            coords = stacked.solve(RatMatrix.from_rows([[e] for e in flat(prod)]))
            constants[i][j] = coords.column(0)
    ident = {y: RatMatrix.identity(z.y[y].dim) for y in s.y_ids}
    unit = stacked.solve(RatMatrix.from_rows([[e] for e in flat(ident)]))
    return AlgebraSpec(constants, unit.column(0)), basis


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
    sv = sum(len(equivariant_hom_basis(s.algebra(y).spec, z.y[y], z.y[y])) for y in s.y_ids)
    vflat_len = sum(z.y[y].dim ** 2 for y in s.y_ids)
    vflats = []
    for m in end_basis:
        row = []
        for y in s.y_ids:
            row.extend(e for rr in m.v[y].to_fractions() for e in rr)
        vflats.append(row)
    if vflats and vflat_len:
        vrank = RatMatrix.from_rows(vflats).rank()
    else:
        vrank = 0
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


def _poly_on_morphism(p: Polynomial, a: TripleMorphism) -> TripleMorphism:
    z = a.source
    acc = zero_morphism(z, z)
    ident = identity_morphism(z)
    for c in reversed(p.coeffs):
        acc = acc.compose(a) if not acc.is_zero() else zero_morphism(z, z)
        if c:
            acc = acc + ident.scale(c)
    return acc


def _image_split(z: TripleObject, e: TripleMorphism):
    """Split z along an idempotent e; returns ((obj, inc, proj), same for 1-e)."""
    s = z.scenario
    pieces = []
    for idem in (e, identity_morphism(z) - e):
        ix = {x: idem.u[x].submatrix(range(z.x[x].dim), idem.u[x].column_space_pivots())
              for x in s.x_ids}
        iy = {y: idem.v[y].submatrix(range(z.y[y].dim), idem.v[y].column_space_pivots())
              for y in s.y_ids}
        piece, inc = _subspace_object(z, ix, iy)
        pu = {x: ix[x].solve(idem.u[x]) for x in s.x_ids}
        pv = {y: iy[y].solve(idem.v[y]) for y in s.y_ids}
        proj = TripleMorphism(z, piece, pu, pv)
        pieces.append((piece, inc, proj))
    if pieces[0][0].total_dim() + pieces[1][0].total_dim() != z.total_dim():
        raise InternalConsistencyError("idempotent split lost dimensions")
    return pieces


def _split_candidates(end_basis: list[TripleMorphism]):
    yield from end_basis
    n = len(end_basis)
    for i in range(n):
        for j in range(i + 1, n):
            yield end_basis[i] + end_basis[j]
    for i in range(n):
        for j in range(n):
            if i != j:
                yield end_basis[i].compose(end_basis[j])


def _coprime_parts(p: Polynomial) -> tuple[Polynomial, Polynomial] | None:
    """Split a monic polynomial into two nontrivial coprime monic parts.

    Cheap routes first: a pure t-power factor (the Fitting split of a
    non-nilpotent non-invertible element), then the square-free multiplicity
    groups; only a square-free irreducible-power candidate falls back to a
    budgeted Kronecker factorization, and a budget overrun means "no split
    found via this element", never a wrong answer.
    """
    v = 0
    while v < len(p.coeffs) and p.coeffs[v] == 0:
        v += 1
    if 0 < v <= p.degree - 1:
        return Polynomial.x_power(v), Polynomial(p.coeffs[v:])
    groups = squarefree_decomposition(p)
    if len(groups) >= 2:
        part = Polynomial([1])
        g0, m0 = groups[0]
        for _ in range(m0):
            part = part * g0
        rest = p // part
        return part, rest
    g0, m0 = groups[0]
    if g0.degree >= 2:
        try:
            facs = factor_rational(g0, budget=FactorBudget())
        except FactorBudgetExceeded:
            return None
        if len(facs) >= 2:
            f0 = facs[0][0]
            part = Polynomial([1])
            for _ in range(m0):
                part = part * f0
            return part, p // part
    return None


def _normalized_candidate(a: TripleMorphism) -> TripleMorphism:
    """Scale a nonzero morphism so its entries are coprime integers."""
    flat = [x for x in a.flatten() if x]
    if not flat:
        return a
    den = 1
    for x in flat:
        den = den * x.denominator // gcd(den, x.denominator)
    nums = [abs(int(x * den)) for x in flat]
    g = 0
    for nx in nums:
        g = gcd(g, nx)
        if g == 1:
            break
    return a.scale(Fraction(den, g if g else 1))


def _splitting_idempotent(z: TripleObject,
                          end_basis: list[TripleMorphism]) -> TripleMorphism | None:
    for raw in _split_candidates(end_basis):
        if raw.is_zero():
            continue
        a = _normalized_candidate(raw)
        p = min_poly_matrix(_total_matrix(a))
        split = _coprime_parts(p)
        if split is None:
            continue
        part, rest = split
        g, spoly, tpoly = poly_xgcd(part, rest)
        if g.degree != 0:
            raise InternalConsistencyError("coprime minimal polynomial parts share a factor")
        e = _poly_on_morphism(tpoly * rest, a)
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
    rad = radical(alg)
    quo = quotient_algebra(alg, rad) if rad else alg
    return _is_field(quo)


def decompose(z: TripleObject) -> Decomposition:
    """Split z into indecomposable summands with explicit idempotents.

    The flag is "certified" when every leaf has End/rad a commutative field
    (checked by a primitive element with irreducible minimal polynomial),
    else "no-further-splitting-found".
    """
    if z.total_dim() == 0:
        return Decomposition([], CERTIFIED)
    end_basis = hom(z, z)
    e = _splitting_idempotent(z, end_basis)
    if e is None:
        flag = CERTIFIED if _leaf_certified(z, end_basis) else NO_FURTHER
        ident = identity_morphism(z)
        return Decomposition([Summand(z, ident, identity_morphism(z))], flag)
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
