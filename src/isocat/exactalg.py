"""Exact rational linear algebra and structure-constant algebra arithmetic.

Everything in this module (and in the packages built on it) computes over
exact rationals; there is no floating point anywhere.  Matrices are stored
as integer arrays with a single shared positive denominator, so the hot
elimination paths run on plain Python integers (sparse fraction-free
elimination), and `Fraction` objects only appear at the API boundary.
The polynomial layer is integer inside too: minimal polynomials, gcds,
square-free parts, factoring and Q[t]/(m) run on primitive integer
coefficient lists.  `Polynomial` is a value with no arithmetic, and
`Fraction` appears only in the monic results of the public functions.

One helper per recurring construction, shared by the packages built on it:

- `_echelon` and `_back_solver`: the one elimination kernel and the one
  integer back-substitution over it, prepared once and run per target
  (`_back_solve` runs it over a list); rank, kernels, quotients, commutant
  bases, solve, inverse, rref, det and column_space_pivots all use them;
- `RatMatrix.combine`: a linear combination of matrices over one common
  denominator (vertex and bimodule actions, left/right multiplication,
  seeded samples), with `_combine` taking integer coefficients over one
  denominator; `_nonzero_entries` is the sparse form of a basis that psi,
  Hom and seeded objects are built from (`_combine_terms`), read once per
  cached commutant basis and per algebra's right multiplications;
- `_block_copies`: I_m (x) c written into one grid in closed form
  (canonical vertex spaces);
- `orbit_basis`: the greedy basis of a free module, trying standard
  vectors in index order (bimodule right bases, which fix the tensor
  slots m_i (x) f_c);
- `commutant_basis`: the maps T with T . S_a = D_a . T for all a
  (equivariant hom spaces, nilpotent intertwiners);
- `structure_constants`: an algebra on a spanning set from its n^2
  products and unit, coordinatised in one solve (End algebras, centres);
  an algebra is held as its left and right multiplication matrices, built
  from the integer product columns, with no cube of structure constants;
- `action_error`: the one representation-law check (count, shape,
  freeness, unit, (anti-)multiplicativity) behind algebras, bimodules and
  vertex spaces;
- `_int_poly_divmod`: the one pseudo-division k a = q b + r, behind the
  one gcd `_int_poly_gcd` (a primitive remainder sequence), the Bezout
  inverse `_int_poly_bezout` (Fitting idempotents) and Kronecker factoring;
- `_int_poly_value`: q^d f(p/q) by integer Horner (rational roots, Kronecker).
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from itertools import zip_longest
from math import gcd, lcm, prod
from typing import Iterable, Sequence


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"not an exact rational: {x!r} (floats are rejected)")


def _int_vector(vec: Iterable) -> tuple[list[int], int]:
    """(integer entries, common denominator) of ints, Fractions or 'p/q' strings."""
    fr = [x if isinstance(x, int) else as_fraction(x) for x in vec]
    den = lcm(*(x.denominator for x in fr))
    return [x.numerator * (den // x.denominator) for x in fr], den


# ======================================================================
# Matrices
# ======================================================================

class RatMatrix:
    """An exact rational matrix: integer entries over one shared denominator.

    Instances are treated as immutable; all operations return new matrices.
    (num, den) is in lowest terms with den > 0, so it is unique.  `__init__`
    checks and copies the grid; internal producers hand a grid they have
    just built to `_fresh`, which only puts it in lowest terms.
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, rows: int, cols: int, num: Sequence[Sequence[int]], den: int = 1):
        if den == 0:
            raise ZeroDivisionError("matrix denominator is zero")
        if len(num) != rows or any(len(r) != cols for r in num):
            raise ValueError(f"entry grid is not {rows}x{cols}")
        self._normalise(rows, cols, [list(r) for r in num], den)

    def _normalise(self, rows: int, cols: int, num: list[list[int]], den: int) -> None:
        if den == 1:
            self.rows, self.cols, self.num, self.den = rows, cols, num, den
            return
        if den < 0:
            num = [[-x for x in r] for r in num]
            den = -den
        g = den
        for r in num:
            if g == 1:
                break
            g = gcd(g, *r)
        if g > 1:
            den //= g
            num = [[x // g for x in r] for r in num]
        self.rows, self.cols, self.num, self.den = rows, cols, num, den

    # -- construction ---------------------------------------------------

    @classmethod
    def _fresh(cls, rows: int, cols: int, num: list[list[int]], den: int) -> "RatMatrix":
        """num / den from a rows x cols grid just built by the caller (den != 0), taken over as is."""
        m = object.__new__(cls)
        m._normalise(rows, cols, num, den)
        return m

    @classmethod
    def _of(cls, rows: int, cols: int, num: list[list[int]], den: int = 1) -> "RatMatrix":
        """Trusted construction from a fresh rows x cols grid already in lowest terms over den > 0."""
        m = object.__new__(cls)
        m.rows, m.cols, m.num, m.den = rows, cols, num, den
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls._of(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls._of(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_rows(cls, grid: Sequence[Sequence]) -> "RatMatrix":
        """Build from a grid of ints / Fractions / 'p/q' strings."""
        rows = len(grid)
        cols = len(grid[0]) if rows else 0
        fr = [[as_fraction(x) for x in r] for r in grid]
        den = lcm(*(x.denominator for r in fr for x in r))
        num = [[int(x * den) for x in r] for r in fr]
        return cls(rows, cols, num, den)

    @classmethod
    def combine(cls, mats: Sequence["RatMatrix"], coeffs: Sequence,
                rows: int, cols: int) -> "RatMatrix":
        """sum_k coeffs[k] * mats[k] as a rows x cols matrix, built in one construction.

        Coefficients are ints, Fractions or 'p/q' strings; the terms are put
        over one common denominator, so only the result is gcd-normalised.
        """
        nums, den = _int_vector(coeffs)
        return _combine(mats, nums, den, rows, cols)

    # -- accessors -------------------------------------------------------

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.num[i][j], self.den)

    def to_fractions(self) -> list[list[Fraction]]:
        d = self.den
        return [[Fraction(x, d) for x in r] for r in self.num]

    def column(self, j: int) -> list[Fraction]:
        d = self.den
        return [Fraction(r[j], d) for r in self.num]

    def key(self) -> tuple:
        """Hashable content key (used for caching)."""
        return (self.rows, self.cols, self.den, tuple(tuple(r) for r in self.num))

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash(self.key())

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols}, den={self.den})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        da, db = self.den, other.den
        g = gcd(da, db)
        ma, mb = db // g, da // g
        num = [[x * ma + y * mb for x, y in zip(ra, rb)]
               for ra, rb in zip(self.num, other.num)]
        return RatMatrix._fresh(self.rows, self.cols, num, da * ma)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + (-other)

    def __neg__(self) -> "RatMatrix":
        return RatMatrix._of(self.rows, self.cols, [[-x for x in r] for r in self.num], self.den)

    def scale(self, c) -> "RatMatrix":
        c = as_fraction(c)
        num = [[x * c.numerator for x in r] for r in self.num]
        return RatMatrix._fresh(self.rows, self.cols, num, self.den * c.denominator)

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        a, b = self.num, other.num
        n, m, p = self.rows, self.cols, other.cols
        out = [[0] * p for _ in range(n)]
        for i in range(n):
            ai = a[i]
            oi = out[i]
            for k in range(m):
                aik = ai[k]
                if aik:
                    bk = b[k]
                    for j in range(p):
                        bkj = bk[j]
                        if bkj:
                            oi[j] += aik * bkj
        return RatMatrix._fresh(n, p, out, self.den * other.den)

    def transpose(self) -> "RatMatrix":
        return RatMatrix._of(self.cols, self.rows,
                             [[r[j] for r in self.num] for j in range(self.cols)], self.den)

    def hstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        da, db = self.den, other.den
        g = gcd(da, db)
        ma, mb = db // g, da // g
        num = [[x * ma for x in ra] + [y * mb for y in rb]
               for ra, rb in zip(self.num, other.num)]
        return RatMatrix._fresh(self.rows, self.cols + other.cols, num, da * ma)

    def vstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        da, db = self.den, other.den
        g = gcd(da, db)
        ma, mb = db // g, da // g
        num = [[x * ma for x in r] for r in self.num] + [[y * mb for y in r] for r in other.num]
        return RatMatrix._fresh(self.rows + other.rows, self.cols, num, da * ma)

    def kron(self, other: "RatMatrix") -> "RatMatrix":
        n, m = self.rows, self.cols
        p, q = other.rows, other.cols
        num = [[0] * (m * q) for _ in range(n * p)]
        for i in range(n):
            for j in range(m):
                a = self.num[i][j]
                if a:
                    for k in range(p):
                        row = num[i * p + k]
                        brow = other.num[k]
                        base = j * q
                        for l in range(q):
                            row[base + l] = a * brow[l]
        return RatMatrix._fresh(n * p, m * q, num, self.den * other.den)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RatMatrix":
        num = [[self.num[i][j] for j in col_idx] for i in row_idx]
        return RatMatrix._fresh(len(row_idx), len(col_idx), num, self.den)

    # -- elimination -----------------------------------------------------

    def rank(self) -> int:
        if not self.rows or not self.cols:
            return 0
        return len(_echelon(_sparse_rows(self.num))[0])

    def kernel_basis(self) -> list[list[Fraction]]:
        """Basis of the right null space, as column vectors."""
        return _null_rows(self)[0].to_fractions()

    def rref(self) -> tuple["RatMatrix", list[int]]:
        """Reduced row echelon form (zero rows dropped) and pivot columns: `_eliminated`'s first two."""
        return _eliminated(self)[:2]

    def solve(self, rhs: "RatMatrix") -> "RatMatrix | None":
        """Some X with self @ X = rhs (free unknowns zero), or None if inconsistent."""
        if self.rows != rhs.rows:
            raise ValueError("shape mismatch in solve")
        m, k = self.cols, rhs.cols
        if self.is_zero():  # no rows, no columns or no nonzero entry
            return RatMatrix.zeros(m, k) if rhs.is_zero() else None
        da, db = self.den, rhs.den
        aug = [[x * db for x in ra] + [y * da for y in rb] for ra, rb in zip(self.num, rhs.num)]
        pivots, ech, _, _ = _echelon(_sparse_rows(aug))
        if pivots and pivots[-1] >= m:
            return None
        d, zs = _back_solve(pivots, ech, range(m, m + k))
        num = [[0] * k for _ in range(m)]
        for p, row in zip(pivots, zip(*zs)):
            num[p] = list(row)
        return RatMatrix._fresh(m, k, num, d)

    def inverse(self) -> "RatMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        # a square matrix with a right inverse is invertible
        sol = self.solve(RatMatrix.identity(self.rows))
        if sol is None:
            raise ValueError("matrix is singular")
        return sol

    def det(self) -> Fraction:
        """The sign of the echelon rows' input order, times the pivots, times gained / lost."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        rows = _sparse_rows(self.num)
        pivots, ech, gained, lost = _echelon(rows)
        if len(pivots) < self.rows:
            return Fraction(0)
        order = [next(i for i, r0 in enumerate(rows) if r0 is r) for r in ech]
        sign = (-1) ** sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
        value = sign * gained * prod(r[p] for r, p in zip(ech, pivots))
        return Fraction(value, lost * self.den ** self.rows)

    def column_space_pivots(self) -> list[int]:
        return [] if self.is_zero() else _echelon(_sparse_rows(self.num))[0]


def _sparse_rows(num: Sequence[Sequence[int]]) -> list[dict[int, int]]:
    """Each row as {column: entry} of its nonzero entries, the `_echelon` input."""
    return [{j: x for j, x in enumerate(r) if x} for r in num]


def _echelon(rows: list[dict[int, int]]) -> tuple[list[int], list[dict[int, int]], int, int]:
    """(pivots, echelon rows, gained, lost) of rows of nonzero entries, keys increasing.

    At each column c, left to right, only the rows whose first nonzero is at c
    are updated, in place, to (p/g) r - (f/g) pivot with g = gcd(p, f), then
    over their content, the pivot being the sparsest of them: a reduced row is the
    Bareiss minor vector over its content (one line holds both).  The pivots
    are the greedy column basis whatever the pick; det is scaled by lost / gained.
    The echelon rows keep their keys in insertion order, not increasing: a
    row's pivot is its least key, which need not be its first.  They are not
    valid input again until each row's keys are sorted.
    """
    buckets: dict[int, list[dict[int, int]]] = {}  # rows by their first nonzero column
    for r in filter(None, rows):
        buckets.setdefault(next(iter(r)), []).append(r)
    pending = sorted(buckets)  # the bucket columns, as a heap
    pivots, ech, gained, lost = [], [], 1, 1
    while pending:
        c = heappop(pending)
        cand = buckets.pop(c)
        piv = min(cand, key=len) if len(cand) > 1 else cand[0]
        pivots.append(c)
        ech.append(piv)
        p = piv[c]
        for r in cand:
            if r is piv:
                continue
            g = gcd(p, r[c]) if p > 0 else -gcd(p, r[c])
            a, b = p // g, r[c] // g
            if a != 1:
                lost *= a
                for j in r:
                    r[j] *= a
            for j, y in piv.items():  # cancels column c as well
                v = r.get(j, 0) - b * y
                if v:
                    r[j] = v
                else:
                    del r[j]
            if r:
                g = gcd(*r.values())
                if g != 1:
                    gained *= g
                    for j in r:
                        r[j] //= g
                j = min(r)
                if j not in buckets:  # j > c, so not yet pending
                    heappush(pending, j)
                buckets.setdefault(j, []).append(r)
    return pivots, ech, gained, lost


def _back_solver(pivots: list[int], ech: list[dict[int, int]]):
    """solve(t) -> (d, z_t) with U . z_t = d . column t of ech, in integers; the step table is built here, once.

    U is the triangular pivot block of the `_echelon` rows.  Each target runs
    bottom-up from denominator 1, raised only by the factor a pivot forces.
    """
    at = {p: k for k, p in enumerate(pivots)}
    steps = [(k, row[p], row, [(at[j], x) for j, x in row.items() if j in at and j != p])
             for k, (p, row) in enumerate(zip(pivots, ech))][::-1]

    def solve(t: int) -> tuple[int, list[int]]:
        d, z = 1, [0] * len(pivots)
        for k, p, row, later in steps:
            s = d * row.get(t, 0)
            for j, x in later:
                if z[j]:
                    s -= x * z[j]
            q, rem = divmod(s, p)
            if rem:
                f = abs(p) // gcd(s, p)
                d, q, z = d * f, s * f // p, [f * v for v in z]
            z[k] = q
        return d, z
    return solve


def _back_solve(pivots: list[int], ech: list[dict[int, int]],
                targets: Sequence[int]) -> tuple[int, list[list[int]]]:
    """(D, [z_t for t in targets]) with U . z_t = D . column t of ech: `_back_solver`'s solutions over their lcm."""
    if not targets:
        return 1, []
    sols = list(map(_back_solver(pivots, ech), targets))
    den = lcm(*(d for d, _ in sols))
    return den, [z if d == den else [(den // d) * v for v in z] for d, z in sols]


def _null_rows(m: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """`_null_space` of m's rows.

    Read as a map it is also the canonical projection of quotient_space by
    the row span of m.
    """
    return _null_space([] if m.is_zero() else _sparse_rows(m.num), m.cols)


def _eliminated(m: RatMatrix) -> tuple[RatMatrix, list[int], RatMatrix, list[int]]:
    """(R, pivots, N, free) from one elimination: (N, free) = `_null_rows(m)` and R = rref(m).

    R's row i is 1 at pivot i, 0 at the other pivots, and minus N's pivot-i entry at each free column.
    """
    null, free = _null_rows(m)
    at_free = dict(zip(free, null.num))
    pivots = [c for c in range(m.cols) if c not in at_free]
    num = [[-at_free[c][p] if c in at_free else null.den * (c == p) for c in range(m.cols)] for p in pivots]
    return RatMatrix._fresh(len(pivots), m.cols, num, null.den), pivots, null, free


def _null_space(rows: list[dict[int, int]], ncols: int) -> tuple[RatMatrix, list[int]]:
    """(basis of the null space as rows, free columns) of `_echelon` input rows, which it consumes.

    Row k is 1 at free[k], 0 at the other free columns and minus the
    `_back_solve` solution at the pivots.  With no nonzero entry every
    column is free, with no elimination.
    """
    if not any(rows):
        return RatMatrix.identity(ncols), list(range(ncols))
    pivots, ech, _, _ = _echelon(rows)
    free = sorted(set(range(ncols)).difference(pivots))
    d, zs = _back_solve(pivots, ech, free)
    out = [[0] * ncols for _ in free]
    for row, f, z in zip(out, free, zs):
        row[f] = d
        for p, zi in zip(pivots, z):
            row[p] = -zi
    return RatMatrix._fresh(len(free), ncols, out, d), free


def _kernel(m: RatMatrix) -> RatMatrix:
    """The null space of m: one basis vector per free column, as columns."""
    return _null_rows(m)[0].transpose()


def _combine(mats: Sequence[RatMatrix], nums: Sequence[int], den: int,
             rows: int, cols: int) -> RatMatrix:
    """sum_k nums[k] * mats[k] / den as a rows x cols matrix, in one construction."""
    terms, common = _nonzero_entries(mats, rows, cols)
    return _combine_terms(terms, nums, den * common, rows, cols)


def _combine_terms(terms: Iterable[Sequence[tuple[int, int, int]]], nums: Iterable[int], den: int,
                   rows: int, cols: int) -> RatMatrix:
    """sum_k nums[k] * T_k / den, T_k the entries terms[k]; nums may be an iterator, one per T_k."""
    num = [[0] * cols for _ in range(rows)]
    for ents, c in zip(terms, nums):
        if c:
            for i, j, e in ents:
                num[i][j] += c * e
    return RatMatrix._fresh(rows, cols, num, den)


def _block_copies(m: int, cell: RatMatrix) -> RatMatrix:
    """I_m (x) cell: m copies of cell down the diagonal, in lowest terms as cell is."""
    q = cell.cols
    num = [[0] * (k * q) + row + [0] * ((m - 1 - k) * q) for k in range(m) for row in cell.num]
    return RatMatrix._of(m * cell.rows, m * q, num, cell.den if m else 1)


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


def _nonzero_entries(mats: Sequence[RatMatrix], rows: int,
                     cols: int) -> tuple[list[list[tuple[int, int, int]]], int]:
    """Each matrix's nonzero entries (i, j, e), as integers over one common denominator.

    It rejects a matrix that is not rows x cols.
    """
    if any((m.rows, m.cols) != (rows, cols) for m in mats):
        raise ValueError("shape mismatch in matrix combination")
    den = lcm(*(m.den for m in mats))
    return [[(i, j, e * (den // m.den)) for i, row in enumerate(m.num) if any(row)
             for j, e in enumerate(row) if e] for m in mats], den


def _flat_matrices(mats: Sequence[RatMatrix]) -> tuple[list[int], int]:
    """The row-major entries of the matrices, concatenated, over one denominator."""
    den = lcm(*(m.den for m in mats))
    flat: list[int] = []
    for m in mats:
        k = den // m.den
        flat += [k * e for r in m.num for e in r]
    return flat, den


def _int_columns(m: RatMatrix) -> list[tuple[list[int], int]]:
    """The columns of m as (integer entries, denominator), the `_flat_columns` input."""
    return [([r[j] for r in m.num], m.den) for j in range(m.cols)]


def _flat_columns(columns: Sequence[tuple[list[int], int]], nrows: int) -> RatMatrix:
    """The matrix with these columns, each given as (integer entries, denominator)."""
    den = lcm(*(d for _, d in columns))
    scaled = [flat if d == den else [e * (den // d) for e in flat] for flat, d in columns]
    return RatMatrix._fresh(nrows, len(scaled), [list(r) for r in zip(*scaled)], den)


def orbit_basis(mats: Sequence[RatMatrix], dim: int) -> tuple[list[int], RatMatrix]:
    """Greedy basis of Q^dim as a module over the algebra acting by `mats`.

    Standard vectors e_i are tried in index order and skipped when already
    in the span.  Returns the picked indices and the matrix whose column
    (k, b) is mats[b] . e_{picked[k]}; the module is free over the algebra
    iff len(picked) * len(mats) == dim.
    """
    picked: list[int] = []
    cols: list[tuple[list[int], int]] = []
    span = RatMatrix.zeros(dim, 0)
    for cand in range(dim):
        if len(picked) * len(mats) == dim:
            break
        e = RatMatrix.zeros(dim, 1)
        e.num[cand][0] = 1
        if picked and span.solve(e) is not None:
            continue
        picked.append(cand)
        cols += [([r[cand] for r in m.num], m.den) for m in mats]
        span = _flat_columns(cols, dim)
    return picked, span


def _diagonal_block(mats: Sequence[RatMatrix]) -> list[RatMatrix] | None:
    """The d x d blocks C_a, d = len(mats), if every matrix is I_k (x) C_a with k > 1; else None."""
    d, n = len(mats), mats[0].rows
    if n <= d or n % d:
        return None
    block = [m.submatrix(range(d), range(d)) for m in mats]
    return block if all(m == _block_copies(n // d, c) for m, c in zip(mats, block)) else None


def commutant_basis(src: Sequence[RatMatrix], dst: Sequence[RatMatrix]) -> list[RatMatrix]:
    """Basis of {T : T . src[a] = dst[a] . T for every a}, T of shape dst x src.

    The constraint dst[a] . T - T . src[a] = 0 gives one integer row per
    (a, entry of T) over the row-major entries of T; the answer is the
    kernel of the stacked rows, in the `_null_rows` reduced form that
    `_commutant_coords` reads: element k is exactly 1 at its last nonzero
    entry in row-major order, and every other element is 0 there.

    A side whose every matrix is I_k (x) C_a, k > 1 equal d x d diagonal
    blocks for d the number of matrices (a canonical space), splits the
    system into k equal ones on T's row blocks (dst) or column blocks (src).
    One block is solved and copied into each, ordered by last nonzero entry;
    that reduced basis is unique, so it is the whole system's.
    """
    sd, dd = src[0].rows, dst[0].rows
    block = _diagonal_block(dst)
    if block is not None:  # row block i of T solves T_i . src_a = C_a . T_i
        d, one = len(block), commutant_basis(src, block)
        return [_assemble(dd, sd, [(i * d, 0, t)]) for i in range(dd // d) for t in one]
    block = _diagonal_block(src)
    if block is not None:  # column block i of T solves T^i . C_a = dst_a . T^i
        d = len(block)
        out = []
        for t in commutant_basis(block, dst):
            r, c = max((r, j) for r, row in enumerate(t.num) for j, e in enumerate(row) if e)  # t's last nonzero
            out += [(r * sd + i * d + c, _assemble(dd, sd, [(0, i * d, t)])) for i in range(sd // d)]
        return [t for _, t in sorted(out, key=lambda p: p[0])]
    den = lcm(*(m.den for m in (*src, *dst)))
    rows = []
    for s_a, d_a in zip(src, dst):
        ks, kd = den // s_a.den, den // d_a.den
        for r in range(dd):
            for c in range(sd):
                row = [0] * (dd * sd)
                for k, x in enumerate(d_a.num[r]):
                    row[k * sd + c] = kd * x
                for k in range(sd):
                    row[r * sd + k] -= ks * s_a.num[k][c]
                rows.append(row)
    ker, _ = _null_rows(RatMatrix(len(rows), dd * sd, rows, den))
    return [RatMatrix(dd, sd, [v[i * sd:(i + 1) * sd] for i in range(dd)], ker.den) for v in ker.num]


def _commutant_coords(terms: Sequence[Sequence[tuple[int, int, int]]], bden: int, cols: int,
                      images: Sequence[dict[int, int]]) -> list[list[tuple[int, int]]] | None:
    """Coordinates of maps in a basis from `commutant_basis`, read off without an elimination.

    (terms, bden) is the `_nonzero_entries` form of the basis, of maps with
    cols columns; each image is a map's entries {row-major index: integer}
    over a denominator of its own.  Coordinate k is the image's entry at the
    last nonzero entry of basis element k, over the same denominator; each
    image gets its nonzero (k, coordinate), k increasing.  sum_k c_k . basis[k]
    = image is checked in integers, so None comes exactly when an image is
    off the span.
    """
    flat = [[(i * cols + j, e) for i, j, e in ents] for ents in terms]
    lasts = list(enumerate(f[-1][0] for f in flat))
    out = []
    for img in images:
        coords = [(k, c) for k, p in lasts if (c := img.get(p))]
        resid = {p: bden * e for p, e in img.items()} if bden != 1 else dict(img)
        for k, c in coords:
            for p, e in flat[k]:
                resid[p] = resid.get(p, 0) - e * c
        if any(resid.values()):
            return None
        out.append(coords)
    return out


def kernel_basis(m: RatMatrix) -> list[list[Fraction]]:
    """Basis of the null space of m; empty iff m is injective."""
    return m.kernel_basis()


def quotient_space(ambient_dim: int, subspace: Sequence[Sequence]) -> tuple[int, RatMatrix]:
    """Quotient of Q^ambient_dim by the span of the given vectors.

    Returns (dim, projection); the projection has full row rank `dim` and
    kills the subspace.  Coordinates on the quotient are taken at the free
    columns of the reduced echelon form of the subspace, which makes the
    construction canonical.
    """
    vecs = [v for v in subspace]
    for v in vecs:
        if len(v) != ambient_dim:
            raise ValueError("subspace vector does not live in the ambient dimension")
    span = RatMatrix.from_rows(vecs) if vecs else RatMatrix.zeros(0, ambient_dim)
    proj, free = _null_rows(span)
    return len(free), proj


# ======================================================================
# Polynomials over Q
# ======================================================================

class Polynomial:
    """A polynomial with exact rational coefficients, as a value with no arithmetic.

    Coefficients are stored in ascending order; the leading coefficient of
    a nonzero polynomial is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Polynomial":
        lc = self.leading()
        return Polynomial([c / lc for c in self.coeffs])

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*t" if c != 1 else "t")
            else:
                terms.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
        return "Polynomial(" + " + ".join(terms) + ")"


# -- factorization over Q ----------------------------------------------

class FactorBudgetExceeded(RuntimeError):
    """Raised when a bounded factorization run exceeds its work caps."""


class FactorBudget:
    """Work caps for Kronecker interpolation on hostile inputs."""

    def __init__(self, max_abs_value: int = 10 ** 10, combos: int = 200000):
        self.max_abs_value = max_abs_value
        self.combos = combos

    def spend_combo(self) -> None:
        self.combos -= 1
        if self.combos < 0:
            raise FactorBudgetExceeded("interpolation combination budget exhausted")

    def check_value(self, n: int) -> None:
        if abs(n) > self.max_abs_value:
            raise FactorBudgetExceeded(f"divisor enumeration on a {abs(n).bit_length()}-bit value is over budget")


# -- primitive integer polynomials ------------------------------------
# Ascending integer coefficient lists without trailing zeros; [] is zero.
# Every polynomial computation runs here; `Fraction` appears only when a
# public function makes its result monic, and in the factor sort key.

def _primitive(cs: list[int]) -> list[int]:
    """cs over its content, with a positive leading coefficient."""
    g = gcd(*cs)
    if cs and cs[-1] < 0:
        g = -g
    return cs if g in (0, 1) else [c // g for c in cs]


def _to_primitive_int(p: Polynomial) -> list[int]:
    """The primitive integer multiple of p with positive leading coefficient."""
    den = lcm(*(c.denominator for c in p.coeffs))
    return _primitive([c.numerator * (den // c.denominator) for c in p.coeffs])


def _int_poly_trim(cs: list[int]) -> list[int]:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _int_poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_poly_derivative(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _int_poly_value(a: list[int], p: int, q: int = 1) -> int:
    """q^d a(p/q) for d = deg a, by Horner in integers: sum a_i p^i q^(d-i)."""
    acc, qpow = 0, 1
    for c in reversed(a):
        acc = acc * p + c * qpow
        qpow *= q
    return acc


def _int_poly_divmod(a: list[int], b: list[int]) -> tuple[int, list[int], list[int]]:
    """(k, q, r) with k a = q b + r, k > 0 and deg r < deg b, for a nonzero b.

    A pseudo-division: each step cancels the top term of r with a multiple
    of b, scaling r (and q, k) by |lc(b)| / gcd(lc(r), lc(b)) only.
    """
    r = list(a)
    lb, db = b[-1], len(b) - 1
    k, q = 1, [0] * max(len(r) - db, 0)
    while len(r) > db:
        lr = r[-1]
        g = gcd(lr, lb) if lb > 0 else -gcd(lr, lb)
        fr, fb = lb // g, lr // g
        shift = len(r) - 1 - db
        if fr != 1:
            k, q, r = k * fr, [fr * x for x in q], [fr * x for x in r]
        q[shift] += fb
        for j, y in enumerate(b):
            r[shift + j] -= fb * y
        _int_poly_trim(r)
    return k, q, r


def _int_poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd with positive leading coefficient ([] iff a = b = 0).

    A primitive polynomial remainder sequence (Brown 1971): the content is
    removed at every step, so coefficients stay near the size of the inputs.
    """
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_int_poly_divmod(a, b)[2])
    return a


def _int_poly_bezout(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(t, g) with t b = g (mod a), g a gcd of a and b and deg t < deg a, for a nonconstant a.

    The extended primitive remainder sequence: from (a, 0) and (b, 1), each
    pseudo-division k r_(i-1) = q r_i + r_(i+1) gives t_(i+1) = k t_(i-1) -
    q t_i, so r_i = t_i b (mod a) throughout; each pair (r, t) is divided by
    its joint content, with the sign that makes g's leading coefficient
    positive.  For coprime a and b, g = [den] and t / den is b's inverse mod a.
    """
    (r0, t0), (r1, t1) = (a, []), (b, [1])
    while r1:
        k, q, r = _int_poly_divmod(r0, r1)
        t = _int_poly_trim([k * x - y for x, y in zip_longest(t0, _int_poly_mul(q, t1), fillvalue=0)])
        g = gcd(*r, *t) or 1
        (r0, t0), (r1, t1) = (r1, t1), ([x // g for x in r], [x // g for x in t])
    return (t0, r0) if r0[-1] > 0 else ([-x for x in t0], [-x for x in r0])


def _int_poly_exact_div(a: list[int], b: list[int]) -> list[int]:
    """a / b for a nonzero b whose quotient is an integer polynomial.

    By Gauss's lemma a primitive divisor of an integer polynomial leaves an
    integral quotient, so an inexact step means a broken caller and raises
    ArithmeticError.
    """
    r = list(a)
    lb, db = b[-1], len(b) - 1
    q = [0] * max(len(r) - db, 0)
    for i in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[i + db], lb)
        if rem:
            raise ArithmeticError("inexact integer polynomial division")
        if c:
            q[i] = c
            for j, y in enumerate(b):
                r[i + j] -= c * y
    if any(r):
        raise ArithmeticError("integer polynomial division leaves a remainder")
    return q


def squarefree_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Monic square-free parts with their multiplicities (coprime pieces)."""
    if p.degree < 1:
        raise ValueError("square-free decomposition needs degree >= 1")
    return [(Polynomial(a).monic(), i) for a, i in _int_squarefree(_to_primitive_int(p))]


def _int_squarefree(f: list[int]) -> list[tuple[list[int], int]]:
    """The primitive square-free parts of a primitive f of degree >= 1, with multiplicities.

    Yun's algorithm (1976): with b_1 = f / gcd(f, f') and c_1 = f' / gcd(f, f'),
    each round takes a_i = gcd(b_i, c_i - b_i'), the product of the factors
    of multiplicity exactly i, then b_(i+1) = b_i / a_i and c_(i+1) =
    (c_i - b_i') / a_i.  Every division is exact in integers by Gauss's lemma.
    """
    df = _int_poly_derivative(f)
    a = _int_poly_gcd(f, df)
    b, c = _int_poly_exact_div(f, a), _int_poly_exact_div(df, a)
    out: list[tuple[list[int], int]] = []
    for i in range(1, len(f)):  # no multiplicity exceeds the degree
        if len(b) == 1:
            break
        d = _int_poly_trim([x - y for x, y in zip_longest(c, _int_poly_derivative(b), fillvalue=0)])
        a = _int_poly_gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, c = _int_poly_exact_div(b, a), _int_poly_exact_div(d, a)
    return out


def _int_divisors(n: int, budget: FactorBudget) -> list[int]:
    n = abs(n)
    budget.check_value(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


# no root modulo one of these primes proves there is no rational root
_NO_ROOT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _has_root_mod(coeffs: list[int], ell: int) -> bool:
    """Whether the integer polynomial has a root modulo the prime ell."""
    cs = [c % ell for c in reversed(coeffs)]
    for r in range(ell):
        acc = 0
        for c in cs:
            acc = (acc * r + c) % ell
        if not acc:
            return True
    return False


def _first_rational_root(coeffs: list[int], budget: FactorBudget | None = None) -> tuple[int, int] | None:
    """The first rational root p/q of an integer polynomial in the order (p, q, sign), or None.

    By the rational-root theorem every root is some +-p/q with p | a0 and
    q | an; candidates are tested by `_int_poly_value`, with p and q
    ascending.  Only coprime pairs are tried, since (p, q) with gcd g > 1 is
    the number (p/g, q/g), which comes earlier; and only those within
    Cauchy's bounds a0 / (a0 + top) <= |p/q| <= (an + top) / an, top the
    largest |a_i|.  Before the divisors are listed, a prime ell not dividing
    an at which f has no root mod ell proves there is none: q | an makes q
    invertible mod ell, so a root p/q would give the root p/q mod ell.  The
    budget (a fresh `FactorBudget()` when none is given) caps only the
    divisor enumeration, after that certificate.
    """
    budget = budget or FactorBudget()
    if not coeffs:
        return None
    a0, an = abs(coeffs[0]), abs(coeffs[-1])
    if a0 == 0:
        return 0, 1
    if any(an % ell and not _has_root_mod(coeffs, ell) for ell in _NO_ROOT_PRIMES):
        return None
    top = max(map(abs, coeffs))
    dens = _int_divisors(an, budget)
    for num in _int_divisors(a0, budget):
        for den in dens:
            if gcd(num, den) != 1 or a0 * den > num * (a0 + top) or num * an > (an + top) * den:
                continue
            for p in (num, -num):
                if _int_poly_value(coeffs, p, den) == 0:
                    return p, den
    return None


def _kronecker_factor(coeffs: list[int], budget: FactorBudget) -> tuple[list[int], list[int]] | None:
    """Two primitive factors of a primitive square-free integer polynomial, or None if irreducible.

    Classic Kronecker interpolation: a degree-d factor is pinned by its
    values at d+1 integer points, and those values divide the values of the
    input.  Degrees here stay small (<= 12 by construction of the callers).
    """
    deg = len(coeffs) - 1
    if deg <= 1:
        return None
    root = _first_rational_root(coeffs, budget)
    if root is not None:
        lin = [-root[0], root[1]]
        return lin, _int_poly_exact_div(coeffs, lin)
    points = [0]
    k = 1
    while len(points) <= deg // 2:
        points.extend([k, -k])
        k += 1
    for d in range(2, deg // 2 + 1):
        pts = points[:d + 1]
        vals = [_int_poly_value(coeffs, x) for x in pts]
        if any(v == 0 for v in vals):
            continue  # roots were already stripped; defensive
        choices = [_int_divisors(v, budget) for v in vals]
        choices[1:] = [[x for t in divs for x in (t, -t)] for divs in choices[1:]]
        stack = [(0, [])]
        while stack:
            i, picked = stack.pop()
            if i == len(pts):
                budget.spend_combo()
                f = _interpolate(pts, picked)
                if f is not None and len(f) == d + 1:
                    _, q, r = _int_poly_divmod(coeffs, f)
                    if not r:
                        return _primitive(f), _primitive(q)
                continue
            for val in choices[i]:
                stack.append((i + 1, picked + [val]))
    return None


def _interpolate(xs: list[int], ys: list[int]) -> list[int] | None:
    """The polynomial through the points (xs[i], ys[i]) if it has integer coefficients, else None.

    Lagrange interpolation over one common denominator: term i is
    ys[i] prod_(j != i) (t - xs[j]) over d_i = prod_(j != i) (xs[i] - xs[j]).
    """
    terms = []
    for i, xi in enumerate(xs):
        li, di = [ys[i]], 1
        for j, xj in enumerate(xs):
            if j != i:
                li, di = _int_poly_mul(li, [-xj, 1]), di * (xi - xj)
        terms.append((li, di))
    den = lcm(*(d for _, d in terms))
    num = [sum(li[k] * (den // di) for li, di in terms) for k in range(len(xs))]
    if any(x % den for x in num):
        return None
    return _int_poly_trim([x // den for x in num])


def factor_rational(p: Polynomial,
                    budget: FactorBudget | None = None) -> list[tuple[Polynomial, int]]:
    """Irreducible monic factors of p over Q, with multiplicities.

    The product of the factors equals p up to its leading coefficient.
    The work is capped by budget, a fresh `FactorBudget()` when none is
    given: hostile inputs raise FactorBudgetExceeded instead of grinding
    through huge divisor lists.
    """
    return [(Polynomial(f).monic(), m) for f, m in _int_factor(_to_primitive_int(p), budget)]


def _int_factor(f: list[int], budget: FactorBudget | None = None) -> list[tuple[list[int], int]]:
    """The primitive irreducible factors of a primitive f, with multiplicities.

    Square-free decomposition first, then Kronecker interpolation on each
    square-free part, all under one budget (a fresh `FactorBudget()` when
    none is given).  The factors are sorted by degree, then by their monic
    coefficients.
    """
    budget = budget or FactorBudget()
    if len(f) < 2:
        raise ValueError("factorization needs degree >= 1")
    if len(f) > 13:
        raise ValueError("factorization implemented for degree <= 12")
    result: list[tuple[list[int], int]] = []
    for part, mult in _int_squarefree(f):
        todo = [part]
        while todo:
            cur = todo.pop()
            split = _kronecker_factor(cur, budget)
            if split is None:
                result.append((cur, mult))
            else:
                todo.extend(split)
    return sorted(result, key=lambda fm: (len(fm[0]), [Fraction(c, fm[0][-1]) for c in fm[0]]))


def is_irreducible(p: Polynomial, budget: FactorBudget | None = None) -> bool:
    """Whether p is irreducible over Q, by `factor_rational`'s budgeted factorization."""
    if p.degree < 1:
        return False
    facs = _int_factor(_to_primitive_int(p), budget)
    return len(facs) == 1 and facs[0][1] == 1


# ======================================================================
# Finite-dimensional associative Q-algebras by structure constants
# ======================================================================

class AlgebraError(ValueError):
    pass


class AlgebraSpec:
    """A finite-dimensional associative unital Q-algebra.

    Given by structure constants c[i][j][k] with e_i * e_j = sum_k c[i][j][k] e_k,
    plus the coordinates of the unit, and held as its left and right
    multiplication matrices: column j of L_i and column i of R_j are e_i * e_j.
    The laws are verified eagerly at construction (`action_error` on L with
    R(unit) = I); invalid data is rejected, never normalized.
    """

    __slots__ = ("dim", "unit", "left_mats", "right_mats", "_key", "_right_terms", "_pair_terms",
                 "_canonical_spaces", "__weakref__")

    def __init__(self, constants: Sequence, unit: Sequence):
        dim = len(constants)
        if any(len(row) != dim or any(len(c) != dim for c in row) for row in constants):
            raise AlgebraError("structure constant grid is not dim^3")
        if len(unit) != dim:
            raise AlgebraError("unit vector has wrong length")
        self._setup([_int_vector(c) for row in constants for c in row], _int_vector(unit))

    @classmethod
    def _of_products(cls, products: Sequence[tuple[list[int], int]], unit: tuple[list[int], int]) -> "AlgebraSpec":
        """The algebra with e_i * e_j = products[i * dim + j] and this unit, each as (integers, denominator)."""
        alg = object.__new__(cls)
        alg._setup(products, unit)
        return alg

    def _setup(self, products: Sequence[tuple[list[int], int]], unit: tuple[list[int], int]) -> None:
        d = self.dim = len(unit[0])
        self.left_mats = [_flat_columns(products[i * d:(i + 1) * d], d) for i in range(d)]
        self.right_mats = [_flat_columns(products[j::d], d) for j in range(d)]
        self.unit = [Fraction(x, unit[1]) for x in unit[0]]
        self._key = None
        self._right_terms: tuple[list[list[tuple[int, int, int]]], int] | None = None
        self._pair_terms: dict = {}  # `pair_terms`, by (m, k)
        self._canonical_spaces: dict = {}  # extcat's shared canonical spaces, by multiplicity
        err = action_error(self, self.left_mats, d)
        if err is not None:
            raise AlgebraError(f"left multiplication {err}")
        if RatMatrix.combine(self.right_mats, self.unit, d, d) != RatMatrix.identity(d):
            raise AlgebraError("right multiplication is not unital")

    @property
    def constants(self) -> list[list[list[Fraction]]]:
        """c[i][j][k], read off column j of L_i."""
        return [[[Fraction(r[j], m.den) for r in m.num] for j in range(self.dim)] for m in self.left_mats]

    # -- elements are coordinate vectors (lists of Fractions) -------------

    def basis_vector(self, i: int) -> list[Fraction]:
        return [Fraction(1) if j == i else Fraction(0) for j in range(self.dim)]

    def left_multiplication(self, a: Sequence) -> RatMatrix:
        return RatMatrix.combine(self.left_mats, a, self.dim, self.dim)

    def is_commutative(self) -> bool:
        return all(self.left_mats[i] == self.right_mats[i] for i in range(self.dim))

    def is_invertible(self, a: Sequence) -> bool:
        return self.left_multiplication(a).rank() == self.dim

    def key(self) -> tuple:
        if self._key is None:
            self._key = tuple(m.key() for m in self.left_mats) + (tuple(self.unit),)
        return self._key

    def right_terms(self) -> tuple[list[list[tuple[int, int, int]]], int]:
        """`_nonzero_entries` of right_mats: the cells of canonical-pair hom bases."""
        if self._right_terms is None:
            self._right_terms = _nonzero_entries(self.right_mats, self.dim, self.dim)
        return self._right_terms

    def pair_terms(self, m: int, k: int) -> tuple[list[list[tuple[int, int, int]]], int]:
        """Hom(A^m, A^k) of left modules as `_nonzero_entries`: unit(s, t) (x) R_b in the order (s, t, b), kept."""
        if (m, k) not in self._pair_terms:
            n, (cells, den) = self.dim, self.right_terms()
            self._pair_terms[m, k] = [[(s * n + i, t * n + j, e) for i, j, e in cell]
                                      for s in range(k) for t in range(m) for cell in cells], den
        return self._pair_terms[m, k]


def action_error(alg: AlgebraSpec, mats: Sequence[RatMatrix], dim: int, opposite: bool = False) -> str | None:
    """None if e_i acting by mats[i] is a free unital representation of alg on Q^dim, else the first violation.

    The violation is a predicate for the caller to put its subject before.
    The law is mats[i] . mats[j] = the combination of mats by e_i * e_j,
    column j of L_i; with opposite, mats are right multiplications and the
    product is mats[j] . mats[i].
    """
    if len(mats) != alg.dim:
        return "needs one action matrix per algebra basis element"
    if any((m.rows, m.cols) != (dim, dim) for m in mats):
        return "has an action matrix of the wrong shape"
    if not dim:
        return None
    if dim % alg.dim:
        return "is not free over its algebra"
    terms, den = _nonzero_entries(mats, dim, dim)
    nums, uden = _int_vector(alg.unit)
    if _combine_terms(terms, nums, den * uden, dim, dim) != RatMatrix.identity(dim):
        return "is not unital"
    for i, li in enumerate(alg.left_mats):
        for j in range(alg.dim):
            prod = mats[j] * mats[i] if opposite else mats[i] * mats[j]
            if prod != _combine_terms(terms, (r[j] for r in li.num), den * li.den, dim, dim):
                return f"is not {'anti-' if opposite else ''}multiplicative at ({i},{j})"
    return None


def min_poly(a: Sequence, alg: AlgebraSpec) -> Polynomial:
    """Monic minimal polynomial of an algebra element, from power dependence."""
    a = [as_fraction(x) for x in a]
    if len(a) != alg.dim:
        raise AlgebraError("element coordinate length does not match the algebra")
    return min_poly_matrix(alg.left_multiplication(a), alg.unit)


def min_poly_matrix(op: RatMatrix, start: Sequence | None = None) -> Polynomial:
    """Minimal polynomial of a square matrix acting on column vectors.

    With `start` given, the Krylov chase runs from that single vector and
    the result is the minimal polynomial of the pair (op, start) -- the
    caller must know this is enough (for a left-multiplication operator
    started at the unit it is the element's true minimal polynomial).
    Without `start`, it is `_int_min_poly_matrix`.
    """
    if op.cols != op.rows:
        raise ValueError("minimal polynomial of a non-square matrix")
    if start is None or not op.rows:
        return Polynomial(_int_min_poly_matrix(op)).monic()
    return Polynomial(_vector_min_poly(op, RatMatrix.from_rows([[x] for x in start]))).monic()


def _int_min_poly_matrix(*blocks: RatMatrix) -> list[int]:
    """The minimal polynomial, primitive in integers, of the block-diagonal matrix of these square blocks.

    The e_i's minimal polynomials are lcm-ed in order, skipping an e_i the
    running lcm q kills: den^d q(op) e_i = 0 by Horner.  An e_i stays in its
    block, so both run on that block alone, with the lcm carried across
    blocks; they share one build of the block's sparse columns.
    """
    acc = [1]  # the running lcm, primitive
    for op in blocks:
        n = op.rows
        cols = _sparse_rows(zip(*op.num))  # N = den op
        horner = [c * op.den ** (len(acc) - 1 - k) for k, c in enumerate(acc)]  # q's c_k den^(d - k)
        for i in range(n):
            v = [horner[-1] * (r == i) for r in range(n)]
            for c in reversed(horner[:-1]):
                v = _int_mat_vec(cols, v)
                v[i] += c
            if any(v):
                p = _vector_min_poly(op, RatMatrix._of(n, 1, [[int(r == i)] for r in range(n)]), cols)
                acc = _int_poly_exact_div(_int_poly_mul(acc, p), _int_poly_gcd(acc, p))
                horner = [c * op.den ** (len(acc) - 1 - k) for k, c in enumerate(acc)]
    return acc


def _int_mat_vec(cols: list, v: list[int]) -> list[int]:
    """N v, N given by its columns' nonzero entries."""
    w = [0] * len(cols)
    for x, col in zip(v, cols):
        if x:
            for r, y in col.items():
                w[r] += x * y
    return w


def _vector_min_poly(op: RatMatrix, vec: RatMatrix, cols: list | None = None) -> list[int]:
    """The minimal polynomial of the column vec under op: its first power dependency, primitive.

    A fraction-free Krylov chase: u_k = N^k vec (N = den op, as its sparse
    columns cols, built here when not given) is reduced by the echelon rows
    so far, tagged by their sums of u_i; the first zero gives
    sum t_i u_i = 0, so op^i vec has coefficient t_i den^i.
    """
    cols = _sparse_rows(zip(*op.num)) if cols is None else cols
    ech = []  # (pivot, row, tag)
    cur = [r[0] for r in vec.num]
    for k in range(op.rows + 1):
        row, tag = cur, [0] * k + [1]
        for p, erow, etag in ech:
            x, y = row[p], erow[p]
            if x:
                row = [y * a - x * b for a, b in zip(row, erow)]
                tag = [y * a - x * b for a, b in zip_longest(tag, etag, fillvalue=0)]
        if not any(row):
            return _primitive([t * op.den ** i for i, t in enumerate(tag)])
        g = gcd(*row, *tag)
        ech.append((next(i for i, x in enumerate(row) if x), [a // g for a in row], [a // g for a in tag]))
        cur = _int_mat_vec(cols, cur)
    raise RuntimeError("Krylov chase failed to terminate")  # unreachable


def radical(alg: AlgebraSpec) -> list[list[Fraction]]:
    """Basis of the Jacobson radical, via the trace form (characteristic 0).

    x lies in the radical iff trace(L_x L_y) = 0 for every basis element y.
    """
    return _radical(alg).to_fractions()


def _radical(alg: AlgebraSpec) -> RatMatrix:
    """The basis of `radical` as rows: the null space of the trace form."""
    d = alg.dim
    flat, den = _flat_matrices(alg.left_mats)
    ints = [flat[i * d * d:(i + 1) * d * d] for i in range(d)]
    # trace(L_i L_j) = sum_ab L_i[a][b] L_j[b][a]: row i of ints times column j of swapped
    swapped = [[m[b * d + a] for m in ints] for a in range(d) for b in range(d)]
    return _null_rows(RatMatrix(d, d * d, ints, den) * RatMatrix(d * d, d, swapped, den))[0]


def algebra_center(alg: AlgebraSpec) -> tuple[AlgebraSpec, list[list[Fraction]]]:
    """The center as an algebra with induced structure constants.

    Returns (center algebra, basis of the center inside alg).
    """
    basis = _center(alg)
    return subalgebra_on_basis(alg, basis), basis.transpose().to_fractions()


def _center(alg: AlgebraSpec) -> RatMatrix:
    """Basis of the center as columns: the kernel of the rows of L_i - R_i."""
    d = alg.dim
    flat, den = _flat_matrices([*alg.left_mats, *alg.right_mats])
    diff = [a - b for a, b in zip(flat, flat[d ** 3:])]
    return _kernel(RatMatrix(d * d, d, [diff[k * d:(k + 1) * d] for k in range(d * d)], den))


def structure_constants(basis_cols: RatMatrix, columns: Sequence[tuple[list[int], int]]
                        ) -> AlgebraSpec | None:
    """The algebra on the column span of basis_cols, or None if it is not one.

    columns holds the n^2 products (basis column i times basis column j at
    position i * n + j), then the unit, each in the ambient coordinates as
    (integer entries, denominator); all are coordinatised in one solve.
    None means a product or the unit lies outside the span.
    """
    n = basis_cols.cols
    if n == 0:
        return AlgebraSpec([], [])
    coords = basis_cols.solve(_flat_columns(columns, basis_cols.rows))
    if coords is None:
        return None
    cols = _int_columns(coords)
    return AlgebraSpec._of_products(cols[:n * n], cols[n * n])


def subalgebra_on_basis(alg: AlgebraSpec, basis: RatMatrix) -> AlgebraSpec:
    """Structure constants induced on the multiplicatively closed span of basis's columns.

    The products of column k with every column are L(b_k) . basis.
    """
    d = alg.dim
    products = []
    for k in range(basis.cols):
        lk = _combine(alg.left_mats, [r[k] for r in basis.num], basis.den, d, d)
        products += _int_columns(lk * basis)
    sub = structure_constants(basis, [*products, _int_vector(alg.unit)])
    if sub is None:
        raise AlgebraError("subspace is not multiplicatively closed or misses the unit")
    return sub


def quotient_algebra(alg: AlgebraSpec, ideal_basis: list[list[Fraction]]) -> AlgebraSpec:
    """Quotient by a two-sided ideal, with canonical coordinates."""
    span = RatMatrix.from_rows(ideal_basis) if ideal_basis else RatMatrix.zeros(0, alg.dim)
    return _quotient_algebra(alg, span)


def _quotient_algebra(alg: AlgebraSpec, span: RatMatrix) -> AlgebraSpec:
    """quotient_algebra by the row span of `span`, in coordinates at its free columns.

    Column f_j of proj . L_{f_i} is the image of e_{f_i} e_{f_j}.
    """
    proj, free = _null_rows(span)
    if not free:
        return AlgebraSpec([], [])
    products = []
    for i in free:
        p = proj * alg.left_mats[i]
        products += [([r[j] for r in p.num], p.den) for j in free]
    nums, den = _int_vector(alg.unit)
    return AlgebraSpec._of_products(products, ([sum(x * u for x, u in zip(r, nums)) for r in proj.num],
                                               proj.den * den))


def regular_algebra_from_min_poly(m: Polynomial) -> AlgebraSpec:
    """Q[t]/(m) with basis 1, t, ..., t^(deg-1).

    The companion matrix C of m sends t^j to t^(j+1) mod m, so e_i * e_j =
    t^(i+j) mod m is column j of C^i.
    """
    if m.degree < 1:
        raise AlgebraError("modulus must have degree >= 1")
    f = _to_primitive_int(m)
    d = len(f) - 1
    comp = RatMatrix._fresh(d, d, [[f[-1] * (i == j + 1) for j in range(d - 1)] + [-f[i]]
                                   for i in range(d)], f[-1])
    power, products = RatMatrix.identity(d), []
    for _ in range(d):
        products += _int_columns(power)
        power = power * comp
    return AlgebraSpec._of_products(products, ([1] + [0] * (d - 1), 1))
