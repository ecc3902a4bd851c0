"""Exact rational linear algebra and structure-constant algebra arithmetic.

Everything in this module (and in the packages built on it) computes over
exact rationals; there is no floating point anywhere.  Matrices are stored
as integer arrays with a single shared positive denominator, so the hot
elimination paths run on plain Python integers (fraction-free Bareiss
elimination), and `Fraction` objects only appear at the API boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
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


def _gcd_all(values: Iterable[int]) -> int:
    g = 0
    for v in values:
        g = gcd(g, v)
        if g == 1:
            return 1
    return g


# ======================================================================
# Matrices
# ======================================================================

class RatMatrix:
    """An exact rational matrix: integer entries over one shared denominator.

    Instances are treated as immutable; all operations return new matrices.
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, rows: int, cols: int, num: Sequence[Sequence[int]], den: int = 1):
        if den == 0:
            raise ZeroDivisionError("matrix denominator is zero")
        if len(num) != rows or any(len(r) != cols for r in num):
            raise ValueError(f"entry grid is not {rows}x{cols}")
        if den < 0:
            num = [[-x for x in r] for r in num]
            den = -den
        num = [list(r) for r in num]
        g = _gcd_all([den] + [x for r in num for x in r])
        if g > 1:
            den //= g
            num = [[x // g for x in r] for r in num]
        self.rows = rows
        self.cols = cols
        self.num = num
        self.den = den

    # -- construction ---------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_rows(cls, grid: Sequence[Sequence]) -> "RatMatrix":
        """Build from a grid of ints / Fractions / 'p/q' strings."""
        rows = len(grid)
        cols = len(grid[0]) if rows else 0
        fr = [[as_fraction(x) for x in r] for r in grid]
        den = 1
        for r in fr:
            for x in r:
                den = den * x.denominator // gcd(den, x.denominator)
        num = [[int(x * den) for x in r] for r in fr]
        return cls(rows, cols, num, den)

    @classmethod
    def from_cols(cls, columns: Sequence[Sequence], rows: int | None = None) -> "RatMatrix":
        if not columns:
            if rows is None:
                raise ValueError("rows required for an empty column list")
            return cls.zeros(rows, 0)
        grid = [[col[i] for col in columns] for i in range(len(columns[0]))]
        return cls.from_rows(grid)

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
        return all(x == 0 for r in self.num for x in r)

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
        return RatMatrix(self.rows, self.cols, num, da * ma)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + (-other)

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(self.rows, self.cols, [[-x for x in r] for r in self.num], self.den)

    def scale(self, c) -> "RatMatrix":
        c = as_fraction(c)
        num = [[x * c.numerator for x in r] for r in self.num]
        return RatMatrix(self.rows, self.cols, num, self.den * c.denominator)

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
        return RatMatrix(n, p, out, self.den * other.den)

    def transpose(self) -> "RatMatrix":
        return RatMatrix(self.cols, self.rows,
                         [[self.num[i][j] for i in range(self.rows)] for j in range(self.cols)],
                         self.den)

    def hstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        da, db = self.den, other.den
        g = gcd(da, db)
        ma, mb = db // g, da // g
        num = [[x * ma for x in ra] + [y * mb for y in rb]
               for ra, rb in zip(self.num, other.num)]
        return RatMatrix(self.rows, self.cols + other.cols, num, da * ma)

    def vstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        da, db = self.den, other.den
        g = gcd(da, db)
        ma, mb = db // g, da // g
        num = [[x * ma for x in r] for r in self.num] + [[y * mb for y in r] for r in other.num]
        return RatMatrix(self.rows + other.rows, self.cols, num, da * ma)

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
        return RatMatrix(n * p, m * q, num, self.den * other.den)

    def trace(self) -> Fraction:
        return Fraction(sum(self.num[i][i] for i in range(self.rows)), self.den)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RatMatrix":
        num = [[self.num[i][j] for j in col_idx] for i in row_idx]
        return RatMatrix(len(row_idx), len(col_idx), num, self.den)

    # -- elimination -----------------------------------------------------

    def _int_rows(self) -> list[list[int]]:
        return [list(r) for r in self.num]

    def rank(self) -> int:
        _, _, pivots = _bareiss_signed(self._int_rows(), self.cols)
        return len(pivots)

    def kernel_basis(self) -> list[list[Fraction]]:
        """Basis of the right null space, as column vectors."""
        _, ech, pivots = _bareiss_signed(self._int_rows(), self.cols)
        return _kernel_from_echelon(ech, pivots, self.cols)

    def rref(self) -> tuple["RatMatrix", list[int]]:
        """Reduced row echelon form (zero rows dropped) and pivot columns."""
        _, ech, pivots = _bareiss_signed(self._int_rows(), self.cols)
        if not pivots:
            return RatMatrix.zeros(0, self.cols), []
        reduced = [[Fraction(x) for x in ech[i]] for i in range(len(pivots))]
        for i in range(len(pivots)):
            p = pivots[i]
            inv = reduced[i][p]
            reduced[i] = [x / inv for x in reduced[i]]
        for i in range(len(pivots) - 1, -1, -1):
            p = pivots[i]
            for k in range(i):
                f = reduced[k][p]
                if f:
                    reduced[k] = [a - f * b for a, b in zip(reduced[k], reduced[i])]
        return RatMatrix.from_rows(reduced), pivots

    def solve(self, rhs: "RatMatrix") -> "RatMatrix | None":
        """Some X with self @ X = rhs, or None if inconsistent."""
        return _solve(self, rhs)

    def inverse(self) -> "RatMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        sol = _solve(self, RatMatrix.identity(self.rows))
        if sol is None or self.rank() != self.rows:
            raise ValueError("matrix is singular")
        return sol

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return Fraction(1)
        rows = self._int_rows()
        sign, ech, pivots = _bareiss_signed(rows, n)
        if len(pivots) < n:
            return Fraction(0)
        return Fraction(sign * ech[n - 1][pivots[n - 1]], self.den ** n)

    def column_space_pivots(self) -> list[int]:
        _, _, pivots = _bareiss_signed(self._int_rows(), self.cols)
        return pivots


def _bareiss_signed(rows: list[list[int]], ncols: int):
    """Fraction-free row echelon; returns (swap sign, echelon rows, pivot cols)."""
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    prev = 1
    sign = 1
    for c in range(ncols):
        piv = -1
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        p = rows[r][c]
        for i in range(r + 1, nrows):
            ri = rows[i]
            rr = rows[r]
            f = ri[c]
            if f:
                for j in range(c, ncols):
                    ri[j] = (p * ri[j] - f * rr[j]) // prev
            elif prev != 1 or p != 1:
                for j in range(c, ncols):
                    ri[j] = p * ri[j] // prev
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return sign, rows, pivots


def _kernel_from_echelon(ech: list[list[int]], pivots: list[int], ncols: int) -> list[list[Fraction]]:
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i in range(len(pivots) - 1, -1, -1):
            p = pivots[i]
            row = ech[i]
            s = Fraction(0)
            for j in range(p + 1, ncols):
                if row[j] and v[j]:
                    s += row[j] * v[j]
            v[p] = -s / row[p]
        basis.append(v)
    return basis


def _solve(a: RatMatrix, rhs: RatMatrix) -> RatMatrix | None:
    if a.rows != rhs.rows:
        raise ValueError("shape mismatch in solve")
    n, m, k = a.rows, a.cols, rhs.cols
    if m == 0:
        return RatMatrix.zeros(0, k) if rhs.is_zero() else None
    da, db = a.den, rhs.den
    aug = [[x * db for x in ra] + [y * da for y in rb]
           for ra, rb in zip(a.num, rhs.num)]
    _, ech, pivots = _bareiss_signed(aug, m + k)
    if any(p >= m for p in pivots):
        return None
    sol = [[Fraction(0)] * k for _ in range(m)]
    for col in range(k):
        for i in range(len(pivots) - 1, -1, -1):
            p = pivots[i]
            row = ech[i]
            s = Fraction(row[m + col])
            for j in range(p + 1, m):
                if row[j] and sol[j][col]:
                    s -= row[j] * sol[j][col]
            sol[p][col] = s / row[p]
    return RatMatrix.from_rows(sol)


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
    return _quotient_by_rows(span)[:2]


def _quotient_by_rows(span: RatMatrix) -> tuple[int, RatMatrix, list[int]]:
    """quotient_space of the row span of `span`, plus the pivot columns.

    The projection row for free column f has a 1 at f, zeros at the other
    free columns and minus the reduced echelon entries at the pivots: it is
    the kernel vector of `span` for f, so one elimination gives both.
    """
    if span.rows == 0:
        return span.cols, RatMatrix.identity(span.cols), []
    _, ech, pivots = _bareiss_signed(span._int_rows(), span.cols)
    rows = _kernel_from_echelon(ech, pivots, span.cols)
    if not rows:
        return 0, RatMatrix.zeros(0, span.cols), pivots
    return len(rows), RatMatrix.from_rows(rows), pivots


# ======================================================================
# Polynomials over Q
# ======================================================================

class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

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

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [Fraction(0)] * (n - len(self.coeffs))
        b = other.coeffs + [Fraction(0)] * (n - len(other.coeffs))
        return Polynomial([x + y for x, y in zip(a, b)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def scale(self, c) -> "Polynomial":
        c = as_fraction(c)
        return Polynomial([x * c for x in self.coeffs])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return Polynomial(out)

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial([]), self
        quot = [Fraction(0)] * (dq + 1)
        lead = other.leading()
        for i in range(dq, -1, -1):
            top = rem[i + other.degree]
            if top:
                f = top / lead
                quot[i] = f
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= f * b
        return Polynomial(quot), Polynomial(rem)

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[0]

    def divides(self, other: "Polynomial") -> bool:
        return other.divmod(self)[1].is_zero()

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x) -> Fraction:
        x = as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def gcd(self, other: "Polynomial") -> "Polynomial":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    @classmethod
    def from_roots(cls, roots: Sequence) -> "Polynomial":
        p = cls([1])
        for r in roots:
            p = p * cls([-as_fraction(r), 1])
        return p

    @classmethod
    def x_power(cls, n: int) -> "Polynomial":
        return cls([0] * n + [1])


def poly_xgcd(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """g, s, t with s*a + t*b = g = gcd(a, b) (g monic when nonzero)."""
    r0, r1 = a, b
    s0, s1 = Polynomial([1]), Polynomial([])
    t0, t1 = Polynomial([]), Polynomial([1])
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lc = r0.leading()
    return r0.monic(), s0.scale(1 / lc), t0.scale(1 / lc)


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
            raise FactorBudgetExceeded(f"divisor enumeration on |{n}| is over budget")


def squarefree_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Monic square-free parts with their multiplicities (coprime pieces)."""
    if p.degree < 1:
        raise ValueError("square-free decomposition needs degree >= 1")
    work = p.monic()
    d = work.gcd(work.derivative())
    w = work // d
    out: list[tuple[Polynomial, int]] = []
    i = 1
    while w.degree >= 1:
        y = w.gcd(d)
        f = w // y
        if f.degree >= 1:
            out.append((f.monic(), i))
        w = y
        if d.degree >= 1:
            d = d // y
        i += 1
        if i > p.degree + 1:
            raise RuntimeError("square-free decomposition failed to terminate")  # unreachable
    return out


def _to_primitive_int(p: Polynomial) -> list[int]:
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    cs = [int(c * den) for c in p.coeffs]
    g = _gcd_all(cs)
    if g > 1:
        cs = [c // g for c in cs]
    if cs and cs[-1] < 0:
        cs = [-c for c in cs]
    return cs


def _int_divisors(n: int, budget: FactorBudget | None = None) -> list[int]:
    n = abs(n)
    if budget is not None:
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


def _rational_roots(coeffs: list[int], budget: FactorBudget | None = None) -> list[Fraction]:
    # rational-root theorem on a primitive integer polynomial
    if not coeffs:
        return []
    a0 = coeffs[0]
    an = coeffs[-1]
    if a0 == 0:
        return [Fraction(0)]
    roots = []
    p = Polynomial(coeffs)
    for num in _int_divisors(a0, budget):
        for den in _int_divisors(an, budget):
            for sign in (1, -1):
                cand = Fraction(sign * num, den)
                if p.eval(cand) == 0:
                    roots.append(cand)
    return roots


def _kronecker_factor(coeffs: list[int],
                      budget: FactorBudget | None = None) -> tuple[Polynomial, Polynomial] | None:
    """Split a primitive square-free integer polynomial, or None if irreducible.

    Classic Kronecker interpolation: a degree-d factor is pinned by its
    values at d+1 integer points, and those values divide the values of the
    input.  Degrees here stay small (<= 12 by construction of the callers).
    """
    p = Polynomial(coeffs)
    deg = p.degree
    if deg <= 1:
        return None
    for r in _rational_roots(coeffs, budget):
        lin = Polynomial([-r, 1])
        return lin, p // lin
    points = [0]
    k = 1
    while len(points) <= deg // 2:
        points.extend([k, -k])
        k += 1
    for d in range(2, deg // 2 + 1):
        pts = points[:d + 1]
        vals = [p.eval(x) for x in pts]
        if any(v == 0 for v in vals):
            continue  # roots were already stripped; defensive
        choices: list[list[int]] = []
        for i, v in enumerate(vals):
            divs = _int_divisors(int(v), budget)
            opts = divs if i == 0 else [x for t in divs for x in (t, -t)]
            choices.append(opts)
        stack = [(0, [])]
        while stack:
            i, picked = stack.pop()
            if i == len(pts):
                if budget is not None:
                    budget.spend_combo()
                f = _interpolate(pts, picked)
                if f is not None and f.degree == d and f.divides(p):
                    return f, p // f
                continue
            for val in choices[i]:
                stack.append((i + 1, picked + [val]))
    return None


def _interpolate(xs: list[int], ys: list[int]) -> Polynomial | None:
    # Lagrange interpolation; returns None unless all coefficients are integers
    n = len(xs)
    acc = Polynomial([])
    for i in range(n):
        li = Polynomial([1])
        denom = Fraction(1)
        for j in range(n):
            if j != i:
                li = li * Polynomial([-xs[j], 1])
                denom *= xs[i] - xs[j]
        acc = acc + li.scale(Fraction(ys[i]) / denom)
    if any(c.denominator != 1 for c in acc.coeffs):
        return None
    return acc


def factor_rational(p: Polynomial,
                    budget: FactorBudget | None = None) -> list[tuple[Polynomial, int]]:
    """Irreducible monic factors of p over Q, with multiplicities.

    The product of the factors equals p up to its leading coefficient.
    Square-free decomposition first, then Kronecker interpolation on each
    square-free part.  With a budget, hostile inputs raise
    FactorBudgetExceeded instead of grinding through huge divisor lists.
    """
    if p.degree < 1:
        raise ValueError("factorization needs degree >= 1")
    if p.degree > 12:
        raise ValueError("factorization implemented for degree <= 12")
    result: list[tuple[Polynomial, int]] = []
    for part, mult in squarefree_decomposition(p):
        todo = [_to_primitive_int(part)]
        while todo:
            cur = todo.pop()
            split = _kronecker_factor(cur, budget)
            if split is None:
                result.append((Polynomial(cur).monic(), mult))
            else:
                f, g = split
                todo.append(_to_primitive_int(f))
                todo.append(_to_primitive_int(g))
    return sorted(result, key=lambda fg: (fg[0].degree, tuple(fg[0].coeffs)))


def is_irreducible(p: Polynomial, budget: FactorBudget | None = None) -> bool:
    if p.degree < 1:
        return False
    facs = factor_rational(p, budget)
    return len(facs) == 1 and facs[0][1] == 1


# ======================================================================
# Finite-dimensional associative Q-algebras by structure constants
# ======================================================================

class AlgebraError(ValueError):
    pass


class AlgebraSpec:
    """A finite-dimensional associative unital Q-algebra.

    Defined by structure constants c[i][j][k] with
    e_i * e_j = sum_k c[i][j][k] e_k, plus the coordinates of the unit.
    Associativity and the unit laws are verified eagerly at construction;
    invalid data is rejected, never normalized.
    """

    __slots__ = ("dim", "labels", "constants", "unit", "left_mats", "right_mats")

    def __init__(self, constants: Sequence, unit: Sequence, labels: Sequence[str] | None = None,
                 _skip_validation: bool = False):
        dim = len(constants)
        c = [[[as_fraction(x) for x in constants[i][j]] for j in range(dim)] for i in range(dim)]
        for i in range(dim):
            if len(c[i]) != dim or any(len(c[i][j]) != dim for j in range(dim)):
                raise AlgebraError("structure constant grid is not dim^3")
        u = [as_fraction(x) for x in unit]
        if len(u) != dim:
            raise AlgebraError("unit vector has wrong length")
        self.dim = dim
        self.constants = c
        self.unit = u
        self.labels = list(labels) if labels is not None else [f"e{i}" for i in range(dim)]
        if len(self.labels) != dim:
            raise AlgebraError("label count does not match dimension")
        self.left_mats = [RatMatrix.from_rows([[c[i][j][k] for j in range(dim)] for k in range(dim)])
                          for i in range(dim)]
        self.right_mats = [RatMatrix.from_rows([[c[j][i][k] for j in range(dim)] for k in range(dim)])
                           for i in range(dim)]
        if not _skip_validation:
            self._validate()

    def _validate(self) -> None:
        d = self.dim
        for i in range(d):
            for j in range(d):
                lhs = self.left_mats[i] * self.left_mats[j]
                prod = self.multiply(self.basis_vector(i), self.basis_vector(j))
                rhs = self.left_multiplication(prod)
                if lhs != rhs:
                    raise AlgebraError(f"associativity fails at basis pair ({i}, {j})")
        for i in range(d):
            e = self.basis_vector(i)
            if self.multiply(self.unit, e) != e or self.multiply(e, self.unit) != e:
                raise AlgebraError(f"unit law fails at basis element {i}")

    # -- elements are coordinate vectors (lists of Fractions) -------------

    def basis_vector(self, i: int) -> list[Fraction]:
        return [Fraction(1) if j == i else Fraction(0) for j in range(self.dim)]

    def multiply(self, a: Sequence, b: Sequence) -> list[Fraction]:
        a = [as_fraction(x) for x in a]
        b = [as_fraction(x) for x in b]
        out = [Fraction(0)] * self.dim
        c = self.constants
        for i, ai in enumerate(a):
            if ai:
                ci = c[i]
                for j, bj in enumerate(b):
                    if bj:
                        f = ai * bj
                        cij = ci[j]
                        for k in range(self.dim):
                            if cij[k]:
                                out[k] += f * cij[k]
        return out

    def left_multiplication(self, a: Sequence) -> RatMatrix:
        a = [as_fraction(x) for x in a]
        acc = RatMatrix.zeros(self.dim, self.dim)
        for i, ai in enumerate(a):
            if ai:
                acc = acc + self.left_mats[i].scale(ai)
        return acc

    def right_multiplication(self, a: Sequence) -> RatMatrix:
        a = [as_fraction(x) for x in a]
        acc = RatMatrix.zeros(self.dim, self.dim)
        for i, ai in enumerate(a):
            if ai:
                acc = acc + self.right_mats[i].scale(ai)
        return acc

    def is_commutative(self) -> bool:
        return all(self.left_mats[i] == self.right_mats[i] for i in range(self.dim))

    def is_invertible(self, a: Sequence) -> bool:
        return self.left_multiplication(a).rank() == self.dim

    def key(self) -> tuple:
        return tuple(m.key() for m in self.left_mats) + (tuple(self.unit),)


def min_poly(a: Sequence, alg: AlgebraSpec) -> Polynomial:
    """Monic minimal polynomial of an algebra element, from power dependence."""
    a = [as_fraction(x) for x in a]
    if len(a) != alg.dim:
        raise AlgebraError("element coordinate length does not match the algebra")
    la = alg.left_multiplication(a)
    return min_poly_matrix(la, alg.unit)


def min_poly_matrix(op: RatMatrix, start: Sequence | None = None) -> Polynomial:
    """Minimal polynomial of a square matrix acting on column vectors.

    With `start` given, the Krylov chase runs from that single vector and
    the result is the minimal polynomial of the pair (op, start) -- the
    caller must know this is enough (for a left-multiplication operator
    started at the unit it is the element's true minimal polynomial).
    Without `start`, vector minimal polynomials are lcm-ed over the full
    standard basis, which yields the matrix minimal polynomial.
    """
    n = op.rows
    if op.cols != n:
        raise ValueError("minimal polynomial of a non-square matrix")
    if n == 0:
        return Polynomial([1])
    if start is not None:
        return _vector_min_poly(op, RatMatrix.from_rows([[x] for x in start]))
    acc = Polynomial([1])
    for i in range(n):
        e = RatMatrix.zeros(n, 1)
        e.num[i][0] = 1
        if not _poly_kills(op, acc, e):
            p = _vector_min_poly(op, e)
            g = acc.gcd(p)
            acc = (acc * p) // g
    return acc


def _poly_kills(op: RatMatrix, p: Polynomial, vec: RatMatrix) -> bool:
    acc = RatMatrix.zeros(op.rows, 1)
    for c in reversed(p.coeffs):
        acc = op * acc
        if c:
            acc = acc + vec.scale(c)
    return acc.is_zero()


def _vector_min_poly(op: RatMatrix, vec: RatMatrix) -> Polynomial:
    n = op.rows
    cols = [vec]
    cur = vec
    for _ in range(n + 1):
        stacked = cols[0]
        for c in cols[1:]:
            stacked = stacked.hstack(c)
        ker = stacked.kernel_basis()
        if ker:
            dep = ker[0]
            lead = len(dep) - 1
            return Polynomial([c / dep[lead] for c in dep])
        cur = op * cur
        cols.append(cur)
    raise RuntimeError("Krylov chase failed to terminate")  # unreachable


def radical(alg: AlgebraSpec) -> list[list[Fraction]]:
    """Basis of the Jacobson radical, via the trace form (characteristic 0).

    x lies in the radical iff trace(L_x L_y) = 0 for every basis element y.
    """
    d = alg.dim
    if d == 0:
        return []
    gram = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        li = alg.left_mats[i]
        for j in range(i, d):
            t = (li * alg.left_mats[j]).trace()
            gram[i][j] = t
            gram[j][i] = t
    return RatMatrix.from_rows(gram).kernel_basis()


def algebra_center(alg: AlgebraSpec) -> tuple[AlgebraSpec, list[list[Fraction]]]:
    """The center as an algebra with induced structure constants.

    Returns (center algebra, basis of the center inside alg).
    """
    d = alg.dim
    rows: list[list[Fraction]] = []
    for i in range(d):
        diff = alg.left_mats[i] - alg.right_mats[i]
        # rows of constraints: (z e_i - e_i z)_k = 0; diff columns index z coords
        for k in range(d):
            rows.append([diff.entry(k, j) for j in range(d)])
    if not rows:
        basis = [alg.basis_vector(i) for i in range(d)]
    else:
        basis = RatMatrix.from_rows(rows).kernel_basis()
    sub = subalgebra_on_basis(alg, basis)
    return sub, basis


def subalgebra_on_basis(alg: AlgebraSpec, basis: list[list[Fraction]]) -> AlgebraSpec:
    """Structure constants induced on a multiplicatively closed subspace."""
    m = len(basis)
    if m == 0:
        return AlgebraSpec([], [], _skip_validation=True)
    bmat = RatMatrix.from_cols(basis, rows=alg.dim)
    constants = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            prod = alg.multiply(basis[i], basis[j])
            coords = bmat.solve(RatMatrix.from_rows([[x] for x in prod]))
            if coords is None:
                raise AlgebraError("subspace is not multiplicatively closed")
            constants[i][j] = coords.column(0)
    ucoords = bmat.solve(RatMatrix.from_rows([[x] for x in alg.unit]))
    if ucoords is None:
        raise AlgebraError("subspace does not contain the unit")
    return AlgebraSpec(constants, ucoords.column(0))


def quotient_algebra(alg: AlgebraSpec, ideal_basis: list[list[Fraction]]) -> AlgebraSpec:
    """Quotient by a two-sided ideal, with canonical coordinates."""
    span = RatMatrix.from_rows(ideal_basis) if ideal_basis else RatMatrix.zeros(0, alg.dim)
    qdim, proj, pivots = _quotient_by_rows(span)
    if qdim == 0:
        return AlgebraSpec([], [], _skip_validation=True)
    pivset = set(pivots)
    free = [c for c in range(alg.dim) if c not in pivset]
    constants = [[None] * qdim for _ in range(qdim)]
    for i in range(qdim):
        for j in range(qdim):
            prod = alg.multiply(alg.basis_vector(free[i]), alg.basis_vector(free[j]))
            coords = proj * RatMatrix.from_rows([[x] for x in prod])
            constants[i][j] = coords.column(0)
    unit = proj * RatMatrix.from_rows([[x] for x in alg.unit])
    return AlgebraSpec(constants, unit.column(0))


def semisimple_quotient(alg: AlgebraSpec) -> AlgebraSpec:
    return quotient_algebra(alg, radical(alg))


def regular_algebra_from_min_poly(m: Polynomial) -> AlgebraSpec:
    """Q[t]/(m) with basis 1, t, ..., t^(deg-1)."""
    if m.degree < 1:
        raise AlgebraError("modulus must have degree >= 1")
    m = m.monic()
    d = m.degree
    constants = []
    for i in range(d):
        row = []
        for j in range(d):
            rem = Polynomial.x_power(i + j) % m
            row.append([rem.coeffs[k] if k < len(rem.coeffs) else Fraction(0) for k in range(d)])
        constants.append(row)
    unit = [Fraction(1)] + [Fraction(0)] * (d - 1)
    return AlgebraSpec(constants, unit)


def matrix_algebra(n: int) -> AlgebraSpec:
    """Full n x n matrix algebra over Q, basis E_ij in row-major order."""
    d = n * n
    constants = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        constants[i * n + j][k * n + l][i * n + l] = Fraction(1)
    unit = [Fraction(0)] * d
    for i in range(n):
        unit[i * n + i] = Fraction(1)
    return AlgebraSpec(constants, unit)
