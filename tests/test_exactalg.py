"""Tests for the exact linear algebra and algebra-arithmetic layer."""

import random
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import isocat.exactalg as exactalg
from isocat.exactalg import (
    _block_copies,
    _first_rational_root,
    _int_poly_bezout,
    _int_poly_divmod,
    _int_poly_exact_div,
    _int_poly_gcd,
    _interpolate,
    _kernel,
    AlgebraError,
    AlgebraSpec,
    FactorBudget,
    FactorBudgetExceeded,
    Polynomial,
    RatMatrix,
    algebra_center,
    as_fraction,
    commutant_basis,
    factor_rational,
    is_irreducible,
    kernel_basis,
    min_poly,
    min_poly_matrix,
    quotient_algebra,
    quotient_space,
    radical,
    regular_algebra_from_min_poly,
    squarefree_decomposition,
    subalgebra_on_basis,
)

F = Fraction


# constructions only the tests use

def from_cols(columns, rows=None):
    """The matrix with these columns (ints, Fractions or 'p/q' strings); rows is needed for none."""
    if not columns:
        assert rows is not None
        return RatMatrix.zeros(rows, 0)
    return RatMatrix.from_rows([[col[i] for col in columns] for i in range(len(columns[0]))])


class FPoly:
    """A polynomial with Fraction coefficients, ascending: the references' arithmetic.

    It shares no code with the engine, whose `Polynomial` is a value with no
    arithmetic.
    """

    def __init__(self, coeffs):
        cs = [F(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = cs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return FPoly([sum(p.coeffs[i] for p in (self, other) if i < len(p.coeffs)) for i in range(n)])

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        out = [F(0)] * max(len(self.coeffs) + len(other.coeffs) - 1, 0)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FPoly(out)

    def scale(self, c):
        return FPoly([x * c for x in self.coeffs])

    def monic(self):
        return self.scale(1 / self.coeffs[-1])

    def divmod(self, other):
        rem, db = list(self.coeffs), other.degree
        quot = [F(0)] * max(len(rem) - db, 0)
        for i in range(len(quot) - 1, -1, -1):
            quot[i] = f = rem[i + db] / other.coeffs[-1]
            for j, b in enumerate(other.coeffs):
                rem[i + j] -= f * b
        return FPoly(quot), FPoly(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def eval(self, x):
        acc = F(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return FPoly([i * c for i, c in enumerate(self.coeffs)][1:])


def ints(p):
    """The integer multiple of an FPoly over its coefficients' common denominator."""
    den = lcm(*(c.denominator for c in p.coeffs))
    return [int(c * den) for c in p.coeffs]


def multiply(alg, a, b):
    """a * b in alg: L(a) applied to b."""
    return (alg.left_multiplication(a) * RatMatrix.from_rows([[x] for x in b])).column(0)


def semisimple_quotient(alg):
    return exactalg._quotient_algebra(alg, exactalg._radical(alg))


def matrix_algebra(n):
    """Full n x n matrix algebra over Q, basis E_ij in row-major order."""
    d = n * n
    constants = [[[F(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for l in range(n):
                constants[i * n + j][j * n + l][i * n + l] = F(1)
    unit = [F(int(i == j)) for i in range(n) for j in range(n)]
    return AlgebraSpec(constants, unit)


# ----------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------

def test_kernel_zero_matrix():
    assert len(kernel_basis(RatMatrix.zeros(2, 2))) == 2


def test_kernel_identity():
    assert kernel_basis(RatMatrix.identity(2)) == []


def test_kernel_rank_one():
    m = RatMatrix.from_rows([[1, 2], [2, 4]])
    ker = kernel_basis(m)
    assert len(ker) == 1
    v = ker[0]
    # proportional to (2, -1)
    assert v[0] * F(-1) == v[1] * F(2)
    assert m * RatMatrix.from_rows([[v[0]], [v[1]]]) == RatMatrix.zeros(2, 1)


def test_matrix_product_and_fractions():
    a = RatMatrix.from_rows([["1/2", 1], [0, "2/3"]])
    b = RatMatrix.from_rows([[2, 0], [1, 3]])
    c = a * b
    assert c.entry(0, 0) == F(2)
    assert c.entry(0, 1) == F(3)
    assert c.entry(1, 0) == F(2, 3)
    assert c.entry(1, 1) == F(2)


def test_solve_and_inverse():
    a = RatMatrix.from_rows([[2, 1], [1, 1]])
    inv = a.inverse()
    assert a * inv == RatMatrix.identity(2)
    rhs = RatMatrix.from_rows([[1], [0]])
    x = a.solve(rhs)
    assert a * x == rhs
    singular = RatMatrix.from_rows([[1, 1], [1, 1]])
    assert singular.solve(RatMatrix.from_rows([[1], [0]])) is None


def test_det_and_rank():
    a = RatMatrix.from_rows([[2, 1], [1, 1]])
    assert a.det() == F(1)
    assert a.rank() == 2
    assert RatMatrix.from_rows([[1, 2], [2, 4]]).det() == F(0)


def test_rref_idempotent():
    m = RatMatrix.from_rows([[2, 4, 1], [1, 2, 0], [0, 0, 1]])
    r1, p1 = m.rref()
    r2, p2 = r1.rref()
    assert r1 == r2 and p1 == p2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=4))
def test_rank_nullity(rows):
    m = RatMatrix.from_rows(rows)
    assert m.rank() + len(m.kernel_basis()) == m.cols


def test_kernel_vectors_actually_in_kernel():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = RatMatrix.from_rows([[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)])
        for v in m.kernel_basis():
            col = RatMatrix.from_rows([[x] for x in v])
            assert (m * col).is_zero()


def test_quotient_space_trivial_cases():
    dim, proj = quotient_space(3, [])
    assert dim == 3 and proj == RatMatrix.identity(3)
    dim, proj = quotient_space(2, [[1, 0], [0, 1]])
    assert dim == 0 and proj.rows == 0


def test_quotient_space_kills_subspace():
    dim, proj = quotient_space(3, [[1, 1, 0]])
    assert dim == 2
    assert proj.rank() == 2
    assert (proj * RatMatrix.from_rows([[1], [1], [0]])).is_zero()


def test_empty_shapes():
    z = RatMatrix.zeros(0, 3)
    assert z.rank() == 0
    assert len(z.kernel_basis()) == 3
    n = RatMatrix.zeros(3, 0)
    assert n.rank() == 0
    assert (n * z).rows == 3 and (n * z).cols == 3


@st.composite
def _fresh_grids(draw):
    """(rows, cols, grid, den): den of either sign, maybe a factor common to all entries."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    grid = [[draw(st.sampled_from([0, 0, 1, -1, 2, -3, 5, 12])) for _ in range(cols)] for _ in range(rows)]
    den = draw(st.sampled_from([1, -1, 2, -4, 6, 9]))
    k = draw(st.sampled_from([1, 1, 2, -3, 6]))
    return rows, cols, [[k * x for x in r] for r in grid], k * den


@settings(max_examples=300, deadline=None)
@given(_fresh_grids())
@example((0, 3, [], -6))
@example((3, 0, [[], [], []], 4))
@example((2, 2, [[0, 0], [0, 0]], -9))
@example((2, 3, [[2, 4, -6], [0, 8, 2]], -4))
@example((1, 2, [[3, 5]], 1))
def test_fresh_grid_normalises_as_the_checking_constructor(case):
    rows, cols, grid, den = case
    ref = RatMatrix(rows, cols, grid, den)
    m = RatMatrix._fresh(rows, cols, [list(r) for r in grid], den)
    assert (m.rows, m.cols, m.num, m.den) == (ref.rows, ref.cols, ref.num, ref.den)
    assert ref.den > 0 and gcd(ref.den, *(x for r in ref.num for x in r)) == 1


@settings(max_examples=100, deadline=None)
@given(_fresh_grids(), st.integers(0, 3))
def test_block_copies_is_the_kronecker_product_with_an_identity(case, m):
    rows, cols, grid, den = case
    cell = RatMatrix(rows, cols, grid, den)
    copies = _block_copies(m, cell)
    ref = RatMatrix.identity(m).kron(cell)
    assert (copies.rows, copies.cols, copies.num, copies.den) == (ref.rows, ref.cols, ref.num, ref.den)


# ----------------------------------------------------------------------
# the sparse elimination kernel and its integer back-substitution against
# a Fraction Gauss-Jordan reference
# ----------------------------------------------------------------------

def _gauss_jordan(rows, ncols):
    """Reduced row echelon form in Fractions: (nonzero rows, pivot columns)."""
    m = [[F(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def _grid(rows, nrows, ncols):
    return RatMatrix.from_rows(rows) if nrows and ncols else RatMatrix.zeros(nrows, ncols)


_ENTRIES = st.one_of(st.just(F(0)), st.integers(-3, 3).map(F),
                     st.fractions(min_value=-3, max_value=3, max_denominator=5))


@st.composite
def _systems(draw):
    """(rows, ncols, rhs rows, k): A may be rank-deficient, the rhs zero or inconsistent."""
    nrows, ncols, k = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 2))
    rows = [[draw(_ENTRIES) for _ in range(ncols)] for _ in range(nrows)]
    rhs = [[draw(_ENTRIES) for _ in range(k)] for _ in range(nrows)]
    if nrows >= 3 and draw(st.booleans()):
        a, b = draw(_ENTRIES), draw(_ENTRIES)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        if draw(st.booleans()):  # consistent right-hand side for the dependent row
            rhs[-1] = [a * x + b * y for x, y in zip(rhs[0], rhs[1])]
    if draw(st.booleans()):
        rhs = [[F(0)] * k for _ in range(nrows)]
    return rows, ncols, rhs, k


@st.composite
def _psi_shaped(draw):
    """(rows, ncols, rhs rows, k) shaped like psi: copies of one integer block
    down the diagonal beside dense columns, maybe transposed, with a row of
    content > 1, a row that cancels to zero and the rows shuffled."""
    br, bc, copies, dense = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                             draw(st.integers(1, 3)), draw(st.integers(0, 2)))
    block = [[draw(st.integers(-3, 3)) for _ in range(bc)] for _ in range(br)]
    ncols = copies * bc + dense
    rows = []
    for q in range(copies):
        for b in block:
            rows.append([0] * (q * bc) + b + [0] * ((copies - q - 1) * bc)
                        + [draw(st.integers(-3, 3)) for _ in range(dense)])
    if draw(st.booleans()):
        rows = [list(r) for r in zip(*rows)]
        ncols = len(rows[0])
    if draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = [draw(st.sampled_from([2, -3, 6])) * x for x in rows[i]]
    if len(rows) >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    k = draw(st.integers(0, 2))
    rhs = [[F(draw(st.integers(-3, 3))) for _ in range(k)] for _ in rows]
    return [[F(x) for x in r] for r in rows], ncols, rhs, k


@settings(max_examples=400, deadline=None)
@given(st.one_of(_systems(), _psi_shaped()))
@example(([], 3, [], 1))
@example(([[]] * 3, 0, [[1]] * 3, 1))
@example(([[]] * 2, 0, [[0]] * 2, 1))
@example(([[1, 2], [2, 4]], 2, [[1], [0]], 1))
@example(([[F(1, 2), F(2, 3), 0], [F(3, 4), 1, 0], [F(1, 4), F(1, 3), 0]], 3,
          [[F(1, 5)], [F(2, 7)], [F(1, 10)]], 1))
def test_back_substitution_matches_gauss_jordan(system):
    rows, ncols, rhs, k = system
    m = _grid(rows, len(rows), ncols)
    red, pivots = _gauss_jordan(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    ref_kernel = []
    for f in free:
        v = [F(0)] * ncols
        v[f] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        ref_kernel.append(v)
    assert m.kernel_basis() == ref_kernel
    ker = _kernel(m)
    assert (ker.rows, ker.cols) == (ncols, len(free))
    assert [[ker.entry(i, j) for i in range(ncols)] for j in range(ker.cols)] == ref_kernel
    assert m.rref() == (_grid(red, len(pivots), ncols), pivots)

    aug, aug_pivots = _gauss_jordan([r + b for r, b in zip(rows, rhs)], ncols + k)
    sol = m.solve(_grid(rhs, len(rows), k))
    if any(p >= ncols for p in aug_pivots):
        assert sol is None
    else:
        ref = [[F(0)] * k for _ in range(ncols)]
        for i, p in enumerate(aug_pivots):
            ref[p] = aug[i][ncols:]
        assert sol == _grid(ref, ncols, k)

    dim, proj = quotient_space(ncols, rows)
    assert dim == len(free) and proj.rank() == dim
    assert (proj * _grid(rows, len(rows), ncols).transpose()).is_zero()


def _fraction_det(rows):
    """Determinant by Fraction elimination with row swaps."""
    m = [[F(x) for x in r] for r in rows]
    det = F(1)
    for c in range(len(m)):
        piv = next((i for i in range(c, len(m)) if m[i][c]), None)
        if piv is None:
            return F(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


_SQUARE = st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(_SQUARE, st.data())
@example([], None)
@example([[2, 1, 1], [1, 0, 0], [0, 1, 0]], None)  # the sparse pivot row is not the first
@example([[2, 3], [3, 5]], None)  # a non-unit pivot and a content division
@example([[0, 1], [1, 0]], None)
@example([[1, 2, 3], [2, 4, 6], [0, 1, -1]], None)
def test_det_matches_fraction_reference(rows, data):
    n = len(rows)
    ref = _fraction_det(rows)
    assert _grid(rows, n, n).det() == ref
    if n >= 2:  # swapping two rows flips the sign
        i, j = (0, 1) if data is None else data.draw(st.permutations(range(n)))[:2]
        swapped = list(rows)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert _grid(swapped, n, n).det() == -ref


_INT_ROWS = st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(
    lambda shape: st.lists(st.lists(st.integers(-9, 9), min_size=shape[1], max_size=shape[1]),
                           min_size=shape[0], max_size=shape[0]).map(lambda rows: (rows, shape[1])))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_INT_ROWS, _psi_shaped().map(lambda s: ([[int(x) for x in r] for r in s[0]], s[1]))))
def test_echelon_rows_are_primitive_and_within_the_hadamard_bound(grid):
    # a reduced row is the Bareiss minor vector over its content, and each
    # minor is at most the product of the norms of the nonzero input rows
    rows, ncols = grid
    pivots, ech, _, _ = exactalg._echelon(exactalg._sparse_rows(rows))
    assert pivots == _gauss_jordan(rows, ncols)[1]
    inputs = exactalg._sparse_rows(rows)
    bound = prod(sum(x * x for x in r) for r in rows if any(r))  # the squared Hadamard bound
    for k, (p, row) in enumerate(zip(pivots, ech)):
        assert min(row) == p and not any(q in row for q in pivots[:k])
        assert all(x * x <= bound for x in row.values())
        assert row in inputs or gcd(*row.values()) == 1  # every reduced row is primitive


def _reference_kernel(rows, ncols):
    """The null space basis `kernel_basis` lists, from the Fraction Gauss-Jordan reference."""
    red, pivots = _gauss_jordan(rows, ncols)
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[f] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        out.append(v)
    return len(pivots), out


def _sparse_echelon_cases(rng):
    """(rows, ncols) seeded sparse integer matrices, some square; then 512
    rows already in echelon form (pivots, and entries in 64 free columns
    right of them), and 512 x 512 upper triangular rows, in order and shuffled."""
    cases = []
    for _ in range(80):
        nrows, ncols = rng.randint(1, 20), rng.randint(1, 20)
        if rng.random() < 0.4:
            ncols = nrows
        density = rng.choice((0.1, 0.2, 0.35))
        cases.append(([[rng.choice((-3, -1, 1, 2, 5)) if rng.random() < density else 0 for _ in range(ncols)]
                       for _ in range(nrows)], ncols))
    n, ncols = 512, 576
    free = set(rng.sample(range(ncols), ncols - n))
    ech = []
    for p in (c for c in range(ncols) if c not in free):
        row = [0] * ncols
        row[p] = rng.choice((1, -2, 3))
        right = sorted(c for c in free if c > p)
        for c in rng.sample(right, min(2, len(right))):
            row[c] = rng.randint(-3, 3)
        ech.append(row)
    cases.append((ech, ncols))
    upper = [[0] * i + [rng.choice((1, -1, 2))] + [rng.choice((-2, 1, 3)) if rng.random() < 0.01 else 0
                                                  for _ in range(n - i - 1)] for i in range(n)]
    cases.append((upper, n))
    cases.append((rng.sample(upper, n), n))
    return cases


def test_echelon_matches_fraction_references_on_sparse_and_echelon_inputs():
    # `_echelon` takes the pending pivot columns off a heap; rank, kernel
    # and det stay those of the Fraction references, on rows that need
    # updates and on long inputs that need none
    cases = _sparse_echelon_cases(random.Random("sparse-echelon"))
    for rows, ncols in cases:
        m = RatMatrix(len(rows), ncols, rows)
        if len(rows) == ncols:
            assert m.det() == _fraction_det(rows)
        if ncols <= 20 or len(rows) != ncols:  # Gauss-Jordan fills a long triangle in
            rank, kernel = _reference_kernel(rows, ncols)
            assert m.rank() == rank and m.kernel_basis() == kernel
    assert sum(len(rows) >= 512 for rows, _ in cases) == 3 and cases[-3][0][0] != [0] * 576


def test_echelon_pivots_on_the_sparsest_candidate():
    # column 0: [2, 0, 0] has fewer nonzeros than [1, 1, 1]; column 1: [0, 1, 0]
    # beats the reduced row (2 [1, 1, 1] - [2, 0, 0]) / 2 = [0, 1, 1]
    rows = [[1, 1, 1], [2, 0, 0], [0, 1, 0]]
    pivots, ech, gained, lost = exactalg._echelon(exactalg._sparse_rows(rows))
    assert pivots == [0, 1, 2]
    assert ech == [{0: 2}, {1: 1}, {2: 1}]
    assert (gained, lost) == (2, 2)
    assert RatMatrix.from_rows(rows).det() == _fraction_det(rows) == 2


def test_each_elimination_runs_the_kernel_once(monkeypatch):
    calls = []
    real = exactalg._echelon

    def counted(rows):
        calls.append(1)
        return real(rows)

    monkeypatch.setattr(exactalg, "_echelon", counted)
    m = RatMatrix.from_rows([[2, 1, 0], [1, 1, 1], [3, 2, 1]])
    sq = RatMatrix.from_rows([[2, 1], [1, 1]])
    rhs = RatMatrix.from_rows([[1], [0], [1]])
    runs = {"rank": m.rank, "_null_rows": lambda: exactalg._null_rows(m),
            "solve": lambda: m.solve(rhs), "inverse": sq.inverse, "det": sq.det,
            "column_space_pivots": m.column_space_pivots}
    for name, run in runs.items():
        calls.clear()
        run()
        assert len(calls) == 1, name


# ----------------------------------------------------------------------
# polynomials
# ----------------------------------------------------------------------

_INTS = st.lists(st.integers(-9, 9), max_size=6).map(lambda cs: cs[:max((i + 1 for i, c in enumerate(cs) if c), default=0)])


@settings(max_examples=200, deadline=None)
@given(_INTS, _INTS.filter(bool))
@example([2, 0, 3, 4], [-1, 2])
@example([1, 2], [0, 0, -3])
def test_pseudo_division_gives_k_a_equal_q_b_plus_r(a, b):
    k, q, r = _int_poly_divmod(a, b)
    assert k > 0 and len(r) < len(b)
    assert FPoly(a).scale(k) == FPoly(q) * FPoly(b) + FPoly(r)


def test_factor_difference_of_squares():
    facs = factor_rational(Polynomial([-1, 0, 1]))  # t^2 - 1
    polys = sorted(tuple(f.coeffs) for f, m in facs)
    assert polys == [(F(-1), F(1)), (F(1), F(1))]
    assert all(m == 1 for _, m in facs)


def test_factor_irreducible_quadratic():
    assert is_irreducible(Polynomial([1, 0, 1]))  # t^2 + 1


def test_factor_cubic_no_rational_root():
    # t^3 - t - 1 has no rational root (candidates are only +-1, neither
    # vanishes), and an irreducible factorization of a cubic without a
    # linear factor is forced to be trivial.
    p = FPoly([-1, -1, 0, 1])
    assert p.eval(1) != 0 and p.eval(-1) != 0
    assert is_irreducible(Polynomial(p.coeffs))


def test_factor_multiplicities_and_product():
    # (t-1)^2 (t^2+1) * 3
    p = (FPoly([1, -2, 1]) * FPoly([1, 0, 1])).scale(3)
    facs = factor_rational(Polynomial(p.coeffs))
    prod = FPoly([1])
    for f, m in facs:
        for _ in range(m):
            prod = prod * FPoly(f.coeffs)
    assert prod == p.monic()
    assert sorted(m for _, m in facs) == [1, 2]


def test_factors_are_sorted_by_their_monic_coefficients():
    # t + 1/2 comes before t + 1 as monic, though t + 1 sorts first as primitive
    facs = factor_rational(Polynomial([1, 3, 2]))  # (t + 1)(2t + 1)
    assert [f.coeffs for f, _ in facs] == [[F(1, 2), 1], [1, 1]]


def _fraction_inverse(b, a):
    """b's inverse modulo a for coprime a and b, by Euclid over Fraction coefficients."""
    r0, r1, t0, t1 = a, b, FPoly([]), FPoly([1])
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1, t0, t1 = r1, r, t1, t0 - q * t1
    return t0.scale(1 / r0.coeffs[0]) % a


@settings(max_examples=200, deadline=None)
@given(_INTS.filter(lambda a: len(a) > 1), _INTS.filter(bool))
@example([-1, 0, 1], [1, 2])
@example([0, 0, 1], [3])
@example([1, 1], [0, 0, 0, 2])
def test_bezout_inverse_matches_fraction_reference(a, b):
    assume(_fraction_gcd(FPoly(a), FPoly(b)).degree == 0)
    t, g = _int_poly_bezout(a, b)
    assert len(g) == 1 and g[0] > 0 and len(t) < len(a)
    assert (FPoly(t) * FPoly(b) - FPoly(g)) % FPoly(a) == FPoly([])
    assert FPoly(t).scale(F(1, g[0])) == _fraction_inverse(FPoly(b), FPoly(a))


def test_bezout_of_a_shared_factor_is_the_gcd():
    t, g = _int_poly_bezout([-1, 0, 1], [1, 1])  # t^2 - 1 and t + 1
    assert FPoly(g).monic() == FPoly([1, 1])
    assert (FPoly(t) * FPoly([1, 1]) - FPoly(g)) % FPoly([-1, 0, 1]) == FPoly([])


def _fraction_lagrange(xs, ys):
    acc = FPoly([])
    for i, xi in enumerate(xs):
        li = FPoly([1])
        for j, xj in enumerate(xs):
            if j != i:
                li = li * FPoly([F(-xj, xi - xj), F(1, xi - xj)])
        acc = acc + li.scale(ys[i])
    return acc


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=5, unique=True), st.data())
@example([0, 1, -1], None)
def test_interpolate_matches_fraction_lagrange(xs, data):
    ys = ([4, 6, 2] if data is None else
          data.draw(st.lists(st.integers(-30, 30), min_size=len(xs), max_size=len(xs))))
    want = _fraction_lagrange(xs, ys)
    got = _interpolate(xs, ys)
    if all(c.denominator == 1 for c in want.coeffs):
        assert got == [int(c) for c in want.coeffs]
    else:
        assert got is None


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=2, max_size=5),
       st.lists(st.integers(-3, 3), min_size=2, max_size=4))
def test_factor_product_reassembles(c1, c2):
    prod = FPoly(c1) * FPoly(c2)
    if prod.degree < 1:
        return
    facs = factor_rational(Polynomial(prod.coeffs))
    acc = FPoly([1])
    for f, m in facs:
        assert is_irreducible(f)
        for _ in range(m):
            acc = acc * FPoly(f.coeffs)
    assert acc.scale(prod.coeffs[-1]) == prod


def _fraction_rational_roots(coeffs):
    """The rational-root search in Fraction arithmetic; its first root is the reference for
    `_first_rational_root`.

    Every p/q and -p/q with p | a0 and q | an, both ascending, is tested by
    evaluating the polynomial at it, unless it lies outside Cauchy's bounds
    on the absolute value of a root: at most 1 + max |a_i / an|, and (from
    the reversed polynomial) at least 1 / (1 + max |a_i / a0|).
    """
    if not coeffs:
        return []
    if coeffs[0] == 0:
        return [F(0)]

    def divisors(n):
        n = abs(n)
        small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
        return small + [n // d for d in reversed(small) if d * d != n]

    p = FPoly(coeffs)
    a0, an, top = abs(coeffs[0]), abs(coeffs[-1]), max(map(abs, coeffs))
    # low <= num / den <= high, with high = (an + top) / an and low = a0 / (a0 + top)
    dens = divisors(an)
    return [c for num in divisors(a0) for den in dens
            if a0 * den <= num * (a0 + top) and num * an <= (an + top) * den
            for c in (F(num, den), F(-num, den)) if p.eval(c) == 0]


def first_root(coeffs):
    return next(iter(_fraction_rational_roots(coeffs)), None)


def found_root(coeffs, budget=None):
    """`_first_rational_root`'s (p, q) as a Fraction."""
    root = _first_rational_root(coeffs, budget)
    return None if root is None else F(*root)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 4)), max_size=3),
       st.lists(st.integers(-9, 9), min_size=1, max_size=4))
@example([(1, 1), (2, 2)], [3])  # 1/1 and 2/2 are the same root, listed twice
@example([(-3, 2), (0, 1)], [1, 0, 1])
@example([], [0, 0, 5])
def test_rational_roots_match_fraction_reference(linear, extra):
    # (q t - p) factors plant the roots p/q; the extra factor adds noise
    poly = FPoly(extra)
    for num, den in linear:
        poly = poly * FPoly([-num, den])
    coeffs = [int(c) for c in poly.coeffs]
    assert found_root(coeffs) == first_root(coeffs)


def test_first_rational_root_is_the_first_of_the_full_pair_list():
    # (t - 1)(2t - 3)(t - 2): every pair lists 1, 2, 1 (as 2/2) and 3/2
    poly = FPoly([-1, 1]) * FPoly([-3, 2]) * FPoly([-2, 1])
    coeffs = [int(c) for c in poly.coeffs]
    assert _fraction_rational_roots(coeffs) == [1, 2, 1, F(3, 2)]
    assert _first_rational_root(coeffs) == (1, 1)
    assert _first_rational_root([int(c) for c in (FPoly([-3, 2]) * FPoly([1, 0, 1])).coeffs]) == (3, 2)
    assert _first_rational_root([2, 0, 1]) is None


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 30)), max_size=2), st.data())
@example([(7, 3)], None)  # 7/3 is a root mod every prime but 3, which divides an
def test_rational_roots_match_fraction_reference_at_large_coefficients(linear, data):
    # the planted roots p/q scale the extra factor's bound down, so that a0
    # and an stay within 10^9
    bound = 10 ** 9 // prod(max(abs(num), den) for num, den in linear)
    extra = ([1000003, 0, 999999937] if data is None else
             data.draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=3)))
    poly = FPoly(extra)
    for num, den in linear:
        poly = poly * FPoly([-num, den])
    coeffs = [int(c) for c in poly.coeffs]
    assert found_root(coeffs) == first_root(coeffs)
    assert found_root(coeffs, FactorBudget()) == first_root(coeffs)


@pytest.mark.parametrize("coeffs, cap, raises", [
    ([101, 1, 1], 100, False), ([1, 1, 101], 100, False), ([-101, 0, 0, 1], 100, False),
    ([-36, 0, 36, 0, -11, 0, 1], 35, True), ([0, 101], 100, False)],
    ids=["a0", "an", "a0-no-root-mod-7", "a0-root-mod-every-prime", "a0-zero"])
def test_rational_roots_budget_checks_a0_and_an_first(coeffs, cap, raises):
    # the budget guards the divisor enumeration only, after the no-root-mod-ell
    # certificate: t^2 + t + 101 and 101 t^2 + t + 1 (no root mod 2) and
    # t^3 - 101 (none mod 7) are answered with a0 or an over the cap, while
    # (t^2 - 2)(t^2 - 3)(t^2 - 6) has a root mod every prime and no rational
    # root, so it reaches the divisors of a0 = -36; a zero a0 gives the root 0
    budget = FactorBudget(max_abs_value=cap)
    if raises:
        with pytest.raises(FactorBudgetExceeded):
            _first_rational_root(coeffs, budget)
        with pytest.raises(FactorBudgetExceeded):
            factor_rational(Polynomial(coeffs), budget)
    else:
        assert found_root(coeffs, budget) == first_root(coeffs)
        assert factor_rational(Polynomial(coeffs), budget) == factor_rational(Polynomial(coeffs))
    assert found_root(coeffs) == first_root(coeffs)


def test_factoring_without_a_budget_argument_is_budgeted():
    # (t^2 - 288)(t^2 - 432)(t^2 - 124416) has a root mod every prime and no
    # rational root, so its rational-root search reaches the divisors of
    # a0 = -288 . 432 . 124416, about -1.55 . 10^10: over the default cap
    coeffs = [int(c) for c in (FPoly([-288, 0, 1]) * FPoly([-432, 0, 1]) * FPoly([-124416, 0, 1])).coeffs]
    for call in (lambda: factor_rational(Polynomial(coeffs)), lambda: is_irreducible(Polynomial(coeffs)),
                 lambda: _first_rational_root(coeffs)):
        with pytest.raises(FactorBudgetExceeded):
            call()


def _fraction_gcd(a, b):
    """Euclid over Fraction coefficients, the reference for `_int_poly_gcd`."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def _fraction_squarefree(p):
    """The Fraction square-free loop, the reference for squarefree_decomposition."""
    work = p.monic()
    d = _fraction_gcd(work, work.derivative())
    w = work // d
    out = []
    i = 1
    while w.degree >= 1:
        y = _fraction_gcd(w, d)
        f = w // y
        if f.degree >= 1:
            out.append((f.monic(), i))
        w = y
        if d.degree >= 1:
            d = d // y
        i += 1
    return out


_SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=4)
# small factors (constants included) with multiplicities 1-3
_FACTORS = st.lists(st.tuples(st.lists(_SMALL, min_size=1, max_size=3).filter(any),
                              st.integers(1, 3)), max_size=3)


def _product(lead, factors):
    p = FPoly([lead])
    for coeffs, mult in factors:
        for _ in range(mult):
            p = p * FPoly(coeffs)
    return p


@settings(max_examples=150, deadline=None)
@given(_SMALL.filter(bool), _FACTORS)
@example(F(3), [])
@example(F(-2, 3), [([F(1, 2), F(5)], 1)])
@example(F(7, 2), [([F(-1), F(1)], 3), ([F(1), F(0), F(1)], 2), ([F(2), F(3)], 1)])
def test_squarefree_matches_fraction_reference(lead, factors):
    p = _product(lead, factors)
    if p.degree < 1:
        with pytest.raises(ValueError):
            squarefree_decomposition(Polynomial(p.coeffs))
        return
    got = squarefree_decomposition(Polynomial(p.coeffs))
    assert [(f.coeffs, m) for f, m in got] == [(f.coeffs, m) for f, m in _fraction_squarefree(p)]


@settings(max_examples=100, deadline=None)
@given(_FACTORS, _SMALL, _FACTORS, _SMALL, _FACTORS)
@example([], F(0), [], F(0), [])
@example([], F(0), [], F(-3, 2), [([F(1), F(2)], 1)])
@example([([F(1), F(1)], 2)], F(1, 3), [([F(-1), F(1)], 1)], F(5), [])
def test_gcd_matches_fraction_reference(shared, la, fa, lb, fb):
    common = _product(F(1), shared)
    a, b = common * _product(la, fa), common * _product(lb, fb)
    for x, y in ((a, b), (b, a)):
        g = _int_poly_gcd(ints(x), ints(y))
        assert (FPoly(g).monic() if g else FPoly([])) == _fraction_gcd(x, y)
        assert not g or g[-1] > 0 and gcd(*g) == 1


def test_int_poly_exact_div_rejects_an_inexact_quotient():
    assert _int_poly_exact_div([2, 3, 1], [1, 1]) == [2, 1]
    assert _int_poly_exact_div([], [1, 1]) == []
    with pytest.raises(ArithmeticError):
        _int_poly_exact_div([1, 0, 1], [1, 1])  # t^2 + 1 = (t - 1)(t + 1) + 2
    with pytest.raises(ArithmeticError):
        _int_poly_exact_div([1, 2], [2])  # (1 + 2t) / 2 is not integral


# ----------------------------------------------------------------------
# algebras
# ----------------------------------------------------------------------

def q_times_q():
    return AlgebraSpec(
        [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
        [1, 1],
    )


def dual_numbers():
    # Q[eps]/(eps^2)
    return AlgebraSpec(
        [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
        [1, 0],
    )


def upper_triangular_2x2():
    # basis E11, E22, E12
    c = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]
    c[0][0][0] = 1          # E11 E11 = E11
    c[0][2][2] = 1          # E11 E12 = E12
    c[2][1][2] = 1          # E12 E22 = E12
    c[1][1][1] = 1          # E22 E22 = E22
    return AlgebraSpec(c, [1, 1, 0])


def test_algebra_validation_rejects_bad_data():
    c = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    with pytest.raises(AlgebraError):
        AlgebraSpec(c, [1, 1])


def test_min_poly_of_unit():
    alg = q_times_q()
    assert min_poly(alg.unit, alg) == Polynomial([-1, 1])


def test_min_poly_defining_relations():
    gauss = regular_algebra_from_min_poly(Polynomial([1, 0, 1]))
    assert min_poly(gauss.basis_vector(1), gauss) == Polynomial([1, 0, 1])
    eps = dual_numbers()
    assert min_poly(eps.basis_vector(1), eps) == Polynomial([0, 0, 1])


def test_radical_semisimple_cases():
    assert radical(q_times_q()) == []
    gauss = regular_algebra_from_min_poly(Polynomial([1, 0, 1]))
    assert radical(gauss) == []


def test_radical_dual_numbers():
    rad = radical(dual_numbers())
    assert len(rad) == 1
    assert rad[0][0] == 0 and rad[0][1] != 0


def test_radical_upper_triangular():
    alg = upper_triangular_2x2()
    rad = radical(alg)
    assert len(rad) == 1
    # oracle 1: every radical element is nilpotent (here: squares to zero at dim 3)
    v = rad[0]
    prod = multiply(alg, v, v)
    prod = multiply(alg, prod, v)
    assert all(x == 0 for x in prod)
    # oracle 2: the quotient is semisimple (its own radical vanishes)
    assert radical(quotient_algebra(alg, rad)) == []


def test_radical_nilpotency_property():
    # product of (dim) radical basis elements vanishes, in any order tried
    for alg in (dual_numbers(), upper_triangular_2x2()):
        rad = radical(alg)
        for v in rad:
            acc = v
            for _ in range(alg.dim - 1):
                acc = multiply(alg, acc, v)
            assert all(x == 0 for x in acc)


def test_center_commutative_algebra_is_everything():
    alg = q_times_q()
    center, basis = algebra_center(alg)
    assert center.dim == 2
    assert center.is_commutative()


def test_center_full_matrix_algebra():
    alg = matrix_algebra(2)
    center, basis = algebra_center(alg)
    assert center.dim == 1


def test_center_upper_triangular():
    # independent oracle: solve the commutation system directly
    alg = upper_triangular_2x2()
    center, basis = algebra_center(alg)
    assert center.dim == 1
    for b in basis:
        for i in range(alg.dim):
            assert multiply(alg, b, alg.basis_vector(i)) == multiply(alg, alg.basis_vector(i), b)


def test_semisimple_quotient_of_dual_numbers():
    q = semisimple_quotient(dual_numbers())
    assert q.dim == 1
    assert q.is_commutative()


def test_min_poly_matrix_full():
    m = RatMatrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 2]])
    p = min_poly_matrix(m)
    # t^2 (t - 2)
    assert p == Polynomial([0, 0, -2, 1])
    assert _eval_on_matrix(p, m).is_zero()


def _power_dependency(m, start):
    """Monic polynomial from the first linear dependency among the flattened
    start, m . start, m^2 . start, ..., found by Fraction Gauss-Jordan.

    From the identity this is the minimal polynomial of m, from a column
    vector the minimal polynomial of that vector.
    """
    size = start.rows * start.cols
    powers, cur = [], start
    while True:
        powers.append([x for row in cur.to_fractions() for x in row])
        k = len(powers) - 1
        red, pivots = _gauss_jordan([[p[i] for p in powers] for i in range(size)], k + 1)
        if k not in pivots:
            coeffs = [F(0)] * k + [F(1)]
            for i, p in enumerate(pivots):
                coeffs[p] = -red[i][k]
            return FPoly(coeffs)
        cur = m * cur


def _block_diagonal(blocks):
    n = sum(b.rows for b in blocks)
    out, at = RatMatrix.zeros(n, n), 0
    for b in blocks:
        pad = RatMatrix.zeros(b.rows, at).hstack(b).hstack(RatMatrix.zeros(b.rows, n - at - b.rows))
        out = out + RatMatrix.zeros(at, n).vstack(pad).vstack(RatMatrix.zeros(n - at - b.rows, n))
        at += b.rows
    return out


def _nilpotent(rng, n):
    """A conjugate of a sum of Jordan blocks at 0 by a random invertible matrix."""
    cuts = sorted(rng.sample(range(1, n), rng.randrange(0, n))) if n > 1 else []
    starts = set([0] + cuts)
    j = RatMatrix(n, n, [[int(c == r + 1 and c not in starts) for c in range(n)] for r in range(n)])
    while True:
        g = _random_grid(rng, n, n)
        if g.rank() == n:
            return g * j * g.inverse()


def _min_poly_cases(kind, as_blocks=False):
    """Square matrices of one kind; with as_blocks, each as the list of its diagonal blocks."""
    rng = random.Random(kind)
    cases = [[RatMatrix.zeros(0, 0)], [RatMatrix(1, 1, [[rng.randrange(-9, 10)]], rng.randrange(1, 7))]]
    for _ in range(30):
        n = rng.randrange(1, 6)
        if kind == "random":
            num = [[rng.choice([0, 0, 1, -1, 2, -3, 5]) for _ in range(n)] for _ in range(n)]
            cases.append([RatMatrix(n, n, num, rng.randrange(1, 7))])
        elif kind == "nilpotent":
            cases.append([_nilpotent(rng, n)])
        else:
            # like a morphism's total matrix: u/v blocks, some repeated, some nilpotent
            pool = [_random_grid(rng, k, k) for k in (1, 2, 2)] + [_nilpotent(rng, 3)]
            cases.append([rng.choice(pool) for _ in range(rng.randrange(1, 4))])
    return cases if as_blocks else [_block_diagonal(blocks) for blocks in cases]


@pytest.mark.parametrize("kind", ["random", "nilpotent", "block-diagonal"])
def test_min_poly_matrix_matches_power_dependency(kind):
    for m in _min_poly_cases(kind):
        assert min_poly_matrix(m).coeffs == _power_dependency(m, RatMatrix.identity(m.rows)).coeffs


@pytest.mark.parametrize("kind", ["random", "nilpotent", "block-diagonal"])
def test_min_poly_matrix_chases_only_unkilled_vectors(kind, monkeypatch):
    # a standard vector is chased iff the lcm of the earlier chases does not
    # kill it; a wrong kill test either changes the answer or wastes chases
    chased = []
    chase = exactalg._vector_min_poly
    monkeypatch.setattr(exactalg, "_vector_min_poly",
                        lambda op, vec, cols: chased.append(vec) or chase(op, vec, cols))
    for m in _min_poly_cases(kind):
        chased.clear()
        min_poly_matrix(m)
        expect, acc = [], FPoly([1])
        for i in range(m.rows):
            e = RatMatrix(m.rows, 1, [[int(r == i)] for r in range(m.rows)])
            if not (_eval_on_matrix(acc, m) * e).is_zero():
                expect.append(e)
                p = _power_dependency(m, e)
                acc = (acc * p) // _fraction_gcd(acc, p)
        assert chased == expect


def test_int_min_poly_of_blocks_is_that_of_their_block_diagonal():
    # block by block, with the running lcm carried across blocks over their
    # own denominators, the polynomial is the whole matrix's
    cases = _min_poly_cases("block-diagonal", as_blocks=True)
    for blocks in cases:
        assert exactalg._int_min_poly_matrix(*blocks) == exactalg._int_min_poly_matrix(_block_diagonal(blocks))
    assert any(len({b.den for b in blocks}) > 1 for blocks in cases)


def test_min_poly_matrix_builds_the_columns_once(monkeypatch):
    # the kill tests and every Krylov chase of one matrix share one build of
    # its sparse columns, and a chase outside it builds its own
    built = []
    sparse = exactalg._sparse_rows
    monkeypatch.setattr(exactalg, "_sparse_rows", lambda num: built.append(1) or sparse(num))
    for m in _min_poly_cases("block-diagonal"):
        built.clear()
        exactalg._int_min_poly_matrix(m)
        assert len(built) == 1
        if m.rows:
            exactalg._vector_min_poly(m, RatMatrix(m.rows, 1, [[1]] * m.rows))
            assert len(built) == 2


def reference_vector_min_poly(op, vec):
    """The first power dependency of vec under op, primitive: at each power
    the Krylov columns so far are eliminated again from scratch."""
    n = op.rows
    cols, cur = [], vec
    for _ in range(n + 1):
        cols.append(([r[0] for r in cur.num], cur.den))
        ker, _ = exactalg._null_rows(exactalg._flat_columns(cols, n))
        if ker.rows:
            return exactalg._primitive(ker.num[0])
        cur = op * cur
    raise AssertionError("no dependency among n + 1 Krylov vectors")


def _scalar_cases(rng):
    """1 x 1 matrices, zero among them, and scalar matrices c . I over a denominator."""
    ones = [RatMatrix(1, 1, [[c]], d) for c in (0, 1, -1, 7) for d in (1, 3)]
    return ones + [RatMatrix(n, n, [[c * (i == j) for j in range(n)] for i in range(n)], rng.randrange(1, 5))
                   for n in range(1, 5) for c in (0, 2, -3)]


@pytest.mark.parametrize("kind", ["random", "nilpotent", "block-diagonal", "scalar"])
def test_vector_min_poly_matches_the_re_eliminating_chase(kind):
    # from the zero vector, every standard vector and random vectors over a
    # denominator: the same primitive polynomial as eliminating every power again
    rng = random.Random(f"chase:{kind}")
    cases = _scalar_cases(rng) if kind == "scalar" else _min_poly_cases(kind)
    for m in cases:
        n = m.rows
        starts = [RatMatrix.zeros(n, 1)] + [RatMatrix(n, 1, [[int(r == i)] for r in range(n)]) for i in range(n)]
        starts += [RatMatrix(n, 1, [[rng.randrange(-4, 5)] for _ in range(n)], rng.randrange(1, 6))
                   for _ in range(3)]
        for v in starts:
            assert exactalg._vector_min_poly(m, v) == reference_vector_min_poly(m, v)
        if n:
            assert exactalg._vector_min_poly(m, starts[0]) == [1]


def _eval_on_matrix(p, m):
    acc = RatMatrix.zeros(m.rows, m.rows)
    for c in reversed(p.coeffs):
        acc = m * acc
        if c:
            acc = acc + RatMatrix.identity(m.rows).scale(c)
    return acc


# ----------------------------------------------------------------------
# one combination, one commutant
# ----------------------------------------------------------------------

def _accumulate(mats, coeffs, rows, cols):
    """The term-by-term loop that RatMatrix.combine replaces, kept as the reference."""
    acc = RatMatrix.zeros(rows, cols)
    for m, c in zip(mats, coeffs):
        if as_fraction(c):
            acc = acc + m.scale(c)
    return acc


def _random_grid(rng, rows, cols):
    num = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
    return RatMatrix(rows, cols, num, rng.randrange(1, 7))


@pytest.mark.parametrize("rows,cols", [(3, 3), (2, 5), (0, 4), (4, 0), (0, 0)])
def test_combine_matches_accumulation(rows, cols):
    rng = random.Random(100 * rows + cols)
    draws = [lambda: rng.randrange(-3, 4),
             lambda: F(rng.randrange(-5, 6), rng.randrange(1, 5)),
             lambda: f"{rng.randrange(-5, 6)}/{rng.randrange(1, 5)}"]
    for _ in range(25):
        mats = [_random_grid(rng, rows, cols) for _ in range(rng.randrange(0, 5))]
        coeffs = [draws[rng.randrange(3)]() for _ in mats]
        assert RatMatrix.combine(mats, coeffs, rows, cols) == _accumulate(mats, coeffs, rows, cols)
        for zeros in ([0] * len(mats), [F(0)] * len(mats), ["0/3"] * len(mats)):
            assert RatMatrix.combine(mats, zeros, rows, cols) == RatMatrix.zeros(rows, cols)


def test_combine_rejects_a_shape_mismatch():
    with pytest.raises(ValueError):
        RatMatrix.combine([RatMatrix.identity(2)], [1], 3, 3)


def _commutant_reference(src, dst):
    """The Kronecker-product construction that commutant_basis replaces."""
    sd, dd = src[0].rows, dst[0].rows
    rows = []
    for s, d in zip(src, dst):
        diff = d.kron(RatMatrix.identity(sd)) - RatMatrix.identity(dd).kron(s.transpose())
        rows.extend(diff.to_fractions())
    kern = RatMatrix.from_rows(rows).kernel_basis()
    return [RatMatrix.from_rows([[v[r * sd + c] for c in range(sd)] for r in range(dd)])
            for v in kern]


def test_commutant_matches_kronecker_reference():
    rng = random.Random(7)
    alg = regular_algebra_from_min_poly(Polynomial([-2, 0, 1]))
    for m_src, m_dst in ((1, 1), (1, 2), (2, 1), (2, 2)):
        src = [RatMatrix.identity(m_src).kron(l) for l in alg.left_mats]
        dst = [RatMatrix.identity(m_dst).kron(l) for l in alg.left_mats]
        while True:
            g = _random_grid(rng, 2 * m_src, 2 * m_src)
            if g.rank() == g.rows:
                break
        src = [g * s * g.inverse() for s in src]
        basis = commutant_basis(src, dst)
        assert basis == _commutant_reference(src, dst)
        assert len(basis) == 2 * m_src * m_dst
        for t in basis:
            assert all(t * s == d * t for s, d in zip(src, dst))


_FIELD_POLYS = [[-2, 0, 1], [1, 0, 1], [-2, 0, 0, 1], [1, 1, 1]]


@pytest.mark.parametrize("coeffs", _FIELD_POLYS + [[3, 0, 0, 0, 2], ["1/2", 0, 1]])
def test_regular_algebra_constants_are_powers_mod_m(coeffs):
    # e_i e_j = t^(i+j) mod m, by Fraction division
    m = FPoly(coeffs).monic()
    alg = regular_algebra_from_min_poly(Polynomial(coeffs))
    constants = alg.constants
    for i in range(m.degree):
        for j in range(m.degree):
            rem = (FPoly([0] * (i + j) + [1]) % m).coeffs
            assert constants[i][j] == rem + [F(0)] * (m.degree - len(rem))
    assert alg.unit == [1] + [0] * (m.degree - 1)


@st.composite
def _conjugated_actions(draw):
    """(src, dst): copies of a number field acting on itself, each conjugated by L . U.

    L and U are unit triangular with small entries, so every conjugator is
    invertible, and the commutant bases can carry denominators above 1.
    """
    alg = regular_algebra_from_min_poly(Polynomial(draw(st.sampled_from(_FIELD_POLYS))))
    out = []
    for _ in range(2):
        m = draw(st.integers(1, 2))
        n = m * alg.dim
        ent = st.integers(-2, 2)
        low = [[1 if i == j else draw(ent) if j < i else 0 for j in range(n)] for i in range(n)]
        up = [[1 if i == j else draw(ent) if j > i else 0 for j in range(n)] for i in range(n)]
        g = RatMatrix(n, n, low) * RatMatrix(n, n, up)
        ginv = g.inverse()
        out.append([g * RatMatrix.identity(m).kron(l) * ginv for l in alg.left_mats])
    return out


@settings(max_examples=60, deadline=None)
@given(_conjugated_actions())
def test_commutant_basis_is_in_reduced_form(actions):
    src, dst = actions
    basis = commutant_basis(src, dst)
    flats = [[F(e, t.den) for r in t.num for e in r] for t in basis]
    for k, flat in enumerate(flats):
        last = max(p for p, e in enumerate(flat) if e)
        assert flat[last] == 1
        assert all(other[last] == 0 for o, other in enumerate(flats) if o != k)


def test_commutant_coords_match_solve():
    rng = random.Random(17)
    alg = regular_algebra_from_min_poly(Polynomial([-2, 0, 0, 1]))
    off_span = 0
    for m_src, m_dst in ((1, 1), (1, 2), (2, 1), (2, 2)):
        while True:
            g = _random_grid(rng, 3 * m_src, 3 * m_src)
            if g.rank() == g.rows:
                break
        src = [g * RatMatrix.identity(m_src).kron(l) * g.inverse() for l in alg.left_mats]
        dst = [RatMatrix.identity(m_dst).kron(l) for l in alg.left_mats]
        basis = commutant_basis(src, dst)
        rows, cols = basis[0].rows, basis[0].cols
        stacked = from_cols([[F(e, t.den) for r in t.num for e in r] for t in basis])
        for _ in range(10):
            maps = [RatMatrix.combine(basis, [F(rng.randrange(-5, 6), rng.randrange(1, 4))
                                              for _ in basis], rows, cols)
                    for _ in range(rng.randrange(1, 4))]
            if rng.random() < 0.5:
                maps.insert(rng.randrange(len(maps) + 1), _random_grid(rng, rows, cols))
            flat = from_cols([[F(e, t.den) for r in t.num for e in r] for t in maps])
            expected = stacked.solve(flat)
            off_span += expected is None
            terms, bden = exactalg._nonzero_entries(basis, rows, cols)
            images = [{p: e for p, e in enumerate(r) if e} for r in zip(*flat.num)]
            coords = exactalg._commutant_coords(terms, bden, cols, images)
            if expected is None:
                assert coords is None
            else:
                grid = [[dict(c).get(k, 0) for c in coords] for k in range(len(terms))]
                assert all(e for c in coords for _, e in c)
                assert RatMatrix(len(terms), flat.cols, grid, flat.den) == expected
    assert off_span >= 5


def test_rank_of_empty_and_zero_matrices(monkeypatch):
    def eliminated_rank(m):
        return len(exactalg._echelon(exactalg._sparse_rows(m.num))[0])

    empty = [RatMatrix.zeros(0, n) for n in range(4)] + [RatMatrix.zeros(n, 0) for n in range(4)]
    zero = [RatMatrix.zeros(r, c) for r, c in ((1, 1), (2, 3), (3, 2))]
    for m in empty + zero:
        assert m.rank() == eliminated_rank(m) == 0
    assert RatMatrix.from_rows([[0, 0], [0, 3]]).rank() == 1

    def no_elimination(*args):
        raise AssertionError("an empty matrix was eliminated")

    monkeypatch.setattr(exactalg, "_sparse_rows", no_elimination)
    assert all(m.rank() == 0 for m in empty)


def _eliminated_null_rows(m):
    """`_null_rows` by elimination and back-substitution, whatever the input."""
    pivots, ech, _, _ = exactalg._echelon(exactalg._sparse_rows(m.num))
    free = sorted(set(range(m.cols)).difference(pivots))
    d, zs = exactalg._back_solve(pivots, ech, free)
    rows = [[0] * m.cols for _ in free]
    for row, f, z in zip(rows, free, zs):
        row[f] = d
        for p, zi in zip(pivots, z):
            row[p] = -zi
    return RatMatrix(len(free), m.cols, rows, d), free


def _eliminated_solve(a, rhs):
    """`RatMatrix.solve` by eliminating [a | rhs], whatever the input."""
    m, k = a.cols, rhs.cols
    aug = [[x * rhs.den for x in ra] + [y * a.den for y in rb] for ra, rb in zip(a.num, rhs.num)]
    pivots, ech, _, _ = exactalg._echelon(exactalg._sparse_rows(aug))
    if pivots and pivots[-1] >= m:
        return None
    d, zs = exactalg._back_solve(pivots, ech, range(m, m + k))
    num = [[0] * k for _ in range(m)]
    for p, row in zip(pivots, zip(*zs)):
        num[p] = list(row)
    return RatMatrix(m, k, num, d)


def test_empty_and_zero_eliminations_match_the_general_path(monkeypatch):
    shapes = [(0, n) for n in range(4)] + [(n, 0) for n in range(1, 4)] + [(1, 1), (2, 3), (3, 2)]
    cases = []
    for r, c in shapes:
        m = RatMatrix.zeros(r, c)
        rhs = [RatMatrix.zeros(r, k) for k in range(3)]
        if r:
            rhs.append(RatMatrix.from_rows([[F(1, 2)] + [0] * (r - 1)]).transpose())
        cases.append((m, rhs))
    expected = [(_eliminated_null_rows(m), [_eliminated_solve(m, b) for b in rhs],
                 exactalg._echelon(exactalg._sparse_rows(m.num))[0])
                for m, rhs in cases]

    def no_elimination(*args):
        raise AssertionError("a matrix with nothing to eliminate was eliminated")

    monkeypatch.setattr(exactalg, "_sparse_rows", no_elimination)
    for (m, rhs), (null, sols, pivots) in zip(cases, expected):
        assert exactalg._null_rows(m) == null
        assert null[1] == list(range(m.cols))
        assert [m.solve(b) for b in rhs] == sols
        assert m.column_space_pivots() == pivots
    assert any(sol is None for _, sols, _ in expected for sol in sols)


@st.composite
def _sparse_augmented(draw):
    """(rows, n, k): sparse integer rows over n coefficient and k augmented
    columns, maybe with a combination of two rows or a zero row appended."""
    n, k = draw(st.integers(1, 7)), draw(st.integers(0, 3))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-5, 5))
    rows = draw(st.lists(st.lists(entry, min_size=n + k, max_size=n + k), max_size=6))
    if len(rows) >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
    if draw(st.booleans()):
        rows.append([0] * (n + k))
    return rows, n, k


@settings(max_examples=300, deadline=None)
@given(_sparse_augmented(), st.randoms(use_true_random=False))
@example(([[1, 2, 3], [2, 4, 6]], 2, 1), random.Random(0))
@example(([[2, 3, 0, 1], [0, 4, 5, 0]], 3, 1), random.Random(0))
def test_back_solve_of_each_target_alone_matches_one_call(system, rng):
    # End bases back-solve one free column at a time: each target solved
    # alone, and one prepared solver answering the targets in any order,
    # must give the rational solution that one call for all gives
    rows, n, k = system
    pivots, ech, _, _ = exactalg._echelon(exactalg._sparse_rows(rows))
    r = sum(p < n for p in pivots)  # the pivots among the coefficient columns
    pivots, ech = pivots[:r], ech[:r]
    targets = sorted(set(range(n)).difference(pivots)) + list(range(n, n + k))
    d, zs = exactalg._back_solve(pivots, ech, targets)
    assert len(zs) == len(targets)
    for t, z in zip(targets, zs):
        d1, (z1,) = exactalg._back_solve(pivots, ech, [t])
        assert [F(x, d1) for x in z1] == [F(x, d) for x in z]
        for row in ech:  # U . z_t = D . column t of the echelon rows
            assert sum(row.get(p, 0) * x for p, x in zip(pivots, z1)) == d1 * row.get(t, 0)
    solve, order = exactalg._back_solver(pivots, ech), list(range(len(targets)))
    rng.shuffle(order)
    for i in order:
        d1, z1 = solve(targets[i])
        assert [F(x, d1) for x in z1] == [F(x, d) for x in zs[i]]


def test_right_terms_are_the_right_multiplications():
    # M_2(Q) in the basis (swap, E_11, E_12, E_22) and Q(sqrt 2) in the basis
    # (2 + sqrt 2, 1): e_0 is not the unit, and the first is not commutative
    swap = subalgebra_on_basis(matrix_algebra(2), RatMatrix.from_rows(
        [[0, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]]))
    sq2 = regular_algebra_from_min_poly(Polynomial([-2, 0, 1]))
    odd = AlgebraSpec([[[4, -2], [1, 0]], [[1, 0], [0, 1]]], [0, 1])
    for alg in (swap, sq2, odd):
        n = alg.dim
        plain = alg.pair_terms(1, 1)
        assert plain == exactalg._nonzero_entries(alg.right_mats, n, n)
        assert alg.pair_terms(1, 1) is plain
    assert odd.right_mats[0] != RatMatrix.identity(2)
