"""Shared test data and generators: golden worked-example matrices plus
seeded random-matrix builders for the property suites."""

from fractions import Fraction
import random

from hypothesis import strategies as st

from geninv import (DimensionMismatch, FactoredMatrix, MinimalPolynomial, RMatrix,
                    SingularMatrix, compute_star_blocks, drazin_inverse, factor_with,
                    full_rank_reduce, g12_inverse, identity, mat_inverse, mat_mul, mat_rank,
                    mat_scale, mat_transpose)
from geninv.penrose import PenroseReport, _labels
from geninv.square import _index_and_skeleton

# 3x3 rank-2 matrix used by the first two worked examples.
EX1 = RMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
EX1_PINV = RMatrix.from_rows([
    ["-23/36", "-1/6", "11/36"],
    ["-1/18", 0, "1/18"],
    ["19/36", "1/6", "-7/36"],
])
EX1_P = RMatrix.from_rows([[1, 0, 1], [0, 1, -2], [0, 0, 1]])
EX1_Q = RMatrix.from_rows([["-5/3", "2/3", 0], ["4/3", "-1/3", 0], [1, -2, 1]])
EX1_QP = RMatrix.from_rows([["-5/3", "2/3", -3], ["4/3", "-1/3", 2], [1, -2, 6]])

# 5x5 symmetric singular (EP) matrix of the third worked example.
EX3 = RMatrix.from_rows([
    [1, 1, 1, 0, 0],
    [1, 2, 0, 1, 1],
    [1, 0, 2, -1, -1],
    [0, 1, -1, 1, 1],
    [0, 1, -1, 1, 1],
])
EX3_PINV = RMatrix.from_rows([
    ["1/9", "1/9", "1/9", 0, 0],
    ["1/9", "25/144", "7/144", "1/16", "1/16"],
    ["1/9", "7/144", "25/144", "-1/16", "-1/16"],
    [0, "1/16", "-1/16", "1/16", "1/16"],
    [0, "1/16", "-1/16", "1/16", "1/16"],
])
EX3_P = RMatrix.from_rows([
    [1, 0, -2, 1, 1],
    [0, 1, 1, -1, -1],
    [0, 0, 1, 0, 0],
    [0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1],
])
EX3_Q = RMatrix.from_rows([
    [2, -1, 0, 0, 0],
    [-1, 1, 0, 0, 0],
    [-2, 1, 1, 0, 0],
    [1, -1, 0, 1, 0],
    [1, -1, 0, 0, 1],
])
EX3_QP = RMatrix.from_rows([
    [2, -1, -5, 3, 3],
    [-1, 1, 3, -2, -2],
    [-2, 1, 6, -3, -3],
    [1, -1, -3, 3, 2],
    [1, -1, -3, 2, 3],
])

NILPOTENT_2 = RMatrix.from_rows([[0, 1], [0, 0]])


def drazin_onecheck(a: RMatrix) -> bool:
    """Whether A*A^D*A = A; this holds exactly when the index is at most 1."""
    return mat_mul(mat_mul(a, drazin_inverse(a)), a) == a


def rand_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))


def rand_matrix(rng: random.Random, m: int, n: int) -> RMatrix:
    return RMatrix.from_rows([[rand_rational(rng) for _ in range(n)] for _ in range(m)])


def rand_corpus(seed: int, count: int, max_dim: int = 6) -> list[RMatrix]:
    rng = random.Random(seed)
    return [rand_matrix(rng, rng.randint(1, max_dim), rng.randint(1, max_dim))
            for _ in range(count)]


def rand_square_corpus(seed: int, count: int, max_dim: int = 5) -> list[RMatrix]:
    rng = random.Random(seed)
    return [rand_matrix(rng, n, n) for n in
            (rng.randint(1, max_dim) for _ in range(count))]


def rand_invertible(rng: random.Random, n: int) -> RMatrix:
    while True:
        a = rand_matrix(rng, n, n)
        if mat_rank(a) == n:
            return a


def rand_nilpotent(rng: random.Random, n: int) -> RMatrix:
    rows = [[rand_rational(rng) if j > i else Fraction(0) for j in range(n)]
            for i in range(n)]
    return RMatrix.from_rows(rows)


def rand_index_one_singular(rng: random.Random, n: int) -> RMatrix:
    """S * diag(J, 0) * S^-1 with regular J of size r < n: singular, index 1."""
    from geninv import block_compose, mat_inverse, zeros

    r = rng.randint(1, n - 1)
    j = rand_invertible(rng, r)
    s = rand_invertible(rng, n)
    core = block_compose(j, zeros(r, n - r), zeros(n - r, r), zeros(n - r, n - r))
    return mat_mul(mat_mul(s, core), mat_inverse(s))


def nilpotent_jordan(k: int) -> RMatrix:
    """The k x k nilpotent Jordan block (ones above the diagonal), index k."""
    return RMatrix(k, k, tuple(tuple(Fraction(j == i + 1) for j in range(k)) for i in range(k)))


def rand_with_index(rng: random.Random, k: int, m: int) -> RMatrix:
    """S * diag(N_k, M) * S^-1 with regular M of size m >= 1: index exactly k."""
    from geninv import block_compose, mat_inverse, zeros

    core = block_compose(nilpotent_jordan(k), zeros(k, m), zeros(m, k), rand_invertible(rng, m))
    s = rand_invertible(rng, k + m)
    return mat_mul(mat_mul(s, core), mat_inverse(s))


def rand_symmetric_singular(rng: random.Random, n: int) -> RMatrix:
    """Gt*G for a (n-1) x n factor G: symmetric with rank below n."""
    g = rand_matrix(rng, n - 1, n)
    return mat_mul(mat_transpose(g), g)


def rand_idempotent(rng: random.Random, r: int) -> RMatrix:
    """A rank-one idempotent u*vt/(vt*u), or zero/identity for variety."""
    roll = rng.random()
    if roll < 0.2:
        return mat_scale(identity(r), 0)
    if roll < 0.4:
        return identity(r)
    while True:
        u = rand_matrix(rng, r, 1)
        v = rand_matrix(rng, r, 1)
        dot = mat_mul(mat_transpose(v), u)[0, 0]
        if dot:
            return mat_scale(mat_mul(u, mat_transpose(v)), Fraction(1, 1) / dot)


# A second reduction. Q*A*P = E_r does not fix P and Q, and what is unique
# (the Moore-Penrose inverse, the regularity of Gram and Q*P blocks) must come
# out the same from any valid pair.

def permutation(order) -> RMatrix:
    """The permutation matrix whose row i is row order[i] of the identity."""
    n = len(order)
    return RMatrix(n, n, tuple(tuple(Fraction(j == k) for j in range(n)) for k in order))


def second_reduction(a: RMatrix, rows=None, cols=None) -> FactoredMatrix:
    """A reduction of A other than ``full_rank_reduce(a)``, in general.

    Pr*A*Pc lists A's rows in the order ``rows`` and its columns in the order
    ``cols`` (both reversed by default). Its reduction Q'*(Pr*A*Pc)*P' = E_r
    gives the pair (Pc*P', Q'*Pr) for A, which ``factor_with`` checks."""
    pr = permutation(range(a.rows - 1, -1, -1) if rows is None else rows)
    pc = mat_transpose(permutation(range(a.cols - 1, -1, -1) if cols is None else cols))
    f = full_rank_reduce(mat_mul(mat_mul(pr, a), pc))
    return factor_with(a, mat_mul(pc, f.p), mat_mul(f.q, pr))


def pseudoinverse_on(f: FactoredMatrix) -> RMatrix:
    """The paper's Moore-Penrose block formula on the reduction f:
    P*[[I, X1], [X2, X2*X1]]*Q with X1 = -S2*S4^-1 and X2 = -T4^-1*T3."""
    (_, s2, _, s4), (_, _, t3, t4) = compute_star_blocks(f)
    return g12_inverse(f, -mat_mul(s2, mat_inverse(s4)), -mat_mul(mat_inverse(t4), t3))


def ref_check(a: RMatrix, x: RMatrix) -> PenroseReport:
    """``check`` with every product formed: A*X and X*A both, the first two
    equations through the smaller of them as ``mat_mul`` products, each
    symmetry against a ``mat_transpose`` and the sixth equation as R*(X*A)
    for the pivot rows R of A^k, R = I at index 0. The oracle for the
    in-place comparisons of ``check``."""
    if x.shape != (a.cols, a.rows):
        raise DimensionMismatch(
            f"candidate must be {a.cols}x{a.rows} for a {a.rows}x{a.cols} matrix, "
            f"got {x.rows}x{x.cols}")
    ax = mat_mul(a, x)
    xa = mat_mul(x, a)
    if a.rows > a.cols:  # X*A is the smaller product: n x n against m x m
        eq1 = mat_mul(a, xa) == a
        eq2 = mat_mul(xa, x) == x
    else:
        eq1 = mat_mul(ax, a) == a
        eq2 = mat_mul(x, ax) == x
    eq3 = mat_transpose(ax) == ax
    eq4 = mat_transpose(xa) == xa
    if a.is_square:
        eq5 = ax == xa
        _, (_, r) = _index_and_skeleton(a)
        eq6 = mat_mul(r, xa) == r
    else:
        eq5 = eq6 = None
    return PenroseReport(eq1, eq2, eq3, eq4, eq5, eq6, _labels(eq1, eq2, eq3, eq4, eq5, eq6))


# Reference eliminations: plain Fraction loops that share no code with the
# library's integer elimination kernel.

def ref_rank(a: RMatrix) -> int:
    """Rank by forward elimination, column by column."""
    grid = [list(row) for row in a.entries]
    m, n = a.rows, a.cols
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if grid[i][col]), None)
        if piv is None:
            continue
        grid[rank], grid[piv] = grid[piv], grid[rank]
        prow = grid[rank]
        pv = prow[col]
        for i in range(rank + 1, m):
            f = grid[i][col]
            if f:
                ratio = f / pv
                grid[i] = [v - ratio * w for v, w in zip(grid[i], prow)]
        rank += 1
        if rank == m:
            break
    return rank


def ref_inverse(a: RMatrix) -> RMatrix:
    """Inverse by Gauss-Jordan elimination with first-nonzero pivoting."""
    n = a.rows
    aug = [list(row) + [Fraction(i == j) for j in range(n)]
           for i, row in enumerate(a.entries)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            raise SingularMatrix(f"matrix of size {n} has rank below {n}")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [v * inv_p for v in aug[col]]
        prow = aug[col]
        for i in range(n):
            f = aug[i][col]
            if f and i != col:
                aug[i] = [v - f * w for v, w in zip(aug[i], prow)]
    return RMatrix(n, n, tuple(tuple(r[n:]) for r in aug))


def ref_reduced_echelon(a: RMatrix):
    """(rows, order, cols, r): the reduced row echelon form of [A | I_m], A of
    rank r. Each pivot is the first nonzero entry left in A's part, row-major;
    its row and column are swapped into place t, where order[t] and cols[t]
    name the input row and column now at t. The pivot row is scaled to a unit
    pivot, then every other row is cleared at the pivot's column."""
    m, n = a.rows, a.cols
    b = [list(row) + [Fraction(i == j) for j in range(m)] for i, row in enumerate(a.entries)]
    order, cols = list(range(m)), list(range(n))
    t = 0
    while t < min(m, n):
        found = next(((i, j) for i in range(t, m) for j in range(t, n) if b[i][j]), None)
        if found is None:
            break
        pi, pj = found
        b[t], b[pi] = b[pi], b[t]
        order[t], order[pi] = order[pi], order[t]
        cols[t], cols[pj] = cols[pj], cols[t]
        for row in b:
            row[t], row[pj] = row[pj], row[t]
        inv_piv = 1 / b[t][t]
        b[t] = [v * inv_piv for v in b[t]]
        for i in range(m):
            f = b[i][t]
            if f and i != t:
                b[i] = [v - f * w for v, w in zip(b[i], b[t])]
        t += 1
    return b, order, cols, t


def ref_full_rank_reduce(a: RMatrix) -> tuple[RMatrix, RMatrix, int]:
    """(P, Q, r) from the reduced row echelon form of [A | I_m]: Q is its right
    half, and row cols[t] of P is row t of [[I, -U^-1*B], [0, I]], which is the
    unit row t with, for a pivot row t < r, its columns r..n-1 negated."""
    m, n = a.rows, a.cols
    b, _, cols, r = ref_reduced_echelon(a)
    p = [None] * n
    for t in range(n):
        row = [Fraction(j == t) for j in range(n)]
        if t < r:
            row[r:] = [-v for v in b[t][r:n]]
        p[cols[t]] = row
    return (RMatrix(n, n, tuple(tuple(row) for row in p)),
            RMatrix(m, m, tuple(tuple(row[n:]) for row in b)), r)


def ref_det(grid) -> Fraction:
    """The determinant of a square grid by Fraction elimination; 1 for 0x0."""
    g = [[Fraction(v) for v in row] for row in grid]
    det = Fraction(1)
    for t in range(len(g)):
        piv = next((i for i in range(t, len(g)) if g[i][t]), None)
        if piv is None:
            return Fraction(0)
        if piv != t:
            g[t], g[piv] = g[piv], g[t]
            det = -det
        det *= g[t][t]
        for i in range(t + 1, len(g)):
            f = g[i][t] / g[t][t]
            g[i] = [v - f * w for v, w in zip(g[i], g[t])]
    return det


def ref_minimal_polynomial(a: RMatrix) -> MinimalPolynomial:
    """The first linear dependence among the flattened powers I, A, A^2, ...,
    each power reduced against the earlier ones in Fraction arithmetic, with
    its combination of lower powers kept alongside."""
    n = a.rows
    power = identity(n)
    basis = []  # (pivot position, reduced power vector, combination over lower powers)
    degree = 0
    while True:
        vec = [v for row in power.entries for v in row]
        combo = [Fraction(0)] * degree + [Fraction(1)]
        for pivot, bvec, bcombo in basis:
            c = vec[pivot]
            if c:
                f = c / bvec[pivot]
                vec = [v - f * w for v, w in zip(vec, bvec)]
                for idx, w in enumerate(bcombo):
                    combo[idx] -= f * w
        pivot = next((j for j, v in enumerate(vec) if v), None)
        if pivot is None:
            return MinimalPolynomial(tuple(combo))
        if degree == n:
            raise AssertionError("powers up to A^n are linearly independent")
        basis.append((pivot, vec, combo))
        degree += 1
        power = mat_mul(power, a)


# hypothesis strategies

def rationals() -> st.SearchStrategy[Fraction]:
    return st.builds(Fraction, st.integers(-5, 5), st.sampled_from((1, 2, 3)))


@st.composite
def rmatrices(draw, min_dim: int = 1, max_dim: int = 5, square: bool = False):
    m = draw(st.integers(min_dim, max_dim))
    n = m if square else draw(st.integers(min_dim, max_dim))
    grid = draw(st.lists(st.lists(rationals(), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return RMatrix.from_rows(grid)


WIDE = 1 << 64


@st.composite
def wide_rmatrices(draw, square: bool = False):
    """Integer numerators up to 2^64 in size over one common denominator, 1 or
    up to 2^32, 0..5 per side: plain, with repeated rows, or a product L*R of
    rank at most k whose integer factors, up to 2^30 in size, keep its entries
    below 2^63."""
    m = draw(st.integers(0, 5))
    n = m if square else draw(st.integers(0, 5))
    den = draw(st.one_of(st.just(1), st.integers(1, 1 << 32)))

    def ints(rows, cols, bound):
        entry = st.one_of(st.just(0), st.integers(-bound, bound))
        return [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]

    kind = draw(st.sampled_from(("plain", "repeated", "product")))
    if kind == "plain" or m == 0:
        grid = ints(m, n, WIDE)
    elif kind == "repeated":
        base = ints(draw(st.integers(1, m)), n, WIDE)
        grid = [draw(st.sampled_from(base)) for _ in range(m)]
    else:
        k = draw(st.integers(0, min(m, n)))
        left, right = ints(m, k, 1 << 30), ints(k, n, 1 << 30)
        grid = [[sum(left[i][s] * right[s][j] for s in range(k)) for j in range(n)]
                for i in range(m)]
    return RMatrix(m, n, tuple(tuple(Fraction(x, den) for x in row) for row in grid))


@st.composite
def with_permutations(draw, matrices):
    """(A, rows, cols): a matrix drawn from ``matrices`` with an order of its
    rows and one of its columns, for ``second_reduction``."""
    a = draw(matrices)
    return a, draw(st.permutations(range(a.rows))), draw(st.permutations(range(a.cols)))
