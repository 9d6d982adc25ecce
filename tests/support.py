"""Shared test data and generators: golden worked-example matrices plus
seeded random-matrix builders for the property suites."""

from fractions import Fraction
import random

from hypothesis import strategies as st

from geninv import RMatrix, identity, mat_mul, mat_rank, mat_scale, mat_transpose

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
