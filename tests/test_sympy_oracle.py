"""Differential tests against sympy, an oracle that shares no code with geninv.

sympy is a test-only dependency: these tests are skipped where it is absent.
"""

import random
from collections import Counter

import pytest

sympy = pytest.importorskip("sympy")

from geninv import (IndexTooLarge, RMatrix, drazin_inverse, group_inverse_block,  # noqa: E402
                    group_inverse_poly, index_of, is_ep, mat_mul, mat_rank,
                    minimal_polynomial, moore_penrose)
from support import (rand_index_one_singular, rand_matrix, rand_nilpotent,  # noqa: E402
                     rand_symmetric_singular, rand_with_index)

X = sympy.Symbol("x")


def to_sympy(a: RMatrix):
    return sympy.Matrix(a.rows, a.cols, [sympy.Rational(v.numerator, v.denominator)
                                         for row in a.entries for v in row])


def rand_low_rank(rng: random.Random, m: int, n: int) -> RMatrix:
    r = rng.randint(1, min(m, n))
    return mat_mul(rand_matrix(rng, m, r), rand_matrix(rng, r, n))


def corpus(seed: int, square: bool) -> list[RMatrix]:
    rng = random.Random(seed)
    mats = []
    for _ in range(12):
        m = rng.randint(1, 5)
        n = m if square else rng.randint(1, 5)
        mats += [rand_matrix(rng, m, n), rand_low_rank(rng, m, n)]
    if square:
        mats += [rand_nilpotent(rng, n) for n in (2, 3, 5)]
        mats += [rand_with_index(rng, k, m) for k in (1, 2, 3) for m in (1, 2)]
    return mats


def sympy_index(s) -> int:
    """Smallest k with rank(A^k) = rank(A^(k+1)), by sympy's own rank."""
    k, prev, power = 0, s.rows, s
    while power.rank() != prev:
        k, prev, power = k + 1, power.rank(), power * s
    return k


@pytest.mark.parametrize("seed", [1, 2])
def test_rank_and_pinv_match_sympy(seed):
    for a in corpus(seed, square=False):
        s = to_sympy(a)
        assert mat_rank(a) == s.rank()
        assert to_sympy(moore_penrose(a)) == s.pinv()


@pytest.mark.parametrize("seed", [3, 4])
def test_drazin_matches_pinv_formula(seed):
    # A^D = A^k * (A^(2k+1))^+ * A^k at k = index of A
    for a in corpus(seed, square=True):
        s = to_sympy(a)
        k = sympy_index(s)
        assert index_of(a) == k
        ak = s ** k
        assert to_sympy(drazin_inverse(a)) == ak * (s ** (2 * k + 1)).pinv() * ak


@pytest.mark.parametrize("seed", [5, 6])
def test_minimal_polynomial_divides_charpoly(seed):
    for a in corpus(seed, square=True):
        coeffs = minimal_polynomial(a).coeffs
        mu = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], X)
        charpoly = to_sympy(a).charpoly(X)
        assert charpoly.rem(mu).is_zero
        # and mu has every eigenvalue: the characteristic polynomial divides mu^n
        assert (mu ** a.rows).rem(charpoly).is_zero
        assert (mu.eval(0) == 0) == (to_sympy(a).det() == 0)


@pytest.mark.parametrize("seed", [7, 8])
def test_group_inverse_and_ep_match_sympy(seed):
    # A^# = A * (A^3)^+ * A when the index is at most 1; EP means A*A^+ = A^+*A
    rng = random.Random(seed)
    mats = corpus(seed, square=True)
    mats += [rand_index_one_singular(rng, n) for n in (2, 3, 4)]
    mats += [rand_symmetric_singular(rng, n) for n in (2, 3, 4)]
    seen = Counter()
    for a in mats:
        s = to_sympy(a)
        if sympy_index(s) <= 1:
            expected = s * (s ** 3).pinv() * s
            assert to_sympy(group_inverse_poly(a)) == expected
            assert to_sympy(group_inverse_block(a)) == expected
        else:
            for route in (group_inverse_poly, group_inverse_block):
                with pytest.raises(IndexTooLarge):
                    route(a)
        sp = s.pinv()
        ep = s * sp == sp * s
        assert is_ep(a) == ep
        seen[sympy_index(s) <= 1, ep] += 1
    assert set(seen) == {(True, True), (True, False), (False, False)}
