"""Full-rank reduction: Q*A*P = E_r with regular P, Q."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import support
from geninv import (FactoredMatrix, InvalidFactorization, RMatrix, factor_with,
                    full_rank_reduce, identity, mat_inverse, mat_mul,
                    partial_identity, verify_factorization, zeros)
from support import rmatrices, second_reduction, with_permutations


def test_reduce_golden_matrix():
    f = full_rank_reduce(support.EX1)
    assert (f.p, f.q, f.r) == (support.EX1_P, support.EX1_Q, 2)
    assert verify_factorization(f)
    assert mat_mul(mat_mul(f.q, f.a), f.p) == partial_identity(3, 3, 2)


def test_reduce_zero_matrix():
    f = full_rank_reduce(zeros(3, 4))
    assert f.r == 0
    assert verify_factorization(f)


def test_reduce_identity():
    f = full_rank_reduce(identity(4))
    assert f.r == 4
    assert verify_factorization(f)
    # Q*A*P = I with A = I forces P*Q = I
    assert mat_mul(f.p, f.q) == identity(4)


def test_golden_factors_verify():
    f = factor_with(support.EX1, support.EX1_P, support.EX1_Q)
    assert f.r == 2
    assert verify_factorization(f)


def test_golden_5x5_factors_verify():
    f = factor_with(support.EX3, support.EX3_P, support.EX3_Q)
    assert f.r == 2
    assert verify_factorization(f)


def test_identity_factors_rejected_for_general_matrix():
    f = FactoredMatrix(a=support.EX1, p=identity(3), q=identity(3), r=2)
    assert not verify_factorization(f)


def test_factor_with_singular_p():
    p = RMatrix.from_rows([[1, 1, 0], [2, 2, 0], [0, 0, 1]])  # repeated column
    with pytest.raises(InvalidFactorization):
        factor_with(support.EX1, p, support.EX1_Q)


def test_factor_with_wrong_product():
    with pytest.raises(InvalidFactorization):
        factor_with(support.EX1, identity(3), identity(3))


def test_factor_with_wrong_shape():
    with pytest.raises(InvalidFactorization):
        factor_with(support.EX1, identity(2), support.EX1_Q)


def test_reduce_500_random_matrices():
    rng = random.Random(20260809)
    for _ in range(500):
        a = support.rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        f = full_rank_reduce(a)
        assert verify_factorization(f)


@given(with_permutations(rmatrices()))
def test_policies_agree_on_rank(drawn):
    # the pivot order of permuted rows and columns reaches the same rank
    a, rows, cols = drawn
    assert second_reduction(a, rows, cols).r == full_rank_reduce(a).r


@given(with_permutations(rmatrices()))
def test_both_policies_verify(drawn):
    # the library's pivot order and that of permuted rows and columns
    a, rows, cols = drawn
    assert verify_factorization(full_rank_reduce(a))
    assert verify_factorization(second_reduction(a, rows, cols))


@given(rmatrices())
def test_rank_invariant_under_transpose(a):
    from geninv import mat_transpose
    assert full_rank_reduce(mat_transpose(a)).r == full_rank_reduce(a).r


def test_factors_are_regular():
    f = full_rank_reduce(support.EX3)
    assert mat_mul(f.p, mat_inverse(f.p)) == identity(5)
    assert mat_mul(f.q, mat_inverse(f.q)) == identity(5)


def test_reduction_is_over_the_pivot_minor():
    # Q = [[U^-1, 0], [-D*U^-1, I]]*Pr and P = Pc*[[I, -U^-1*B], [0, I]] with
    # U = A[I,J] = N/d for N the integer numerators there: every entry of P and
    # Q is over det(N)
    rng = random.Random(20261021)
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        k = rng.randint(1, min(m, n))
        a = mat_mul(support.rand_matrix(rng, m, k), support.rand_matrix(rng, k, n))
        f = full_rank_reduce(a)
        _, order, cols, r = support.ref_reduced_echelon(a)
        det = support.ref_det([[a._nums[i * n + j] for j in cols[:r]] for i in order[:r]])
        assert r == f.r and det.denominator == 1 and det != 0
        assert det.numerator % f.p._den == 0 and det.numerator % f.q._den == 0
