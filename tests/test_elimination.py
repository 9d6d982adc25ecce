"""Rank, inverse and the full-rank reduction share one integer elimination;
each must equal a plain Fraction loop from tests/support.py exactly: the
same rank, the same inverse, the same P and Q under both pivot policies."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import support
from geninv import (PIVOT_POLICIES, RMatrix, SingularMatrix, full_rank_reduce, identity,
                    mat_inverse, mat_mul, mat_rank, zeros)

BIG = 1 << 200


def entries():
    small = st.builds(Fraction, st.integers(-5, 5), st.sampled_from((1, 2, 3)))
    big = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
    return st.one_of(st.just(Fraction(0)), small, big)


@st.composite
def matrices(draw, square=False):
    """0..5 per side; plain, with repeated rows, or a product of rank k."""
    m = draw(st.integers(0, 5))
    n = m if square else draw(st.integers(0, 5))

    def grid(rows, cols):
        return RMatrix(rows, cols, tuple(tuple(draw(st.lists(entries(), min_size=cols,
                                                             max_size=cols)))
                                         for _ in range(rows)))

    kind = draw(st.sampled_from(("plain", "repeated", "product")))
    if kind == "plain" or m == 0:
        return grid(m, n)
    if kind == "repeated":
        base = grid(draw(st.integers(1, m)), n).entries
        return RMatrix(m, n, tuple(draw(st.sampled_from(base)) for _ in range(m)))
    k = draw(st.integers(0, min(m, n)))
    return mat_mul(grid(m, k), grid(k, n))


def assert_matches_reference(a):
    for policy in PIVOT_POLICIES:
        f = full_rank_reduce(a, policy)
        assert (f.p, f.q, f.r) == support.ref_full_rank_reduce(a, policy)
    assert mat_rank(a) == support.ref_rank(a)
    if a.is_square:
        try:
            expected = support.ref_inverse(a)
        except SingularMatrix as e:
            with pytest.raises(SingularMatrix) as got:
                mat_inverse(a)
            assert str(got.value) == str(e)
        else:
            assert mat_inverse(a) == expected


@given(matrices())
def test_matches_reference(a):
    assert_matches_reference(a)


@given(matrices(square=True))
def test_square_matches_reference(a):
    assert_matches_reference(a)


def test_singular_input_raises():
    for a in (zeros(3, 3), support.EX1, RMatrix.from_rows([[1, 2], [2, 4]])):
        with pytest.raises(SingularMatrix, match=f"matrix of size {a.rows} has rank below"):
            mat_inverse(a)


def big_rows(rng, m, n):
    return [[Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG)) for _ in range(n)]
            for _ in range(m)]


@pytest.mark.parametrize("a", [
    zeros(0, 0), zeros(0, 3), zeros(3, 0), zeros(1, 0), zeros(0, 1),
    zeros(2, 4), zeros(4, 4),
    identity(1), identity(4),
    support.EX1, support.EX3, support.NILPOTENT_2,
    RMatrix.from_rows([[1, 2, 3]] * 4),
    RMatrix.from_rows([[0, 0, 1], [0, 0, 1], [0, 2, 0], [0, 2, 0]]),
    RMatrix.from_rows(big_rows(random.Random(1), 4, 4)),
    RMatrix.from_rows(big_rows(random.Random(2), 3, 5)),
    RMatrix.from_rows(big_rows(random.Random(3), 5, 2) * 2),
], ids=lambda a: f"{a.rows}x{a.cols}")
def test_named_shapes_match_reference(a):
    assert_matches_reference(a)


def test_seeded_corpus_matches_reference():
    rng = random.Random(20261018)
    for _ in range(200):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        k = rng.randint(0, min(m, n))
        a = mat_mul(support.rand_matrix(rng, m, k) if k else zeros(m, 0),
                    support.rand_matrix(rng, k, n) if k else zeros(0, n))
        assert_matches_reference(a)
