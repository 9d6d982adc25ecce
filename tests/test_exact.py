"""Exact scalar/matrix core: arithmetic, rank, inverse, block split/compose."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import support
from geninv import (DimensionMismatch, IndexOutOfRange, RMatrix,
                    SingularMatrix, block_compose, block_extract,
                    format_rational, identity, mat_add, mat_inverse, mat_mul,
                    mat_rank, mat_transpose, parse_rational, partial_identity,
                    zeros)
from support import rand_invertible, rationals, rmatrices


class TestParseRational:
    @pytest.mark.parametrize("text,expected", [
        ("-7/36", Fraction(-7, 36)),
        ("3", Fraction(3)),
        ("0", Fraction(0)),
        ("+5", Fraction(5)),
        ("10/4", Fraction(5, 2)),
    ])
    def test_valid(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["1.5", "1/0", "3/-4", "a", "", "1/2/3", "1e2", "- 1"])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    @given(rationals())
    def test_round_trip(self, x):
        assert parse_rational(format_rational(x)) == x


class TestArithmetic:
    def test_add_entrywise(self):
        a = RMatrix.from_rows([[1, 2]])
        b = RMatrix.from_rows([["1/2", "1/3"]])
        assert mat_add(a, b) == RMatrix.from_rows([["3/2", "7/3"]])

    def test_add_zero_identity(self):
        a = support.EX1
        assert mat_add(a, zeros(3, 3)) == a

    def test_add_shape_check(self):
        with pytest.raises(DimensionMismatch):
            mat_add(RMatrix.from_rows([[1]]), RMatrix.from_rows([[2, 3]]))

    def test_mul_identity(self):
        assert mat_mul(identity(3), support.EX1) == support.EX1

    def test_mul_hand_value(self):
        a = RMatrix.from_rows([[1, 2], [3, 4]])
        b = RMatrix.from_rows([[0], [1]])
        assert mat_mul(a, b) == RMatrix.from_rows([[2], [4]])

    def test_mul_golden_product(self):
        # Q*P for the 3x3 worked example
        assert mat_mul(support.EX1_Q, support.EX1_P) == support.EX1_QP

    def test_mul_shape_check(self):
        with pytest.raises(DimensionMismatch):
            mat_mul(RMatrix.from_rows([[1, 2]]), RMatrix.from_rows([[1, 2]]))

    def test_transpose(self):
        a = RMatrix.from_rows([[1, 2], [3, 4]])
        assert mat_transpose(a) == RMatrix.from_rows([[1, 3], [2, 4]])

    def test_transpose_symmetric_fixed_point(self):
        assert mat_transpose(support.EX3) == support.EX3

    @given(rmatrices())
    def test_transpose_involution(self, a):
        assert mat_transpose(mat_transpose(a)) == a

    def test_float_entries_rejected(self):
        with pytest.raises(TypeError):
            RMatrix.from_rows([[1.5]])


class TestInverse:
    def test_scalar(self):
        assert mat_inverse(RMatrix.from_rows([[6]])) == RMatrix.from_rows([["1/6"]])

    def test_identity(self):
        assert mat_inverse(identity(4)) == identity(4)

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            mat_inverse(RMatrix.from_rows([[1, 2], [2, 4]]))

    def test_non_square(self):
        with pytest.raises(DimensionMismatch):
            mat_inverse(RMatrix.from_rows([[1, 2]]))

    @given(st.integers(1, 5), st.integers(0, 10_000))
    def test_inverse_exact(self, n, seed):
        import random
        a = rand_invertible(random.Random(seed), n)
        assert mat_mul(mat_inverse(a), a) == identity(n)
        assert mat_mul(a, mat_inverse(a)) == identity(n)


class TestRank:
    def test_golden_rank(self):
        assert mat_rank(support.EX1) == 2

    def test_zero(self):
        assert mat_rank(zeros(3, 3)) == 0

    def test_identity(self):
        assert mat_rank(identity(5)) == 5

    @given(rmatrices())
    def test_rank_transpose(self, a):
        assert mat_rank(mat_transpose(a)) == mat_rank(a)


class TestBlocks:
    def test_compose_middle_factor(self):
        # middle factor of the 3x3 pseudoinverse: [[I2, x1], [x2, x3]]
        x1 = RMatrix.from_rows([["1/2"], ["-1/3"]])
        x2 = RMatrix.from_rows([["-1/6", "1/3"]])
        x3 = RMatrix.from_rows([["-7/36"]])
        mid = block_compose(identity(2), x1, x2, x3)
        assert mid == RMatrix.from_rows([
            [1, 0, "1/2"],
            [0, 1, "-1/3"],
            ["-1/6", "1/3", "-7/36"],
        ])

    def test_compose_single_block(self):
        assert block_compose(identity(2), zeros(2, 0), zeros(0, 2), zeros(0, 0)) == identity(2)

    def test_compose_mismatched_heights(self):
        with pytest.raises(DimensionMismatch):
            block_compose(identity(2), zeros(3, 1), zeros(0, 2), zeros(0, 1))

    def test_compose_missing_interior_block(self):
        # the off-diagonal slots of [[I2, x1], [x2, I3]] are 2x3 and 3x2, not empty
        with pytest.raises(DimensionMismatch):
            block_compose(identity(2), zeros(2, 0), zeros(0, 2), identity(3))

    def test_compose_all_absent(self):
        assert block_compose(*(zeros(0, 0),) * 4) == zeros(0, 0)

    def test_extract_golden_gram_blocks(self):
        qq = mat_mul(support.EX1_Q, mat_transpose(support.EX1_Q))
        s1, s2, s3, s4 = block_extract(qq, 2)
        assert s2 == RMatrix.from_rows([[-3], [2]])
        assert s4 == RMatrix.from_rows([[6]])
        assert s3 == mat_transpose(s2)

    def test_extract_full_split(self):
        a = support.EX1
        assert block_extract(a, 3) == (a, zeros(3, 0), zeros(0, 3), zeros(0, 0))

    def test_extract_zero_split(self):
        a = support.EX1
        assert block_extract(a, 0) == (zeros(0, 0), zeros(0, 3), zeros(3, 0), a)

    def test_extract_golden_group_blocks(self):
        qp = mat_mul(support.EX3_Q, support.EX3_P)
        _, _, _, v4 = block_extract(qp, 2)
        assert v4 == RMatrix.from_rows([[6, -3, -3], [-3, 3, 2], [-3, 2, 3]])

    def test_extract_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            block_extract(support.EX1, 4)
        with pytest.raises(IndexOutOfRange):
            block_extract(support.EX1, -1)

    @given(rmatrices(), st.data())
    def test_extract_compose_round_trip(self, a, data):
        r = data.draw(st.integers(0, min(a.rows, a.cols)))
        blocks = block_extract(a, r)
        assert block_compose(*blocks) == a
        # and composing then splitting again recovers the same blocks
        assert block_extract(block_compose(*blocks), r) == blocks


class TestZeroSize:
    def test_mul_empty_inner_dimension(self):
        assert mat_mul(zeros(3, 0), zeros(0, 2)) == zeros(3, 2)

    def test_mul_empty_outer_dimensions(self):
        assert mat_mul(zeros(0, 3), support.EX1) == zeros(0, 3)
        assert mat_mul(support.EX1, zeros(3, 0)) == zeros(3, 0)

    def test_transpose_keeps_shape(self):
        assert mat_transpose(zeros(0, 3)) == zeros(3, 0)
        assert mat_transpose(zeros(3, 0)) == zeros(0, 3)

    @pytest.mark.parametrize("a", [support.EX1, RMatrix.from_rows([[1, 2, 0, 5], [3, 4, 1, 0]])])
    def test_extract_compose_every_split(self, a):
        for r in range(min(a.rows, a.cols) + 1):
            assert block_compose(*block_extract(a, r)) == a

    def test_str(self):
        assert str(zeros(0, 3)) == ""
        assert str(zeros(0, 0)) == ""
        assert str(zeros(2, 0)) == "\n"

    def test_from_rows_stays_at_least_1x1(self):
        with pytest.raises(ValueError):
            RMatrix.from_rows([])
        with pytest.raises(ValueError):
            RMatrix.from_rows([[]])

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            RMatrix(-1, 0, ())


class TestExactness:
    @given(st.data())
    def test_mul_associative(self, data):
        m = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(1, 4))
        l = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 4))
        import random
        rng = random.Random(data.draw(st.integers(0, 10_000)))
        a = support.rand_matrix(rng, m, k)
        b = support.rand_matrix(rng, k, l)
        c = support.rand_matrix(rng, l, n)
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))

    @given(rmatrices(), rmatrices())
    def test_canonical_entries(self, a, b):
        # every operation leaves entries coprime with positive denominator
        if a.shape == b.shape:
            results = [mat_add(a, b)]
        elif a.cols == b.rows:
            results = [mat_mul(a, b)]
        else:
            results = [mat_transpose(a)]
        for res in results:
            for row in res.entries:
                for v in row:
                    assert v.denominator > 0
                    assert gcd(abs(v.numerator), v.denominator) == 1

    def test_partial_identity(self):
        e = partial_identity(3, 4, 2)
        assert e == RMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]])
