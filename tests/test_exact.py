"""Exact scalar/matrix core: arithmetic, rank, inverse, block split/compose."""

import copy
import pickle
import random
import sys
from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import support
from geninv import (DimensionMismatch, IndexOutOfRange, ParseError, RMatrix,
                    SingularMatrix, block_compose, block_extract, exact,
                    full_rank_reduce, identity, mat_add, mat_inverse,
                    mat_mul, mat_pow, mat_rank, mat_scale, mat_sub, mat_transpose,
                    partial_identity, zeros)
from geninv.cli import parse_matrix_text, write_matrix
from support import rand_invertible, rationals, rmatrices

LIMIT = sys.get_int_max_str_digits()
OVER_LIMIT = pytest.mark.skipif(LIMIT == 0, reason="no int-to-text limit")


def with_entry(text):
    """MatrixFile text of one row, ``1 text 2``; text starts at column 3."""
    return f"1 3\n1 {text} 2\n"


# (text, error, column) with text in place of the middle entry of with_entry
INVALID_ENTRIES = [
    *[(t, f"invalid rational token {t!r}", 3)
      for t in ("1.5", "3/-4", "a", "1/2/3", "1e2", "/3", "3/", "\u0663")],
    ("1/0", "zero denominator in '1/0'", 3),
    ("0/00", "zero denominator in '0/00'", 3),
    # not one token: the row is an entry short, or one long
    ("", "expected 3 entries, found 2", 1),
    ("- 1", "expected 3 entries, found 4", 1),
]


class TestParseRational:
    """The grammar of one MatrixFile entry, as ``parse_matrix_text`` reads it."""

    @pytest.mark.parametrize("text,expected", [
        ("-7/36", Fraction(-7, 36)),
        ("3", Fraction(3)),
        ("0", Fraction(0)),
        ("+5", Fraction(5)),
        ("10/4", Fraction(5, 2)),
        ("-0", Fraction(0)),
        ("+0/7", Fraction(0)),
        ("0005/0010", Fraction(1, 2)),
    ])
    def test_valid(self, text, expected):
        assert parse_matrix_text(with_entry(text)) == RMatrix.from_rows([[1, expected, 2]])

    @pytest.mark.parametrize("text,error,column", [
        pytest.param(*case, id=case[0]) for case in INVALID_ENTRIES] + [
        pytest.param(text, f"entry has more than {LIMIT} digits", 3, id=name, marks=OVER_LIMIT)
        for name, text in [("long-numerator", "-" + "7" * (LIMIT + 1)),
                           ("long-denominator", "1/" + "0" * LIMIT + "7")]])
    def test_invalid(self, text, error, column):
        with pytest.raises(ParseError) as err:
            parse_matrix_text(with_entry(text))
        assert (err.value.message, err.value.line, err.value.column) == (error, 2, column)

    @given(rationals())
    def test_round_trip(self, x):
        text = write_matrix(RMatrix.from_rows([[x]]))
        assert text == f"1 1\n{x}\n" and parse_matrix_text(text)[0, 0] == x


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

    def test_float_scalar_rejected(self):
        # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
        with pytest.raises(TypeError, match="float entries are not exact"):
            mat_scale(support.EX1, 0.1)


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


def drawn_grid(draw, rows, cols):
    """A rows x cols matrix of drawn small rationals."""
    return RMatrix(rows, cols, tuple(tuple(draw(st.lists(rationals(), min_size=cols,
                                                         max_size=cols)))
                                     for _ in range(rows)))


@st.composite
def outer_triples(draw):
    """(B, A, W) for B n x r, A m x n and W r x m of rational entries with
    W*A*B regular, so B and W are of rank r: B square (r = n), W square
    (r = m), both or neither, by the draw; r = 0 included."""
    square = draw(st.sampled_from(("b", "w", "both", "neither")))
    r = draw(st.integers(0, 3))
    n = r if square in ("b", "both") else r + draw(st.integers(1, 2))
    m = r if square in ("w", "both") else r + draw(st.integers(1, 2))
    b, a, w = drawn_grid(draw, n, r), drawn_grid(draw, m, n), drawn_grid(draw, r, m)
    assume(support.ref_rank(mat_mul(mat_mul(w, a), b)) == r)
    return b, a, w


class TestOuter:
    @given(outer_triples())
    def test_equals_the_outer_inverse(self, triple):
        # each shape's branch against B*(W*A*B)^-1*W formed with the Fraction inverse
        b, a, w = triple
        want = mat_mul(mat_mul(b, support.ref_inverse(mat_mul(mat_mul(w, a), b))), w)
        assert exact._outer(b, a, w) == want


class TestPower:
    @pytest.mark.parametrize("a", [support.EX1, support.NILPOTENT_2, zeros(2, 2),
                                   RMatrix.from_rows([["1/2", -3], [2, "5/3"]])])
    def test_repeated_products_without_identity(self, a, monkeypatch):
        products = []
        real_mul = exact.mat_mul
        monkeypatch.setattr(exact, "mat_mul", lambda x, y: products.append(y) or real_mul(x, y))
        expected = identity(a.rows)
        for k in range(5):
            products.clear()
            assert mat_pow(a, k) == expected
            assert len(products) == max(k - 1, 0)
            expected = real_mul(expected, a)

    def test_rejects_negative_and_non_square(self):
        with pytest.raises(ValueError):
            mat_pow(identity(2), -1)
        with pytest.raises(DimensionMismatch):
            mat_pow(zeros(2, 3), 2)


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


@st.composite
def rank_products(draw):
    """L*R of an m x k and a k x n rational factor, 0..5 per side: rank at most k."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    k = draw(st.integers(0, min(m, n)))
    return mat_mul(drawn_grid(draw, m, k), drawn_grid(draw, k, n))


def assert_skeleton(a):
    """C and R are A's columns at J and its rows at I, for the pivots I = order[:r]
    and J = cols[:r] of A's elimination; |I| = |J| = rank(A), A[I,J] is regular and
    C*A[I,J]^-1*R == A, the rank and the inverse taken from the Fraction oracles."""
    c, r = exact._skeleton(a)
    rank, _, order, cols = exact._echelon([list(row) for row in exact._rows(a)], a.cols)
    pivot_rows, pivot_cols, grid = order[:rank], cols[:rank], a.entries
    assert c == RMatrix(a.rows, rank, tuple(tuple(row[j] for j in pivot_cols) for row in grid))
    assert r == RMatrix(rank, a.cols, tuple(grid[i] for i in pivot_rows))
    assert len(set(pivot_rows)) == len(set(pivot_cols)) == rank == mat_rank(a)
    assert rank == support.ref_rank(a)
    u = RMatrix(rank, rank, tuple(tuple(grid[i][j] for j in pivot_cols) for i in pivot_rows))
    assert mat_mul(mat_mul(c, support.ref_inverse(u)), r) == a  # SingularMatrix if u is not


def rational_rows(*rows):
    return RMatrix.from_rows([[Fraction(v) for v in row.split()] for row in rows])


def assert_pivots_are_leading_minors(a):
    """Pivot t of the elimination of A's grid of numerators is that grid's
    leading (t+1)x(t+1) minor with its rows and columns in the elimination's
    order, by the Fraction determinant: the elimination is integer-preserving
    (Bareiss)."""
    nums = exact._rows(a)
    rank, rows, order, cols = exact._echelon([list(row) for row in nums], a.cols)
    assert rank == support.ref_rank(a)
    for t in range(rank):
        minor = [[nums[i][j] for j in cols[:t + 1]] for i in order[:t + 1]]
        assert rows[t][t] == support.ref_det(minor)


SKELETON_INPUTS = [
    zeros(0, 3), zeros(3, 0), zeros(0, 0), zeros(3, 4),
    rational_rows("0 1/2 0 3", "2/3 0 -1 5/7"),  # full row rank, wide
    rational_rows("0 0", "0 -3/2", "1/3 0", "4 5"),  # full column rank, tall
    rational_rows("0 0 0", "1/2 -1 3", "1 -2 6", "0 1/3 1", "1/2 -2/3 4"),  # tall, rank 2
    rational_rows("0 0 1/2 1 0", "0 0 1 2 0", "0 3/4 0 0 -1"),  # wide, rank 2
    rational_rows("5/6 -1/4", "-5/3 1/2"),  # square, rank 1
]


class TestSkeleton:
    @pytest.mark.parametrize("a", SKELETON_INPUTS, ids=lambda a: f"{a.rows}x{a.cols}")
    def test_named_inputs(self, a):
        assert_skeleton(a)

    @given(rank_products())
    def test_products(self, a):
        assert_skeleton(a)

    @given(support.wide_rmatrices())
    def test_wide_entries(self, a):
        assert_skeleton(a)

    @pytest.mark.parametrize("a", SKELETON_INPUTS, ids=lambda a: f"{a.rows}x{a.cols}")
    def test_named_pivots_are_leading_minors(self, a):
        assert_pivots_are_leading_minors(a)

    @given(rank_products())
    def test_product_pivots_are_leading_minors(self, a):
        assert_pivots_are_leading_minors(a)


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

    def test_compose_values_of_independent_blocks(self):
        # four blocks of every height and width 0-3, each over its own wide denominator
        rng = random.Random(31)
        dens = ((1 << 61) - 1, 10 ** 18 + 9, 3 ** 40, 7 ** 23)

        def block(rows, cols, den):
            return RMatrix(rows, cols, tuple(tuple(Fraction(rng.randint(-(1 << 80), 1 << 80), den)
                                                   for _ in range(cols)) for _ in range(rows)))

        for top, bottom, left, right in product(range(4), repeat=4):
            x0, x1, x2, x3 = (block(rows, cols, den) for (rows, cols), den in
                              zip(product((top, bottom), (left, right)), dens))
            want = tuple(a + b for a, b in chain(zip(x0.entries, x1.entries),
                                                 zip(x2.entries, x3.entries)))
            got = block_compose(x0, x1, x2, x3)
            assert got.shape == (top + bottom, left + right)
            assert got.entries == want

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
        # the shape is checked before partial_identity's rank
        for build, shape in ((lambda: zeros(-1, 2), "-1x2"), (lambda: identity(-1), "-1x-1"),
                             (lambda: partial_identity(-1, 2, 0), "-1x2")):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == f"matrix dimensions must be >= 0, got {shape}"


# integers of 1 to 400 bits, either sign or zero, and positive denominators
WIDE_INTS = st.integers(1, 400).flatmap(lambda b: st.integers(1 - (1 << b), (1 << b) - 1))
DENOMINATORS = st.integers(1, 400).flatmap(lambda b: st.integers(1, (1 << b) - 1))
WIDE_FRACTIONS = st.one_of(st.just(Fraction(0)), st.builds(Fraction, WIDE_INTS, DENOMINATORS))


@st.composite
def product_operands(draw):
    """A (m x k) and B (k x n), every side 0..5, with wide entries, sometimes an
    A row over one shared denominator, an all-zero A row or an all-zero B column."""
    m, k, n = (draw(st.integers(0, 5)) for _ in range(3))
    a = [[draw(WIDE_FRACTIONS) for _ in range(k)] for _ in range(m)]
    b = [[draw(WIDE_FRACTIONS) for _ in range(n)] for _ in range(k)]
    if m and draw(st.booleans()):
        d = draw(DENOMINATORS)
        a[draw(st.integers(0, m - 1))] = [Fraction(draw(WIDE_INTS), d) for _ in range(k)]
    if m and draw(st.booleans()):
        a[draw(st.integers(0, m - 1))] = [Fraction(0)] * k
    if n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in b:
            row[j] = Fraction(0)
    return RMatrix(m, k, tuple(map(tuple, a))), RMatrix(k, n, tuple(map(tuple, b)))


def assert_textbook_product(product, a, b):
    """product(a, b) has entries sum_t a[i, t] * b[t, j], each a canonical Fraction."""
    want = tuple(tuple(sum((a[i, t] * b[t, j] for t in range(a.cols)), Fraction(0))
                       for j in range(b.cols)) for i in range(a.rows))
    got = product(a, b)
    assert got.shape == (a.rows, b.cols)
    assert got.entries == want
    for v in chain.from_iterable(got.entries):
        assert type(v) is Fraction
        assert v.denominator > 0 and gcd(v.numerator, v.denominator) == 1


class TestTextbookProduct:
    @given(product_operands())
    def test_mul_equals_definition(self, operands):
        assert_textbook_product(mat_mul, *operands)

    def test_definition_catches_a_misscaled_product(self):
        # over the lcm of the denominators, but numerators left unscaled
        def misscaled(a, b):
            def over_lcm(v):
                return [x.numerator for x in v], lcm(*(x.denominator for x in v))
            cols = [over_lcm(col) for col in zip(*b.entries)]
            return RMatrix(a.rows, b.cols, tuple(
                tuple(Fraction(sum(x * y for x, y in zip(ra, cb)), da * db) for cb, db in cols)
                for ra, da in map(over_lcm, a.entries)))

        a = RMatrix.from_rows([["1/2", "1/3"]])
        b = RMatrix.from_rows([[1], [1]])
        assert_textbook_product(mat_mul, a, b)
        with pytest.raises(AssertionError):
            assert_textbook_product(misscaled, a, b)


@st.composite
def solve_operands(draw):
    """(M, W): M an n x n product L*R of an n x k and a k x n factor with wide
    entries, singular when k < n, and W n x p, for n, p = 0..4."""
    n, p = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    k = draw(st.integers(0, n))

    def grid(rows, cols):
        return RMatrix(rows, cols, tuple(tuple(draw(WIDE_FRACTIONS) for _ in range(cols))
                                         for _ in range(rows)))

    return mat_mul(grid(n, k), grid(k, n)), grid(n, p)


def bumped(m, i, j, by):
    """m with by added to its entry (i, j)."""
    return RMatrix(m.rows, m.cols, tuple(tuple(v + by if (r, c) == (i, j) else v
                                               for c, v in enumerate(row))
                                         for r, row in enumerate(m.entries)))


class TestSolve:
    @given(solve_operands())
    def test_equals_inverse_times_w(self, operands):
        m, w = operands
        if support.ref_rank(m) < m.rows:
            with pytest.raises(SingularMatrix,
                               match=f"^matrix of size {m.rows} has rank below {m.rows}$"):
                exact._solve(m, w)
        else:
            assert exact._solve(m, w) == mat_mul(mat_inverse(m), w)

    @pytest.mark.parametrize("m, w", [
        (zeros(0, 0), zeros(0, 0)), (zeros(0, 0), zeros(0, 3)),
        (RMatrix.from_rows([[2, 1], [1, 1]]), zeros(2, 0)),
        (RMatrix.from_rows([["1/2", 1], [3, "-1/3"]]), RMatrix.from_rows([[1, "1/5", 0]] * 2)),
    ], ids=["0x0", "0x0 by 0x3", "0-width W", "rational"])
    def test_named_regular(self, m, w):
        assert exact._solve(m, w) == mat_mul(support.ref_inverse(m), w)

    @pytest.mark.parametrize("w", [zeros(2, 0), identity(2), RMatrix.from_rows([[1], [2]])],
                             ids=lambda w: f"{w.rows}x{w.cols}")
    def test_singular_is_refused_as_by_mat_inverse(self, w):
        m = RMatrix.from_rows([[1, 2], [2, 4]])
        with pytest.raises(SingularMatrix) as by_inverse:
            mat_inverse(m)
        with pytest.raises(SingularMatrix, match=f"^{by_inverse.value}$"):
            exact._solve(m, w)


class TestInPlaceComparisons:
    @given(product_operands(), st.sampled_from(("product", "bumped", "other denominator")),
           st.data())
    def test_product_is_agrees_with_mul(self, operands, kind, data):
        a, b = operands
        c = product = mat_mul(a, b)
        if kind != "product" and product.rows * product.cols:
            i = data.draw(st.integers(0, product.rows - 1))
            j = data.draw(st.integers(0, product.cols - 1))
            c = bumped(product, i, j,
                       1 if kind == "bumped" else Fraction(1, data.draw(DENOMINATORS)))
        assert exact._product_is(a, b, c) == (product == c)

    @pytest.mark.parametrize("a, b", [
        (zeros(0, 3), zeros(3, 2)), (zeros(2, 3), zeros(3, 0)),
        (zeros(2, 0), zeros(0, 3)), (zeros(0, 0), zeros(0, 0)),
    ], ids=lambda m: f"{m.rows}x{m.cols}")
    def test_product_is_on_empty_shapes(self, a, b):
        assert exact._product_is(a, b, zeros(a.rows, b.cols))
        if a.rows and b.cols:  # the inner dimension is 0: A*B is zero
            assert not exact._product_is(a, b, partial_identity(a.rows, b.cols, 1))

    def test_product_is_catches_a_scaled_product(self):
        # the same numerators over another denominator are another matrix
        a, b = RMatrix.from_rows([["1/2", 1], [1, 3]]), RMatrix.from_rows([[1, "1/3"], [2, 1]])
        product = mat_mul(a, b)
        for s in (2, Fraction(1, 2), Fraction(3, 7), -1):
            assert not exact._product_is(a, b, mat_scale(product, s))
        assert exact._product_is(a, b, product)
        # 1/3 against 1/2: the numerators agree once C's are scaled by 3 // 2
        one = RMatrix.from_rows([[1]])
        assert not exact._product_is(RMatrix.from_rows([["1/3"]]), one,
                                     RMatrix.from_rows([["1/2"]]))

    @given(st.integers(0, 5), st.integers(0, 5), st.sampled_from(("random", "gram", "bumped")),
           st.data())
    def test_symmetry_agrees_with_transpose(self, n, k, kind, data):
        a = RMatrix(n, k, tuple(tuple(data.draw(WIDE_FRACTIONS) for _ in range(k))
                                for _ in range(n)))
        b = RMatrix(k, n, tuple(tuple(data.draw(WIDE_FRACTIONS) for _ in range(n))
                                for _ in range(k)))
        if kind != "random":
            b = mat_transpose(a)  # A*At is symmetric
            if kind == "bumped" and n * k:
                b = bumped(b, data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, n - 1)),
                           data.draw(WIDE_FRACTIONS))
        product = mat_mul(a, b)
        symmetric = mat_transpose(product) == product
        assert exact._product_is_symmetric(a, b) == symmetric
        assert exact._is_symmetric(product) == symmetric
        if kind == "gram":
            assert symmetric

    @pytest.mark.parametrize("m, symmetric", [
        (zeros(0, 0), True), (RMatrix.from_rows([[5]]), True),
        (RMatrix.from_rows([[1, "1/2"], ["1/2", 3]]), True),
        (RMatrix.from_rows([[1, "1/2"], ["1/3", 3]]), False),
        (RMatrix.from_rows([[1, 2, 3], [2, 4, 5], [3, 5, 6]]), True),
        (RMatrix.from_rows([[1, 2, 3], [2, 4, 5], [3, 6, 6]]), False),
        (RMatrix.from_rows([[1, 2, 4], [2, 4, 5], [3, 5, 6]]), False),
    ], ids=lambda v: f"{v.rows}x{v.cols}" if isinstance(v, RMatrix) else str(v))
    def test_is_symmetric_named(self, m, symmetric):
        assert exact._is_symmetric(m) == (mat_transpose(m) == m) == symmetric


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


class TestMatrixProtocol:
    """RMatrix's operators, copies and errors, as a caller meets them."""

    A = RMatrix.from_rows([[1, "1/2"], [-3, 4]])
    B = RMatrix.from_rows([["2/3", 0], [5, -1]])

    def test_operators_are_the_kernels(self):
        a, b = self.A, self.B
        assert a - b == mat_sub(a, b) == RMatrix.from_rows([["1/3", "1/2"], [-8, 5]])
        assert a @ b == mat_mul(a, b) == RMatrix.from_rows([["19/6", "-1/2"], [18, -4]])
        assert a * 2 == 2 * a == mat_scale(a, 2) == RMatrix.from_rows([[2, 1], [-6, 8]])
        assert Fraction(1, 2) * a == a * Fraction(1, 2) == mat_scale(a, Fraction(1, 2))

    @pytest.mark.parametrize("other", [1, Fraction(1, 2), [[1, 0], [0, 1]], "2", None])
    def test_non_matrix_operands_are_not_implemented(self, other):
        a = self.A
        for method in (a.__add__, a.__sub__, a.__matmul__):
            assert method(other) is NotImplemented
        with pytest.raises(TypeError):
            a - other
        with pytest.raises(TypeError):
            a @ other
        assert (a == other) is False

    @pytest.mark.parametrize("other", [[[1, 0], [0, 1]], "2", 1.5, None])
    def test_non_scalar_factors_are_not_implemented(self, other):
        assert self.A.__mul__(other) is NotImplemented
        assert self.A.__rmul__(other) is NotImplemented

    @pytest.mark.parametrize("a", [A, zeros(0, 3), zeros(2, 0), support.EX1_Q])
    def test_copy_and_pickle_round_trip(self, a):
        for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(twin) is RMatrix and twin == a and hash(twin) == hash(a)
            assert (twin.shape, twin._nums, twin._den) == (a.shape, a._nums, a._den)

    @pytest.mark.parametrize("name", ["rows", "cols", "_nums", "_den", "other"])
    def test_immutable(self, name):
        a = self.A
        with pytest.raises(AttributeError) as refused:
            setattr(a, name, 0)
        assert str(refused.value) == f"RMatrix is immutable: cannot set {name!r}"
        assert a == RMatrix.from_rows([[1, "1/2"], [-3, 4]])

    def test_constructor_shape_and_type_errors(self):
        one = Fraction(1)
        for rows, cols, entries in ((2, 1, ((one,),)), (1, 2, ((one,),)),
                                    (1, 1, ((one, one),)), (0, 1, ((one,),))):
            with pytest.raises(ValueError) as mismatch:
                RMatrix(rows, cols, entries)
            assert str(mismatch.value) == "entry grid does not match the declared shape"
        with pytest.raises(TypeError) as not_fraction:
            RMatrix(1, 2, ((one, 1),))
        assert str(not_fraction.value) == "entries must be Fraction, got int"
        assert RMatrix(1, 2, ((one, Fraction(1, 2)),)) == RMatrix.from_rows([[1, "1/2"]])

    def test_from_rows_ragged_rows(self):
        for rows in ([[1, 2], [3]], [[1], [2, 3]]):
            with pytest.raises(ValueError) as ragged:
                RMatrix.from_rows(rows)
            assert str(ragged.value) == "entry grid does not match the declared shape"

    def test_partial_identity_rank_range(self):
        for r in (-1, 3):
            with pytest.raises(ValueError) as outside:
                partial_identity(2, 3, r)
            assert str(outside.value) == f"rank {r} outside 0..2"

    def test_mat_sub_shape_check(self):
        with pytest.raises(DimensionMismatch) as mismatch:
            mat_sub(RMatrix.from_rows([[1]]), RMatrix.from_rows([[2, 3]]))
        assert str(mismatch.value) == "cannot subtract 1x2 from 1x1"
        with pytest.raises(DimensionMismatch):
            self.A - RMatrix.from_rows([[1, 2]])


class TestFromRowsText:
    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError) as from_rows:
            RMatrix.from_rows([["1/0"]])
        assert str(from_rows.value) == "zero denominator in '1/0'"

    @pytest.mark.parametrize("rows", [["12", "34"], "12", [b"12"], b"12", [[1, 2], "34"],
                                      ["1"], "", [bytearray(b"12")],
                                      [{"1/2", "3", "-5"}], [frozenset((1, 2))], [{1: 2}],
                                      {0: [1]}, {(1,)}, [{1: 2}.keys()]])
    def test_text_rows_are_refused(self, rows):
        # iterated, text or bytes would be split into characters or byte values,
        # a set would be read in hash order and a mapping as its keys
        with pytest.raises(TypeError):
            RMatrix.from_rows(rows)

    def test_text_entries_ints_and_fractions_are_kept(self):
        a = RMatrix.from_rows([["-7/36", 3, Fraction(1, 2)], ("12", "0", -1)])
        assert a.entries == ((Fraction(-7, 36), Fraction(3), Fraction(1, 2)),
                             (Fraction(12), Fraction(0), Fraction(-1)))

    def test_text_that_fraction_reads_keeps_its_value(self):
        a = RMatrix.from_rows([["1.5", " 2 ", "-7/36", "1e2", "10/4"]])
        assert a.entries == ((Fraction(3, 2), Fraction(2), Fraction(-7, 36), Fraction(100),
                              Fraction(5, 2)),)


# entries of up to 200 bits over mixed denominators, small ones and zeros
BIG_ENTRIES = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
                        st.builds(Fraction, st.integers(-(1 << 200), 1 << 200),
                                  st.integers(1, 1 << 200)))


@st.composite
def grids(draw, rows, cols):
    """A rows x cols matrix: wide entries, all zero, or every entry over one denominator."""
    kind = draw(st.sampled_from(("wide", "zero", "one denominator")))
    if kind == "zero":
        return zeros(rows, cols)
    d = draw(st.integers(1, 1 << 200))
    entry = BIG_ENTRIES if kind == "wide" else st.integers(-(1 << 200), 1 << 200).map(
        lambda x: Fraction(x, d))
    return RMatrix(rows, cols, tuple(tuple(draw(entry) for _ in range(cols))
                                     for _ in range(rows)))


def assert_canonical(m):
    """den > 0, gcd(den, *nums) == 1, and the Fraction view rebuilds an equal matrix."""
    assert type(m._nums) is tuple and len(m._nums) == m.rows * m.cols
    assert all(type(x) is int for x in m._nums) and type(m._den) is int
    assert m._den > 0 and gcd(m._den, *m._nums) == 1
    again = RMatrix(m.rows, m.cols, m.entries)
    assert again == m and hash(again) == hash(m)


class TestCanonicalForm:
    @given(st.data())
    def test_every_kernel_result_is_canonical(self, data):
        m, k, n = (data.draw(st.integers(0, 4)) for _ in range(3))
        a, b, c = data.draw(grids(m, k)), data.draw(grids(k, n)), data.draw(grids(m, k))
        r = data.draw(st.integers(0, min(m, k)))
        s = data.draw(st.sampled_from((0, -1, 3, Fraction(-5, 1 << 100))))
        results = [a, mat_mul(a, b), mat_add(a, c), mat_sub(a, c), mat_sub(a, a),
                   mat_scale(a, s), -a, mat_transpose(a), *block_extract(a, r),
                   block_compose(*block_extract(a, r)), block_compose(a, c, a, c),
                   zeros(m, k), identity(m), partial_identity(m, k, r),
                   mat_pow(data.draw(grids(m, m)), data.draw(st.integers(0, 3)))]
        sq = data.draw(grids(m, m))
        if mat_rank(sq) == m:
            results.append(mat_inverse(sq))
        f = full_rank_reduce(a)
        g = support.second_reduction(a)
        results += [f.p, f.q, g.p, g.q]
        for x in results:
            assert_canonical(x)
        # equal exactly when shape and Fraction view are equal, with equal hashes
        for x in results:
            for y in results:
                same = (x.shape, x.entries) == (y.shape, y.entries)
                assert (x == y) == same
                assert not same or hash(x) == hash(y)

    @given(st.data())
    def test_equal_values_built_two_ways_are_equal(self, data):
        m, n = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
        a = data.draw(grids(m, n))
        r = data.draw(st.integers(0, min(m, n)))
        for same in (mat_mul(a, identity(n)), mat_add(a, zeros(m, n)),
                     mat_scale(mat_scale(a, Fraction(1 << 150, 3)), Fraction(3, 1 << 150)),
                     mat_transpose(mat_transpose(a)), block_compose(*block_extract(a, r)),
                     mat_sub(mat_scale(a, 2), a)):
            assert same == a and hash(same) == hash(a) and same.entries == a.entries

    def test_zero_size_matrices_are_over_one(self):
        for a in (zeros(0, 0), zeros(0, 3), zeros(3, 0), RMatrix(2, 0, ((), ())),
                  mat_mul(zeros(2, 0), zeros(0, 3)), mat_scale(zeros(3, 0), Fraction(1, 7))):
            assert_canonical(a)
        assert zeros(0, 3) != zeros(0, 2) and zeros(3, 0) != zeros(2, 0)


class TestGetItem:
    @given(st.data())
    def test_reads_the_entry_with_tuple_indexing(self, data):
        m, n = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
        a = data.draw(grids(m, n))
        for i in range(-m, m):
            for j in range(-n, n):
                assert a[i, j] == a.entries[i][j]
                assert type(a[i, j]) is Fraction
        for i, j in ((m, 0), (-m - 1, 0), (0, n), (0, -n - 1), (m, n)):
            with pytest.raises(IndexError):
                a[i, j]

    @pytest.mark.parametrize("a", [zeros(0, 0), zeros(0, 3), zeros(3, 0)])
    def test_zero_size_has_no_entry(self, a):
        for i, j in ((0, 0), (-1, -1), (0, 2), (2, 0)):
            with pytest.raises(IndexError):
                a[i, j]


class TestText:
    """``str``, ``repr`` and the MatrixFile writer render each entry as ``str``
    renders its ``Fraction``; the reference below builds them from ``entries``."""

    @given(st.data())
    def test_text_is_fraction_str(self, data):
        m, n = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
        a = data.draw(grids(m, n))
        cells = [[str(v) for v in row] for row in a.entries]
        widths = [max((len(row[j]) for row in cells), default=0) for j in range(n)]
        assert str(a) == "\n".join("  ".join(c.rjust(w) for c, w in zip(row, widths))
                                   for row in cells)
        body = " ".join("[" + " ".join(row) + "]" for row in cells)
        assert repr(a) == f"RMatrix({m}x{n} {body})"
        assert write_matrix(a) == "\n".join([f"{m} {n}"] + [" ".join(row) for row in cells]) + "\n"

    @pytest.mark.parametrize("a,text,shown", [
        (zeros(0, 0), "", "RMatrix(0x0 )"), (zeros(0, 3), "", "RMatrix(0x3 )"),
        (zeros(3, 0), "\n\n", "RMatrix(3x0 [] [] [])"),
    ], ids=["0x0", "0x3", "3x0"])
    def test_zero_size_text(self, a, text, shown):
        assert (str(a), repr(a)) == (text, shown)
