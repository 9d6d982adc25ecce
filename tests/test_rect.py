"""Block constructions: each inverse family satisfies exactly its equations."""

import random
from itertools import product

import pytest
from hypothesis import given

import support
from geninv import (DimensionMismatch, FactoredMatrix, NotIdempotent, RMatrix, block_compose,
                    block_extract, check, compute_star_blocks, factor_with, full_rank_reduce,
                    g1_inverse, g12_inverse, g123_inverse, g124_inverse,
                    g13_inverse, g134_inverse, g14_inverse, g2_inverse,
                    group_blocks, group_inverse_block, identity, index_of,
                    mat_inverse, mat_mul, mat_rank, mat_transpose,
                    moore_penrose, validate_g2_blocks, validate_g3_blocks,
                    validate_g4_blocks, zeros)
from support import (caller_reductions, pseudoinverse_on, rand_idempotent,
                     rand_index_one_singular, rand_invertible, rand_matrix, rmatrices,
                     second_reduction, with_permutations)


def golden_factors():
    return factor_with(support.EX1, support.EX1_P, support.EX1_Q)


def eq1_holds(a, x):
    return mat_mul(mat_mul(a, x), a) == a


def eq2_holds(a, x):
    return mat_mul(mat_mul(x, a), x) == x


def eq3_holds(a, x):
    ax = mat_mul(a, x)
    return mat_transpose(ax) == ax


def eq4_holds(a, x):
    xa = mat_mul(x, a)
    return mat_transpose(xa) == xa


def round_trip_factors(rng):
    """The library's and a second reduction of rank-deficient L*R products;
    every block slot of a split at r is non-empty."""
    for m, n, r in ((3, 4, 2), (4, 3, 1), (3, 3, 2), (5, 4, 3), (4, 5, 2)):
        a = mat_mul(rand_matrix(rng, m, r), rand_matrix(rng, r, n))
        for f in (full_rank_reduce(a), second_reduction(a)):
            assert 0 < f.r < min(m, n)
            yield f


def middle_blocks(f, x):
    """block_extract(P^-1*X*Q^-1, r): the blocks (x0, x1, x2, x3) of X."""
    return block_extract(mat_mul(mat_mul(mat_inverse(f.p), x), mat_inverse(f.q)), f.r)


def assembled(f, b):
    """P*[[b0, b1], [b2, b3]]*Q, the candidate X with blocks b."""
    return mat_mul(mat_mul(f.p, block_compose(*b)), f.q)


def validated(validate, eq, f, b):
    """validate(f, b), asserted to agree with check's equation eq on the assembled X."""
    holds = validate(f, b)
    assert holds == getattr(check(f.a, assembled(f, b)), eq)
    return holds


def perturbed(block):
    """The block with 1 added to its top-left entry."""
    return RMatrix.from_rows([[v + (i == j == 0) for j, v in enumerate(row)]
                              for i, row in enumerate(block.entries)])


class TestStarBlocks:
    def test_golden_values(self):
        (_, s2, _, s4), (_, _, t3, t4) = compute_star_blocks(golden_factors())
        assert s2 == RMatrix.from_rows([[-3], [2]])
        assert s4 == RMatrix.from_rows([[6]])
        assert t3 == RMatrix.from_rows([[1, -2]])
        assert t4 == RMatrix.from_rows([[6]])

    def test_golden_product(self):
        # (T4^-1*T3)(S2*S4^-1) = [-7/36]
        (_, s2, _, s4), (_, _, t3, t4) = compute_star_blocks(golden_factors())
        left = mat_mul(mat_inverse(t4), t3)
        right = mat_mul(s2, mat_inverse(s4))
        assert mat_mul(left, right) == RMatrix.from_rows([["-7/36"]])

    def test_identity_factors(self):
        e2 = RMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        f = factor_with(e2, identity(3), identity(3))
        (_, s2, _, _), (_, _, t3, _) = compute_star_blocks(f)
        assert s2 == zeros(2, 1)
        assert t3 == zeros(1, 2)

    @given(with_permutations(rmatrices()))
    def test_symmetry_invariants(self, drawn):
        # exact arithmetic guarantees these for every reduction; no call
        # checks them itself
        a, rows, cols = drawn
        for f in (full_rank_reduce(a), second_reduction(a, rows, cols)):
            for b1, b2, b3, b4 in compute_star_blocks(f):
                assert mat_transpose(b1) == b1
                assert mat_transpose(b2) == b3
                assert mat_transpose(b4) == b4
                assert mat_rank(b4) == b4.rows


class TestG1:
    def test_zero_blocks(self):
        f = golden_factors()
        x = g1_inverse(f)
        assert eq1_holds(f.a, x)

    def test_regular_square_all_absent(self):
        a = RMatrix.from_rows([[2, 1], [1, 1]])
        f = full_rank_reduce(a)
        assert g1_inverse(f) == mat_inverse(a)

    def test_random_free_blocks(self):
        f = golden_factors()
        rng = random.Random(11)
        for _ in range(100):
            x = g1_inverse(f,
                           x1=rand_matrix(rng, 2, 1),
                           x2=rand_matrix(rng, 1, 2),
                           x3=rand_matrix(rng, 1, 1))
            assert eq1_holds(f.a, x)

    def test_rank_zero_returns_zero(self):
        f = full_rank_reduce(zeros(2, 3))
        assert g1_inverse(f) == zeros(3, 2)

    def test_bad_block_shape(self):
        with pytest.raises(DimensionMismatch):
            g1_inverse(golden_factors(), x1=zeros(1, 1))


class TestRankZero:
    def test_supplied_x3_is_honoured(self):
        # at r = 0 the whole middle factor is the free block X3, so X = P*x3*Q
        rng = random.Random(20)
        a = zeros(2, 3)
        f = factor_with(a, rand_invertible(rng, 3), rand_invertible(rng, 2))
        x3 = rand_matrix(rng, 3, 2)
        want = mat_mul(mat_mul(f.p, x3), f.q)
        assert want != zeros(3, 2)
        for construct, equations in ((g1_inverse, ()),
                                     (g13_inverse, (eq3_holds,)),
                                     (g14_inverse, (eq4_holds,)),
                                     (g134_inverse, (eq3_holds, eq4_holds))):
            x = construct(f, x3=x3)
            assert x == want
            assert eq1_holds(a, x)
            for holds in equations:
                assert holds(a, x)

    def test_forced_x3_is_zero(self):
        f = full_rank_reduce(zeros(3, 2))
        for construct in (g12_inverse, g123_inverse, g124_inverse, g2_inverse):
            assert construct(f) == zeros(2, 3)
        assert moore_penrose(f.a) == zeros(2, 3)


class TestG2:
    def test_zero_core(self):
        f = golden_factors()
        x = g2_inverse(f, x0=zeros(2, 2))
        assert x == zeros(3, 3)
        assert eq2_holds(f.a, x)

    def test_identity_core(self):
        f = golden_factors()
        x = g2_inverse(f, x0=identity(2))
        assert eq2_holds(f.a, x)

    def test_not_idempotent(self):
        with pytest.raises(NotIdempotent):
            g2_inverse(golden_factors(), x0=RMatrix.from_rows([[1, 1], [1, 1]]))

    def test_random_draws(self):
        f = golden_factors()
        rng = random.Random(12)
        for _ in range(100):
            x = g2_inverse(f,
                           x0=rand_idempotent(rng, 2),
                           fblk=rand_matrix(rng, 2, 1),
                           gblk=rand_matrix(rng, 1, 2))
            assert eq2_holds(f.a, x)


class TestValidateG2:
    def test_identity_blocks(self):
        f = golden_factors()
        b = (identity(2), zeros(2, 1), zeros(1, 2), zeros(1, 1))
        assert validated(validate_g2_blocks, "eq2", f, b)

    def test_wrong_corner(self):
        f = golden_factors()
        b = (identity(2), zeros(2, 1), zeros(1, 2), RMatrix.from_rows([[1]]))
        assert not validated(validate_g2_blocks, "eq2", f, b)

    def test_generator_round_trip(self):
        rng = random.Random(13)
        for f in round_trip_factors(rng):
            for _ in range(10):
                x = g2_inverse(f,
                               x0=rand_idempotent(rng, f.r),
                               fblk=rand_matrix(rng, f.r, f.m - f.r),
                               gblk=rand_matrix(rng, f.n - f.r, f.r))
                x0, x1, x2, x3 = middle_blocks(f, x)
                assert validated(validate_g2_blocks, "eq2", f, (x0, x1, x2, x3))
                assert not validated(validate_g2_blocks, "eq2", f, (x0, x1, x2, perturbed(x3)))


class TestG12:
    def test_zero_blocks(self):
        f = golden_factors()
        x = g12_inverse(f)
        assert eq1_holds(f.a, x) and eq2_holds(f.a, x)

    def test_full_row_rank(self):
        a = RMatrix.from_rows([[1, 0, 0], [0, 1, 0]])
        f = full_rank_reduce(a)
        assert f.r == 2
        x = g12_inverse(f, x2=rand_matrix(random.Random(1), 1, 2))
        assert eq1_holds(a, x) and eq2_holds(a, x)

    def test_regular_square(self):
        a = RMatrix.from_rows([[1, 2], [3, 4]])
        assert g12_inverse(full_rank_reduce(a)) == mat_inverse(a)

    def test_rank_is_r(self):
        f = golden_factors()
        rng = random.Random(14)
        for _ in range(25):
            x = g12_inverse(f, x1=rand_matrix(rng, 2, 1), x2=rand_matrix(rng, 1, 2))
            assert mat_rank(x) == f.r


class TestDuality:
    """X is a {1,4}-inverse of A exactly when Xt is a {1,3}-inverse of At,
    whose reduction is Pt*At*Qt = E_r: on every kind of reduction, with and
    without blocks, the {1,4} side equals the transposed {1,3} side of
    FactoredMatrix(At, Qt, Pt, r), x1 and x2 trading places."""

    def test_the_14_side_is_the_transposed_13_side(self):
        rng = random.Random(31)
        seen = set()

        def free(rows, cols):
            return rand_matrix(rng, rows, cols) if rows and cols else zeros(rows, cols)

        # rank 0, m = r, n = r, both, and in between
        for m, n, r in ((3, 4, 0), (4, 3, 0), (2, 4, 2), (4, 2, 2), (3, 3, 3), (3, 4, 2),
                        (4, 3, 1), (5, 4, 3)):
            a = mat_mul(rand_matrix(rng, m, r), rand_matrix(rng, r, n)) if r else zeros(m, n)
            base = full_rank_reduce(a)
            for f in (base, second_reduction(a), *caller_reductions(rng, base)):
                t = FactoredMatrix(mat_transpose(f.a), mat_transpose(f.q), mat_transpose(f.p),
                                   f.r)
                x1, x3 = free(r, m - r), free(n - r, m - r)
                x1t, x3t = mat_transpose(x1), mat_transpose(x3)
                assert g14_inverse(f) == mat_transpose(g13_inverse(t))
                assert g14_inverse(f, x1, x3) == mat_transpose(g13_inverse(t, x1t, x3t))
                assert g124_inverse(f) == mat_transpose(g123_inverse(t))
                assert g124_inverse(f, x1) == mat_transpose(g123_inverse(t, x1t))
                assert g134_inverse(f, x3) == mat_transpose(g134_inverse(t, x3t))
                forced = middle_blocks(f, g14_inverse(f, x1, x3))
                drawn = (free(r, r), x1, free(n - r, r), x3)
                for b in (forced, drawn):
                    holds = validate_g4_blocks(f, b)
                    assert holds == validate_g3_blocks(t, tuple(mat_transpose(b[i])
                                                                for i in (0, 2, 1, 3)))
                    seen.add(holds)
        assert seen == {False, True}


class TestValidateG3:
    def test_canonical_blocks(self):
        f = golden_factors()
        sq, _ = compute_star_blocks(f)
        _, s2, _, s4 = sq
        forced = -mat_mul(s2, mat_inverse(s4))
        b = (identity(2), forced, zeros(1, 2), zeros(1, 1))
        assert validated(validate_g3_blocks, "eq3", f, b)

    def test_zero_x1_fails_with_nonzero_s2(self):
        b = (identity(2), zeros(2, 1), zeros(1, 2), zeros(1, 1))
        assert not validated(validate_g3_blocks, "eq3", golden_factors(), b)

    def test_zero_core(self):
        b = (zeros(2, 2), zeros(2, 1), zeros(1, 2), zeros(1, 1))
        assert validated(validate_g3_blocks, "eq3", golden_factors(), b)

    def test_generator_round_trip(self):
        rng = random.Random(28)
        for f in round_trip_factors(rng):
            for x in (g13_inverse(f, x2=rand_matrix(rng, f.n - f.r, f.r),
                                  x3=rand_matrix(rng, f.n - f.r, f.m - f.r)),
                      g123_inverse(f, x2=rand_matrix(rng, f.n - f.r, f.r))):
                x0, x1, x2, x3 = middle_blocks(f, x)
                assert validated(validate_g3_blocks, "eq3", f, (x0, x1, x2, x3))
                assert not validated(validate_g3_blocks, "eq3", f, (x0, perturbed(x1), x2, x3))


class TestG13:
    def test_zero_blocks(self):
        f = golden_factors()
        x = g13_inverse(f)
        assert eq1_holds(f.a, x) and eq3_holds(f.a, x)

    def test_full_column_rank(self):
        a = RMatrix.from_rows([[1], [2]])
        f = full_rank_reduce(a)
        x = g13_inverse(f)
        assert eq1_holds(a, x) and eq3_holds(a, x)

    def test_random_draws(self):
        f = golden_factors()
        rng = random.Random(15)
        for _ in range(100):
            x = g13_inverse(f, x2=rand_matrix(rng, 1, 2), x3=rand_matrix(rng, 1, 1))
            assert eq1_holds(f.a, x) and eq3_holds(f.a, x)


class TestG123:
    def test_zero_blocks(self):
        f = golden_factors()
        x = g123_inverse(f)
        for holds in (eq1_holds, eq2_holds, eq3_holds):
            assert holds(f.a, x)

    def test_regular_square(self):
        a = RMatrix.from_rows([[2, 0], [1, 1]])
        assert g123_inverse(full_rank_reduce(a)) == mat_inverse(a)

    def test_random_draws(self):
        f = golden_factors()
        rng = random.Random(16)
        for _ in range(100):
            x = g123_inverse(f, x2=rand_matrix(rng, 1, 2))
            for holds in (eq1_holds, eq2_holds, eq3_holds):
                assert holds(f.a, x)


class TestValidateG4:
    def test_canonical_blocks(self):
        f = golden_factors()
        _, sp = compute_star_blocks(f)
        _, _, t3, t4 = sp
        forced = -mat_mul(mat_inverse(t4), t3)
        b = (identity(2), zeros(2, 1), forced, zeros(1, 1))
        assert validated(validate_g4_blocks, "eq4", f, b)

    def test_zero_x2_fails_with_nonzero_t3(self):
        b = (identity(2), zeros(2, 1), zeros(1, 2), zeros(1, 1))
        assert not validated(validate_g4_blocks, "eq4", golden_factors(), b)

    def test_zero_core(self):
        b = (zeros(2, 2), zeros(2, 1), zeros(1, 2), zeros(1, 1))
        assert validated(validate_g4_blocks, "eq4", golden_factors(), b)

    def test_generator_round_trip(self):
        rng = random.Random(29)
        for f in round_trip_factors(rng):
            for x in (g14_inverse(f, x1=rand_matrix(rng, f.r, f.m - f.r),
                                  x3=rand_matrix(rng, f.n - f.r, f.m - f.r)),
                      g124_inverse(f, x1=rand_matrix(rng, f.r, f.m - f.r))):
                x0, x1, x2, x3 = middle_blocks(f, x)
                assert validated(validate_g4_blocks, "eq4", f, (x0, x1, x2, x3))
                assert not validated(validate_g4_blocks, "eq4", f, (x0, x1, perturbed(x2), x3))

    def test_block_shape_errors_name_the_callers_blocks(self):
        # m = 4, n = 3, r = 1: x1 is 1x3 and x2 is 2x1, so an error read off
        # the transposed reduction, where x1 and x2 trade places and shapes,
        # would name the other block or the transposed shape
        f = full_rank_reduce(RMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 0], [1, 2, 3]]))
        assert (f.m, f.n, f.r) == (4, 3, 1)
        b = (identity(1), zeros(1, 3), zeros(2, 1), zeros(2, 3))
        assert validate_g4_blocks(f, b) in (False, True)
        with pytest.raises(DimensionMismatch) as wrong_x1:
            validate_g4_blocks(f, (b[0], zeros(3, 1), b[2], b[3]))
        assert str(wrong_x1.value) == "x1 must be a 1x3 matrix"
        with pytest.raises(DimensionMismatch) as wrong_x2:
            validate_g4_blocks(f, (b[0], b[1], zeros(1, 2), b[3]))
        assert str(wrong_x2.value) == "x2 must be a 2x1 matrix"


class TestValidatorsAgreeWithCheck:
    """The validators return the paper's block conditions alone; on block sets
    drawn at random each must agree with check's equation on the assembled X.
    Each block is either drawn free or set by its condition, so both answers
    occur on the library's reduction and on the second one."""

    @staticmethod
    def block_sets(rng, f):
        """(validator, equation, blocks) for {2}, {3} and {4}, of f's shapes."""
        r, m, n = f.r, f.m, f.n

        def pick(forced, rows, cols):
            return forced() if rng.random() < 0.75 else rand_matrix(rng, rows, cols)

        def symmetric():
            k = rand_matrix(rng, r, r)
            return k + mat_transpose(k)

        x0 = pick(lambda: rand_idempotent(rng, r), r, r)
        x1 = pick(lambda: mat_mul(x0, rand_matrix(rng, r, m - r)), r, m - r)
        x2 = pick(lambda: mat_mul(rand_matrix(rng, n - r, r), x0), n - r, r)
        x3 = pick(lambda: mat_mul(x2, x1), n - r, m - r)
        yield validate_g2_blocks, "eq2", (x0, x1, x2, x3)

        (s1, s2, _, s4), (t1, t2, t3, t4) = compute_star_blocks(f)
        star1 = -mat_mul(s2, mat_inverse(s4))
        star2 = -mat_mul(mat_inverse(t4), t3)
        w3 = s1 + mat_mul(star1, mat_transpose(s2))
        w4 = t1 + mat_mul(t2, star2)
        free2, free3 = rand_matrix(rng, n - r, r), rand_matrix(rng, n - r, m - r)
        x0 = pick(lambda: mat_mul(symmetric(), mat_inverse(w3)), r, r)
        x1 = pick(lambda: mat_mul(x0, star1), r, m - r)
        yield validate_g3_blocks, "eq3", (x0, x1, free2, free3)

        free1 = rand_matrix(rng, r, m - r)
        x0 = pick(lambda: mat_mul(mat_inverse(w4), symmetric()), r, r)
        x2 = pick(lambda: mat_mul(star2, x0), n - r, r)
        yield validate_g4_blocks, "eq4", (x0, free1, x2, free3)

    def test_random_block_sets(self):
        rng = random.Random(30)
        seen = {}
        # round_trip_factors yields the library's reduction, then the second one
        for i, f in enumerate(round_trip_factors(rng)):
            for _ in range(8):
                for validate, eq, b in self.block_sets(rng, f):
                    seen.setdefault((eq, i % 2), set()).add(validated(validate, eq, f, b))
        assert seen == {(eq, which): {False, True}
                        for eq in ("eq2", "eq3", "eq4") for which in (0, 1)}

    def test_hand_built_factors_get_the_block_condition(self):
        # a FactoredMatrix that does not reduce its A is not checked: the
        # validators answer from P, Q and r alone, even where check disagrees
        f = golden_factors()
        other = FactoredMatrix(a=support.EX1 + identity(3), p=f.p, q=f.q, r=f.r)
        b = middle_blocks(f, g13_inverse(f))
        assert validate_g3_blocks(other, b)
        assert not check(other.a, assembled(other, b)).eq3
        for validate in (validate_g2_blocks, validate_g4_blocks):
            assert validate(other, b) == validate(f, b)


class TestG14:
    def test_zero_blocks(self):
        f = golden_factors()
        x = g14_inverse(f)
        assert eq1_holds(f.a, x) and eq4_holds(f.a, x)

    def test_full_row_rank(self):
        a = RMatrix.from_rows([[1, 2, 0], [0, 1, 1]])
        f = full_rank_reduce(a)
        x = g14_inverse(f)
        assert eq1_holds(a, x) and eq4_holds(a, x)

    def test_random_draws(self):
        f = golden_factors()
        rng = random.Random(17)
        for _ in range(100):
            x = g14_inverse(f, x1=rand_matrix(rng, 2, 1), x3=rand_matrix(rng, 1, 1))
            assert eq1_holds(f.a, x) and eq4_holds(f.a, x)


class TestG124:
    def test_zero_blocks(self):
        f = golden_factors()
        x = g124_inverse(f)
        for holds in (eq1_holds, eq2_holds, eq4_holds):
            assert holds(f.a, x)

    def test_regular_square(self):
        a = RMatrix.from_rows([[3, 1], [1, 1]])
        assert g124_inverse(full_rank_reduce(a)) == mat_inverse(a)

    def test_random_draws(self):
        f = golden_factors()
        rng = random.Random(18)
        for _ in range(100):
            x = g124_inverse(f, x1=rand_matrix(rng, 2, 1))
            for holds in (eq1_holds, eq2_holds, eq4_holds):
                assert holds(f.a, x)


class TestG134:
    def test_canonical_corner_is_pseudoinverse(self):
        f = golden_factors()
        (_, s2, _, s4), (_, _, t3, t4) = compute_star_blocks(f)
        x3 = mat_mul(mat_mul(mat_inverse(t4), t3), mat_mul(s2, mat_inverse(s4)))
        assert g134_inverse(f, x3=x3) == moore_penrose(f.a)

    def test_zero_corner(self):
        f = golden_factors()
        x = g134_inverse(f)
        for holds in (eq1_holds, eq3_holds, eq4_holds):
            assert holds(f.a, x)

    def test_random_draws(self):
        f = golden_factors()
        rng = random.Random(19)
        for _ in range(100):
            x = g134_inverse(f, x3=rand_matrix(rng, 1, 1))
            for holds in (eq1_holds, eq3_holds, eq4_holds):
                assert holds(f.a, x)


class TestMoorePenrose:
    def test_golden_3x3(self):
        assert moore_penrose(support.EX1) == support.EX1_PINV

    def test_golden_5x5(self):
        assert moore_penrose(support.EX3) == support.EX3_PINV

    def test_diagonal(self):
        a = RMatrix.from_rows([[2, 0], [0, 0]])
        assert moore_penrose(a) == RMatrix.from_rows([["1/2", 0], [0, 0]])

    def test_identity(self):
        assert moore_penrose(identity(4)) == identity(4)

    def test_zero(self):
        assert moore_penrose(zeros(2, 3)) == zeros(3, 2)

    def test_all_four_equations(self):
        a = support.EX1
        x = moore_penrose(a)
        for holds in (eq1_holds, eq2_holds, eq3_holds, eq4_holds):
            assert holds(a, x)

    @given(with_permutations(rmatrices()))
    def test_pivot_policy_independence(self, drawn):
        # the block formula on the pivot order of permuted rows and columns
        a, rows, cols = drawn
        assert moore_penrose(a) == pseudoinverse_on(second_reduction(a, rows, cols))

    @pytest.mark.parametrize("m, n, r", [
        (12, 7, 3), (7, 12, 4), (12, 12, 6), (11, 12, 0), (12, 5, 0), (5, 12, 5),
        (9, 12, 9), (12, 5, 5), (12, 10, 10), (12, 12, 12), (0, 3, 0), (3, 0, 0), (0, 0, 0),
        (1, 4, 1), (4, 1, 1), (2, 3, 2), (3, 2, 2), (4, 6, 4), (6, 4, 4), (7, 11, 7), (11, 7, 7)])
    def test_equals_block_formula_at_size(self, m, n, r):
        # tall, wide, rank 0, full row rank and full column rank against the
        # paper's block formula on two reductions; at full row or column rank
        # one side of the outer inverse is square and cancels
        rng = random.Random(m * 144 + n * 12 + r)
        a = mat_mul(rand_matrix(rng, m, r), rand_matrix(rng, r, n)) if r else zeros(m, n)
        assert mat_rank(a) == r
        x = moore_penrose(a)
        for f in (full_rank_reduce(a), second_reduction(a)):
            assert x == pseudoinverse_on(f)

    @given(rmatrices(max_dim=4))
    def test_double_pseudoinverse(self, a):
        assert moore_penrose(moore_penrose(a)) == a


class TestBlockFormula:
    """Every constructor equals P*[[X0, X1], [X2, X3]]*Q with its blocks set by
    the paper's rules: X0 = I for {1}, X3 = X2*X1 for {2}, X1 = -S2*S4^-1 for
    {3} and X2 = -T4^-1*T3 for {4}; the group inverse takes X1 = -V2*V4^-1
    and X2 = -V4^-1*V3 from the blocks of Q*P. The reductions are the
    library's, one of A with its rows and columns reversed, and the three of
    ``support.caller_reductions``: one with P[:, :r] and Q[:r, :] dense, two
    with P[:, :r] nonzero on r rows but not made of unit columns."""

    @staticmethod
    def inputs(rng):
        # rank 0, full row rank, full column rank, regular, and in between
        for m, n, r in ((3, 4, 0), (4, 2, 0), (3, 3, 0), (2, 4, 2), (4, 2, 2),
                        (1, 3, 1), (3, 3, 3), (4, 5, 2), (5, 3, 1), (4, 4, 2)):
            yield mat_mul(rand_matrix(rng, m, r), rand_matrix(rng, r, n)) if r else zeros(m, n)
        for n in (2, 4, 5):
            yield rand_index_one_singular(rng, n)

    def test_constructors_match_block_formula(self):
        rng = random.Random(22)
        supports = set()
        for a in self.inputs(rng):
            base = full_rank_reduce(a)
            for f, explicit in product([base, second_reduction(a),
                                        *caller_reductions(rng, base)], (False, True)):
                z = [[f.p[i, j] for j in range(f.r)] for i in range(f.n)]
                nonzero = sum(1 for row in z if any(row))
                supports.add("dense" if nonzero > f.r else "unit" if
                             all(v in (0, 1) for row in z for v in row) else "scaled")
                r, m, n = f.r, f.m, f.n

                def free(rows, cols):
                    return rand_matrix(rng, rows, cols) if explicit and rows and cols \
                        else zeros(rows, cols)

                def passed(**blocks):  # explicit blocks are passed, default ones left out
                    return blocks if explicit else {}

                x0 = rand_idempotent(rng, r) if explicit and r else zeros(r, r)
                x1, x2, x3 = free(r, m - r), free(n - r, r), free(n - r, m - r)
                (_, s2, _, s4), (_, _, t3, t4) = compute_star_blocks(f)
                star1 = -mat_mul(s2, mat_inverse(s4))
                star2 = -mat_mul(mat_inverse(t4), t3)
                i = identity(r)
                cases = (
                    (g1_inverse(f, **passed(x1=x1, x2=x2, x3=x3)), (i, x1, x2, x3)),
                    (g12_inverse(f, **passed(x1=x1, x2=x2)), (i, x1, x2, mat_mul(x2, x1))),
                    (g13_inverse(f, **passed(x2=x2, x3=x3)), (i, star1, x2, x3)),
                    (g123_inverse(f, **passed(x2=x2)), (i, star1, x2, mat_mul(x2, star1))),
                    (g14_inverse(f, **passed(x1=x1, x3=x3)), (i, x1, star2, x3)),
                    (g124_inverse(f, **passed(x1=x1)), (i, x1, star2, mat_mul(star2, x1))),
                    (g134_inverse(f, **passed(x3=x3)), (i, star1, star2, x3)),
                    (moore_penrose(a), (i, star1, star2, mat_mul(star2, star1))),
                    (g2_inverse(f, **passed(x0=x0, fblk=x1, gblk=x2)),
                     (x0, mat_mul(x0, x1), mat_mul(x2, x0), mat_mul(mat_mul(x2, x0), x1))),
                )
                for x, blocks in cases:
                    assert x == assembled(f, blocks)
            if a.is_square and index_of(a) <= 1:
                f = full_rank_reduce(a)
                _, v2, v3, v4 = group_blocks(f)
                v4i = mat_inverse(v4)
                x1, x2 = -mat_mul(v2, v4i), -mat_mul(v4i, v3)
                assert group_inverse_block(a) == assembled(f, (identity(f.r), x1, x2,
                                                               mat_mul(x2, x1)))
        assert supports == {"dense", "unit", "scaled"}
