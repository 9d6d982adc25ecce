"""Block constructions: each inverse family satisfies exactly its equations."""

import random

import pytest
from hypothesis import given

import support
from geninv import (BlockParams, DimensionMismatch, NotIdempotent,
                    RMatrix, block_extract, compute_star_blocks, factor_with,
                    full_rank_reduce, g1_inverse, g12_inverse, g123_inverse,
                    g124_inverse, g13_inverse, g134_inverse, g14_inverse,
                    g2_inverse, identity, mat_inverse, mat_mul, mat_rank,
                    mat_transpose, moore_penrose, validate_g2_blocks,
                    validate_g3_blocks, validate_g4_blocks, zeros)
from support import rand_idempotent, rand_invertible, rand_matrix, rmatrices


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


class TestStarBlocks:
    def test_golden_values(self):
        sq, sp = compute_star_blocks(golden_factors())
        assert sq.s2 == RMatrix.from_rows([[-3], [2]])
        assert sq.s4 == RMatrix.from_rows([[6]])
        assert sp.t3 == RMatrix.from_rows([[1, -2]])
        assert sp.t4 == RMatrix.from_rows([[6]])

    def test_golden_product(self):
        # (T4^-1*T3)(S2*S4^-1) = [-7/36]
        sq, sp = compute_star_blocks(golden_factors())
        left = mat_mul(mat_inverse(sp.t4), sp.t3)
        right = mat_mul(sq.s2, mat_inverse(sq.s4))
        assert mat_mul(left, right) == RMatrix.from_rows([["-7/36"]])

    def test_identity_factors(self):
        e2 = RMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        f = factor_with(e2, identity(3), identity(3))
        sq, sp = compute_star_blocks(f)
        assert sq.s2 == zeros(2, 1)
        assert sp.t3 == zeros(1, 2)

    @given(rmatrices())
    def test_symmetry_invariants(self, a):
        f = full_rank_reduce(a)
        sq, sp = compute_star_blocks(f)
        for b1, b2, b3, b4 in ((sq.s1, sq.s2, sq.s3, sq.s4),
                               (sp.t1, sp.t2, sp.t3, sp.t4)):
            if isinstance(b1, RMatrix):
                assert mat_transpose(b1) == b1
            if isinstance(b2, RMatrix):
                assert mat_transpose(b2) == b3
            if isinstance(b4, RMatrix):
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
        b = BlockParams(identity(2), zeros(2, 1), zeros(1, 2), zeros(1, 1))
        assert validate_g2_blocks(f, b)

    def test_wrong_corner(self):
        f = golden_factors()
        b = BlockParams(identity(2), zeros(2, 1), zeros(1, 2),
                        RMatrix.from_rows([[1]]))
        assert not validate_g2_blocks(f, b)

    def test_generator_round_trip(self):
        f = golden_factors()
        rng = random.Random(13)
        pinv = mat_inverse(f.p)
        qinv = mat_inverse(f.q)
        for _ in range(100):
            x = g2_inverse(f,
                           x0=rand_idempotent(rng, 2),
                           fblk=rand_matrix(rng, 2, 1),
                           gblk=rand_matrix(rng, 1, 2))
            mid = mat_mul(mat_mul(pinv, x), qinv)
            assert validate_g2_blocks(f, BlockParams(*block_extract(mid, f.r)))


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


class TestValidateG3:
    def test_canonical_blocks(self):
        f = golden_factors()
        sq, _ = compute_star_blocks(f)
        forced = -mat_mul(sq.s2, mat_inverse(sq.s4))
        b = BlockParams(identity(2), forced, zeros(1, 2), zeros(1, 1))
        assert validate_g3_blocks(f, sq, b)

    def test_zero_x1_fails_with_nonzero_s2(self):
        f = golden_factors()
        sq, _ = compute_star_blocks(f)
        b = BlockParams(identity(2), zeros(2, 1), zeros(1, 2), zeros(1, 1))
        assert not validate_g3_blocks(f, sq, b)

    def test_zero_core(self):
        f = golden_factors()
        sq, _ = compute_star_blocks(f)
        b = BlockParams(zeros(2, 2), zeros(2, 1), zeros(1, 2), zeros(1, 1))
        assert validate_g3_blocks(f, sq, b)


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
        forced = -mat_mul(mat_inverse(sp.t4), sp.t3)
        b = BlockParams(identity(2), zeros(2, 1), forced, zeros(1, 1))
        assert validate_g4_blocks(f, sp, b)

    def test_zero_x2_fails_with_nonzero_t3(self):
        f = golden_factors()
        _, sp = compute_star_blocks(f)
        b = BlockParams(identity(2), zeros(2, 1), zeros(1, 2), zeros(1, 1))
        assert not validate_g4_blocks(f, sp, b)

    def test_zero_core(self):
        f = golden_factors()
        _, sp = compute_star_blocks(f)
        b = BlockParams(zeros(2, 2), zeros(2, 1), zeros(1, 2), zeros(1, 1))
        assert validate_g4_blocks(f, sp, b)


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
        sq, sp = compute_star_blocks(f)
        x3 = mat_mul(mat_mul(mat_inverse(sp.t4), sp.t3),
                     mat_mul(sq.s2, mat_inverse(sq.s4)))
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

    @given(rmatrices())
    def test_pivot_policy_independence(self, a):
        assert moore_penrose(a, "first") == moore_penrose(a, "last")

    @given(rmatrices(max_dim=4))
    def test_double_pseudoinverse(self, a):
        assert moore_penrose(moore_penrose(a)) == a
