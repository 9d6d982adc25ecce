"""Minimal polynomial, index, group and Drazin inverses, EP detection."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given

import support
from geninv import (DimensionMismatch, IndexTooLarge, MinimalPolynomial, RMatrix,
                    check, factor_with, full_rank_reduce, group_blocks, drazin_inverse,
                    group_inverse_block, group_inverse_poly, identity, index_of, is_ep,
                    mat_add, mat_inverse, mat_mul,
                    mat_pow, mat_rank, mat_scale, minimal_polynomial,
                    moore_penrose, poly_at, poly_str, q_polynomial,
                    exact, square, zeros)
from support import (NILPOTENT_2, drazin_onecheck, rand_index_one_singular,
                     rand_invertible, rand_matrix, rand_nilpotent, rand_symmetric_singular,
                     rand_with_index, rmatrices, second_reduction)


class TestMinimalPolynomial:
    def test_golden_example(self):
        mu = minimal_polynomial(support.EX1)
        assert mu.coeffs == (Fraction(0), Fraction(-18), Fraction(-15), Fraction(1))
        assert mu.degree == 3
        assert mu.index == 1
        assert str(mu) == "x^3 - 15*x^2 - 18*x"

    @pytest.mark.parametrize("coeffs", [(), (Fraction(0), Fraction(2)), (Fraction(1), 0)])
    def test_must_be_monic(self, coeffs):
        with pytest.raises(ValueError, match=r"^minimal polynomial must be monic$"):
            MinimalPolynomial(coeffs)

    def test_identity(self):
        mu = minimal_polynomial(identity(4))
        assert mu.coeffs == (Fraction(-1), Fraction(1))

    def test_zero_matrix(self):
        mu = minimal_polynomial(zeros(3, 3))
        assert mu.coeffs == (Fraction(0), Fraction(1))
        assert mu.index == 1

    def test_non_square(self):
        with pytest.raises(DimensionMismatch):
            minimal_polynomial(zeros(2, 3))

    @given(rmatrices(square=True))
    def test_annihilates_and_is_minimal(self, a):
        mu = minimal_polynomial(a)
        assert poly_at(mu.coeffs, a) == zeros(a.rows, a.rows)
        # independence of lower powers, checked by an independent rank oracle
        vectors = [list(chain.from_iterable(mat_pow(a, d).entries))
                   for d in range(mu.degree)]
        stacked = RMatrix.from_rows(vectors)
        assert mat_rank(stacked) == mu.degree

    def test_derogatory_corpus_matches_jordan_form(self, monkeypatch):
        # every input repeats a Jordan block, so deg mu < n and the lcm visits
        # every unit row; on some, e_1's annihilator is not yet mu
        real = square._annihilator
        degrees = []
        monkeypatch.setattr(square, "_annihilator",
                            lambda *args: degrees.append(len(h := real(*args)) - 1) or h)
        rng, multi_row = random.Random(20261020), 0
        for _ in range(60):
            grid, expected = conjugated_jordan_form(rng)
            degrees.clear()
            mu = minimal_polynomial(RMatrix(len(grid), len(grid), grid))
            assert mu.coeffs == expected and mu.degree < len(grid) == len(degrees)
            multi_row += sum(d > 0 for d in degrees) > 1
        assert multi_row > 0


def conjugated_jordan_form(rng):
    """A Fraction grid S*diag(J_k1(l1), J_k2(l2), ...)*S^-1 with its first block
    repeated, S a product of shears (row i += c*row j, then column j -= c*column
    i), and the coefficients of its minimal polynomial, the product of
    (x - l)^(largest block of l), from degree 0. Plain loops, no geninv."""
    eigenvalues = rng.sample(range(-2, 3), rng.randint(1, 3))
    blocks = [(rng.choice(eigenvalues), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    blocks.append(blocks[0])
    n = sum(k for _, k in blocks)
    grid, start = [[Fraction(0)] * n for _ in range(n)], 0
    for lam, k in blocks:
        for i in range(start, start + k):
            grid[i][i] = Fraction(lam)
            if i + 1 < start + k:
                grid[i][i + 1] = Fraction(1)
        start += k
    for _ in range(rng.randint(0, 2 * n)):
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        grid[i] = [x + c * y for x, y in zip(grid[i], grid[j])]
        for row in grid:
            row[j] -= c * row[i]
    mu = [Fraction(1)]
    for lam in {lam for lam, _ in blocks}:
        for _ in range(max(k for other, k in blocks if other == lam)):
            mu = [(mu[d - 1] if d else 0) - lam * (mu[d] if d < len(mu) else 0)
                  for d in range(len(mu) + 1)]
    return grid, tuple(mu)


class TestPolyAt:
    @pytest.mark.parametrize("coeffs", [
        (Fraction(0),),
        (Fraction(-7, 2),),
        (Fraction(3), Fraction(0), Fraction(-1, 3), Fraction(2)),
        (Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
    ])
    def test_sum_of_powers_with_one_product_per_degree(self, coeffs, monkeypatch):
        rng = random.Random(41)
        products = []
        real_mul = square.mat_mul
        monkeypatch.setattr(square, "mat_mul", lambda x, y: products.append(y) or real_mul(x, y))
        for a in (support.EX1, NILPOTENT_2, zeros(3, 3), rand_matrix(rng, 4, 4)):
            expected, power = zeros(a.rows, a.rows), identity(a.rows)
            for c in coeffs:
                expected = mat_add(expected, mat_scale(power, c))
                power = real_mul(power, a)
            products.clear()
            assert poly_at(coeffs, a) == expected
            assert len(products) == len(coeffs) - 1

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError, match="float entries are not exact"):
            poly_at([0.1, 1], support.EX1)


class TestQPolynomial:
    def test_golden_example(self):
        q = q_polynomial(minimal_polynomial(support.EX1))
        assert q == (Fraction(-5, 6), Fraction(1, 18))
        assert poly_str(q) == "1/18*x - 5/6"

    def test_identity_matrix(self):
        # mu = x - 1 gives q = 1, and -1 * (1 - x*1) = x - 1
        q = q_polynomial(minimal_polynomial(identity(3)))
        assert q == (Fraction(1),)

    def test_nilpotent(self):
        q = q_polynomial(minimal_polynomial(NILPOTENT_2))
        assert q == (Fraction(0),)

    def test_int_coefficients_give_fractions(self):
        # mu = x^2 - 3x + 2 = 2 * (1 - x*(3/2 - x/2))
        q = q_polynomial(MinimalPolynomial((2, -3, 1)))
        assert q == (Fraction(3, 2), Fraction(-1, 2))
        assert all(type(c) is Fraction for c in q)  # 1.5 == Fraction(3, 2) too

    @given(rmatrices(square=True))
    def test_rebuild_identity(self, a):
        mu = minimal_polynomial(a)
        q = q_polynomial(mu)
        # mu(x) = c_k x^k (1 - x q(x)), checked coefficientwise
        ck = mu.coeffs[mu.index]
        rebuilt = [Fraction(0)] * mu.index + [ck] + [-ck * c for c in q]
        rebuilt = rebuilt[:mu.degree + 1] + [Fraction(0)] * (mu.degree + 1 - len(rebuilt))
        assert tuple(rebuilt) == mu.coeffs


class TestIndex:
    def test_golden_example(self):
        assert index_of(support.EX1) == 1

    def test_regular(self):
        assert index_of(identity(3)) == 0
        assert index_of(RMatrix.from_rows([[2, 1], [1, 1]])) == 0

    def test_jordan_block(self):
        assert index_of(NILPOTENT_2) == 2

    @given(rmatrices(square=True))
    def test_matches_polynomial_index(self, a):
        assert index_of(a) == minimal_polynomial(a).index


class TestGroupInverse:
    def test_poly_golden_values(self):
        assert group_inverse_poly(support.EX1) == support.EX1_PINV

    def test_poly_identity(self):
        assert group_inverse_poly(identity(3)) == identity(3)

    def test_poly_rejects_high_index(self):
        with pytest.raises(IndexTooLarge, match=r"^group inverse requires index <= 1, got 2$"):
            group_inverse_poly(NILPOTENT_2)
        with pytest.raises(IndexTooLarge, match=r"^group inverse requires index <= 1, got 3$"):
            group_inverse_poly(support.nilpotent_jordan(3))

    def test_block_rejects_high_index(self):
        with pytest.raises(IndexTooLarge, match=r"^group inverse requires index <= 1, got 2$"):
            group_inverse_block(NILPOTENT_2)

    def test_block_golden_values(self):
        assert group_inverse_block(support.EX1) == support.EX1_PINV

    def test_block_golden_5x5(self):
        assert group_inverse_block(support.EX3) == support.EX3_PINV

    def test_block_regular(self):
        a = RMatrix.from_rows([[2, 1], [1, 1]])
        assert group_inverse_block(a) == mat_inverse(a)

    def test_golden_group_blocks(self):
        f = factor_with(support.EX1, support.EX1_P, support.EX1_Q)
        _, v2, v3, v4 = group_blocks(f)
        assert v2 == RMatrix.from_rows([[-3], [2]])
        assert v3 == RMatrix.from_rows([[1, -2]])
        assert v4 == RMatrix.from_rows([[6]])

    def test_zero_matrix(self):
        assert group_inverse_poly(zeros(2, 2)) == zeros(2, 2)
        assert group_inverse_block(zeros(2, 2)) == zeros(2, 2)

    def test_routes_agree_on_random_index_one(self):
        rng = random.Random(21)
        for _ in range(40):
            a = rand_index_one_singular(rng, rng.randint(2, 4))
            assert group_inverse_poly(a) == group_inverse_block(a)

    def test_routes_agree_on_regular_and_zero(self):
        rng = random.Random(26)
        mats = [support.rand_invertible(rng, n) for n in (1, 2, 3, 4)]
        mats += [zeros(n, n) for n in (1, 2, 3)]
        for a in mats:
            assert group_inverse_poly(a) == group_inverse_block(a)

    def test_v4_regular_exactly_at_index_at_most_one(self):
        # Jacobi's complementary-minor identity: the trailing block V4 of Q*P
        # is regular iff rank(A^2) = rank(A), whatever reduction produced Q, P
        rng = random.Random(27)
        mats = [rand_with_index(rng, k, rng.randint(1, 3)) for k in range(4) for _ in range(6)]
        for _ in range(24):
            n = rng.randint(2, 5)
            r = rng.randint(1, n)
            mats.append(mat_mul(rand_matrix(rng, n, r), rand_matrix(rng, r, n)))
        indices = set()
        for a in mats:
            k = index_of(a)
            indices.add(k)
            for f in (full_rank_reduce(a), second_reduction(a)):
                _, _, _, v4 = group_blocks(f)
                assert (mat_rank(v4) == v4.rows) == (k <= 1)
            if k >= 2:
                with pytest.raises(IndexTooLarge):
                    group_inverse_block(a)
            else:
                assert group_inverse_block(a) == group_inverse_poly(a)
        assert indices == {0, 1, 2, 3}

    def test_qa_is_a_one_inverse_at_index_one(self):
        rng = random.Random(22)
        for _ in range(40):
            a = rand_index_one_singular(rng, rng.randint(2, 4))
            qa = poly_at(q_polynomial(minimal_polynomial(a)), a)
            assert mat_mul(mat_mul(a, qa), a) == a

    def test_defining_equations(self):
        x = group_inverse_poly(support.EX1)
        a = support.EX1
        assert mat_mul(mat_mul(a, x), a) == a
        assert mat_mul(mat_mul(x, a), x) == x
        assert mat_mul(a, x) == mat_mul(x, a)


class TestDrazin:
    def test_equals_group_at_index_one(self):
        assert drazin_inverse(support.EX1) == group_inverse_poly(support.EX1)

    def test_nilpotent_gives_zero(self):
        assert drazin_inverse(NILPOTENT_2) == zeros(2, 2)

    def test_identity(self):
        assert drazin_inverse(identity(3)) == identity(3)

    def test_defining_equations_on_mixed_corpus(self):
        rng = random.Random(23)
        mats = [rand_matrix(rng, n, n) for n in (1, 2, 2, 3, 3, 4)]
        mats += [rand_nilpotent(rng, n) for n in (2, 3, 4)]
        mats += [rand_index_one_singular(rng, n) for n in (2, 3, 4)]
        for a in mats:
            ad = drazin_inverse(a)
            k = index_of(a)
            assert mat_mul(mat_mul(ad, a), ad) == ad
            assert mat_mul(a, ad) == mat_mul(ad, a)
            ak = mat_pow(a, k)
            assert mat_mul(mat_mul(ak, ad), a) == ak

    def test_onecheck_golden(self):
        assert drazin_onecheck(support.EX1)

    def test_onecheck_jordan_block(self):
        assert not drazin_onecheck(NILPOTENT_2)

    def test_onecheck_regular(self):
        assert drazin_onecheck(RMatrix.from_rows([[2, 1], [1, 1]]))

    @given(rmatrices(square=True, max_dim=4))
    def test_onecheck_matches_index(self, a):
        assert drazin_onecheck(a) == (index_of(a) <= 1)


class TestDrazinRoutes:
    """The Drazin inverse and the polynomial group inverse against the paper's
    formulas A^k * q(A)^(k+1) and, at index k <= 1, A*q(A)^2, evaluated with
    the public functions."""

    def cases(self):
        rng = random.Random(27)
        mats = [rand_with_index(rng, k, m) for k in range(4) for m in (1, 2)]
        mats += [rand_nilpotent(rng, n) for n in (1, 2, 3, 4)] + [support.nilpotent_jordan(3)]
        mats += [rand_invertible(rng, n) for n in (1, 2, 4)] + [identity(3)]
        return mats + [support.EX1, support.EX3]

    def test_equals_paper_formula(self):
        rng = random.Random(28)
        larger = [rand_with_index(rng, k, n - k) for k in range(4) for n in (8, 9, 10)]
        for a in self.cases() + larger + [zeros(0, 0)]:
            k = index_of(a)
            qa = poly_at(q_polynomial(minimal_polynomial(a)), a)
            assert drazin_inverse(a) == mat_mul(mat_pow(a, k), mat_pow(qa, k + 1))
            if k <= 1:
                assert group_inverse_poly(a) == mat_mul(a, mat_pow(qa, 2))

    def test_each_power_formed_once(self, monkeypatch):
        # only the rank sequence multiplies a power of A by A: a cold
        # drazin_inverse or check forms A^2 .. A^(k+1) there, once each, and
        # after drazin_inverse neither forms one again on the same A.
        # drazin_inverse's one other product by A is R*A, with R the pivot
        # rows of A^k, at k >= 1; at k = 0 it inverts A itself and forms no
        # product. minimal_polynomial multiplies only rows by A, and
        # group_inverse_poly's other products by A are Horner's len(q) - 1
        # for q(A).
        products = []
        real_mul = square.mat_mul
        for module in (square, exact):  # exact's scan multiplies through its own global
            monkeypatch.setattr(module, "mat_mul",
                                lambda x, y: products.append((x, y)) or real_mul(x, y))

        def lefts_of_a(run, a):
            products.clear()
            run(a)
            return [x for x, y in products if y is a]

        for a in self.cases():
            k, mu = index_of(a), minimal_polynomial(a)
            lower, ak = [mat_pow(a, j) for j in range(1, k + 1)], mat_pow(a, k)
            square._index_and_skeleton.cache_clear()
            assert lefts_of_a(lambda a: check(a, zeros(a.rows, a.rows)), a) == lower
            square._index_and_skeleton.cache_clear()
            by_a = lefts_of_a(drazin_inverse, a)
            assert by_a[:k] == lower and len(by_a) == (k + 1 if k else 0)
            for r in by_a[k:]:
                assert r.rows == mat_rank(ak) and set(r.entries) <= set(ak.entries)
            assert lefts_of_a(lambda a: check(a, drazin_inverse(a)), a) == by_a[k:]
            rows_by_a = lefts_of_a(minimal_polynomial, a)
            assert len(rows_by_a) == len(products) and all(x.rows == 1 for x in rows_by_a)
            if k <= 1:
                horner = len(q_polynomial(mu)) - 1
                assert len(lefts_of_a(group_inverse_poly, a)) == len(rows_by_a) + horner

    def test_index_and_ep_routes_agree(self):
        # index_of reads the rank sequence and is_ep compares ranks; the
        # minimal polynomial and the definition A^+ = A^D must agree with them
        for a in self.cases():
            assert index_of(a) == minimal_polynomial(a).index
            assert is_ep(a) == (moore_penrose(a) == drazin_inverse(a))


class TestKeptRankSequence:
    """The rank sequence keeps the last square matrix's answer, found by value:
    any order of calls, on equal copies or from several threads, must give
    what a cold computation gives."""

    def matrices(self):
        rng = random.Random(29)
        return [rand_with_index(rng, k, n - k) for n in (4, 5) for k in range(4)]

    def cold(self, a):
        """(index, Drazin inverse, eq6 of check) with nothing kept before each call."""
        square._index_and_skeleton.cache_clear()
        k = index_of(a)
        square._index_and_skeleton.cache_clear()
        x = drazin_inverse(a)
        square._index_and_skeleton.cache_clear()
        return k, x, check(a, x).eq6

    def warm(self, a):
        x = drazin_inverse(a)
        return index_of(a), x, check(a, x).eq6

    def test_interleaved_and_equal_copies(self):
        cases = [(a, self.cold(a)) for a in self.matrices()]
        for (a, want_a), (b, want_b) in zip(cases, cases[1:]):
            copy_a, copy_b = (RMatrix(m.rows, m.cols, m.entries) for m in (a, b))
            for m, want in ((a, want_a), (b, want_b), (a, want_a), (copy_a, want_a),
                            (b, want_b), (copy_b, want_b), (copy_a, want_a)):
                assert index_of(m) == want[0]
                assert self.warm(m) == want

    def test_threads_match_serial(self):
        # exact is safe to use from several threads; the kept answer must be too
        mats = self.matrices() * 4
        want = [self.cold(a) for a in mats]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the sequence too
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(self.warm, mats, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == want


class TestEP:
    def test_golden_5x5(self):
        assert is_ep(support.EX3)

    def test_golden_3x3(self):
        # its pseudoinverse coincides with its group inverse
        assert is_ep(support.EX1)

    def test_jordan_block_is_not_ep(self):
        # null spaces differ: A kills e2, At kills e1
        assert not is_ep(NILPOTENT_2)

    def test_symmetric_singular_matrices_are_ep(self):
        rng = random.Random(24)
        for _ in range(25):
            a = rand_symmetric_singular(rng, rng.randint(2, 5))
            assert mat_rank(a) < a.rows
            assert is_ep(a)

    def test_ep_inverses_coincide(self):
        rng = random.Random(25)
        for _ in range(15):
            a = rand_symmetric_singular(rng, rng.randint(2, 4))
            mp = moore_penrose(a)
            assert mp == drazin_inverse(a)
            assert mp == group_inverse_poly(a)
            assert mp == group_inverse_block(a)

    def test_index_one_is_not_enough(self):
        # rank(A^2) = rank(A), yet A kills e2 - e1 and At kills e2
        a = RMatrix.from_rows([[1, 1], [0, 0]])
        assert index_of(a) == 1
        assert not is_ep(a)

    @given(rmatrices(square=True, max_dim=4))
    def test_routes_agree(self, a):
        assert is_ep(a) == (moore_penrose(a) == drazin_inverse(a))


def test_empty_matrix_has_index_zero():
    # mu = 1 annihilates the 0x0 matrix; every route agrees with index 0
    z = zeros(0, 0)
    mu = minimal_polynomial(z)
    assert (mu.coeffs, mu.degree, mu.index) == ((Fraction(1),), 0, 0)
    assert index_of(z) == 0
    assert q_polynomial(mu) == (Fraction(0),)
    for route in (drazin_inverse, group_inverse_poly, group_inverse_block, moore_penrose):
        assert route(z) == z
    assert drazin_onecheck(z) and is_ep(z)
    rep = check(z, z)
    assert all((rep.eq1, rep.eq2, rep.eq3, rep.eq4, rep.eq5, rep.eq6))


class TestPolyStr:
    @pytest.mark.parametrize("coeffs,text", [
        ((Fraction(0), Fraction(1)), "x"),
        ((Fraction(-1), Fraction(1)), "x - 1"),
        ((Fraction(0),), "0"),
        ((Fraction(3, 2),), "3/2"),
        ((Fraction(0), Fraction(0), Fraction(-2), Fraction(1)), "x^3 - 2*x^2"),
    ])
    def test_rendering(self, coeffs, text):
        assert poly_str(coeffs) == text
