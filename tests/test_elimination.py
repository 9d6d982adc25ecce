"""Rank, inverse, the full-rank reduction and the annihilator scans behind
the minimal polynomial run on integer rows; each must equal a plain Fraction
loop from tests/support.py exactly: the same rank, the same inverse, the same
P and Q, the same minimal polynomial, also on 64-bit numerators over a
denominator of 1 or up to 32 bits. The elimination is fraction-free, with
no gcd, and a singular inverse stops before its back-substitution. A second
reduction, from A's rows and columns reversed, must pass ``factor_with`` with
the same rank. The minimal polynomial makes only its own coefficients,
and Horner's ``poly_at`` no ``Fraction`` at all. The pseudoinverse finds its
pivot columns and rows in one elimination, the Drazin inverse those of A^k
in the elimination that ranked A^k, which a later ``check`` reuses; the
full-rank reduction is one elimination too, and the minimal polynomial one
per unit row it visits, with no Krylov product once e_i*p(A) = 0."""

import random
import sys
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import support
from geninv import (RMatrix, SingularMatrix, check, drazin_inverse, exact, full_rank_reduce,
                    identity, index_of, mat_inverse, mat_mul, mat_rank, mat_scale, minimal_polynomial,
                    moore_penrose, poly_at, q_polynomial, square, zeros)
from geninv.cli import parse_matrix_text, write_matrix

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
    f = full_rank_reduce(a)
    assert (f.p, f.q, f.r) == support.ref_full_rank_reduce(a)
    assert support.second_reduction(a).r == f.r
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


def test_singular_input_is_refused_before_back_substitution(monkeypatch):
    # the forward pass finds the rank; a singular matrix takes no back-substitution step
    singular = (zeros(3, 3), support.EX1, RMatrix.from_rows([[1, 2], [2, 4]]),
                support.rand_with_index(random.Random(9), 2, 3))
    steps = []
    original = exact._back_substitute

    def counted(rows, r):
        steps.append(r)
        return original(rows, r)

    monkeypatch.setattr(exact, "_back_substitute", counted)
    for a in singular:
        with pytest.raises(SingularMatrix):
            mat_inverse(a)
    assert steps == []
    assert mat_inverse(support.EX3_P) == support.ref_inverse(support.EX3_P)
    assert steps == [5]


@given(support.wide_rmatrices())
def test_wide_entries_match_reference(a):
    assert_matches_reference(a)


@given(support.wide_rmatrices(square=True))
def test_wide_square_entries_match_reference(a):
    assert_matches_reference(a)


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


def test_elimination_takes_no_gcd(monkeypatch):
    # each step divides exactly by the previous pivot, and the back-substitution
    # by the row's own pivot: no row is ever cancelled, over any denominator
    rng = random.Random(17)
    inputs = (support.EX1, support.EX3, mat_scale(support.rand_invertible(random.Random(16), 5), 6),
              RMatrix.from_rows([[rng.randint(-BIG, BIG) for _ in range(6)] for _ in range(4)]),
              RMatrix.from_rows([[1, 2, 3], [4, 5, 6], [2, 4, 6], [0, 0, 7]]),
              support.rand_invertible(random.Random(18), 4),
              RMatrix.from_rows(big_rows(random.Random(19), 4, 5)))
    assert [a._den > 1 for a in inputs] == [False] * 5 + [True] * 2
    assert mat_rank(inputs[3]) == 4
    # the annihilator's Krylov rows [vec(e_1*A^j) | e_j], each over its own denominator
    a, krylov = support.rand_matrix(random.Random(20), 5, 5), []
    x = exact._make(1, 5, exact._unit(0, 5), 1)
    for j in range(6):
        krylov.append([*x._nums, *exact._unit(j, 6, x._den)])
        x = mat_mul(x, a)
    assert a._den > 1 and len({row[5 + j] for j, row in enumerate(krylov)}) > 1
    calls = []

    def counted(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(exact, "gcd", counted)
    for a in inputs:
        exact._echelon([list(row) for row in exact._rows(a)], a.cols)
        exact._gauss_jordan(a)
    assert exact._echelon(krylov, 5)[0] == 5
    assert calls == []


def test_seeded_corpus_matches_reference():
    rng = random.Random(20261018)
    for _ in range(200):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        k = rng.randint(0, min(m, n))
        a = mat_mul(support.rand_matrix(rng, m, k) if k else zeros(m, 0),
                    support.rand_matrix(rng, k, n) if k else zeros(0, n))
        assert_matches_reference(a)


def assert_scan_matches_reference(a):
    expected = support.ref_minimal_polynomial(a)
    mu = minimal_polynomial(a)
    assert (mu.coeffs, mu.degree, mu.index) == (expected.coeffs, expected.degree, expected.index)
    assert mu.degree <= a.rows  # Cayley-Hamilton: the lcm stops at degree n
    assert all(type(c) is Fraction for c in mu.coeffs)


@given(matrices(square=True))
def test_scan_matches_reference(a):
    assert_scan_matches_reference(a)


@pytest.mark.parametrize("a", [
    zeros(0, 0), zeros(1, 1), identity(1), RMatrix.from_rows([[Fraction(-7, 3)]]),
    RMatrix.from_rows(big_rows(random.Random(4), 1, 1)),
    zeros(4, 4), identity(4), support.EX1, support.EX3, support.NILPOTENT_2,
    support.nilpotent_jordan(5),
    support.rand_nilpotent(random.Random(5), 5),
    support.rand_invertible(random.Random(6), 5),
    support.rand_index_one_singular(random.Random(7), 5),
    *(support.rand_with_index(random.Random(8 + k), k, 5 - k) for k in range(4)),
    RMatrix.from_rows(big_rows(random.Random(12), 4, 4)),
    RMatrix.from_rows(big_rows(random.Random(13), 2, 4) * 2),
    mat_mul(RMatrix.from_rows(big_rows(random.Random(14), 5, 2)),
            RMatrix.from_rows(big_rows(random.Random(15), 2, 5))),
], ids=lambda a: f"{a.rows}x{a.cols}")
def test_named_squares_scan_matches_reference(a):
    assert_scan_matches_reference(a)


def test_seeded_square_corpus_scan_matches_reference():
    rng = random.Random(20261019)
    for _ in range(120):
        n = rng.randint(1, 6)
        kind = rng.randrange(3)
        if kind == 0:
            a = support.rand_matrix(rng, n, n)
        elif kind == 1:  # low rank
            k = rng.randint(1, n)
            a = mat_mul(support.rand_matrix(rng, n, k), support.rand_matrix(rng, k, n))
        else:
            k = rng.randint(0, min(3, n - 1))
            a = support.rand_with_index(rng, k, n - k)
        assert_scan_matches_reference(a)


def count_eliminations(monkeypatch, run, a) -> int:
    """How many times run(a) calls ``exact._echelon``, under any module's name for it."""
    calls = []
    original = exact._echelon

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    with monkeypatch.context() as patched:
        for name, module in list(sys.modules.items()):
            if name.startswith("geninv") and getattr(module, "_echelon", None) is original:
                patched.setattr(module, "_echelon", counted)
        run(a)
    return len(calls)


def rank_two(seed, m, n):
    rng = random.Random(seed)
    return mat_mul(support.rand_matrix(rng, m, 2), support.rand_matrix(rng, 2, n))


SHAPES = [
    rank_two(1, 6, 4), rank_two(2, 3, 7), zeros(4, 3), zeros(0, 3), zeros(3, 0),
    support.rand_invertible(random.Random(5), 4),
    support.rand_matrix(random.Random(6), 3, 5), support.rand_matrix(random.Random(7), 5, 3),
]


@pytest.mark.parametrize("a", SHAPES, ids=lambda a: f"{a.rows}x{a.cols}")
def test_moore_penrose_eliminates_twice(a, monkeypatch):
    # one elimination finds the pivot columns and rows, one inverts Ct*A*Rt,
    # or A itself when A is regular
    assert count_eliminations(monkeypatch, moore_penrose, a) == 2


@pytest.mark.parametrize("a", SHAPES, ids=lambda a: f"{a.rows}x{a.cols}")
def test_full_rank_reduce_eliminates_once(a, monkeypatch):
    # one Gauss-Jordan pass over [A | I_m] gives both P and Q
    assert count_eliminations(monkeypatch, full_rank_reduce, a) == 1


@pytest.mark.parametrize("k, a", [
    *((k, support.rand_with_index(random.Random(10 + k), k, 5 - k)) for k in range(4)),
    (3, support.nilpotent_jordan(3)), (1, zeros(3, 3)), (0, identity(2)),
], ids=lambda v: v if isinstance(v, int) else f"{v.rows}x{v.cols}")
def test_drazin_inverse_eliminates_k_plus_2_times(k, a, monkeypatch):
    # cold, k + 1 eliminations rank A .. A^(k+1), the one of A^k giving its
    # pivot columns and rows, and one solves [R*A*C | R], or [A | I] at k = 0:
    # k + 2 in all. check and index_of then reuse that sequence, also on an
    # equal matrix built apart
    assert index_of(a) == k
    square._index_and_skeleton.cache_clear()
    assert count_eliminations(monkeypatch, drazin_inverse, a) == k + 2
    x, twin = drazin_inverse(a), RMatrix(a.rows, a.cols, a.entries)
    assert twin is not a and twin == a
    for b in (a, twin):
        assert count_eliminations(monkeypatch, lambda b: check(b, x), b) == 0
        assert count_eliminations(monkeypatch, index_of, b) == 0


def krylov_visits(monkeypatch) -> list:
    """For each ``_annihilator`` call until ``monkeypatch.undo()``: whether its
    x is zero, and how many Krylov products x*A^j it formed."""
    visits, products = [], []
    real_mul, real_annihilator = exact.mat_mul, square._annihilator

    def mul(*args):
        products.append(args)
        return real_mul(*args)

    def annihilator(x, *args):
        before = len(products)
        h = real_annihilator(x, *args)
        visits.append((not any(x._nums), len(products) - before))
        return h

    monkeypatch.setattr(exact, "mat_mul", mul)  # square's Horner products go by its own name
    monkeypatch.setattr(square, "_annihilator", annihilator)
    return visits


def companion(coeffs):
    """The companion matrix of the monic x^n + coeffs[n-1]*x^(n-1) + ... + coeffs[0]:
    e_i*C = e_(i+1), e_(n-1)*C = -(coeffs[0]*e_0 + ... ), so e_0 is a cyclic vector."""
    n = len(coeffs)
    return RMatrix.from_rows([[int(j == i + 1) for j in range(n)] for i in range(n - 1)]
                             + [[-c for c in coeffs]])


@pytest.mark.parametrize("a, mu, visited, zero_rows", [
    (companion((-7, 1, 0, -2, 0)), (-7, 1, 0, -2, 0, 1), 1, 0),
    (RMatrix.from_rows([[0, 1, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 1, 0],
                        [0, 0, 0, 0, 0], [0, 0, 0, 0, 5]]), (0, 0, -5, 1), 5, 3),
], ids=("companion", "derogatory"))
def test_minimal_polynomial_eliminates_once_per_unit_row(a, mu, visited, zero_rows, monkeypatch):
    # one elimination per unit row visited: the first unit row of a companion
    # matrix is cyclic, so its annihilator is mu; on diag(J_2(0), J_2(0), 5)
    # deg mu < n, so every unit row is visited, and e_i*mu(A) = 0 for three of
    # them, which form no Krylov product
    visits = krylov_visits(monkeypatch)
    assert count_eliminations(monkeypatch, minimal_polynomial, a) == visited == len(visits)
    assert [products for zero, products in visits if zero] == [0] * zero_rows
    monkeypatch.undo()
    assert minimal_polynomial(a).coeffs == tuple(map(Fraction, mu))


ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__",
              "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


def count_fractions(monkeypatch) -> Counter:
    """Count each ``Fraction`` made (key ``__new__``) and each call of a
    ``Fraction`` arithmetic operator, until ``monkeypatch.undo()``."""
    calls = Counter()
    for name in ("__new__",) + ARITHMETIC:
        def counted(*args, _name=name, _op=getattr(Fraction, name), **kwargs):
            calls[_name] += 1
            return _op(*args, **kwargs)
        monkeypatch.setattr(Fraction, name, staticmethod(counted) if name == "__new__" else counted)
    return calls


def test_counters_count(monkeypatch):
    calls = count_fractions(monkeypatch)
    assert Fraction(1, 2) * 3 + 1 == Fraction(5, 2)
    assert (calls["__mul__"], calls["__add__"], calls["__new__"]) == (1, 1, 4)


def test_minimal_polynomial_and_poly_at_make_no_fraction_arithmetic(monkeypatch):
    a = RMatrix.from_rows([[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i + 2 * j) % 4)
                            for j in range(5)] for i in range(5)])
    mu = minimal_polynomial(a)
    q = q_polynomial(mu)
    assert mu.degree == 5 and len(q) == 5
    calls = count_fractions(monkeypatch)
    assert minimal_polynomial(a) == mu
    assert calls == Counter({"__new__": len(mu.coeffs)})  # mu's coefficients, nothing else
    calls.clear()
    poly_at(q, a)  # TestPolyAt holds its value against a sum of powers
    assert calls == Counter()


def test_kernels_make_no_fraction(monkeypatch):
    # the reduction, the inverse, the pseudoinverse, the Drazin inverse, check
    # and MatrixFile text both ways make no Fraction
    rng = random.Random(41)
    a = mat_mul(support.rand_matrix(rng, 5, 3), support.rand_matrix(rng, 3, 6))
    b = support.rand_invertible(rng, 5)
    s = support.rand_with_index(rng, 2, 4)
    calls = count_fractions(monkeypatch)
    f = full_rank_reduce(a)
    inverse = mat_inverse(b)
    x = moore_penrose(a)
    report = check(a, x)
    report_t = check(x, moore_penrose(x))  # tall: check multiplies on the other side
    text = write_matrix(x)
    again = parse_matrix_text(text)
    pretty = str(x)
    d = drazin_inverse(s)
    report_d = check(s, d)
    assert calls == Counter()
    monkeypatch.undo()
    assert f.r == 3 and "MP" in report.classes and "MP" in report_t.classes
    assert mat_mul(inverse, b) == identity(5)
    assert again == x and pretty.split() == text.split()[2:]
    assert index_of(s) == 2 and "Drazin" in report_d.classes
