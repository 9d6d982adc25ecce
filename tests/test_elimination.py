"""Rank, inverse, the full-rank reduction and the minimal polynomial's
dependence scan share one integer elimination; each must equal a plain
Fraction loop from tests/support.py exactly: the same rank, the same
inverse, the same P and Q, the same minimal polynomial. A second
reduction, from A's rows and columns reversed, must pass ``factor_with``
with the same rank. q(A), one integer product, must equal Horner's ``poly_at``."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import support
from geninv import (RMatrix, SingularMatrix, check, drazin_inverse, full_rank_reduce, identity,
                    index_of, mat_inverse, mat_mul, mat_rank, minimal_polynomial, moore_penrose,
                    poly_at, q_polynomial, zeros)
from geninv.cli import parse_matrix_text, write_matrix
from geninv.square import _combine

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


def assert_scan_matches_reference(a):
    expected = support.ref_minimal_polynomial(a)
    scanned = []
    mu = minimal_polynomial(a, scanned)
    assert (mu.coeffs, mu.degree, mu.index) == (expected.coeffs, expected.degree, expected.index)
    assert all(type(c) is Fraction for c in mu.coeffs)
    powers = [identity(a.rows)]
    for _ in range(a.rows):
        powers.append(mat_mul(powers[-1], a))
    assert scanned == powers[:mu.degree + 1]  # the scan hands back A^0 .. A^(deg mu)
    mixed = tuple(Fraction((-1) ** j * (j + BIG * (j % 2)), j + 2) for j in range(a.rows + 1))
    for coeffs in (mu.coeffs, q_polynomial(mu), mixed, mixed[:1]):
        got = _combine(coeffs, powers)
        assert got == poly_at(coeffs, a)
        assert all(type(v) is Fraction for row in got.entries for v in row)


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


def test_scan_and_combine_make_no_fraction_arithmetic(monkeypatch):
    a = RMatrix.from_rows([[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i + 2 * j) % 4)
                            for j in range(5)] for i in range(5)])
    mu = minimal_polynomial(a)
    q = q_polynomial(mu)
    assert mu.degree == 5 and len(q) == 5
    calls = count_fractions(monkeypatch)
    powers = []
    assert minimal_polynomial(a, powers) == mu
    qa = _combine(q, powers)
    assert calls == Counter({"__new__": len(mu.coeffs)})  # mu's coefficients, nothing else
    monkeypatch.undo()
    assert qa == poly_at(q, a)


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
    text = write_matrix(x)
    again = parse_matrix_text(text)
    pretty = str(x)
    d = drazin_inverse(s)
    report_d = check(s, d)
    assert calls == Counter()
    monkeypatch.undo()
    assert f.r == 3 and "MP" in report.classes and mat_mul(inverse, b) == identity(5)
    assert again == x and pretty.split() == text.split()[2:]
    assert index_of(s) == 2 and "Drazin" in report_d.classes
