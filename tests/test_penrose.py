"""Per-equation verification reports and class labelling."""

import random

import pytest

import support
from geninv import (DimensionMismatch, RMatrix, check, drazin_inverse, full_rank_reduce,
                    g1_inverse, g13_inverse, g14_inverse, g2_inverse, identity, mat_add,
                    mat_mul, mat_pow, mat_sub, mat_transpose, minimal_polynomial,
                    moore_penrose, square, zeros)
from geninv.penrose import _labels


def test_golden_pseudoinverse_report():
    rep = check(support.EX1, support.EX1_PINV)
    assert rep.eq1 and rep.eq2 and rep.eq3 and rep.eq4
    assert "MP" in rep.classes


def test_golden_group_inverse_report():
    # for this matrix the group inverse coincides with the pseudoinverse
    rep = check(support.EX1, support.EX1_PINV)
    assert rep.eq1 and rep.eq2 and rep.eq5
    assert "group" in rep.classes


def test_zero_candidate():
    a = support.EX1
    rep = check(a, zeros(3, 3))
    assert not rep.eq1
    assert rep.eq2


def test_non_square_has_na_slots():
    a = RMatrix.from_rows([[1, 0, 0], [0, 1, 0]])
    rep = check(a, moore_penrose(a))
    assert rep.eq5 is None and rep.eq6 is None
    assert "MP" in rep.classes
    assert "group" not in rep.classes


@pytest.mark.parametrize("m, n", [(7, 3), (3, 7), (5, 5), (9, 4), (4, 9)])
def test_first_two_equations_in_either_grouping(m, n):
    # check multiplies on the smaller side; its answers are those of (A*X)*A
    # and X*(A*X), for candidates that hold eq1 only, eq2 only, both and neither
    rng = random.Random(m * 10 + n)
    a = mat_mul(support.rand_matrix(rng, m, 2), support.rand_matrix(rng, 2, n))
    f = full_rank_reduce(a)
    candidates = [moore_penrose(a), support.rand_matrix(rng, n, m),
                  g1_inverse(f, x3=support.rand_matrix(rng, n - 2, m - 2)),
                  g2_inverse(f, x0=RMatrix.from_rows([[1, 0], [0, 0]]))]
    seen = set()
    for x in candidates:
        rep = check(a, x)
        ax = mat_mul(a, x)
        want = (mat_mul(ax, a) == a, mat_mul(x, ax) == x)
        assert (rep.eq1, rep.eq2) == want
        seen.add(want)
    assert seen == {(True, True), (False, False), (True, False), (False, True)}


SIXTH_EQUATION_CASES = {
    **{f"index {k}": (lambda rng, k=k: support.rand_with_index(rng, k, 4 - k))
       for k in range(4)},
    "nilpotent": lambda rng: support.rand_nilpotent(rng, 4),
    "regular": lambda rng: support.rand_invertible(rng, 4),
}


@pytest.mark.parametrize("kind", SIXTH_EQUATION_CASES)
def test_sixth_equation_against_its_definition(kind):
    # check tests A^k*X*A = A^k as R*(X*A) = R for the pivot rows R of A^k;
    # its answers are the definition's, with k from the minimal polynomial,
    # whether the rank sequence is cold or kept from drazin_inverse, for
    # candidates that hold eq6 and candidates that do not
    rng = random.Random(kind)
    a = SIXTH_EQUATION_CASES[kind](rng)
    ak, n = mat_pow(a, minimal_polynomial(a).index), a.rows
    bump = RMatrix.from_rows([[int(i == j == 0) for j in range(n)] for i in range(n)])
    ad = drazin_inverse(a)
    candidates = [ad, moore_penrose(a), zeros(n, n), support.rand_matrix(rng, n, n),
                  mat_add(ad, bump)]
    seen = set()
    for x in candidates:
        want = mat_mul(mat_mul(ak, x), a) == ak
        square._index_and_skeleton.cache_clear()
        assert check(a, x).eq6 == want
        drazin_inverse(a)
        assert check(a, x).eq6 == want
        seen.add(want)
    # A^k = 0 for a nilpotent A, and every X holds eq6
    assert seen == ({True} if kind == "nilpotent" else {True, False})


def oracle_corpus():
    """(A, X) pairs: tall, wide, square at index 0 to 3, rank 0, 1x1 and empty
    A, each with its true inverses ({1,3}, {1,4}, Moore-Penrose and, if
    square, Drazin), zero, a random X and the pseudoinverse with one entry
    bumped; then one-sided inverses other than the pseudoinverse, where A*X
    or X*A is the identity, and a regular A's inverse: exact, bumped, and
    times a unit triangular."""
    rng = random.Random(27)

    def low_rank(m, n, r):
        return mat_mul(support.rand_matrix(rng, m, r), support.rand_matrix(rng, r, n))

    shapes = [low_rank(7, 3, 2), low_rank(6, 4, 4), support.rand_matrix(rng, 5, 2),
              low_rank(3, 7, 2), low_rank(4, 6, 4), support.rand_matrix(rng, 2, 5),
              *(support.rand_with_index(rng, k, 4 - k) for k in range(4)),
              support.rand_with_index(rng, 2, 1), low_rank(4, 4, 2),
              zeros(3, 4), zeros(4, 3), zeros(3, 3), RMatrix.from_rows([[5]]),
              RMatrix.from_rows([[0]]), RMatrix.from_rows([["-2/3"]]),
              zeros(0, 3), zeros(3, 0), zeros(0, 0)]
    for a in shapes:
        mp, n, m = moore_penrose(a), a.cols, a.rows
        f = full_rank_reduce(a)
        candidates = [mp, g13_inverse(f), g14_inverse(f), zeros(n, m)]
        if n * m:
            i0 = rng.randrange(n)
            bump = [[int((i, j) == (i0, 0)) for j in range(m)] for i in range(n)]
            candidates += [support.rand_matrix(rng, n, m), mat_add(mp, RMatrix.from_rows(bump))]
        if a.is_square:
            candidates.append(drazin_inverse(a))
        for x in candidates:
            yield a, x

    def gram_inverse(g):  # (G*Gt)^-1 by the Fraction oracle
        return support.ref_inverse(mat_mul(g, mat_transpose(g)))

    # wide A of full row rank: X = At*(A*At)^-1 + N with A*N = 0, so A*X = I
    # and X*A is not symmetric
    a = low_rank(3, 5, 3)
    right = mat_mul(mat_transpose(a), gram_inverse(a))
    null = mat_mul(mat_sub(identity(5), mat_mul(right, a)), support.rand_matrix(rng, 5, 3))
    assert mat_mul(a, null) == zeros(3, 3) != null
    yield a, mat_add(right, null)
    # tall A of full column rank: X = (At*A)^-1*At + N with N*A = 0, so X*A = I
    # and A*X is not symmetric
    a = low_rank(5, 3, 3)
    left = mat_mul(gram_inverse(mat_transpose(a)), mat_transpose(a))
    null = mat_mul(support.rand_matrix(rng, 3, 5), mat_sub(identity(5), mat_mul(a, left)))
    assert mat_mul(null, a) == zeros(3, 3) != null
    yield a, mat_add(left, null)
    # a regular A: its inverse, that with one entry bumped, and that times a
    # unit triangular T, so that A*X = T has the identity's diagonal
    a = support.rand_invertible(rng, 4)
    inverse = support.ref_inverse(a)
    yield a, inverse
    yield a, mat_add(inverse, RMatrix.from_rows([[int(i == j == 0) for j in range(4)]
                                                 for i in range(4)]))
    yield a, mat_mul(inverse, RMatrix.from_rows([[int(j in (i, i + 1)) for j in range(4)]
                                                 for i in range(4)]))


def test_same_reports_as_every_product_formed():
    # check compares in place; its reports are those of the form that builds
    # every product, with the rank sequence cold and kept
    seen = set()
    for a, x in oracle_corpus():
        want = support.ref_check(a, x)
        square._index_and_skeleton.cache_clear()
        assert check(a, x) == want
        assert check(a, x) == want
        seen.update((name, getattr(want, name)) for name in ("eq1", "eq2", "eq3", "eq4",
                                                              "eq5", "eq6"))
    assert seen == {(f"eq{i}", v) for i in range(1, 7) for v in (True, False)} | {
        ("eq5", None), ("eq6", None)}


def test_dimension_check():
    with pytest.raises(DimensionMismatch):
        check(support.EX1, zeros(2, 3))


def test_classify_all_true():
    rep = check(identity(2), identity(2))
    for expected in ("MP", "group", "Drazin"):
        assert expected in rep.classes


def test_classify_drazin_only():
    labels = _labels(eq1=False, eq2=True, eq3=False, eq4=False, eq5=True, eq6=True)
    assert labels == ("{2}", "{5}", "{5^k}", "Drazin")


def test_classify_one_three():
    labels = _labels(eq1=True, eq2=False, eq3=True, eq4=False, eq5=False, eq6=False)
    assert labels == ("{1}", "{3}", "{1,3}")


def test_constructor_reports_contain_advertised_classes():
    a = support.EX1
    f = full_rank_reduce(a)
    assert "{1}" in check(a, g1_inverse(f)).classes
    assert "{1,3}" in check(a, g13_inverse(f)).classes
    assert "Drazin" in check(a, drazin_inverse(a)).classes
