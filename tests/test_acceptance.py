"""Acceptance suite.

One test per acceptance criterion; every comparison is exact structural
equality (no tolerances anywhere). Each test prints a PASS line once its
assertions have gone through, so `pytest -s` shows a one-line verdict per
criterion; a failed assertion leaves the line unprinted and the test red.
"""

import random
import time

import pytest

import support
from geninv import (check, drazin_inverse, drazin_onecheck, full_rank_reduce,
                    g1_inverse, g12_inverse, g123_inverse, g124_inverse,
                    g13_inverse, g134_inverse, g14_inverse, g2_inverse,
                    group_inverse_block, group_inverse_poly, index_of, is_ep,
                    mat_mul, mat_pow, mat_rank, minimal_polynomial,
                    moore_penrose, q_polynomial, zeros)
from geninv.cli import parse_matrix_text, run
from support import (rand_idempotent, rand_index_one_singular, rand_matrix,
                     rand_nilpotent, rand_symmetric_singular)

from fractions import Fraction


def _passed(line):
    print(f"ACCEPTANCE {line}: PASS")


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "ex1.rmat"
    path.write_text("3 3\n1 2 3\n4 5 6\n7 8 9\n")
    return str(path)


@pytest.fixture
def ex3_file(tmp_path):
    path = tmp_path / "ex3.rmat"
    path.write_text("5 5\n1 1 1 0 0\n1 2 0 1 1\n1 0 2 -1 -1\n0 1 -1 1 1\n0 1 -1 1 1\n")
    return str(path)


def test_criterion_1_golden_pseudoinverse(ex1_file, capsys):
    start = time.monotonic()
    code = run(["pinv", ex1_file])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    assert parse_matrix_text(out) == support.EX1_PINV
    assert out == ("3 3\n"
                   "-23/36 -1/6 11/36\n"
                   "-1/18 0 1/18\n"
                   "19/36 1/6 -7/36\n")
    assert elapsed < 1.0
    with capsys.disabled():
        _passed(f"1 (golden 3x3 pseudoinverse, exact, {elapsed:.3f}s)")


def test_criterion_2_golden_group_inverse(ex1_file, capsys):
    assert run(["group", "--method", "poly", ex1_file]) == 0
    poly_out = capsys.readouterr().out
    assert run(["group", "--method", "block", ex1_file]) == 0
    block_out = capsys.readouterr().out
    assert parse_matrix_text(poly_out) == support.EX1_PINV
    assert poly_out == block_out

    mu = minimal_polynomial(support.EX1)
    assert mu.coeffs == (Fraction(0), Fraction(-18), Fraction(-15), Fraction(1))
    q = q_polynomial(mu)
    assert q.coeffs == (Fraction(-5, 6), Fraction(1, 18))
    assert index_of(support.EX1) == 1

    assert run(["minpoly", ex1_file]) == 0
    assert capsys.readouterr().out == "x^3 - 15*x^2 - 18*x\n"
    assert run(["qpoly", ex1_file]) == 0
    assert capsys.readouterr().out == "1/18*x - 5/6\n"
    assert run(["index", ex1_file]) == 0
    assert capsys.readouterr().out == "1\n"
    with capsys.disabled():
        _passed("2 (golden group inverse via both routes, minimal/q-polynomial, index)")


def test_criterion_3_golden_ep_example(ex3_file, capsys):
    assert run(["pinv", ex3_file]) == 0
    assert parse_matrix_text(capsys.readouterr().out) == support.EX3_PINV
    assert run(["ep", ex3_file]) == 0
    assert capsys.readouterr().out == "true\n"
    assert run(["group", "--method", "block", ex3_file]) == 0
    assert parse_matrix_text(capsys.readouterr().out) == support.EX3_PINV
    with capsys.disabled():
        _passed("3 (golden 5x5 EP pseudoinverse, ep flag, block group inverse)")


def test_criterion_4_defining_equation_suite(capsys):
    rng = random.Random(40_2026)
    corpus = [rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
              for _ in range(500)]

    # advertised equation subset per constructor
    recipes = (
        (lambda f, d: g1_inverse(f, **d), ("x1", "x2", "x3"), ("eq1",)),
        (lambda f, d: g2_inverse(f, **d), ("x0", "fblk", "gblk"), ("eq2",)),
        (lambda f, d: g12_inverse(f, **d), ("x1", "x2"), ("eq1", "eq2")),
        (lambda f, d: g13_inverse(f, **d), ("x2", "x3"), ("eq1", "eq3")),
        (lambda f, d: g123_inverse(f, **d), ("x2",), ("eq1", "eq2", "eq3")),
        (lambda f, d: g14_inverse(f, **d), ("x1", "x3"), ("eq1", "eq4")),
        (lambda f, d: g124_inverse(f, **d), ("x1",), ("eq1", "eq2", "eq4")),
        (lambda f, d: g134_inverse(f, **d), ("x3",), ("eq1", "eq3", "eq4")),
    )

    def draw_block(name, f):
        shapes = {"x0": (f.r, f.r), "x1": (f.r, f.m - f.r), "fblk": (f.r, f.m - f.r),
                  "x2": (f.n - f.r, f.r), "gblk": (f.n - f.r, f.r),
                  "x3": (f.n - f.r, f.m - f.r)}
        rows, cols = shapes[name]
        if rows == 0 or cols == 0:
            return None
        if name == "x0":
            return rand_idempotent(rng, rows)
        return rand_matrix(rng, rows, cols)

    checked = 0
    free_draws = 0
    for i, a in enumerate(corpus):
        f = full_rank_reduce(a)
        k = index_of(a) if a.is_square else None
        x = moore_penrose(a)
        rep = check(a, x, index=k)
        assert "MP" in rep.classes, f"pseudoinverse failed on matrix {i}"
        checked += 1
        with_random_blocks = i % 5 == 0  # 100 of the 500 get random free blocks
        for build, names, advertised in recipes:
            kwargs = {}
            if with_random_blocks and f.r > 0:
                kwargs = {name: draw_block(name, f) for name in names}
                free_draws += 1
            x = build(f, kwargs)
            rep = check(a, x, index=k)
            for eq in advertised:
                assert getattr(rep, eq), f"{build} violated {eq} on matrix {i}"
            checked += 1
    assert len(corpus) == 500
    assert free_draws >= 100 * len(recipes)
    with capsys.disabled():
        _passed(f"4 (defining equations: 500 matrices, {checked} constructions, "
                f"{free_draws} random free-block draws, zero failures)")


def test_criterion_5_pseudoinverse_uniqueness(capsys):
    rng = random.Random(50_2026)
    for _ in range(100):
        a = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert moore_penrose(a, "first") == moore_penrose(a, "last")
    with capsys.disabled():
        _passed("5 (pseudoinverse identical under both pivot policies, 100 matrices)")


def test_criterion_6_polynomial_identity(capsys):
    rng = random.Random(60_2026)
    corpus = [rand_matrix(rng, n, n) for n in (rng.randint(1, 5) for _ in range(80))]
    corpus += [rand_nilpotent(rng, rng.randint(2, 5)) for _ in range(10)]
    corpus += [rand_index_one_singular(rng, rng.randint(2, 5)) for _ in range(10)]
    assert len(corpus) == 100
    for a in corpus:
        mu = minimal_polynomial(a)
        q = q_polynomial(mu)  # raises internally if the rebuild identity fails
        ck = mu.coeffs[mu.index]
        rebuilt = [Fraction(0)] * mu.index + [ck] + [-ck * c for c in q.coeffs]
        rebuilt = rebuilt[:mu.degree + 1] + [Fraction(0)] * (mu.degree + 1 - len(rebuilt))
        assert tuple(rebuilt) == mu.coeffs
    with capsys.disabled():
        _passed("6 (q-polynomial identity coefficientwise on 100 matrices, "
                "10 nilpotent and 10 index-1 singular included)")


def test_criterion_7_drazin_suite(capsys):
    rng = random.Random(70_2026)
    corpus = [rand_matrix(rng, n, n) for n in (rng.randint(1, 5) for _ in range(80))]
    nilpotents = [rand_nilpotent(rng, rng.randint(2, 5)) for _ in range(10)]
    corpus += nilpotents
    corpus += [rand_index_one_singular(rng, rng.randint(2, 5)) for _ in range(10)]
    for a in corpus:
        ad = drazin_inverse(a)
        k = index_of(a)
        assert mat_mul(mat_mul(ad, a), ad) == ad           # eq2
        assert mat_mul(a, ad) == mat_mul(ad, a)            # eq5
        ak = mat_pow(a, k)
        assert mat_mul(mat_mul(ak, ad), a) == ak           # eq6 at k
        rep = check(a, ad, index=k)
        assert rep.eq2 and rep.eq5 and rep.eq6 and "Drazin" in rep.classes
        assert drazin_onecheck(a) == (k <= 1)
    for a in nilpotents:
        assert drazin_inverse(a) == zeros(a.rows, a.rows)
    with capsys.disabled():
        _passed("7 (Drazin satisfies its equation set; A*A^D*A = A iff index <= 1; "
                "nilpotents map to zero)")


def test_criterion_8_ep_suite(capsys):
    rng = random.Random(80_2026)
    corpus = [rand_matrix(rng, n, n) for n in (rng.randint(1, 5) for _ in range(80))]
    corpus += [rand_nilpotent(rng, rng.randint(2, 5)) for _ in range(10)]
    symmetric_singular = [rand_symmetric_singular(rng, rng.randint(2, 5))
                          for _ in range(20)]
    for a in corpus:
        assert is_ep(a) == (moore_penrose(a) == drazin_inverse(a))
    for a in symmetric_singular:
        assert mat_rank(a) < a.rows
        assert is_ep(a)
        mp = moore_penrose(a)
        assert mp == drazin_inverse(a)
        assert mp == group_inverse_poly(a)
        assert mp == group_inverse_block(a)
    with capsys.disabled():
        _passed("8 (EP routes agree on the corpus; symmetric singular matrices are EP "
                "with pseudoinverse = group = Drazin)")
