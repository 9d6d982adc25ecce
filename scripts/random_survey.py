#!/usr/bin/env python3
"""Random sweep: build a seeded corpus of small rational matrices, compute
every inverse family, verify everything exactly, and print summary counts
(rank/index distribution, EP frequency, equations satisfied). All checks are
structural equality; any violation aborts with an assertion error.

A third of the draws are m x n: half of them random matrices, which are
almost never rank-deficient, and half low-rank products L*R with m != n and
rank below min(m, n). The rest are square: half of them low-rank products
L*R, which have index 1 in general, and half S*diag(N_k, M)*S^-1 with the
k x k nilpotent Jordan block N_k, k from 1 to 3, whose index is exactly k.
On every square draw the minimal polynomial mu must annihilate A, have the
rank sequence's index as its lowest nonzero degree, and be of least degree:
vec(I), vec(A), ..., vec(A^(deg mu - 1)) have rank deg mu, which a
higher-degree annihilator fails; and ``check``'s sixth equation, for the
pseudoinverse and the Drazin inverse, must equal A^k*X*A == A^k with A^k
from ``mat_pow``."""

import argparse
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import chain

from geninv import (RMatrix, block_compose, check, drazin_inverse, full_rank_reduce,
                    g1_inverse, g12_inverse, g123_inverse, g124_inverse,
                    g13_inverse, g134_inverse, g14_inverse, group_inverse_block,
                    group_inverse_poly, identity, index_of, is_ep, mat_inverse, mat_mul,
                    mat_pow, mat_rank, minimal_polynomial, moore_penrose, poly_at,
                    verify_factorization, zeros)

G_INVERSES = (("{1}", g1_inverse), ("{1,2}", g12_inverse), ("{1,3}", g13_inverse),
              ("{1,2,3}", g123_inverse), ("{1,4}", g14_inverse),
              ("{1,2,4}", g124_inverse), ("{1,3,4}", g134_inverse))


def rand_matrix(rng, m, n):
    return RMatrix(m, n, tuple(tuple(Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
                                     for _ in range(n)) for _ in range(m)))


def rand_regular(rng, n):
    while True:
        a = rand_matrix(rng, n, n)
        if mat_rank(a) == n:
            return a


def low_rank(rng, m, n):
    """L*R with an m x r and an r x n factor, r < min(m, n): rank at most r."""
    r = rng.randint(0, min(m, n) - 1)
    return mat_mul(rand_matrix(rng, m, r), rand_matrix(rng, r, n))


def with_index(rng, n, k):
    """S*diag(N_k, M)*S^-1 with regular S and M: index exactly k."""
    jordan = RMatrix(k, k, tuple(tuple(Fraction(j == i + 1) for j in range(k)) for i in range(k)))
    core = block_compose(jordan, zeros(k, n - k), zeros(n - k, k), rand_regular(rng, n - k))
    s = rand_regular(rng, n)
    return mat_mul(mat_mul(s, core), mat_inverse(s))


def powers_stacked(a, count):
    """The count x n^2 matrix whose row j is vec(A^j), j = 0..count-1."""
    rows, power = [], identity(a.rows)
    for _ in range(count):
        rows.append(list(chain.from_iterable(power.entries)))
        power = mat_mul(power, a)
    return RMatrix(count, a.rows * a.rows, tuple(map(tuple, rows)))


def draw(rng, max_dim):
    """(A, its index when the draw fixes it, else None)."""
    kind = rng.randrange(3)
    if kind == 0:
        if rng.randrange(2):
            return low_rank(rng, *rng.sample(range(1, max_dim + 1), 2)), None
        return rand_matrix(rng, rng.randint(1, max_dim), rng.randint(1, max_dim)), None
    if kind == 1:
        n = rng.randint(1, max_dim)
        return low_rank(rng, n, n), None
    k = rng.randint(1, min(3, max_dim))
    return with_index(rng, rng.randint(k, max_dim), k), k


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=200, help="corpus size")
    ap.add_argument("--max-dim", type=int, default=6, help="largest dimension")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.max_dim < 2:
        ap.error("--max-dim must be at least 2, so that m != n can be drawn")

    rng = random.Random(args.seed)
    ranks = Counter()
    indexes = Counter()
    ep_count = 0
    square_count = 0
    rect_deficient = 0
    t0 = time.monotonic()

    for _ in range(args.count):
        a, fixed_index = draw(rng, args.max_dim)

        f = full_rank_reduce(a)
        assert verify_factorization(f)
        ranks[f.r] += 1

        pinv = moore_penrose(a)
        rep = check(a, pinv)
        assert "MP" in rep.classes

        for label, build in G_INVERSES:
            assert label in check(a, build(f)).classes, label

        if a.is_square:
            square_count += 1
            k = index_of(a)
            assert fixed_index in (None, k)
            indexes[k] += 1
            mu = minimal_polynomial(a)
            assert mu.index == k
            assert poly_at(mu.coeffs, a) == zeros(a.rows, a.rows)
            assert mat_rank(powers_stacked(a, mu.degree)) == mu.degree
            ak = mat_pow(a, k)  # check's eq6 must be A^k*X*A = A^k as defined
            assert rep.eq6 == (mat_mul(mat_mul(ak, pinv), a) == ak)
            drazin = drazin_inverse(a)
            drep = check(a, drazin)
            assert "Drazin" in drep.classes
            assert drep.eq6 == (mat_mul(mat_mul(ak, drazin), a) == ak)
            if k <= 1:
                assert group_inverse_poly(a) == group_inverse_block(a)
            ep = is_ep(a)
            assert ep == (pinv == drazin)
            if ep:
                ep_count += 1
        else:
            rect_deficient += f.r < min(a.rows, a.cols)

    dt = time.monotonic() - t0
    print(f"corpus: {args.count} matrices, dims 1..{args.max_dim}, seed {args.seed}")
    print(f"all factorizations and inverses verified exactly ({dt:.2f}s)")
    print(f"rank distribution:  {dict(sorted(ranks.items()))}")
    print(f"rank-deficient:     {rect_deficient}/{args.count - square_count} non-square")
    print(f"index distribution: {dict(sorted(indexes.items()))} over {square_count} square")
    print(f"EP matrices:        {ep_count}/{square_count} square")


if __name__ == "__main__":
    main()
