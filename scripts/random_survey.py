#!/usr/bin/env python3
"""Random sweep: build a seeded corpus of small rational matrices, compute
every inverse family, verify everything exactly, and print summary counts
(rank/index distribution, EP frequency, equations satisfied). All checks are
structural equality; any violation aborts with an assertion error."""

import argparse
import random
import time
from collections import Counter
from fractions import Fraction

from geninv import (RMatrix, check, drazin_inverse, full_rank_reduce,
                    g1_inverse, g12_inverse, g123_inverse, g124_inverse,
                    g13_inverse, g134_inverse, g14_inverse, group_inverse_block,
                    group_inverse_poly, index_of, is_ep, moore_penrose,
                    verify_factorization)

G_INVERSES = (("{1}", g1_inverse), ("{1,2}", g12_inverse), ("{1,3}", g13_inverse),
              ("{1,2,3}", g123_inverse), ("{1,4}", g14_inverse),
              ("{1,2,4}", g124_inverse), ("{1,3,4}", g134_inverse))


def rand_matrix(rng, m, n):
    return RMatrix.from_rows([[Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
                               for _ in range(n)] for _ in range(m)])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=200, help="corpus size")
    ap.add_argument("--max-dim", type=int, default=6, help="largest dimension")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    ranks = Counter()
    indexes = Counter()
    ep_count = 0
    square_count = 0
    t0 = time.monotonic()

    for _ in range(args.count):
        m = rng.randint(1, args.max_dim)
        n = rng.randint(1, args.max_dim)
        a = rand_matrix(rng, m, n)

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
            indexes[k] += 1
            drazin = drazin_inverse(a)
            assert "Drazin" in check(a, drazin).classes
            if k <= 1:
                assert group_inverse_poly(a) == group_inverse_block(a)
            ep = is_ep(a)
            assert ep == (pinv == drazin)
            if ep:
                ep_count += 1

    dt = time.monotonic() - t0
    print(f"corpus: {args.count} matrices, dims 1..{args.max_dim}, seed {args.seed}")
    print(f"all factorizations and inverses verified exactly ({dt:.2f}s)")
    print(f"rank distribution:  {dict(sorted(ranks.items()))}")
    print(f"index distribution: {dict(sorted(indexes.items()))} over {square_count} square")
    print(f"EP matrices:        {ep_count}/{square_count} square")


if __name__ == "__main__":
    main()
