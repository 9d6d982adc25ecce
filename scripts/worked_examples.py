#!/usr/bin/env python3
"""Walk through the library on two worked examples: a 3x3 rank-2 matrix and
a 5x5 symmetric singular (EP) matrix. Prints every intermediate object so the
whole pipeline is visible: reduction, Gram blocks, minimal polynomial, all the
inverse routes, and the per-equation verification report."""

from geninv import (RMatrix, check, compute_star_blocks, drazin_inverse,
                    full_rank_reduce, group_blocks, group_inverse_block,
                    group_inverse_poly, index_of, is_ep, minimal_polynomial,
                    moore_penrose, poly_str, q_polynomial)


def show(title, value):
    print(f"--- {title}")
    print(value)
    print()


def walk(name, a):
    print(f"===== {name} =====")
    show("A", a)

    f = full_rank_reduce(a)
    show(f"P  (rank r = {f.r})", f.p)
    show("Q", f.q)

    (_, _, _, s4), (_, _, _, t4) = compute_star_blocks(f)
    show("Q*Qt trailing block S4", s4)
    show("Pt*P trailing block T4", t4)

    pinv = moore_penrose(a)
    show("Moore-Penrose inverse", pinv)

    if a.is_square:
        mu = minimal_polynomial(a)
        print(f"minimal polynomial: {poly_str(mu.coeffs)}")
        print(f"q-polynomial:       {poly_str(q_polynomial(mu))}")
        print(f"index:              {index_of(a)}")
        print(f"EP:                 {is_ep(a)}")
        print()
        if index_of(a) <= 1:
            show("group inverse (polynomial route)", group_inverse_poly(a))
            show("group inverse (block route)", group_inverse_block(a))
            _, _, _, v4 = group_blocks(f)
            show("Q*P trailing block V4", v4)
        show("Drazin inverse", drazin_inverse(a))

    rep = check(a, pinv)
    print(f"verification of the pseudoinverse: classes = {' '.join(rep.classes)}")
    print()


def main():
    walk("3x3 rank-2 example", RMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))
    walk("5x5 symmetric singular (EP) example", RMatrix.from_rows([
        [1, 1, 1, 0, 0],
        [1, 2, 0, 1, 1],
        [1, 0, 2, -1, -1],
        [0, 1, -1, 1, 1],
        [0, 1, -1, 1, 1],
    ]))


if __name__ == "__main__":
    main()
