"""Full-rank reduction by elementary row and column operations.

Any rational m x n matrix A can be driven to the partial identity E_r by
elementary operations. Recording the row operations in Q and the column
operations in P yields regular matrices with Q*A*P = E_r, where r is the
rank of A. The pair (P, Q) is not unique; downstream constructions that
are unique (such as the Moore-Penrose inverse) do not depend on the choice.
``full_rank_reduce`` makes one choice, and ``factor_with`` accepts any other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidFactorization
from .exact import (RMatrix, _echelon, _make, _over_lcm, _rows, _solve, _unit, mat_mul, mat_rank,
                    partial_identity)


@dataclass(frozen=True)
class FactoredMatrix:
    """A together with regular P (n x n), Q (m x m) and rank r, Q*A*P = E_r,
    which every ``g*`` inverse and block validator trusts. One built by hand is
    not checked: ``factor_with`` checks its factors, ``verify_factorization``
    an existing reduction."""

    a: RMatrix
    p: RMatrix
    q: RMatrix
    r: int

    @property
    def m(self) -> int:
        return self.a.rows

    @property
    def n(self) -> int:
        return self.a.cols


def full_rank_reduce(a: RMatrix) -> FactoredMatrix:
    """Reduce A to E_r by row operations (Q) and column operations (P).

    Q is the right half of the forward elimination of [A | I_m], each pivot
    row divided by its pivot. With Pi the column swaps and U the echelon rows
    so scaled, P = Pi * [[U1, U2], [0, I]]^-1, the column operations that
    clear each pivot row. Each pivot is the first nonzero entry left, in
    row-major order.
    """
    m, n, den = a.rows, a.cols, a._den
    r, rows, _, cols = _echelon([([*row, *_unit(i, m, den)], den)
                                 for i, row in enumerate(_rows(a))], n)
    q = _over_lcm(m, m, [(nums[n:], nums[t] if t < r else d) for t, (nums, d) in enumerate(rows)])
    # row t < r of [[U1, U2], [0, I] | I] times its pivot: numerators, then pivot at t
    u_inv = _solve([([*rows[t][0][:n], *_unit(t, n, rows[t][0][t])], 1) if t < r
                    else ([*_unit(t, n), *_unit(t, n)], 1) for t in range(n)])
    p = [()] * n
    for t, row in enumerate(_rows(u_inv)):
        p[cols[t]] = row
    return FactoredMatrix(a=a, p=_make(n, n, [x for row in p for x in row], u_inv._den), q=q, r=r)


def verify_factorization(f: FactoredMatrix) -> bool:
    """True iff Q*A*P is the rank-r partial identity with regular P, Q and r = rank(A)."""
    try:
        return factor_with(f.a, f.p, f.q).r == f.r
    except InvalidFactorization:
        return False


def factor_with(a: RMatrix, p: RMatrix, q: RMatrix) -> FactoredMatrix:
    """Wrap caller-supplied factors, checking that they actually reduce A."""
    if p.shape != (a.cols, a.cols):
        raise InvalidFactorization(f"P must be {a.cols}x{a.cols}, got {p.rows}x{p.cols}")
    if q.shape != (a.rows, a.rows):
        raise InvalidFactorization(f"Q must be {a.rows}x{a.rows}, got {q.rows}x{q.cols}")
    if mat_rank(p) != p.rows:
        raise InvalidFactorization("P is singular")
    if mat_rank(q) != q.rows:
        raise InvalidFactorization("Q is singular")
    r = mat_rank(a)
    if mat_mul(mat_mul(q, a), p) != partial_identity(a.rows, a.cols, r):
        raise InvalidFactorization("Q*A*P is not the rank-r partial identity")
    return FactoredMatrix(a=a, p=p, q=q, r=r)
