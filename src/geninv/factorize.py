"""Full-rank reduction: regular P and Q with Q*A*P = E_r, r the rank of A.

``full_rank_reduce`` takes the block Gauss-Jordan form on A's pivot block
U = A[I,J]: with Pr*A*Pc = [[U, B], [D, E]], Q = [[U^-1, 0], [-D*U^-1, I]]*Pr
and P = Pc*[[I, -U^-1*B], [0, I]] give Q*A*P = [[I, 0], [0, E - D*U^-1*B]],
which is E_r since E = D*U^-1*B at rank r. The pair is not unique; unique
constructions (such as the Moore-Penrose inverse) do not depend on the
choice, and ``factor_with`` accepts any other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidFactorization
from .exact import RMatrix, _gauss_jordan, _over_lcm, _unit, mat_mul, mat_rank, partial_identity


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
    """Q = [[U^-1, 0], [-D*U^-1, I]]*Pr and P = Pc*[[I, -U^-1*B], [0, I]] for
    Pr*A*Pc = [[U, B], [D, E]]: Q*A*P = E_r as E = D*U^-1*B at rank r. One
    Gauss-Jordan pass over [A | I_m] gives Q as its right half, pivot rows over
    the last pivot d and the rest over A's denominator times d, and P's row
    cols[t] from pivot row t, columns r..n-1 negated."""
    m, n = a.rows, a.cols
    r, rows, cols = _gauss_jordan(a)
    d = rows[r - 1][r - 1] if r else 1
    q = _over_lcm(m, m, [(row[n:], d if t < r else a._den * d) for t, row in enumerate(rows)])
    parts = [([*row[:r], *[-x for x in row[r:n]]], d)
             for row in rows[:r]] + [(_unit(t, n), 1) for t in range(r, n)]
    p = dict(zip(cols, parts))  # row cols[t] of P is row t of [[I, -U^-1*B], [0, I]]
    return FactoredMatrix(a=a, p=_over_lcm(n, n, [p[j] for j in range(n)]), q=q, r=r)


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
