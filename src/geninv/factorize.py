"""Full-rank reduction by elementary row and column operations.

Any rational m x n matrix A can be driven to the partial identity E_r by
elementary operations. Recording the row operations in Q and the column
operations in P yields regular matrices with Q*A*P = E_r, where r is the
rank of A. The pair (P, Q) is not unique; downstream constructions that
are unique (such as the Moore-Penrose inverse) do not depend on the choice,
and two pivot policies are exposed so tests can confirm that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .errors import InvalidFactorization
from .exact import RMatrix, mat_mul, mat_rank, partial_identity

PivotPolicy = Literal["first", "last"]
PIVOT_POLICIES: tuple[PivotPolicy, ...] = ("first", "last")
DEFAULT_POLICY: PivotPolicy = "first"


@dataclass(frozen=True)
class FactoredMatrix:
    """A together with regular P (n x n), Q (m x m) and rank r, Q*A*P = E_r."""

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


def _find_pivot(grid, t: int, m: int, n: int, policy: PivotPolicy):
    rows = range(t, m) if policy == "first" else range(m - 1, t - 1, -1)
    cols = range(t, n) if policy == "first" else range(n - 1, t - 1, -1)
    for i in rows:
        row = grid[i]
        for j in cols:
            if row[j]:
                return i, j
    return None


def full_rank_reduce(a: RMatrix, policy: PivotPolicy = DEFAULT_POLICY) -> FactoredMatrix:
    """Reduce A to E_r, accumulating row operations in Q and column operations in P.

    The working matrix B starts as A and satisfies B = Q*A*P throughout:
    each row operation is mirrored into Q, each column operation into P.
    ``policy`` picks which nonzero entry of the remaining submatrix becomes
    the next pivot ("first" and "last" in row-major scan order).
    """
    if policy not in PIVOT_POLICIES:
        raise ValueError(f"unknown pivot policy {policy!r}")
    m, n = a.rows, a.cols
    b = [list(row) for row in a.entries]
    q = [[Fraction(i == j) for j in range(m)] for i in range(m)]
    p = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    t = 0
    while t < min(m, n):
        found = _find_pivot(b, t, m, n, policy)
        if found is None:
            break
        pi, pj = found
        if pi != t:
            b[t], b[pi] = b[pi], b[t]
            q[t], q[pi] = q[pi], q[t]
        if pj != t:
            for row in b:
                row[t], row[pj] = row[pj], row[t]
            for row in p:
                row[t], row[pj] = row[pj], row[t]
        inv_piv = 1 / b[t][t]
        b[t] = [v * inv_piv for v in b[t]]
        q[t] = [v * inv_piv for v in q[t]]
        # clear the pivot column with row operations (mirrored into Q)
        for i in range(m):
            f = b[i][t]
            if f and i != t:
                b[i] = [v - f * w for v, w in zip(b[i], b[t])]
                q[i] = [v - f * w for v, w in zip(q[i], q[t])]
        # clear the rest of the pivot row with column operations (mirrored into P)
        for j in range(t + 1, n):
            f = b[t][j]
            if f:
                for row in b:
                    row[j] -= f * row[t]
                for row in p:
                    row[j] -= f * row[t]
        t += 1
    return FactoredMatrix(a=a,
                          p=RMatrix(n, n, tuple(tuple(row) for row in p)),
                          q=RMatrix(m, m, tuple(tuple(row) for row in q)),
                          r=t)


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
