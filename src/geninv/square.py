"""Square-matrix machinery: minimal polynomial, index, group and Drazin
inverses, and EP detection.

The index of A is the smallest k >= 0 with rank(A^k) = rank(A^(k+1)); it
always equals the lowest degree carrying a nonzero coefficient in the
minimal polynomial. Each function reads it one way: ``index_of`` and
``penrose.check`` by the rank sequence, the inverses from the minimal
polynomial they need anyway. The tests assert that the two routes agree, as
they do for ``is_ep``'s rank test against the definition A^+ = A^D. The
q-polynomial satisfies mu(x) = c_k * x^k * (1 - x*q(x)) and turns
the group inverse (A*q(A)^2, index <= 1) and the Drazin inverse
(A^k * q(A)^(k+1), any index) into plain polynomial expressions in A.

Each call on a square matrix builds its powers I, A, A^2, ... once, in one
lazy chain (``_Powers``) that forms A^(j+1) = A^j * A only when it is first
asked for. The rank index, the minimal polynomial, q(A), the Drazin inverse
and the sixth equation of ``penrose.check`` read from that chain, so no
power of A is multiplied out twice and no product with I or 0 is formed.
The minimal polynomial's scan runs on ``exact``'s integer rows, and q(A) is
one integer product of q's coefficients with the stacked, flattened powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional

from .errors import DimensionMismatch, IndexTooLarge, InternalInvariantViolation
from .exact import (RMatrix, _eliminate, _over_common_denominator, _unit, block_compose,
                    block_extract, identity, mat_add, mat_inverse, mat_mul, mat_pow,
                    mat_rank, mat_scale, mat_transpose, zeros)
from .factorize import FactoredMatrix, full_rank_reduce
from .rect import g12_inverse


@dataclass(frozen=True)
class MinimalPolynomial:
    """Monic least-degree annihilator mu(x) = x^m + c_{m-1}x^{m-1} + ... + c_k x^k.

    ``coeffs`` is dense from degree 0 to m with leading coefficient 1;
    ``index`` is the lowest degree with a nonzero coefficient.
    """

    coeffs: tuple[Fraction, ...]
    degree: int
    index: int

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.degree + 1 or self.degree < 1:
            raise ValueError("coefficient list does not match the degree")
        if self.coeffs[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        if not 0 <= self.index <= self.degree or self.coeffs[self.index] == 0:
            raise ValueError("index must point at the lowest nonzero coefficient")
        if any(self.coeffs[i] != 0 for i in range(self.index)):
            raise ValueError("coefficients below the index must vanish")

    def __str__(self) -> str:
        return poly_str(self.coeffs)


@dataclass(frozen=True)
class QPolynomial:
    """q(x) with mu(x) = c_k * x^k * (1 - x*q(x)); identically zero when mu = x^k."""

    coeffs: tuple[Fraction, ...]

    def __str__(self) -> str:
        return poly_str(self.coeffs)


def poly_str(coeffs) -> str:
    """Human-readable polynomial, highest degree first, e.g. ``x^3 - 15*x^2 - 18*x``."""
    terms = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c == 0:
            continue
        mag = abs(c)
        if d == 0:
            body = str(mag)
        else:
            xpart = "x" if d == 1 else f"x^{d}"
            body = xpart if mag == 1 else f"{mag}*{xpart}"
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    sign, body = terms[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


def _require_square(a: RMatrix, what: str) -> None:
    if not a.is_square:
        raise DimensionMismatch(f"{what} needs a square matrix, got {a.rows}x{a.cols}")


def poly_at(coeffs, a: RMatrix) -> RMatrix:
    """Evaluate a polynomial at a square matrix by Horner's scheme.

    No library function calls it. It is kept on purpose: it is the
    independent evaluation the tests hold ``_Powers.combine`` against, and
    perfbench's tracer counts its calls."""
    _require_square(a, "polynomial evaluation")
    n = a.rows
    *lower, lead = coeffs or (0,)
    acc = mat_scale(identity(n), lead)
    for c in reversed(lower):
        acc = mat_mul(acc, a)
        if c:
            acc = mat_add(acc, mat_scale(identity(n), c))
    return acc


class _Powers:
    """The powers I, A, A^2, ... of a square matrix A, each formed once, by
    one product with A, when it is first asked for."""

    def __init__(self, a: RMatrix) -> None:
        self.a = a
        self._powers = [identity(a.rows), a]

    def __getitem__(self, j: int) -> RMatrix:
        while len(self._powers) <= j:
            # through the module global, so a wrapper bound in its place sees it
            self._powers.append(mat_mul(self._powers[-1], self.a))
        return self._powers[j]

    def combine(self, coeffs) -> RMatrix:
        """The sum of c_j * A^j over the ``Fraction`` coefficients as one
        product, the 1 x d row of them times the d x n^2 stack of flattened
        powers A^0 .. A^(d-1), reshaped to n x n."""
        n, d = self.a.rows, len(coeffs)
        stack = RMatrix(d, n * n, tuple(tuple(chain.from_iterable(self[j].entries))
                                        for j in range(d)))
        flat = mat_mul(RMatrix(1, d, (tuple(coeffs),)), stack).entries[0]
        return RMatrix(n, n, tuple(flat[i * n:(i + 1) * n] for i in range(n)))


def minimal_polynomial(a: RMatrix, _powers: Optional[_Powers] = None) -> MinimalPolynomial:
    """Least-degree monic polynomial with mu(A) = 0: the first dependence among
    the integer rows [vec(A^j) | e_j], each reduced by ``_eliminate`` in turn."""
    _require_square(a, "minimal polynomial")
    n, width = a.rows, a.rows ** 2
    powers = _Powers(a) if _powers is None else _powers
    basis = []  # (pivot column, reduced row), in the order they were added
    degree = 0
    while True:
        flat = chain.from_iterable(powers[degree].entries)
        row = _over_common_denominator([*flat, *_unit(degree, n + 1)])
        for pivot, brow in basis:
            if row[0][pivot]:
                row = _eliminate(row, brow, pivot)
        nums = row[0]
        pivot = next((j for j in range(width) if nums[j]), None)
        if pivot is None:
            lead = nums[width + degree]
            coeffs = tuple(Fraction(x, lead) for x in nums[width:width + degree + 1])
            k = next(i for i, c in enumerate(coeffs) if c)
            return MinimalPolynomial(coeffs=coeffs, degree=degree, index=k)
        if degree == n:
            raise InternalInvariantViolation("powers up to A^n are linearly independent")
        basis.append((pivot, row))
        degree += 1


def _trimmed(coeffs) -> list:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def q_polynomial(mu: MinimalPolynomial) -> QPolynomial:
    """The polynomial q with mu(x) = c_k * x^k * (1 - x*q(x)); zero when mu = x^k."""
    m, k = mu.degree, mu.index
    ck = mu.coeffs[k]
    if m == k:
        q = QPolynomial(coeffs=(Fraction(0),))
    else:
        q = QPolynomial(coeffs=tuple(-mu.coeffs[k + 1 + j] / ck for j in range(m - k)))
    # rebuild c_k * x^k * (1 - x*q(x)) and compare with mu coefficientwise
    lifted = [Fraction(1)] + [-c for c in q.coeffs]
    rebuilt = [Fraction(0)] * k + [ck * c for c in lifted]
    if _trimmed(rebuilt) != _trimmed(mu.coeffs):
        raise InternalInvariantViolation("q-polynomial does not rebuild the minimal polynomial")
    return q


def _index_by_rank(powers: _Powers) -> int:
    prev = powers.a.rows  # rank of A^0
    k = 0
    while True:
        cur = mat_rank(powers[k + 1])
        if cur == prev:
            return k
        prev = cur
        k += 1


def index_of(a: RMatrix) -> int:
    """Smallest k with rank(A^k) = rank(A^(k+1)), by the rank sequence."""
    _require_square(a, "index")
    return _index_by_rank(_Powers(a))


def group_inverse_poly(a: RMatrix) -> RMatrix:
    """The group inverse A*q(A)^2; requires index at most 1. q(A) itself is a
    {1}-inverse of A in that case."""
    _require_square(a, "group inverse")
    powers = _Powers(a)
    mu = minimal_polynomial(a, powers)
    if mu.index > 1:
        raise IndexTooLarge(f"group inverse requires index <= 1, got {mu.index}")
    qa = powers.combine(q_polynomial(mu).coeffs)
    return mat_mul(a, mat_mul(qa, qa))


def group_blocks(f: FactoredMatrix) -> tuple[RMatrix, RMatrix, RMatrix, RMatrix]:
    """Q*P split at r, as (v1, v2, v3, v4) = [[v1, v2], [v3, v4]]."""
    return block_extract(mat_mul(f.q, f.p), f.r)


def group_inverse_block(a: RMatrix) -> RMatrix:
    """The group inverse from the blocks of Q*P, without any polynomial: the
    {1,2}-inverse with X1 = -V2*V4^-1 and X2 = -V4^-1*V3, which is
    P * [[I, -V2*V4^-1], [-V4^-1*V3, V4^-1*V3*V2*V4^-1]] * Q.

    V4 is regular exactly when the index is at most 1 (Jacobi's identity for
    complementary minors of Q*P and its inverse), for every reduction."""
    _require_square(a, "group inverse")
    f = full_rank_reduce(a)
    _, v2, v3, v4 = group_blocks(f)
    if mat_rank(v4) < a.rows - f.r:
        raise IndexTooLarge(f"group inverse requires index <= 1, got {_index_by_rank(_Powers(a))}")
    v4i = mat_inverse(v4)
    return g12_inverse(f, -mat_mul(v2, v4i), -mat_mul(v4i, v3))


def drazin_inverse(a: RMatrix) -> RMatrix:
    """The Drazin inverse A^k * q(A)^(k+1) at k = index of A, read off the
    minimal polynomial; zero for nilpotent input, the group inverse when the
    index is at most 1. A^k comes from the chain and q(A)^(k+1) from k
    products; q(A) itself at k = 0."""
    _require_square(a, "Drazin inverse")
    powers = _Powers(a)
    mu = minimal_polynomial(a, powers)
    qa = powers.combine(q_polynomial(mu).coeffs)
    if mu.index == 0:
        return qa
    return mat_mul(powers[mu.index], mat_pow(qa, mu.index + 1))


def drazin_onecheck(a: RMatrix) -> bool:
    """Whether A*A^D*A = A; this holds exactly when the index is at most 1."""
    return mat_mul(mat_mul(a, drazin_inverse(a)), a) == a


def is_ep(a: RMatrix) -> bool:
    """Whether A is EP, A^+ = A^D: exactly when A and At have the same null
    space, that is when rank([A; At]) = rank(A)."""
    _require_square(a, "EP test")
    stacked = block_compose(a, zeros(a.rows, 0), mat_transpose(a), zeros(a.rows, 0))
    return mat_rank(stacked) == mat_rank(a)
