"""Square-matrix machinery: minimal polynomial, index, group and Drazin
inverses, and EP detection.

The index of A is the smallest k >= 0 with rank(A^k) = rank(A^(k+1)); it
equals the lowest degree with a nonzero coefficient in the minimal
polynomial. ``index_of``, ``penrose.check`` and ``drazin_inverse`` read k
and A^k from the rank sequence, ``group_inverse_poly`` from the minimal
polynomial it needs anyway; the tests assert that the routes agree, as they
do for ``is_ep``'s rank test against the definition A^+ = A^D.

The Drazin inverse is Cline's full-rank form (R. E. Cline, SIAM J. Numer.
Anal. 5, 1968; Ben-Israel & Greville, *Generalized Inverses*, ch. 4): for
A^k = F*G of full rank, k >= index of A, A^D = F*(G*A*F)^-1*G. With C the
pivot columns and R the pivot rows of A^k, A^k = C*U^-1*R for their regular
intersection U, and F = C, G = U^-1*R give A^D = C*(R*A*C)^-1*R.

The q-polynomial satisfies mu(x) = c_k * x^k * (1 - x*q(x)), which the tests
assert rather than each call, and makes the group inverse a polynomial in A:
A*q(A)^2, or q(A) = A^-1 for a regular A.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DimensionMismatch, IndexTooLarge, InternalInvariantViolation, SingularMatrix
from .exact import (RMatrix, _eliminate, _from_grid, _make, _over_lcm, _pivot_columns, _unit,
                    block_compose, block_extract, identity, mat_add, mat_inverse, mat_mul,
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

    def __post_init__(self) -> None:
        if not self.coeffs or self.coeffs[-1] != 1:
            raise ValueError("minimal polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def index(self) -> int:
        return next(i for i, c in enumerate(self.coeffs) if c)

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
    """Evaluate a polynomial at a square matrix by Horner's scheme. No library
    function calls it; it is kept as the independent evaluation the tests hold
    ``_combine`` and ``drazin_inverse`` against, and perfbench's tracer counts it."""
    _require_square(a, "polynomial evaluation")
    n = a.rows
    *lower, lead = coeffs or (0,)
    acc = mat_scale(identity(n), lead)
    for c in reversed(lower):
        acc = mat_mul(acc, a)
        if c:
            acc = mat_add(acc, mat_scale(identity(n), c))
    return acc


def _combine(coeffs, powers: list[RMatrix]) -> RMatrix:
    """The sum of c_j * A^j over the ``Fraction`` coefficients as one product,
    the 1 x d row of them times the d x n^2 stack of the flattened powers
    A^0 .. A^(d-1) from ``powers``, put over the lcm of their denominators and
    read back as n x n."""
    n, d = powers[0].rows, len(coeffs)
    stack = _over_lcm(d, n * n, [(p._nums, p._den) for p in powers[:d]])
    flat = mat_mul(_from_grid(1, d, (coeffs,)), stack)
    return _make(n, n, flat._nums, flat._den)


def minimal_polynomial(a: RMatrix, _powers: Optional[list[RMatrix]] = None) -> MinimalPolynomial:
    """Least-degree monic polynomial with mu(A) = 0: the first dependence among
    the integer rows [vec(A^j) | e_j], each reduced by ``_eliminate`` in turn.
    A list passed as ``_powers`` receives A^0 .. A^(deg mu)."""
    _require_square(a, "minimal polynomial")
    n, width = a.rows, a.rows ** 2
    powers = [] if _powers is None else _powers
    powers.append(identity(n))
    basis = []  # (pivot column, reduced row), in the order they were added
    degree = 0
    while True:
        power = powers[degree]
        row = [*power._nums, *_unit(degree, n + 1, power._den)], power._den
        for pivot, brow in basis:
            if row[0][pivot]:
                row = _eliminate(row, brow, pivot)
        nums = row[0]
        pivot = next((j for j in range(width) if nums[j]), None)
        if pivot is None:
            lead = nums[width + degree]
            return MinimalPolynomial(tuple([Fraction(x, lead)
                                            for x in nums[width:width + degree + 1]]))
        if degree == n:
            raise InternalInvariantViolation("powers up to A^n are linearly independent")
        basis.append((pivot, row))
        # through the module global, so a wrapper bound in its place sees it
        powers.append(mat_mul(powers[degree], a) if degree else a)
        degree += 1


def q_polynomial(mu: MinimalPolynomial) -> tuple[Fraction, ...]:
    """The coefficients of q with mu(x) = c_k * x^k * (1 - x*q(x)); (0,) when mu = x^k."""
    k = mu.index
    num, den = mu.coeffs[k].numerator, mu.coeffs[k].denominator  # c_k, read once
    return tuple([Fraction(-c.numerator * den, c.denominator * num)
                  for c in mu.coeffs[k + 1:]]) or (Fraction(0),)


def _index_and_power(a: RMatrix) -> tuple[int, RMatrix]:
    """The index k by the rank sequence, with A^k: k products and k + 1 ranks."""
    k, power, prev, nxt = 0, identity(a.rows), a.rows, a  # A^0, its rank, A^1
    while (cur := mat_rank(nxt)) != prev:
        k, power, prev, nxt = k + 1, nxt, cur, mat_mul(nxt, a)
    return k, power


def index_of(a: RMatrix) -> int:
    """Smallest k with rank(A^k) = rank(A^(k+1)), by the rank sequence."""
    _require_square(a, "index")
    return _index_and_power(a)[0]


def group_inverse_poly(a: RMatrix) -> RMatrix:
    """The group inverse, which requires index at most 1: A*q(A)^2, or
    q(A) = A^-1 for a regular A. q(A) itself is a {1}-inverse of A at index 1."""
    _require_square(a, "group inverse")
    powers = []
    mu = minimal_polynomial(a, powers)
    if mu.index > 1:
        raise IndexTooLarge(f"group inverse requires index <= 1, got {mu.index}")
    qa = _combine(q_polynomial(mu), powers)
    return qa if mu.index == 0 else mat_mul(a, mat_mul(qa, qa))


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
    try:
        v4i = mat_inverse(v4)
    except SingularMatrix:
        raise IndexTooLarge(
            f"group inverse requires index <= 1, got {_index_and_power(a)[0]}") from None
    return g12_inverse(f, -mat_mul(v2, v4i), -mat_mul(v4i, v3))


def drazin_inverse(a: RMatrix) -> RMatrix:
    """C*(R*A*C)^-1*R for the pivot columns C and pivot rows R of A^k, k = index
    of A: zero for nilpotent A (C is n x 0), A^-1 for regular A (C = R = I)."""
    _require_square(a, "Drazin inverse")
    _, ak = _index_and_power(a)
    c = _pivot_columns(ak)
    r = mat_transpose(_pivot_columns(mat_transpose(ak)))
    return mat_mul(mat_mul(c, mat_inverse(mat_mul(mat_mul(r, a), c))), r)


def is_ep(a: RMatrix) -> bool:
    """Whether A is EP, A^+ = A^D: exactly when A and At have the same null
    space, that is when rank([A; At]) = rank(A)."""
    _require_square(a, "EP test")
    stacked = block_compose(a, zeros(a.rows, 0), mat_transpose(a), zeros(a.rows, 0))
    return mat_rank(stacked) == mat_rank(a)
