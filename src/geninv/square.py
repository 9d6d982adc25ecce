"""Square-matrix machinery: minimal polynomial, index, group and Drazin
inverses, and EP detection.

The index of A is the smallest k >= 0 with rank(A^k) = rank(A^(k+1)); it
equals the lowest degree with a nonzero coefficient in the minimal
polynomial. ``index_of``, ``penrose.check`` and ``drazin_inverse`` read k,
and A^k's pivot columns and rows, from the rank sequence, which ranks each
power by the elimination that gives its skeleton and keeps the last square
matrix's answer, so a ``check`` after ``drazin_inverse`` on the same A
eliminates nothing. ``group_inverse_poly`` reads k from the minimal
polynomial it needs anyway; the tests assert that the routes agree, as they
do for ``is_ep``'s rank test against the definition A^+ = A^D.

The Drazin inverse is Cline's full-rank form (R. E. Cline, SIAM J. Numer.
Anal. 5, 1968; Ben-Israel & Greville, *Generalized Inverses*, ch. 4): for
A^k = F*G of full rank, k >= index of A, A^D = F*(G*A*F)^-1*G. A^k's pivot
columns C = A^k[:,J] and rows R = A^k[I,:] (``exact._skeleton``, the
elimination that ranked A^k) give A^k = C*U^-1*R, U = A^k[I,J], and F = C,
G = U^-1*R give A^D = C*(R*A*C)^-1*R: the outer inverse B*(W*A*B)^-1*W of
``exact._outer`` with B = C and W = R, which at k = 0 (C = R = I) is A^-1
with no product.

The minimal polynomial is the lcm of the unit rows' annihilators (Gantmacher,
*The Theory of Matrices*, vol. 1; Augot & Camion, Linear Algebra Appl. 260,
1997): from p = 1, for each unit row e_i while deg p < n, p becomes
p*h = lcm(p, mu of e_i) for the annihilator h of e_i*p(A), ``exact._annihilator``.
As p divides mu, deg h <= n - deg p bounds its Krylov rows, and once p = mu
every later e_i*p(A) is 0 and costs no Krylov product.

The q-polynomial satisfies mu(x) = c_k * x^k * (1 - x*q(x)), which the tests
assert rather than each call, and makes the group inverse a polynomial in A:
A*q(A)^2, or q(A) = A^-1 for a regular A, with q(A) by Horner's ``poly_at``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DimensionMismatch, IndexTooLarge, SingularMatrix
from .exact import (RMatrix, _annihilator, _make, _outer, _skeleton, _unit, block_compose,
                    block_extract, identity, mat_add, mat_inverse, mat_mul, mat_rank,
                    mat_scale, mat_transpose, zeros)
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
    """Evaluate a polynomial at a square matrix by Horner's scheme, one product per degree."""
    _require_square(a, "polynomial evaluation")
    return _horner(coeffs, identity(a.rows), a)


def _horner(coeffs, x: RMatrix, a: RMatrix) -> RMatrix:
    """x*p(A) by Horner's scheme, for p's int or ``Fraction`` coefficients."""
    *lower, lead = coeffs or (0,)
    acc = mat_scale(x, lead)
    for c in reversed(lower):
        acc = mat_mul(acc, a)
        if c:
            acc = mat_add(acc, mat_scale(x, c))
    return acc


def minimal_polynomial(a: RMatrix) -> MinimalPolynomial:
    """Least-degree monic polynomial with mu(A) = 0: the lcm of the unit rows'
    annihilators, in integers until the one division that makes it monic."""
    _require_square(a, "minimal polynomial")
    n, p = a.rows, [1]
    for i in range(n):
        if len(p) > n:
            break
        h = _annihilator(_horner(p, _make(1, n, _unit(i, n), 1), a), a, n + 1 - len(p))
        p = [sum(p[j] * h[d - j] for j in range(len(p)) if 0 <= d - j < len(h))
             for d in range(len(p) + len(h) - 1)]  # p*h = lcm(p, mu of e_i)
    return MinimalPolynomial(tuple([Fraction(c, p[-1]) for c in p]))


def q_polynomial(mu: MinimalPolynomial) -> tuple[Fraction, ...]:
    """The coefficients of q with mu(x) = c_k * x^k * (1 - x*q(x)); (0,) when mu = x^k."""
    k = mu.index
    num, den = mu.coeffs[k].numerator, mu.coeffs[k].denominator  # c_k, read once
    return tuple([Fraction(-c.numerator * den, c.denominator * num)
                  for c in mu.coeffs[k + 1:]]) or (Fraction(0),)


@lru_cache(maxsize=1)
def _index_and_skeleton(a: RMatrix) -> tuple[int, tuple[RMatrix, RMatrix]]:
    """The index k by the rank sequence, with the pivot columns and rows (C, R)
    of A^k from the elimination that ranked it, C = R = I at k = 0: k products
    and k + 1 eliminations. The last matrix's answer is kept; A is immutable and
    compared by value, so a kept answer is never stale."""
    k, skeleton, power = 0, (identity(a.rows),) * 2, a  # A^0's, and A^1
    while (nxt := _skeleton(power))[1].rows != skeleton[1].rows:
        k, skeleton, power = k + 1, nxt, mat_mul(power, a)
    return k, skeleton


def index_of(a: RMatrix) -> int:
    """Smallest k with rank(A^k) = rank(A^(k+1)), by the rank sequence."""
    _require_square(a, "index")
    return _index_and_skeleton(a)[0]


def group_inverse_poly(a: RMatrix) -> RMatrix:
    """The group inverse, which requires index at most 1: A*q(A)^2, or
    q(A) = A^-1 for a regular A. q(A) itself is a {1}-inverse of A at index 1."""
    _require_square(a, "group inverse")
    mu = minimal_polynomial(a)
    if mu.index > 1:
        raise IndexTooLarge(f"group inverse requires index <= 1, got {mu.index}")
    qa = poly_at(q_polynomial(mu), a)
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
            f"group inverse requires index <= 1, got {_index_and_skeleton(a)[0]}") from None
    return g12_inverse(f, -mat_mul(v2, v4i), -mat_mul(v4i, v3))


def drazin_inverse(a: RMatrix) -> RMatrix:
    """C*(R*A*C)^-1*R for the pivot columns C and pivot rows R of A^k, k = index
    of A: zero for nilpotent A (C is n x 0), A^-1 for regular A (C = R = I)."""
    _require_square(a, "Drazin inverse")
    _, (c, r) = _index_and_skeleton(a)
    return _outer(c, a, r)


def is_ep(a: RMatrix) -> bool:
    """Whether A is EP, A^+ = A^D: exactly when A and At have the same null
    space, that is when rank([A; At]) = rank(A)."""
    _require_square(a, "EP test")
    stacked = block_compose(a, zeros(a.rows, 0), mat_transpose(a), zeros(a.rows, 0))
    return mat_rank(stacked) == mat_rank(a)
