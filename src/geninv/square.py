"""Square-matrix machinery: minimal polynomial, index, group and Drazin
inverses, and EP detection.

The index of A is the smallest k >= 0 with rank(A^k) = rank(A^(k+1)); it
always equals the lowest degree carrying a nonzero coefficient in the
minimal polynomial, and ``index_of`` computes it both ways and insists they
agree. The q-polynomial satisfies mu(x) = c_k * x^k * (1 - x*q(x)) and turns
the group inverse (A*q(A)^2, index <= 1) and the Drazin inverse
(A^k * q(A)^(k+1), any index) into plain polynomial expressions in A.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .errors import DimensionMismatch, IndexTooLarge, InternalInvariantViolation
from .exact import (RMatrix, block_compose, block_extract, identity, mat_add,
                    mat_inverse, mat_mul, mat_pow, mat_rank, mat_scale,
                    mat_transpose, zeros)
from .factorize import FactoredMatrix, full_rank_reduce
from .rect import moore_penrose


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


@dataclass(frozen=True)
class GroupBlocks:
    """Blocks of Q*P split at r: [[v1, v2], [v3, v4]]."""

    v1: RMatrix
    v2: RMatrix
    v3: RMatrix
    v4: RMatrix


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


def poly_at(coeffs, a: RMatrix) -> RMatrix:
    """Evaluate a polynomial at a square matrix by Horner's scheme."""
    if not a.is_square:
        raise DimensionMismatch(f"polynomial evaluation needs a square matrix, got {a.rows}x{a.cols}")
    n = a.rows
    acc = zeros(n, n)
    for c in reversed(coeffs):
        acc = mat_mul(acc, a)
        if c:
            acc = mat_add(acc, mat_scale(identity(n), c))
    return acc


def minimal_polynomial(a: RMatrix) -> MinimalPolynomial:
    """Least-degree monic polynomial with mu(A) = 0, found by scanning the
    flattened powers I, A, A^2, ... for the first linear dependence."""
    if not a.is_square:
        raise DimensionMismatch(f"minimal polynomial needs a square matrix, got {a.rows}x{a.cols}")
    n = a.rows
    basis = []  # (pivot position, reduced power vector, combination over lower powers)
    power = identity(n)
    degree = 0
    while True:
        vec = list(chain.from_iterable(power.entries))
        combo = [Fraction(0)] * degree + [Fraction(1)]
        for pivot, bvec, bcombo in basis:
            c = vec[pivot]
            if c:
                f = c / bvec[pivot]
                vec = [v - f * w for v, w in zip(vec, bvec)]
                for idx, w in enumerate(bcombo):
                    combo[idx] -= f * w
        pivot = next((j for j, v in enumerate(vec) if v), None)
        if pivot is None:
            coeffs = tuple(combo)
            k = next(i for i, c in enumerate(coeffs) if c)
            return MinimalPolynomial(coeffs=coeffs, degree=degree, index=k)
        if degree == n:
            raise InternalInvariantViolation("powers up to A^n are linearly independent")
        basis.append((pivot, vec, combo))
        power = mat_mul(power, a)
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


def _index_by_rank(a: RMatrix) -> int:
    prev = a.rows  # rank of A^0
    power = identity(a.rows)
    k = 0
    while True:
        power = mat_mul(power, a)
        cur = mat_rank(power)
        if cur == prev:
            return k
        prev = cur
        k += 1


def _checked_index(a: RMatrix, what: str) -> tuple[int, MinimalPolynomial]:
    """The index by the rank sequence and the minimal polynomial, whose lowest
    nonzero-coefficient degree must agree with it."""
    if not a.is_square:
        raise DimensionMismatch(f"{what} needs a square matrix, got {a.rows}x{a.cols}")
    k = _index_by_rank(a)
    mu = minimal_polynomial(a)
    if mu.index != k:
        raise InternalInvariantViolation(f"rank index {k} != polynomial index {mu.index}")
    return k, mu


def index_of(a: RMatrix) -> int:
    """Smallest k with rank(A^k) = rank(A^(k+1)), cross-checked against the
    lowest nonzero-coefficient degree of the minimal polynomial."""
    return _checked_index(a, "index")[0]


def group_inverse_poly(a: RMatrix) -> RMatrix:
    """The group inverse A*q(A)^2; requires index at most 1. q(A) itself is a
    {1}-inverse of A in that case."""
    k, mu = _checked_index(a, "group inverse")
    if k > 1:
        raise IndexTooLarge(f"group inverse requires index <= 1, got {k}")
    qa = poly_at(q_polynomial(mu).coeffs, a)
    return mat_mul(a, mat_mul(qa, qa))


def group_blocks(f: FactoredMatrix) -> GroupBlocks:
    """Blocks of Q*P split at r."""
    v1, v2, v3, v4 = block_extract(mat_mul(f.q, f.p), f.r)
    return GroupBlocks(v1, v2, v3, v4)


def group_inverse_block(a: RMatrix) -> RMatrix:
    """The group inverse from the blocks of Q*P, without any polynomial:
    P * [[I, -V2*V4^-1], [-V4^-1*V3, V4^-1*V3*V2*V4^-1]] * Q.

    V4 is regular exactly when the index is at most 1 (Jacobi's identity for
    complementary minors of Q*P and its inverse), for every reduction."""
    if not a.is_square:
        raise DimensionMismatch(f"group inverse needs a square matrix, got {a.rows}x{a.cols}")
    f = full_rank_reduce(a)
    gb = group_blocks(f)
    if mat_rank(gb.v4) < a.rows - f.r:
        raise IndexTooLarge(f"group inverse requires index <= 1, got {_index_by_rank(a)}")
    v4i = mat_inverse(gb.v4)
    x1 = mat_scale(mat_mul(gb.v2, v4i), -1)
    x2 = mat_scale(mat_mul(v4i, gb.v3), -1)
    x3 = mat_mul(mat_mul(mat_mul(v4i, gb.v3), gb.v2), v4i)
    mid = block_compose(identity(f.r), x1, x2, x3)
    return mat_mul(mat_mul(f.p, mid), f.q)


def drazin_inverse(a: RMatrix) -> RMatrix:
    """The Drazin inverse A^k * q(A)^(k+1) at k = index of A; zero for
    nilpotent input, the group inverse when the index is at most 1."""
    k, mu = _checked_index(a, "Drazin inverse")
    qa = poly_at(q_polynomial(mu).coeffs, a)
    return mat_mul(mat_pow(a, k), mat_pow(qa, k + 1))


def drazin_onecheck(a: RMatrix) -> bool:
    """Whether A*A^D*A = A; this holds exactly when the index is at most 1,
    and the equivalence is enforced."""
    holds = mat_mul(mat_mul(a, drazin_inverse(a)), a) == a
    if holds != (index_of(a) <= 1):
        raise InternalInvariantViolation("A*A^D*A = A disagrees with index <= 1")
    return holds


def is_ep(a: RMatrix) -> bool:
    """EP test: the pseudoinverse equals the Drazin inverse. Cross-checked
    against the null-space comparison rank([A; At]) = rank(A)."""
    if not a.is_square:
        raise DimensionMismatch(f"EP test needs a square matrix, got {a.rows}x{a.cols}")
    by_definition = moore_penrose(a) == drazin_inverse(a)
    stacked = block_compose(a, zeros(a.rows, 0), mat_transpose(a), zeros(a.rows, 0))
    by_nullspace = mat_rank(stacked) == mat_rank(a)
    if by_definition != by_nullspace:
        raise InternalInvariantViolation("EP detection routes disagree")
    return by_definition
