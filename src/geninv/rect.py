"""Block constructions of generalized inverses from a full-rank reduction.

Every inverse built here has the shape X = P * [[X0, X1], [X2, X3]] * Q for a
reduction Q*A*P = E_r. Each constructor pins the blocks its inverse class
requires and leaves the rest free; omitted free blocks default to zero, the
canonical member of the family. At r = 0, r = m or r = n some blocks are
0-row or 0-column matrices and the same formulas apply unchanged.

The {3}- and {4}-classes need the Gram matrices Q*Qt and Pt*P: their trailing
blocks S4, T4 are always regular, and the canonical choices -S2*S4^-1 and
-T4^-1*T3 make A*X respectively X*A symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DimensionMismatch, InternalInvariantViolation, NotIdempotent
from .exact import (RMatrix, block_compose, block_extract, identity, mat_inverse,
                    mat_mul, mat_rank, mat_scale, mat_sub, mat_transpose, zeros)
from .factorize import DEFAULT_POLICY, FactoredMatrix, PivotPolicy, full_rank_reduce

FreeBlock = Optional[RMatrix]


@dataclass(frozen=True)
class StarBlocksQ:
    """Blocks of Q*Qt split at r: [[s1, s2], [s3, s4]], s3 = s2t, s4 regular."""

    s1: RMatrix
    s2: RMatrix
    s3: RMatrix
    s4: RMatrix


@dataclass(frozen=True)
class StarBlocksP:
    """Blocks of Pt*P split at r: [[t1, t2], [t3, t4]], t3 = t2t, t4 regular."""

    t1: RMatrix
    t2: RMatrix
    t3: RMatrix
    t4: RMatrix


@dataclass(frozen=True)
class BlockParams:
    """Middle-factor blocks of a candidate inverse, split at r."""

    x0: RMatrix
    x1: RMatrix
    x2: RMatrix
    x3: RMatrix


def _check_symmetric_split(b1: RMatrix, b2: RMatrix, b3: RMatrix, b4: RMatrix,
                           what: str) -> None:
    # Gram matrices are symmetric with a regular trailing block; anything else is a bug.
    if mat_transpose(b1) != b1:
        raise InternalInvariantViolation(f"leading block of {what} is not symmetric")
    if mat_transpose(b2) != b3:
        raise InternalInvariantViolation(f"off-diagonal blocks of {what} are not transposes")
    if mat_transpose(b4) != b4:
        raise InternalInvariantViolation(f"trailing block of {what} is not symmetric")
    if mat_rank(b4) != b4.rows:
        raise InternalInvariantViolation(f"trailing block of {what} is singular")


def compute_star_blocks(f: FactoredMatrix) -> tuple[StarBlocksQ, StarBlocksP]:
    """Split Q*Qt and Pt*P at r and verify their symmetry and regularity."""
    qq = mat_mul(f.q, mat_transpose(f.q))
    pp = mat_mul(mat_transpose(f.p), f.p)
    s1, s2, s3, s4 = block_extract(qq, f.r)
    t1, t2, t3, t4 = block_extract(pp, f.r)
    _check_symmetric_split(s1, s2, s3, s4, "Q*Qt")
    _check_symmetric_split(t1, t2, t3, t4, "Pt*P")
    return StarBlocksQ(s1, s2, s3, s4), StarBlocksP(t1, t2, t3, t4)


def _resolve_free(block: FreeBlock, rows: int, cols: int, name: str) -> RMatrix:
    """Return the given free block, or the zero default when it is omitted."""
    if block is None:
        return zeros(rows, cols)
    if block.shape == (rows, cols):
        return block
    if rows == 0 or cols == 0:  # a matrix file is never empty: leave the block out
        raise DimensionMismatch(f"{name} must be absent: its slot is {rows}x{cols}")
    raise DimensionMismatch(f"{name} must be {rows}x{cols}, got {block.rows}x{block.cols}")


def _expect_param(block: RMatrix, rows: int, cols: int, name: str) -> None:
    if block.shape != (rows, cols):
        raise DimensionMismatch(f"{name} must be a {rows}x{cols} matrix")


def _check_params(f: FactoredMatrix, b: BlockParams) -> None:
    _expect_param(b.x0, f.r, f.r, "x0")
    _expect_param(b.x1, f.r, f.m - f.r, "x1")
    _expect_param(b.x2, f.n - f.r, f.r, "x2")
    _expect_param(b.x3, f.n - f.r, f.m - f.r, "x3")


def _assemble(f: FactoredMatrix, x0: RMatrix, x1: RMatrix, x2: RMatrix,
              x3: RMatrix) -> RMatrix:
    return mat_mul(mat_mul(f.p, block_compose(x0, x1, x2, x3)), f.q)


def _star_x1(sq: StarBlocksQ) -> RMatrix:
    """-S2*S4^-1, the forced top-right block of the {3}-family."""
    return mat_scale(mat_mul(sq.s2, mat_inverse(sq.s4)), -1)


def _star_x2(sp: StarBlocksP) -> RMatrix:
    """-T4^-1*T3, the forced bottom-left block of the {4}-family."""
    return mat_scale(mat_mul(mat_inverse(sp.t4), sp.t3), -1)


def g1_inverse(f: FactoredMatrix, x1: FreeBlock = None, x2: FreeBlock = None,
               x3: FreeBlock = None) -> RMatrix:
    """A {1}-inverse: A*X*A = A. All three off-core blocks are free."""
    x1 = _resolve_free(x1, f.r, f.m - f.r, "x1")
    x2 = _resolve_free(x2, f.n - f.r, f.r, "x2")
    x3 = _resolve_free(x3, f.n - f.r, f.m - f.r, "x3")
    return _assemble(f, identity(f.r), x1, x2, x3)


def g2_inverse(f: FactoredMatrix, x0: FreeBlock = None, fblk: FreeBlock = None,
               gblk: FreeBlock = None) -> RMatrix:
    """A {2}-inverse: X*A*X = X, built from an idempotent core x0 and shape
    factors fblk, gblk via X1 = x0*fblk, X2 = gblk*x0, X3 = X2*X1."""
    x0 = _resolve_free(x0, f.r, f.r, "x0")
    fblk = _resolve_free(fblk, f.r, f.m - f.r, "fblk")
    gblk = _resolve_free(gblk, f.n - f.r, f.r, "gblk")
    if mat_mul(x0, x0) != x0:
        raise NotIdempotent("x0 must satisfy x0*x0 = x0")
    x1 = mat_mul(x0, fblk)
    x2 = mat_mul(gblk, x0)
    return _assemble(f, x0, x1, x2, mat_mul(x2, x1))


def validate_g2_blocks(f: FactoredMatrix, b: BlockParams) -> bool:
    """True iff the {2}-block conditions hold: x0 idempotent, x0*x1 = x1,
    x2*x0 = x2 and x2*x1 = x3. Also confirmed against X*A*X = X directly."""
    _check_params(f, b)
    cond = (mat_mul(b.x0, b.x0) == b.x0 and mat_mul(b.x0, b.x1) == b.x1
            and mat_mul(b.x2, b.x0) == b.x2 and mat_mul(b.x2, b.x1) == b.x3)
    x = _assemble(f, b.x0, b.x1, b.x2, b.x3)
    direct = mat_mul(mat_mul(x, f.a), x) == x
    if cond != direct:
        raise InternalInvariantViolation("{2}-block conditions disagree with X*A*X = X")
    return cond


def g12_inverse(f: FactoredMatrix, x1: FreeBlock = None, x2: FreeBlock = None) -> RMatrix:
    """A {1,2}-inverse of rank r: A*X*A = A and X*A*X = X; X3 is forced to X2*X1."""
    x1 = _resolve_free(x1, f.r, f.m - f.r, "x1")
    x2 = _resolve_free(x2, f.n - f.r, f.r, "x2")
    return _assemble(f, identity(f.r), x1, x2, mat_mul(x2, x1))


def validate_g3_blocks(f: FactoredMatrix, sq: StarBlocksQ, b: BlockParams) -> bool:
    """True iff the {3}-block conditions hold: W*x0t = x0*W for the Schur-type
    matrix W = S1 - S2*S4^-1*S2t, and x1 = -x0*S2*S4^-1. Also confirmed
    against symmetry of A*X directly."""
    _check_params(f, b)
    s4i = mat_inverse(sq.s4)
    w = mat_sub(sq.s1, mat_mul(mat_mul(sq.s2, s4i), mat_transpose(sq.s2)))
    cond = (mat_mul(w, mat_transpose(b.x0)) == mat_mul(b.x0, w)
            and b.x1 == mat_scale(mat_mul(mat_mul(b.x0, sq.s2), s4i), -1))
    x = _assemble(f, b.x0, b.x1, b.x2, b.x3)
    ax = mat_mul(f.a, x)
    direct = mat_transpose(ax) == ax
    if cond != direct:
        raise InternalInvariantViolation("{3}-block conditions disagree with (A*X)t = A*X")
    return cond


def g13_inverse(f: FactoredMatrix, x2: FreeBlock = None, x3: FreeBlock = None) -> RMatrix:
    """A {1,3}-inverse: A*X*A = A and A*X symmetric. X2, X3 are free."""
    x2 = _resolve_free(x2, f.n - f.r, f.r, "x2")
    x3 = _resolve_free(x3, f.n - f.r, f.m - f.r, "x3")
    sq, _ = compute_star_blocks(f)
    return _assemble(f, identity(f.r), _star_x1(sq), x2, x3)


def g123_inverse(f: FactoredMatrix, x2: FreeBlock = None) -> RMatrix:
    """A {1,2,3}-inverse: X3 is forced to X2 * (-S2*S4^-1)."""
    x2 = _resolve_free(x2, f.n - f.r, f.r, "x2")
    sq, _ = compute_star_blocks(f)
    x1 = _star_x1(sq)
    return _assemble(f, identity(f.r), x1, x2, mat_mul(x2, x1))


def validate_g4_blocks(f: FactoredMatrix, sp: StarBlocksP, b: BlockParams) -> bool:
    """Mirror of the {3}-validator: x0t*W = W*x0 for W = T1 - T2*T4^-1*T2t and
    x2 = -T4^-1*T3*x0, confirmed against symmetry of X*A directly."""
    _check_params(f, b)
    t4i = mat_inverse(sp.t4)
    w = mat_sub(sp.t1, mat_mul(mat_mul(sp.t2, t4i), mat_transpose(sp.t2)))
    cond = (mat_mul(mat_transpose(b.x0), w) == mat_mul(w, b.x0)
            and b.x2 == mat_scale(mat_mul(mat_mul(t4i, sp.t3), b.x0), -1))
    x = _assemble(f, b.x0, b.x1, b.x2, b.x3)
    xa = mat_mul(x, f.a)
    direct = mat_transpose(xa) == xa
    if cond != direct:
        raise InternalInvariantViolation("{4}-block conditions disagree with (X*A)t = X*A")
    return cond


def g14_inverse(f: FactoredMatrix, x1: FreeBlock = None, x3: FreeBlock = None) -> RMatrix:
    """A {1,4}-inverse: A*X*A = A and X*A symmetric. X1, X3 are free."""
    x1 = _resolve_free(x1, f.r, f.m - f.r, "x1")
    x3 = _resolve_free(x3, f.n - f.r, f.m - f.r, "x3")
    _, sp = compute_star_blocks(f)
    return _assemble(f, identity(f.r), x1, _star_x2(sp), x3)


def g124_inverse(f: FactoredMatrix, x1: FreeBlock = None) -> RMatrix:
    """A {1,2,4}-inverse: X3 is forced to (-T4^-1*T3) * X1."""
    x1 = _resolve_free(x1, f.r, f.m - f.r, "x1")
    _, sp = compute_star_blocks(f)
    x2 = _star_x2(sp)
    return _assemble(f, identity(f.r), x1, x2, mat_mul(x2, x1))


def g134_inverse(f: FactoredMatrix, x3: FreeBlock = None) -> RMatrix:
    """A {1,3,4}-inverse: both forced blocks, X3 free."""
    x3 = _resolve_free(x3, f.n - f.r, f.m - f.r, "x3")
    sq, sp = compute_star_blocks(f)
    return _assemble(f, identity(f.r), _star_x1(sq), _star_x2(sp), x3)


def moore_penrose(a: RMatrix, policy: PivotPolicy = DEFAULT_POLICY) -> RMatrix:
    """The Moore-Penrose inverse: the unique matrix satisfying all four
    defining equations. Independent of the pivot policy used internally."""
    f = full_rank_reduce(a, policy)
    sq, sp = compute_star_blocks(f)
    x1 = _star_x1(sq)
    x2 = _star_x2(sp)
    return _assemble(f, identity(f.r), x1, x2, mat_mul(x2, x1))
