"""Block constructions of generalized inverses from a full-rank reduction.

Every constructor that takes a reduction Q*A*P = E_r builds X = P * [[X0, X1],
[X2, X3]] * Q. Each class pins some blocks and leaves the rest free;
omitted free blocks default to zero, the canonical member of the family. At
r = 0, r = m or r = n some blocks are 0-row or 0-column matrices and the same
formulas apply unchanged. A {2}-type inverse has X3 = X2*X1, so it is built as
X = (P*[I; X2]) * X0 * ([I, X1]*Q) without a middle matrix (``g2_inverse``,
``g12_inverse``); ``g1_inverse`` assembles the middle matrix, its X3 being
free. Every other constructor computes its forced blocks and calls one of these.

A split is always ``block_extract``'s 4-tuple (b0, b1, b2, b3), standing for
[[b0, b1], [b2, b3]]: the Gram splits (s1, s2, s3, s4) and (t1, t2, t3, t4)
from ``compute_star_blocks``, and the blocks (x0, x1, x2, x3) the validators
take, which are ``block_extract(P^-1*X*Q^-1, r)`` for a candidate X.

The {3}- and {4}-classes need the Gram matrices Q*Qt and Pt*P. For regular Q
and P their trailing blocks S4, T4 are regular, which the tests assert rather
than every call, and the canonical choices -S2*S4^-1 and -T4^-1*T3 make A*X
respectively X*A symmetric. A constructor pinned on one side only ({1,3},
{1,2,3}, {1,4}, {1,2,4}) forms only that side's Gram matrix.

The validators take f and a candidate's blocks; the {3}- and {4}-validators
form the Q*Qt or Pt*P split from f. Each returns the paper's block condition
alone and forms no X: that it matches X*A*X = X, or the symmetry of A*X or
X*A, is the paper's theorem for a reduction of A, which the tests assert
against ``penrose.check``.

``moore_penrose`` takes A alone and needs no reduction. It is MacDuffee's
full-rank form (Ben-Israel & Greville, *Generalized Inverses*, ch. 1): for
A = F*G of full rank, A^+ = Gt*(Ft*A*Gt)^-1*Ft. A's pivot columns C = A[:,J]
and rows R = A[I,:] (``exact._skeleton``) give A = C*U^-1*R, U = A[I,J], and
F = C, G = U^-1*R give A^+ = Rt*(Ct*A*Rt)^-1*Ct: the outer inverse
B*(W*A*B)^-1*W of ``exact._outer`` with B = Rt and W = Ct, which is A^-1 for
a regular A. A regular factor cancels: at full column rank R is square and
A^+ = (Ct*A)^-1*Ct, at full row rank C is square and A^+ = Rt*(A*Rt)^-1,
each one product and one solve. The paper's block formula
P*[[I, -S2*S4^-1], [-T4^-1*T3, T4^-1*T3*S2*S4^-1]]*Q gives the same matrix on
every reduction, which the tests assert.
"""

from __future__ import annotations

from typing import Optional

from .errors import DimensionMismatch, NotIdempotent
from .exact import (RMatrix, _outer, _skeleton, block_compose, block_extract, identity, mat_add,
                    mat_inverse, mat_mul, mat_scale, mat_transpose, zeros)
from .factorize import FactoredMatrix


def _gram_split(m: RMatrix, r: int) -> tuple[RMatrix, RMatrix, RMatrix, RMatrix]:
    """Split the Gram matrix m*mt at r."""
    return block_extract(mat_mul(m, mat_transpose(m)), r)


def compute_star_blocks(f: FactoredMatrix) -> tuple[tuple[RMatrix, RMatrix, RMatrix, RMatrix],
                                                     tuple[RMatrix, RMatrix, RMatrix, RMatrix]]:
    """Split Q*Qt and Pt*P at r, as (s1, s2, s3, s4) and (t1, t2, t3, t4) in
    ``block_extract``'s order."""
    return _gram_split(f.q, f.r), _gram_split(mat_transpose(f.p), f.r)


def _resolve_free(block: Optional[RMatrix], rows: int, cols: int, name: str) -> RMatrix:
    """Return the given free block, or the zero default when it is omitted."""
    if block is None:
        return zeros(rows, cols)
    if block.shape == (rows, cols):
        return block
    if rows == 0 or cols == 0:  # a matrix file is never empty: leave the block out
        raise DimensionMismatch(f"{name} must be absent: its slot is {rows}x{cols}")
    raise DimensionMismatch(f"{name} must be {rows}x{cols}, got {block.rows}x{block.cols}")


def _check_params(f: FactoredMatrix, b: tuple[RMatrix, RMatrix, RMatrix, RMatrix]) -> None:
    shapes = ((f.r, f.r), (f.r, f.m - f.r), (f.n - f.r, f.r), (f.n - f.r, f.m - f.r))
    for i, (block, (rows, cols)) in enumerate(zip(b, shapes)):
        if block.shape != (rows, cols):
            raise DimensionMismatch(f"x{i} must be a {rows}x{cols} matrix")


def _left(f: FactoredMatrix, x2: RMatrix) -> RMatrix:
    """P*[I; x2], the n x r left factor of a {2}-type inverse."""
    return mat_mul(f.p, block_compose(identity(f.r), zeros(f.r, 0), x2, zeros(f.n - f.r, 0)))


def _right(f: FactoredMatrix, x1: RMatrix) -> RMatrix:
    """[I, x1]*Q, the r x m right factor of a {2}-type inverse."""
    return mat_mul(block_compose(identity(f.r), x1, zeros(0, f.r), zeros(0, f.m - f.r)), f.q)


def _star_x1(sq: tuple[RMatrix, RMatrix, RMatrix, RMatrix]) -> RMatrix:
    """-S2*S4^-1, the forced top-right block of the {3}-family."""
    _, s2, _, s4 = sq
    return mat_scale(mat_mul(s2, mat_inverse(s4)), -1)


def _star_x2(sp: tuple[RMatrix, RMatrix, RMatrix, RMatrix]) -> RMatrix:
    """-T4^-1*T3, the forced bottom-left block of the {4}-family."""
    _, _, t3, t4 = sp
    return mat_scale(mat_mul(mat_inverse(t4), t3), -1)


def g1_inverse(f: FactoredMatrix, x1: Optional[RMatrix] = None, x2: Optional[RMatrix] = None,
               x3: Optional[RMatrix] = None) -> RMatrix:
    """A {1}-inverse: A*X*A = A. All three off-core blocks are free."""
    x1 = _resolve_free(x1, f.r, f.m - f.r, "x1")
    x2 = _resolve_free(x2, f.n - f.r, f.r, "x2")
    x3 = _resolve_free(x3, f.n - f.r, f.m - f.r, "x3")
    return mat_mul(mat_mul(f.p, block_compose(identity(f.r), x1, x2, x3)), f.q)


def g2_inverse(f: FactoredMatrix, x0: Optional[RMatrix] = None,
               fblk: Optional[RMatrix] = None, gblk: Optional[RMatrix] = None) -> RMatrix:
    """A {2}-inverse: X*A*X = X, built from an idempotent core x0 and shape
    factors fblk, gblk via X1 = x0*fblk, X2 = gblk*x0, X3 = X2*X1, that is
    X = P*[I; gblk] * x0 * [I, fblk]*Q."""
    x0 = _resolve_free(x0, f.r, f.r, "x0")
    fblk = _resolve_free(fblk, f.r, f.m - f.r, "fblk")
    gblk = _resolve_free(gblk, f.n - f.r, f.r, "gblk")
    if mat_mul(x0, x0) != x0:
        raise NotIdempotent("x0 must satisfy x0*x0 = x0")
    return mat_mul(mat_mul(_left(f, gblk), x0), _right(f, fblk))


def validate_g2_blocks(f: FactoredMatrix, b: tuple[RMatrix, RMatrix, RMatrix, RMatrix]) -> bool:
    """True iff the {2}-block conditions hold for b = (x0, x1, x2, x3): x0
    idempotent, x0*x1 = x1, x2*x0 = x2 and x2*x1 = x3."""
    _check_params(f, b)
    x0, x1, x2, x3 = b
    return (mat_mul(x0, x0) == x0 and mat_mul(x0, x1) == x1
            and mat_mul(x2, x0) == x2 and mat_mul(x2, x1) == x3)


def g12_inverse(f: FactoredMatrix, x1: Optional[RMatrix] = None,
                x2: Optional[RMatrix] = None) -> RMatrix:
    """A {1,2}-inverse of rank r: A*X*A = A and X*A*X = X; X3 is forced to X2*X1,
    so X = P*[I; x2] * [I, x1]*Q."""
    x1 = _resolve_free(x1, f.r, f.m - f.r, "x1")
    x2 = _resolve_free(x2, f.n - f.r, f.r, "x2")
    return mat_mul(_left(f, x2), _right(f, x1))


def validate_g3_blocks(f: FactoredMatrix, b: tuple[RMatrix, RMatrix, RMatrix, RMatrix]) -> bool:
    """True iff the {3}-block conditions hold for b = (x0, x1, x2, x3) and
    the split (S1, S2, S3, S4) of Q*Qt: W*x0t = x0*W for the Schur-type matrix
    W = S1 - S2*S4^-1*S2t, and x1 = -x0*S2*S4^-1."""
    _check_params(f, b)
    x0, x1, _, _ = b
    sq = _gram_split(f.q, f.r)
    s1, s2, _, _ = sq
    x1f = _star_x1(sq)
    w = mat_add(s1, mat_mul(x1f, mat_transpose(s2)))
    return mat_mul(w, mat_transpose(x0)) == mat_mul(x0, w) and x1 == mat_mul(x0, x1f)


def g13_inverse(f: FactoredMatrix, x2: Optional[RMatrix] = None,
                x3: Optional[RMatrix] = None) -> RMatrix:
    """A {1,3}-inverse: A*X*A = A and A*X symmetric. X2, X3 are free."""
    return g1_inverse(f, _star_x1(_gram_split(f.q, f.r)), x2, x3)


def g123_inverse(f: FactoredMatrix, x2: Optional[RMatrix] = None) -> RMatrix:
    """A {1,2,3}-inverse: X3 is forced to X2 * (-S2*S4^-1)."""
    return g12_inverse(f, _star_x1(_gram_split(f.q, f.r)), x2)


def validate_g4_blocks(f: FactoredMatrix, b: tuple[RMatrix, RMatrix, RMatrix, RMatrix]) -> bool:
    """Mirror of the {3}-validator for the split (T1, T2, T3, T4) of Pt*P:
    x0t*W = W*x0 for W = T1 - T2*T4^-1*T2t and x2 = -T4^-1*T3*x0."""
    _check_params(f, b)
    x0, _, x2, _ = b
    sp = _gram_split(mat_transpose(f.p), f.r)
    t1, t2, _, _ = sp
    x2f = _star_x2(sp)
    w = mat_add(t1, mat_mul(t2, x2f))
    return mat_mul(mat_transpose(x0), w) == mat_mul(w, x0) and x2 == mat_mul(x2f, x0)


def g14_inverse(f: FactoredMatrix, x1: Optional[RMatrix] = None,
                x3: Optional[RMatrix] = None) -> RMatrix:
    """A {1,4}-inverse: A*X*A = A and X*A symmetric. X1, X3 are free."""
    return g1_inverse(f, x1, _star_x2(_gram_split(mat_transpose(f.p), f.r)), x3)


def g124_inverse(f: FactoredMatrix, x1: Optional[RMatrix] = None) -> RMatrix:
    """A {1,2,4}-inverse: X3 is forced to (-T4^-1*T3) * X1."""
    return g12_inverse(f, x1, _star_x2(_gram_split(mat_transpose(f.p), f.r)))


def g134_inverse(f: FactoredMatrix, x3: Optional[RMatrix] = None) -> RMatrix:
    """A {1,3,4}-inverse: both forced blocks, X3 free."""
    sq, sp = compute_star_blocks(f)
    return g1_inverse(f, _star_x1(sq), _star_x2(sp), x3)


def moore_penrose(a: RMatrix) -> RMatrix:
    """The Moore-Penrose inverse, the unique matrix satisfying all four
    defining equations: Rt*(Ct*A*Rt)^-1*Ct for the pivot columns C and pivot
    rows R of A, A^-1 for a regular A and an n x m zero at rank 0 (C is m x 0)."""
    c, r = _skeleton(a)
    return _outer(mat_transpose(r), a, mat_transpose(c))
