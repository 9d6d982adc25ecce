"""Block constructions of generalized inverses from a full-rank reduction.

Every constructor that takes a reduction Q*A*P = E_r builds X = P * [[X0, X1],
[X2, X3]] * Q. Each class pins some blocks and leaves the rest free;
omitted free blocks default to zero, the canonical member of the family. At
r = 0, r = m or r = n some blocks are 0-row or 0-column matrices and the same
formulas apply unchanged. A {2}-type inverse has X3 = X2*X1, so it is built as
X = (P*[I; X2]) * X0 * ([I, X1]*Q) without a middle matrix (``g2_inverse``,
``g12_inverse``); ``g1_inverse`` assembles the middle matrix, its X3 being
free.

A split is always ``block_extract``'s 4-tuple (b0, b1, b2, b3), standing for
[[b0, b1], [b2, b3]]: the Gram splits (s1, s2, s3, s4) and (t1, t2, t3, t4)
from ``compute_star_blocks``, and the blocks (x0, x1, x2, x3) the validators
take, which are ``block_extract(P^-1*X*Q^-1, r)`` for a candidate X.

The paper pins the {3}- and {4}-classes by the Gram matrices Q*Qt and Pt*P:
X1 = -S2*S4^-1 makes A*X symmetric and X2 = -T4^-1*T3 makes X*A symmetric.
The constructors reach the same members from full-rank factors instead
(Ben-Israel & Greville, ch. 1), with no Gram matrix of P or Q. With
P = [Z, N] and Q = [Y; L] split at r, F = A*Z and G = Y*A give A = F*G, and
the forced blocks give [I, X1]*Q = F^+ = (Ft*F)^-1*Ft and
P*[I; X2] = G^+ = Gt*(G*Gt)^-1. So g13 = Z*F^+ + N*[X2, X3]*Q, g14 = G^+*Y +
P*[X1; X3]*L and g134 = Z*F^+ + G^+*Y - Z*Y + N*X3*L, a free-block term
formed only when the block is passed. As A*N = 0, Z' = P*[I; X2] has
A*Z' = F, so g123 = Z'*F^+ takes the route of g13 on Z'. As Y*A*Z = I_r,
G^+ = (G^+*Y)*F, so g124 = G^+*Y' for Y' = [I, X1]*Q is the default g14
times F and Y'.

Z*F^+ = Z*(Zt*At*A*Z)^-1*Zt*At is unchanged when Z becomes Z*W for a
regular W. So when Z is nonzero on exactly r rows J, as on every reduction
``full_rank_reduce`` gives, Z = E_J*W for W = Z[J,:] and Z*F^+ = E_J*C^+ for
A's columns C = A[:,J]: C^+ = (Ct*C)^-1*Ct is one product and one
``exact._solve``, and its rows are put at rows J of a zero grid, with no
product. g134's Z*Y is E_J*W*Y, taken from C^+ before it is placed; W = I on
the library's reduction. Any other Z takes Z*(Ft*F)^-1*Ft, F formed once.
The {1,4} side is this one transposed: X is a {1,4}-inverse of A exactly
when Xt is a {1,3}-inverse of At, whose reduction is Pt*At*Qt = E_r, so
G^+*Y = (Yt*(At*Yt)^+)t, which is R^+*E_I^t for A's rows R = A[I,:] when Y
is nonzero on exactly r columns I.

The validators take f and a candidate's blocks. The {3}-validator forms the
Q*Qt split from f and solves for the forced block by its trailing block S4,
regular for regular Q, which the tests assert rather than every call. The
{4}-validator checks the blocks' shapes itself, so that its errors name the
caller's blocks, and is then the {3}-validator on the transposed reduction
and Xt's blocks (x0t, x2t, x1t, x3t). Each returns the paper's block
condition alone and forms no X: that it matches X*A*X = X, or the symmetry
of A*X or X*A, is the paper's theorem for a reduction of A, which the tests
assert against ``penrose.check``.

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
every reduction, which the tests assert, as they do for the {3}- and
{4}-families.
"""

from __future__ import annotations

from typing import Optional

from .errors import DimensionMismatch, NotIdempotent
from .exact import (RMatrix, _cols, _make, _outer, _rows, _skeleton, _solve, block_compose,
                    block_extract, identity, mat_add, mat_mul, mat_scale, mat_sub, mat_transpose,
                    zeros)
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


def _assemble(f: FactoredMatrix, x0: RMatrix, x1: Optional[RMatrix], x2: Optional[RMatrix],
              x3: Optional[RMatrix]) -> RMatrix:
    """P*[[x0, x1], [x2, x3]]*Q, an omitted x1, x2 or x3 zero."""
    x1 = _resolve_free(x1, f.r, f.m - f.r, "x1")
    x2 = _resolve_free(x2, f.n - f.r, f.r, "x2")
    x3 = _resolve_free(x3, f.n - f.r, f.m - f.r, "x3")
    return mat_mul(mat_mul(f.p, block_compose(x0, x1, x2, x3)), f.q)


def _plus_free(f: FactoredMatrix, x: RMatrix, x1: Optional[RMatrix] = None,
               x2: Optional[RMatrix] = None, x3: Optional[RMatrix] = None) -> RMatrix:
    """X + P*[[0, x1], [x2, x3]]*Q for the free blocks passed; X if none is."""
    if x1 is None and x2 is None and x3 is None:
        return x
    return mat_add(x, _assemble(f, zeros(f.r, f.r), x1, x2, x3))


def _range_part(a: RMatrix, p: RMatrix, r: int, y: Optional[RMatrix] = None) -> RMatrix:
    """Z*F^+ - Z*Y for Z = P[:, :r] and F = A*Z, Y = 0 when omitted: on a Z
    nonzero on r rows J, E_J*(C^+ - W*Y) for C = A[:,J] and W = Z[J,:], with
    C^+ = (Ct*C)^-1*Ct put in place by rows; on any other Z, Z*(Ft*F)^-1*Ft - Z*Y."""
    z = [row[:r] for row in _rows(p)]
    at = [i for i, line in enumerate(z) if any(line)]
    if len(at) != r:
        zm = _make(p.rows, r, [x for line in z for x in line], p._den)
        f = mat_mul(a, zm)
        ft = mat_transpose(f)
        x = mat_mul(zm, _solve(mat_mul(ft, f), ft))
        return x if y is None else mat_sub(x, mat_mul(zm, y))
    at.sort(key=z.__getitem__, reverse=True)  # W = I when Z's columns are unit columns
    cols = _cols(a)
    ct = _make(r, a.rows, [x for i in at for x in cols[i]], a._den)
    core = _solve(mat_mul(ct, mat_transpose(ct)), ct)
    if y is not None:
        w = _make(r, r, [x for i in at for x in z[i]], p._den)
        core = mat_sub(core, y if w == identity(r) else mat_mul(w, y))
    grid = [(0,) * a.rows] * p.rows
    for i, row in zip(at, _rows(core)):
        grid[i] = row
    return _make(p.rows, a.rows, [x for row in grid for x in row], core._den)


def _domain_part(a: RMatrix, q: RMatrix, r: int) -> RMatrix:
    """G^+*Y for Y = Q[:r, :] and G = Y*A, the transposed Z*F^+ of At and
    Z = Yt: G^+*Y = (Yt*(At*Yt)^+)t."""
    return mat_transpose(_range_part(mat_transpose(a), mat_transpose(q), r))


def g1_inverse(f: FactoredMatrix, x1: Optional[RMatrix] = None, x2: Optional[RMatrix] = None,
               x3: Optional[RMatrix] = None) -> RMatrix:
    """A {1}-inverse: A*X*A = A. All three off-core blocks are free."""
    return _assemble(f, identity(f.r), x1, x2, x3)


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
    s1, s2, _, s4 = _gram_split(f.q, f.r)
    x1f = mat_scale(mat_transpose(_solve(s4, mat_transpose(s2))), -1)  # S4 is symmetric
    w = mat_add(s1, mat_mul(x1f, mat_transpose(s2)))
    return mat_mul(w, mat_transpose(x0)) == mat_mul(x0, w) and x1 == mat_mul(x0, x1f)


def g13_inverse(f: FactoredMatrix, x2: Optional[RMatrix] = None,
                x3: Optional[RMatrix] = None) -> RMatrix:
    """A {1,3}-inverse: A*X*A = A and A*X symmetric. X2, X3 are free:
    Z*F^+ + N*[x2, x3]*Q."""
    return _plus_free(f, _range_part(f.a, f.p, f.r), None, x2, x3)


def g123_inverse(f: FactoredMatrix, x2: Optional[RMatrix] = None) -> RMatrix:
    """A {1,2,3}-inverse: Z'*F^+ for Z' = P*[I; x2], as A*Z' = A*Z = F; that
    is X3 = X2*X1 for the forced X1."""
    p = f.p if x2 is None else _left(f, _resolve_free(x2, f.n - f.r, f.r, "x2"))
    return _range_part(f.a, p, f.r)


def validate_g4_blocks(f: FactoredMatrix, b: tuple[RMatrix, RMatrix, RMatrix, RMatrix]) -> bool:
    """The {3}-validator on the transposed reduction Pt*At*Qt = E_r, for the
    split (T1, T2, T3, T4) of Pt*P and Xt's blocks: x0t*W = W*x0 for
    W = T1 - T2*T4^-1*T2t and x2 = -T4^-1*T3*x0."""
    _check_params(f, b)
    x0, x1, x2, x3 = map(mat_transpose, b)
    return validate_g3_blocks(FactoredMatrix(mat_transpose(f.a), mat_transpose(f.q),
                                             mat_transpose(f.p), f.r), (x0, x2, x1, x3))


def g14_inverse(f: FactoredMatrix, x1: Optional[RMatrix] = None,
                x3: Optional[RMatrix] = None) -> RMatrix:
    """A {1,4}-inverse: A*X*A = A and X*A symmetric. X1, X3 are free:
    G^+*Y + P*[x1; x3]*L."""
    return _plus_free(f, _domain_part(f.a, f.q, f.r), x1, None, x3)


def g124_inverse(f: FactoredMatrix, x1: Optional[RMatrix] = None) -> RMatrix:
    """A {1,2,4}-inverse: G^+*Y' for Y' = [I, x1]*Q, as Y'*A = Y*A = G; that
    is X3 = X2*X1 for the forced X2. As Y*A*Z = I_r, G^+ = (G^+*Y)*(A*Z), so
    an x1 takes the default answer G^+*Y times F = A*Z and Y'."""
    if x1 is None:
        return _domain_part(f.a, f.q, f.r)
    y = _right(f, _resolve_free(x1, f.r, f.m - f.r, "x1"))
    z = _make(f.n, f.r, [x for row in _rows(f.p) for x in row[:f.r]], f.p._den)
    return mat_mul(mat_mul(g14_inverse(f), mat_mul(f.a, z)), y)


def g134_inverse(f: FactoredMatrix, x3: Optional[RMatrix] = None) -> RMatrix:
    """A {1,3,4}-inverse: Z*F^+ + G^+*Y - Z*Y + N*x3*L, X3 free."""
    y = _make(f.r, f.m, f.q._nums[:f.r * f.m], f.q._den)
    x = mat_add(_range_part(f.a, f.p, f.r, y), _domain_part(f.a, f.q, f.r))
    return _plus_free(f, x, x3=x3)


def moore_penrose(a: RMatrix) -> RMatrix:
    """The Moore-Penrose inverse, the unique matrix satisfying all four
    defining equations: Rt*(Ct*A*Rt)^-1*Ct for the pivot columns C and pivot
    rows R of A, A^-1 for a regular A and an n x m zero at rank 0 (C is m x 0)."""
    c, r = _skeleton(a)
    return _outer(mat_transpose(r), a, mat_transpose(c))
