"""Exact rational scalars and dense rational matrices.

Scalars are ``fractions.Fraction`` values, re-exported as ``Rational``:
arbitrary precision, always in lowest terms with a positive denominator,
and with structural equality.

A matrix is one flat, row-major tuple of integer numerators over one
denominator, kept in canonical form: the denominator is positive and shares
no factor with all the numerators at once. Structural equality is then
equality of the integers. Matrices are immutable, so every operation returns
a fresh value and the whole module is safe to use from several threads at
once. ``RMatrix.entries`` is the ``Fraction`` view of the grid, built when
read.

Every kernel works on the integer grid and makes no ``Fraction``: a product
entry is one integer dot product over the product of the two denominators,
a sum puts both grids over the lcm of theirs, and the only normalisation is
one gcd over the result's grid. Every other matrix made of parts over several
denominators (a grid of ``Fraction``s, MatrixFile entries, the rows an
elimination leaves, ``block_compose``'s blocks) is put over the lcm of theirs
by one builder, ``_over_lcm``: a sum adds where those concatenate. No other
module takes an lcm.

Rank, the solve M^-1*W (the inverse solves [A | I]), the skeleton (pivot
columns and rows), the full-rank reduction and the annihilator behind
``square``'s minimal polynomial share one elimination, ``_echelon``, on plain
rows of integers; the solve and the reduction then share one
back-substitution among the pivot rows,
``_back_substitute``. Both are fraction-free (Bareiss): a row step divides
exactly by a pivot, so every entry stays a minor of the integer grid and no
gcd is taken. A row's denominator is fixed by its position, so no row
carries one.

``rect``'s pseudoinverse and ``square``'s Drazin inverse are one formula,
the outer inverse B*(W*A*B)^-1*W, written once in ``_outer`` as B times one
solve of [W*A*B | W]. A square B or W is regular and cancels, which
``_outer`` reads from the shapes alone: with B square the value is the solve
of [W*A | W], with W square it is B*(A*B)^-1, the transpose of the solve of
[(A*B)t | Bt], each after one product; when both are square, A is regular
and ``_outer`` returns A^-1 itself.

Text is written from the grid as well: ``_texts`` renders each entry with
one gcd against the denominator, and ``str``, ``repr`` and the CLI's
MatrixFile writer use it. MatrixFile text is read in ``cli``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence, Set
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from .errors import DimensionMismatch, IndexOutOfRange, SingularMatrix

Rational = Fraction


def _exact(v):
    """v as an int or a ``Fraction``; text is parsed, and a float is refused, as
    its binary value is rarely the one meant."""
    if isinstance(v, (int, Fraction)):
        return v
    if isinstance(v, float):
        raise TypeError("float entries are not exact; pass Fraction, int or text")
    try:
        return Fraction(v)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {v!r}") from None


def _not_text(seq, what: str):
    """seq, unless it is text or bytes, which would iterate as characters or byte
    values, or a set or mapping, which iterates in no fixed order or over keys."""
    if isinstance(seq, (str, bytes, bytearray, Set, Mapping)):
        raise TypeError(f"{what} must be a sequence, not {type(seq).__name__}")
    return seq


class RMatrix:
    """Immutable dense matrix of rationals.

    It holds ``_nums``, the row-major tuple of integer numerators, over one
    denominator ``_den``, in canonical form: ``_den > 0`` and
    ``gcd(_den, *_nums) == 1``. Equality and hashing compare those integers.
    ``entries`` is the ``Fraction`` view, built when read.

    ``RMatrix(rows, cols, entries)`` takes a grid of ``Fraction``s;
    ``from_rows`` also takes ints and text; the kernels build their results
    with ``_make``. Either dimension may be zero: such matrices are the empty
    blocks of a split at r = 0 or at full rank. ``from_rows`` builds only 1x1
    and up.
    """

    __slots__ = ("rows", "cols", "_nums", "_den")

    def __new__(cls, rows: int, cols: int, entries) -> "RMatrix":
        _check_shape(rows, cols)
        if len(entries) != rows or any(len(row) != cols for row in entries):
            raise ValueError("entry grid does not match the declared shape")
        for v in chain.from_iterable(entries):
            if not isinstance(v, Fraction):
                raise TypeError(f"entries must be Fraction, got {type(v).__name__}")
        return _from_grid(rows, cols, entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RMatrix":
        """Build from nested sequences; entries may be int, Fraction or text like
        ``-7/36``. A row, or the whole argument, given as text, bytes, a set
        or a mapping is refused rather than read in its iteration order."""
        grid = [[_exact(v) for v in _not_text(row, "a row")] for row in _not_text(rows, "rows")]
        if not grid or not grid[0]:
            raise ValueError("matrix must be at least 1x1")
        if any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("entry grid does not match the declared shape")
        return _from_grid(len(grid), len(grid[0]), grid)

    @property
    def entries(self) -> tuple[tuple[Rational, ...], ...]:
        """The grid of ``Fraction``s, built on each read."""
        den = self._den
        return tuple([tuple([Fraction(x, den) for x in row]) for row in _rows(self)])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __setattr__(self, name, value):
        raise AttributeError(f"RMatrix is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, RMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self._den == other._den and self._nums == other._nums)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._den, self._nums))

    def __reduce__(self):
        return _make, (self.rows, self.cols, self._nums, self._den)

    def __getitem__(self, key: tuple[int, int]) -> Rational:
        i, j = key
        # range() indexes as a tuple does: from the end if negative, IndexError if out
        return Fraction(self._nums[range(self.rows)[i] * self.cols + range(self.cols)[j]],
                        self._den)

    def __add__(self, other):
        if not isinstance(other, RMatrix):
            return NotImplemented
        return mat_add(self, other)

    def __sub__(self, other):
        if not isinstance(other, RMatrix):
            return NotImplemented
        return mat_sub(self, other)

    def __neg__(self) -> "RMatrix":
        return mat_scale(self, -1)

    def __matmul__(self, other):
        if not isinstance(other, RMatrix):
            return NotImplemented
        return mat_mul(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return mat_scale(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        body = " ".join("[" + " ".join(row) + "]" for row in _texts(self))
        return f"RMatrix({self.rows}x{self.cols} {body})"

    def __str__(self) -> str:
        cells = _texts(self)
        widths = [max((len(row[j]) for row in cells), default=0) for j in range(self.cols)]
        return "\n".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells)


_new = object.__new__
_set = object.__setattr__


def _make(rows: int, cols: int, nums, den: int) -> RMatrix:
    """The rows x cols matrix nums / den, for a row-major list or tuple of
    integers and den != 0, in canonical form: den > 0 and gcd(den, *nums) == 1.
    It sets the slots past the ``__setattr__`` that keeps matrices immutable.

    Kernels pass lists, which become tuples of their exact length. ``tuple()``
    of a generator allocates a guessed length and resizes it; once freed, the
    resized tuples pile up in CPython's per-length free lists, up to 2,000 of
    each length, until a full collection, which the integer kernels seldom
    trigger. On pinv-rect that held about 2 MiB."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = [x // g for x in nums]
        den //= g
    m = _new(RMatrix)
    _set(m, "rows", rows)
    _set(m, "cols", cols)
    _set(m, "_nums", tuple(nums))
    _set(m, "_den", den)
    return m


def _over_lcm(rows: int, cols: int, parts) -> RMatrix:
    """The rows x cols matrix whose row-major entries are nums / d for each
    (nums, d) of parts in turn, d != 0, all put over the lcm of the d."""
    den = lcm(*[d for _, d in parts])
    return _make(rows, cols, [x * (den // d) for nums, d in parts for x in nums], den)


def _from_grid(rows: int, cols: int, grid) -> RMatrix:
    """The matrix of a grid of ints and ``Fraction``s, read through their
    numerators and denominators."""
    return _over_lcm(rows, cols, [((v.numerator,), v.denominator) for row in grid for v in row])


def _rows(a: RMatrix) -> list[tuple[int, ...]]:
    """The numerators of a, row by row."""
    c = a.cols
    return [a._nums[i * c:(i + 1) * c] for i in range(a.rows)]


def _cols(a: RMatrix) -> list[tuple[int, ...]]:
    """The numerators of a, column by column."""
    c = a.cols
    return [a._nums[j::c] for j in range(c)]


def _texts(a: RMatrix) -> list[list[str]]:
    """The text of each entry of a, row by row, as ``str`` writes its
    ``Fraction``: lowest terms, the sign on the numerator, and ``/den`` only
    if den is not 1. A number past Python's int-to-text limit raises ValueError."""
    den = a._den

    def text(x):
        g = gcd(x, den)
        return str(x // g) if g == den else f"{x // g}/{den // g}"

    return [[text(x) for x in row] for row in _rows(a)]


def _check_shape(rows: int, cols: int) -> None:
    if rows < 0 or cols < 0:
        raise ValueError(f"matrix dimensions must be >= 0, got {rows}x{cols}")


def zeros(rows: int, cols: int) -> RMatrix:
    _check_shape(rows, cols)
    return _make(rows, cols, (0,) * (rows * cols), 1)


def identity(n: int) -> RMatrix:
    return partial_identity(n, n, n)


def partial_identity(rows: int, cols: int, r: int) -> RMatrix:
    """The m x n matrix with ones on the first r diagonal places, zeros elsewhere."""
    _check_shape(rows, cols)
    if r < 0 or r > min(rows, cols):
        raise ValueError(f"rank {r} outside 0..{min(rows, cols)}")
    return _make(rows, cols, [int(i == j < r) for i in range(rows) for j in range(cols)], 1)


def mat_add(a: RMatrix, b: RMatrix) -> RMatrix:
    if a.shape != b.shape:
        raise DimensionMismatch(f"cannot add {a.rows}x{a.cols} and {b.rows}x{b.cols}")
    return _sum(a, b, 1)


def mat_sub(a: RMatrix, b: RMatrix) -> RMatrix:
    if a.shape != b.shape:
        raise DimensionMismatch(f"cannot subtract {b.rows}x{b.cols} from {a.rows}x{a.cols}")
    return _sum(a, b, -1)


def _sum(a: RMatrix, b: RMatrix, sign: int) -> RMatrix:
    """a + sign*b, both grids put over the lcm of their denominators."""
    den = lcm(a._den, b._den)
    fa, fb = den // a._den, sign * (den // b._den)
    return _make(a.rows, a.cols, [fa * x + fb * y for x, y in zip(a._nums, b._nums)], den)


def mat_scale(a: RMatrix, s) -> RMatrix:
    s = _exact(s)
    num = s.numerator
    return _make(a.rows, a.cols, [num * x for x in a._nums], s.denominator * a._den)


def mat_mul(a: RMatrix, b: RMatrix) -> RMatrix:
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    cols = _cols(b)
    return _make(a.rows, b.cols, [sum(map(mul, row, col)) for row in _rows(a) for col in cols],
                 a._den * b._den)


def mat_transpose(a: RMatrix) -> RMatrix:
    return _make(a.cols, a.rows, [x for col in _cols(a) for x in col], a._den)


def mat_pow(a: RMatrix, k: int) -> RMatrix:
    if not a.is_square:
        raise DimensionMismatch(f"matrix power needs a square matrix, got {a.rows}x{a.cols}")
    if k < 0:
        raise ValueError("exponent must be non-negative")
    if k == 0:
        return identity(a.rows)
    out = a
    for _ in range(k - 1):
        out = mat_mul(out, a)
    return out


def mat_inverse(a: RMatrix) -> RMatrix:
    """Exact inverse: the solve of [A | I]."""
    if not a.is_square:
        raise DimensionMismatch(f"only square matrices are invertible, got {a.rows}x{a.cols}")
    return _solve_rows(_augmented(a), a.rows, a.rows)


def _solve(m: RMatrix, w: RMatrix) -> RMatrix:
    """M^-1*W for a W with M's rows: the solve of [M | W], both halves over the
    lcm of their denominators."""
    den = lcm(m._den, w._den)
    fm, fw = den // m._den, den // w._den
    return _solve_rows([[*[fm * x for x in row], *[fw * x for x in wrow]]
                        for row, wrow in zip(_rows(m), _rows(w))], m.rows, w.cols)


def _solve_rows(rows, n: int, p: int) -> RMatrix:
    """M^-1*W from the integer rows of [M | W], M n x n and W n x p, over one
    denominator: forward elimination on M's columns, a singular M refused
    before any back-substitution, then the back-substitution, after which
    pivot row t is d times [e_t | row cols[t] of M^-1*W], d the last pivot."""
    rank, rows, _, cols = _echelon(rows, n)
    if rank < n:
        raise SingularMatrix(f"matrix of size {n} has rank below {n}")
    out = [()] * n
    for t, row in enumerate(_back_substitute(rows, n)):
        out[cols[t]] = row[n:]  # row t of (M*Pi)^-1*W is row cols[t] of M^-1*W
    return _make(n, p, [x for row in out for x in row], rows[n - 1][n - 1] if n else 1)


def _outer(b: RMatrix, a: RMatrix, w: RMatrix) -> RMatrix:
    """B*(W*A*B)^-1*W for B (n x r) and W (r x m) of rank r: the outer inverse
    of A with range R(B) and null space N(W) (Urquhart; Ben-Israel & Greville,
    *Generalized Inverses*, ch. 2), by one ``_solve``. A square B or W is
    regular and cancels: (W*A)^-1*W for square B (r = n), B*(A*B)^-1 for
    square W (r = m), solved transposed, each after one product. Both square
    mean r = m = n, so A is regular and the value is A^-1, with no product."""
    if b.is_square:
        return mat_inverse(a) if w.is_square else _solve(mat_mul(w, a), w)
    if w.is_square:
        return mat_transpose(_solve(mat_transpose(mat_mul(a, b)), mat_transpose(b)))
    return mat_mul(b, _solve(mat_mul(mat_mul(w, a), b), w))


def _product_is(a: RMatrix, b: RMatrix, c: RMatrix) -> bool:
    """Whether A*B == C, for C of A*B's shape, with no matrix made: dc divides
    da*db, and row by row, up to the first that differs, the integer dot
    products equal C's numerators times da*db/dc."""
    f, rem = divmod(a._den * b._den, c._den)
    cols = _cols(b)
    return not rem and all([sum(map(mul, row, col)) for col in cols] == [f * x for x in crow]
                           for row, crow in zip(_rows(a), _rows(c)))


def _product_is_symmetric(a: RMatrix, b: RMatrix) -> bool:
    """Whether A*B, square, is symmetric, with no matrix made: its integer dot
    products below the diagonal against those above."""
    rows, cols = _rows(a), _cols(b)
    return ([sum(map(mul, row, col)) for i, row in enumerate(rows) for col in cols[:i]]
            == [sum(map(mul, row, col)) for i, col in enumerate(cols) for row in rows[:i]])


def _is_symmetric(m: RMatrix) -> bool:
    """Whether square M equals its transpose: each row against the column of
    the same index, with no matrix made."""
    return _rows(m) == _cols(m)


def mat_rank(a: RMatrix) -> int:
    """Exact rank by forward elimination."""
    return _echelon([list(row) for row in _rows(a)], a.cols)[0]


def _skeleton(a: RMatrix) -> tuple[RMatrix, RMatrix]:
    """(C, R) = (A[:,J], A[I,:]) for the pivot rows I and columns J of one elimination
    of A: len(I) == len(J) == rank(A), A[I,J] is regular and A == C*A[I,J]^-1*R."""
    rows = _rows(a)
    r, _, order, cols = _echelon([list(row) for row in rows], a.cols)
    return (_make(a.rows, r, [row[j] for row in rows for j in cols[:r]], a._den),
            _make(r, a.cols, [x for i in order[:r] for x in rows[i]], a._den))


def _unit(i: int, n: int, x: int = 1) -> tuple[int, ...]:
    """Row i of x times the n x n identity."""
    return (0,) * i + (x,) + (0,) * (n - i - 1)


def _augmented(a: RMatrix) -> list[list[int]]:
    """The integer rows of [A | I_m], both halves over A's denominator."""
    m, den = a.rows, a._den
    return [[*row, *_unit(i, m, den)] for i, row in enumerate(_rows(a))]


def _annihilator(x: RMatrix, a: RMatrix, degree: int) -> list[int]:
    """The coprime integer coefficients, from degree 0, of the least-degree h
    with x*h(A) = 0, up to sign, for deg h <= degree: one ``_echelon`` of the
    rows [vec(x*A^j) | e_j], each over its own denominator, for j = 0..degree
    or up to the first x*A^j = 0. The rows before the first dependent one are
    their own pivot rows, unswapped, so that row is row rank, h on its right."""
    width, rows = len(x._nums), []
    for j in range(degree + 1):
        if j:
            x = mat_mul(x, a)  # through the module global, so a tracer sees it
        rows.append([*x._nums, *_unit(j, degree + 1, x._den)])
        if not any(x._nums):
            break
    rank, rows, _, _ = _echelon(rows, width)
    h = rows[rank][width:width + rank + 1]
    g = gcd(*h)
    return [c // g for c in h]


def _echelon(rows, width: int):
    """Fraction-free (Bareiss) forward elimination of integer rows, each a
    list, on their first width columns: (rank, echelon rows, order, cols).

    Step t's pivot is the first nonzero entry, row-major, of rows t.. and
    columns t..width-1; its row and column are swapped into place t, and
    order[t] and cols[t] are the input row and column now at t. With p that
    pivot and prev the one before it (1 at step 0), every row below becomes
    (p*row - row[t]*pivot row) // prev; a zero row, or one with row[t] == 0
    when p == prev, is left as it is. The division is exact (Bareiss, Math.
    Comp. 22, 1968): each entry is then a minor of the input grid with its rows
    and columns in that order, and pivot t is its leading (t+1)x(t+1) minor.
    So no gcd is taken, row t keeps the value of input row order[t] less
    multiples of the rows above it, and a row below t is p times its value.
    Rows all over one denominator den are read over den, and a row below t
    over den*p.
    """
    m = len(rows)
    order, cols = list(range(m)), list(range(width))
    prev = 1
    for t in range(min(m, width)):
        found = next(((i, j) for i in range(t, m) for j in range(t, width) if rows[i][j]), None)
        if found is None:
            return t, rows, order, cols
        i, j = found
        rows[t], rows[i] = rows[i], rows[t]
        order[t], order[i] = order[i], order[t]
        if j != t:
            cols[t], cols[j] = cols[j], cols[t]
            for row in rows:
                row[t], row[j] = row[j], row[t]
        prow = rows[t]
        p = prow[t]
        for i in range(t + 1, m):
            row = rows[i]
            f = row[t]
            if f:
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
            elif p != prev and any(row):
                rows[i] = [p * x // prev for x in row]
        prev = p
    return min(m, width), rows, order, cols


def _back_substitute(rows, r: int):
    """``_echelon``'s rows, each of its first r rows, the pivot rows, cleared
    at the later pivot columns; read each as a ratio to its pivot. With d the
    last pivot, row t becomes (d*row_t - sum over s > t of row_t[s]*row_s) //
    row_t[t] for t = r-2 down to 0, exact by Cramer's rule, so every pivot
    becomes d, every entry an r x r minor, and no gcd is taken."""
    d = rows[r - 1][r - 1] if r else 1
    for t in range(r - 2, -1, -1):
        row = rows[t]
        p, acc = row[t], [d * x for x in row[r:]]
        for s in range(t + 1, r):
            f = row[s]
            if f:
                acc = [x - f * y for x, y in zip(acc, rows[s][r:])]
        rows[t] = [*_unit(t, r, d), *[x // p for x in acc]]
    return rows


def _gauss_jordan(a: RMatrix):
    """(rank, rows, cols) of [A | I_m]'s elimination on A's columns, the pivot
    rows then back-substituted: each pivot row is read over the last pivot d
    (1 at rank 0), each row below over A's denominator times d."""
    r, rows, _, cols = _echelon(_augmented(a), a.cols)
    return r, _back_substitute(rows, r), cols


def block_compose(x0: RMatrix, x1: RMatrix, x2: RMatrix, x3: RMatrix) -> RMatrix:
    """Assemble [[x0, x1], [x2, x3]]; blocks of a zero-size slot are 0-row or 0-column."""
    for first, second, what in ((x0.rows, x1.rows, "top block heights"),
                                (x2.rows, x3.rows, "bottom block heights"),
                                (x0.cols, x2.cols, "left block widths"),
                                (x1.cols, x3.cols, "right block widths")):
        if first != second:
            raise DimensionMismatch(f"inconsistent {what}: {first} vs {second}")

    def segments(left, right):
        return [part for lrow, rrow in zip(_rows(left), _rows(right))
                for part in ((lrow, left._den), (rrow, right._den))]

    return _over_lcm(x0.rows + x2.rows, x0.cols + x1.cols, segments(x0, x1) + segments(x2, x3))


def block_extract(a: RMatrix, r: int) -> tuple[RMatrix, RMatrix, RMatrix, RMatrix]:
    """Split at row/column r into [[a0, a1], [a2, a3]]; a0 is r x r."""
    if r < 0 or r > min(a.rows, a.cols):
        raise IndexOutOfRange(f"split index {r} outside 0..{min(a.rows, a.cols)}")

    rows = _rows(a)

    def sub(r0, r1, c0, c1):
        return _make(r1 - r0, c1 - c0, [x for row in rows[r0:r1] for x in row[c0:c1]], a._den)

    return (sub(0, r, 0, r), sub(0, r, r, a.cols),
            sub(r, a.rows, 0, r), sub(r, a.rows, r, a.cols))
