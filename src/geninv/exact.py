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
elimination leaves, ``block_compose``'s blocks, ``square``'s stacked powers)
is put over the lcm of theirs by one builder, ``_over_lcm``: a sum adds where
those concatenate. No other module takes an lcm.

Rank, inverse, pivot columns and the full-rank reduction share one
elimination, ``_echelon``, on rows of integer numerators over a denominator.
Its only arithmetic is ``_eliminate``: an integer row step, then one gcd to
cancel the row's common factor. ``square``'s minimal-polynomial scan reduces
its rows with ``_eliminate`` too.

Text is written from the grid as well: ``_texts`` renders each entry with
one gcd against the denominator, and ``str``, ``repr`` and the CLI's
MatrixFile writer use it. MatrixFile text is read in ``cli``.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Sequence

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


def _rows(a: RMatrix) -> tuple[tuple[int, ...], ...]:
    """The numerators of a, row by row."""
    c = a.cols
    return tuple([a._nums[i * c:(i + 1) * c] for i in range(a.rows)])


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
    n = b.cols
    cols = [b._nums[j::n] for j in range(n)]
    return _make(a.rows, n, [sum(map(mul, row, col)) for row in _rows(a) for col in cols],
                 a._den * b._den)


def mat_transpose(a: RMatrix) -> RMatrix:
    c = a.cols
    return _make(c, a.rows, [x for j in range(c) for x in a._nums[j::c]], a._den)


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
    """Exact inverse: forward elimination of [A | I], then back-substitution."""
    if not a.is_square:
        raise DimensionMismatch(f"only square matrices are invertible, got {a.rows}x{a.cols}")
    n, den = a.rows, a._den
    return _solve([([*row, *_unit(i, n, den)], den) for i, row in enumerate(_rows(a))])


def mat_rank(a: RMatrix) -> int:
    """Exact rank by forward elimination."""
    return _echelon([(list(row), a._den) for row in _rows(a)], a.cols)[0]


def _pivot_columns(a: RMatrix) -> RMatrix:
    """The columns of a at its echelon's pivots, a basis of the range of a."""
    rows = _rows(a)
    r, _, cols = _echelon([(list(row), a._den) for row in rows], a.cols)
    return _make(a.rows, r, [row[j] for row in rows for j in cols[:r]], a._den)


def _unit(i: int, n: int, x: int = 1) -> tuple[int, ...]:
    """Row i of x times the n x n identity."""
    return (0,) * i + (x,) + (0,) * (n - i - 1)


def _eliminate(row, prow, c: int):
    """row - (row[c]/prow[c]) * prow on (numerators, denominator) rows, common factor cancelled."""
    (nums, den), pnums = row, prow[0]
    p, f = pnums[c], nums[c]
    nums = [p * x - f * y for x, y in zip(nums, pnums)]
    den *= p
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [x // g for x in nums], den // g


def _echelon(rows, width: int):
    """Forward elimination of (numerators, denominator) rows, each numerator
    row a list: (rank, echelon rows, cols).

    Step t's pivot is the first nonzero entry, row-major, of rows t.. and
    columns t..width-1; its row and column are swapped into place t, and
    cols[t] is the input column now at t.
    """
    m, cols = len(rows), list(range(width))
    for t in range(min(m, width)):
        found = next(((i, j) for i in range(t, m) for j in range(t, width)
                      if rows[i][0][j]), None)
        if found is None:
            return t, rows, cols
        i, j = found
        rows[t], rows[i] = rows[i], rows[t]
        if j != t:
            cols[t], cols[j] = cols[j], cols[t]
            for nums, _ in rows:
                nums[t], nums[j] = nums[j], nums[t]
        for i in range(t + 1, m):
            if rows[i][0][t]:
                rows[i] = _eliminate(rows[i], rows[t], t)
    return min(m, width), rows, cols


def _solve(rows) -> RMatrix:
    """A^-1 * B from the (numerators, denominator) rows of [A | B], A n x n."""
    n = len(rows)
    width = len(rows[0][0]) - n if rows else 0
    rank, rows, cols = _echelon(rows, n)
    if rank < n:
        raise SingularMatrix(f"matrix of size {n} has rank below {n}")
    for t in range(n - 1, 0, -1):
        for s in range(t):
            if rows[s][0][t]:
                rows[s] = _eliminate(rows[s], rows[t], t)
    out = [()] * n
    for t, (nums, _) in enumerate(rows):  # row t of (A*Pi)^-1 * B is row cols[t] of A^-1 * B
        out[cols[t]] = (nums[n:], nums[t])
    return _over_lcm(n, width, out)


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
