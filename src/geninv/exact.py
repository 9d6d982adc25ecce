"""Exact rational scalars and dense rational matrices.

Scalars are ``fractions.Fraction`` values, re-exported as ``Rational``:
arbitrary precision, always in lowest terms with a positive denominator,
and with structural equality. Matrices are immutable grids of rationals,
so every operation returns a fresh value and the whole module is safe to
use from several threads at once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Sequence

from .errors import DimensionMismatch, IndexOutOfRange, SingularMatrix

Rational = Fraction

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?\Z")


def parse_rational(token: str) -> Rational:
    """Parse ``-7/36``, ``3`` or ``0``: optional sign, integer, optional /denominator."""
    if not _RATIONAL_RE.match(token):
        raise ValueError(f"invalid rational token {token!r}")
    if "/" in token and int(token.split("/", 1)[1]) == 0:
        raise ValueError(f"zero denominator in {token!r}")
    return Fraction(token)


def format_rational(x: Rational) -> str:
    """Canonical text form: lowest terms, sign on the numerator, ``/`` only if needed."""
    return str(x)


@dataclass(frozen=True)
class RMatrix:
    """Immutable dense matrix of rationals.

    Either dimension may be zero: such matrices are the empty blocks of a
    split at r = 0 or at full rank. ``from_rows`` builds only 1x1 and up.
    """

    rows: int
    cols: int
    entries: tuple[tuple[Rational, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError(f"matrix dimensions must be >= 0, got {self.rows}x{self.cols}")
        if len(self.entries) != self.rows or any(len(row) != self.cols for row in self.entries):
            raise ValueError("entry grid does not match the declared shape")
        for v in chain.from_iterable(self.entries):
            if not isinstance(v, Fraction):
                raise TypeError(f"entries must be Fraction, got {type(v).__name__}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RMatrix":
        """Build from nested sequences; entries may be int, Fraction or text like ``-7/36``."""
        grid = []
        for row in rows:
            converted = []
            for v in row:
                if isinstance(v, float):
                    raise TypeError("float entries are not exact; pass Fraction, int or text")
                converted.append(Fraction(v))
            grid.append(tuple(converted))
        if not grid or not grid[0]:
            raise ValueError("matrix must be at least 1x1")
        return cls(len(grid), len(grid[0]), tuple(grid))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def T(self) -> "RMatrix":
        return mat_transpose(self)

    def row(self, i: int) -> tuple[Rational, ...]:
        return self.entries[i]

    def __getitem__(self, key: tuple[int, int]) -> Rational:
        i, j = key
        return self.entries[i][j]

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
        body = " ".join("[" + " ".join(str(v) for v in row) + "]" for row in self.entries)
        return f"RMatrix({self.rows}x{self.cols} {body})"

    def __str__(self) -> str:
        cells = [[str(v) for v in row] for row in self.entries]
        widths = [max((len(row[j]) for row in cells), default=0) for j in range(self.cols)]
        return "\n".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells)


def zeros(rows: int, cols: int) -> RMatrix:
    return RMatrix(rows, cols, tuple(tuple(Fraction(0) for _ in range(cols)) for _ in range(rows)))


def identity(n: int) -> RMatrix:
    return RMatrix(n, n, tuple(tuple(Fraction(i == j) for j in range(n)) for i in range(n)))


def partial_identity(rows: int, cols: int, r: int) -> RMatrix:
    """The m x n matrix with ones on the first r diagonal places, zeros elsewhere."""
    if r < 0 or r > min(rows, cols):
        raise ValueError(f"rank {r} outside 0..{min(rows, cols)}")
    return RMatrix(rows, cols,
                   tuple(tuple(Fraction(i == j and i < r) for j in range(cols)) for i in range(rows)))


def mat_add(a: RMatrix, b: RMatrix) -> RMatrix:
    if a.shape != b.shape:
        raise DimensionMismatch(f"cannot add {a.rows}x{a.cols} and {b.rows}x{b.cols}")
    return RMatrix(a.rows, a.cols,
                   tuple(tuple(x + y for x, y in zip(ra, rb))
                         for ra, rb in zip(a.entries, b.entries)))


def mat_sub(a: RMatrix, b: RMatrix) -> RMatrix:
    if a.shape != b.shape:
        raise DimensionMismatch(f"cannot subtract {b.rows}x{b.cols} from {a.rows}x{a.cols}")
    return RMatrix(a.rows, a.cols,
                   tuple(tuple(x - y for x, y in zip(ra, rb))
                         for ra, rb in zip(a.entries, b.entries)))


def mat_scale(a: RMatrix, s) -> RMatrix:
    s = Fraction(s)
    return RMatrix(a.rows, a.cols, tuple(tuple(s * v for v in row) for row in a.entries))


def mat_mul(a: RMatrix, b: RMatrix) -> RMatrix:
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    if a.cols == 0:  # an empty sum per entry
        return zeros(a.rows, b.cols)
    bcols = tuple(zip(*b.entries))
    return RMatrix(a.rows, b.cols,
                   tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bcols)
                         for row in a.entries))


def mat_transpose(a: RMatrix) -> RMatrix:
    if a.rows == 0:  # zip(*()) would lose the column count
        return zeros(a.cols, 0)
    return RMatrix(a.cols, a.rows, tuple(zip(*a.entries)))


def mat_pow(a: RMatrix, k: int) -> RMatrix:
    if not a.is_square:
        raise DimensionMismatch(f"matrix power needs a square matrix, got {a.rows}x{a.cols}")
    if k < 0:
        raise ValueError("exponent must be non-negative")
    out = identity(a.rows)
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def mat_inverse(a: RMatrix) -> RMatrix:
    """Exact inverse by Gauss-Jordan elimination with first-nonzero pivoting."""
    if not a.is_square:
        raise DimensionMismatch(f"only square matrices are invertible, got {a.rows}x{a.cols}")
    n = a.rows
    aug = [list(row) + [Fraction(i == j) for j in range(n)]
           for i, row in enumerate(a.entries)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            raise SingularMatrix(f"matrix of size {n} has rank below {n}")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [v * inv_p for v in aug[col]]
        prow = aug[col]
        for i in range(n):
            f = aug[i][col]
            if f and i != col:
                aug[i] = [v - f * w for v, w in zip(aug[i], prow)]
    return RMatrix(n, n, tuple(tuple(r[n:]) for r in aug))


def mat_rank(a: RMatrix) -> int:
    """Exact rank by forward elimination."""
    grid = [list(row) for row in a.entries]
    m, n = a.rows, a.cols
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if grid[i][col]), None)
        if piv is None:
            continue
        grid[rank], grid[piv] = grid[piv], grid[rank]
        prow = grid[rank]
        pv = prow[col]
        for i in range(rank + 1, m):
            f = grid[i][col]
            if f:
                ratio = f / pv
                grid[i] = [v - ratio * w for v, w in zip(grid[i], prow)]
        rank += 1
        if rank == m:
            break
    return rank


def block_compose(x0: RMatrix, x1: RMatrix, x2: RMatrix, x3: RMatrix) -> RMatrix:
    """Assemble [[x0, x1], [x2, x3]]; blocks of a zero-size slot are 0-row or 0-column."""
    for first, second, what in ((x0.rows, x1.rows, "top block heights"),
                                (x2.rows, x3.rows, "bottom block heights"),
                                (x0.cols, x2.cols, "left block widths"),
                                (x1.cols, x3.cols, "right block widths")):
        if first != second:
            raise DimensionMismatch(f"inconsistent {what}: {first} vs {second}")
    grid = tuple(left + right for left, right in chain(zip(x0.entries, x1.entries),
                                                       zip(x2.entries, x3.entries)))
    return RMatrix(x0.rows + x2.rows, x0.cols + x1.cols, grid)


def block_extract(a: RMatrix, r: int) -> tuple[RMatrix, RMatrix, RMatrix, RMatrix]:
    """Split at row/column r into [[a0, a1], [a2, a3]]; a0 is r x r."""
    if r < 0 or r > min(a.rows, a.cols):
        raise IndexOutOfRange(f"split index {r} outside 0..{min(a.rows, a.cols)}")

    def sub(r0, r1, c0, c1):
        return RMatrix(r1 - r0, c1 - c0, tuple(row[c0:c1] for row in a.entries[r0:r1]))

    return (sub(0, r, 0, r), sub(0, r, r, a.cols),
            sub(r, a.rows, 0, r), sub(r, a.rows, r, a.cols))
