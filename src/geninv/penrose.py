"""Exact verification of candidate inverses against the defining equations.

``check`` evaluates, for a pair (A, X): A*X*A = A, X*A*X = X, symmetry of
A*X and of X*A, and for square A additionally A*X = X*A and A^k*X*A = A^k at
k = index of A. The report also carries the inverse-class labels implied by
the satisfied equations. Only the smaller of A*X and X*A is formed (both for
a square A, for the fifth equation), and the first two equations through it
are tested in place, with no A*X*A or X*A*X formed; so is the symmetry of
either product, formed or not. When the product formed is the identity, as
for a full-rank A and its pseudoinverse, the first two equations hold with
no test: A*X = I gives A*X*A = A and X*A*X = X, and so does X*A = I.

The sixth equation is tested as R*X*A = R for the pivot rows R of A^k that
the rank sequence keeps: A^k = C*U^-1*R with C*U^-1 of full column rank, so
the two hold together, and no A^k is formed. At index 0, R = I and X*A is
compared with it directly. After ``drazin_inverse`` on the same A the
sequence is not run again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional

from .errors import DimensionMismatch
from .exact import RMatrix, _is_symmetric, _product_is, _product_is_symmetric, mat_mul
from .square import _index_and_skeleton

_CLASS_TABLE: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("{1}", ("eq1",)),
    ("{2}", ("eq2",)),
    ("{3}", ("eq3",)),
    ("{4}", ("eq4",)),
    ("{5}", ("eq5",)),
    ("{5^k}", ("eq6",)),
    ("{1,2}", ("eq1", "eq2")),
    ("{1,3}", ("eq1", "eq3")),
    ("{1,4}", ("eq1", "eq4")),
    ("{1,2,3}", ("eq1", "eq2", "eq3")),
    ("{1,2,4}", ("eq1", "eq2", "eq4")),
    ("{1,3,4}", ("eq1", "eq3", "eq4")),
    ("MP", ("eq1", "eq2", "eq3", "eq4")),
    ("group", ("eq1", "eq2", "eq5")),
    ("Drazin", ("eq2", "eq5", "eq6")),
)


@dataclass(frozen=True)
class PenroseReport:
    """Per-equation results; eq5/eq6 are None for non-square A."""

    eq1: bool
    eq2: bool
    eq3: bool
    eq4: bool
    eq5: Optional[bool]
    eq6: Optional[bool]
    classes: tuple[str, ...]


@cache  # six bools or Nones: at most 3^6 keys
def _labels(eq1, eq2, eq3, eq4, eq5, eq6) -> tuple[str, ...]:
    """Class labels of the satisfied equations; eq5/eq6 = None counts as unsatisfied."""
    flags = {"eq1": eq1, "eq2": eq2, "eq3": eq3, "eq4": eq4, "eq5": eq5, "eq6": eq6}
    return tuple([label for label, needs in _CLASS_TABLE
                  if all(flags[name] for name in needs)])


def _is_identity(p: RMatrix) -> bool:
    """Whether square P is the identity, with no matrix made. P is canonical,
    so it must be over the denominator 1 with n ones on its diagonal; its
    numerators then sum to n in absolute value only if the rest are zero."""
    n = p.rows
    return p._den == 1 and p._nums[::n + 1] == (1,) * n and sum(map(abs, p._nums)) == n


def check(a: RMatrix, x: RMatrix) -> PenroseReport:
    """Evaluate all defining equations exactly; X must be n x m for m x n A."""
    if x.shape != (a.cols, a.rows):
        raise DimensionMismatch(
            f"candidate must be {a.cols}x{a.rows} for a {a.rows}x{a.cols} matrix, "
            f"got {x.rows}x{x.cols}")
    ax = mat_mul(a, x) if a.rows <= a.cols else None
    xa = mat_mul(x, a) if a.rows >= a.cols else None
    if _is_identity(xa if ax is None else ax):
        eq1 = eq2 = True  # A*X = I gives A*X*A = A and X*A*X = X, and so does X*A = I
    elif ax is None:
        eq1, eq2 = _product_is(a, xa, a), _product_is(xa, x, x)
    else:
        eq1, eq2 = _product_is(ax, a, a), _product_is(x, ax, x)
    eq3 = _product_is_symmetric(a, x) if ax is None else _is_symmetric(ax)
    eq4 = _product_is_symmetric(x, a) if xa is None else _is_symmetric(xa)
    if a.is_square:
        eq5: Optional[bool] = ax == xa
        _, (_, r) = _index_and_skeleton(a)
        eq6: Optional[bool] = xa == r if r.is_square else _product_is(r, xa, r)
    else:
        eq5 = eq6 = None
    return PenroseReport(eq1, eq2, eq3, eq4, eq5, eq6, _labels(eq1, eq2, eq3, eq4, eq5, eq6))

