"""Exact verification of candidate inverses against the defining equations.

``check`` evaluates, for a pair (A, X): A*X*A = A, X*A*X = X, symmetry of
A*X and of X*A, and for square A additionally A*X = X*A and A^k*X*A = A^k at
k = index of A. The report also carries the inverse-class labels implied by
the satisfied equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DimensionMismatch
from .exact import RMatrix, mat_mul, mat_pow, mat_transpose
from .square import _Powers, _index_by_rank

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


def _labels(eq1, eq2, eq3, eq4, eq5, eq6) -> tuple[str, ...]:
    """Class labels of the satisfied equations; eq5/eq6 = None counts as unsatisfied."""
    flags = {"eq1": eq1, "eq2": eq2, "eq3": eq3, "eq4": eq4, "eq5": eq5, "eq6": eq6}
    return tuple(label for label, needs in _CLASS_TABLE
                 if all(flags[name] for name in needs))


def check(a: RMatrix, x: RMatrix, *, index: Optional[int] = None) -> PenroseReport:
    """Evaluate all defining equations exactly; X must be n x m for m x n A.

    ``index`` overrides the computed index of A in the sixth equation;
    it exists for exercising index boundaries in tests.
    """
    if x.shape != (a.cols, a.rows):
        raise DimensionMismatch(
            f"candidate must be {a.cols}x{a.rows} for a {a.rows}x{a.cols} matrix, "
            f"got {x.rows}x{x.cols}")
    ax = mat_mul(a, x)
    xa = mat_mul(x, a)
    eq1 = mat_mul(ax, a) == a
    eq2 = mat_mul(x, ax) == x
    eq3 = mat_transpose(ax) == ax
    eq4 = mat_transpose(xa) == xa
    if a.is_square:
        eq5: Optional[bool] = ax == xa
        if index is None:
            powers = _Powers(a)
            ak = powers[_index_by_rank(powers)]  # already formed while the index was found
        else:
            ak = mat_pow(a, index)
        eq6: Optional[bool] = mat_mul(ak, xa) == ak
    else:
        eq5 = eq6 = None
    return PenroseReport(eq1, eq2, eq3, eq4, eq5, eq6, _labels(eq1, eq2, eq3, eq4, eq5, eq6))


def classify(report: PenroseReport) -> list[str]:
    """Class labels implied by the report's booleans (not-applicable counts as unsatisfied)."""
    return list(_labels(report.eq1, report.eq2, report.eq3, report.eq4, report.eq5, report.eq6))
