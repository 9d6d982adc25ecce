"""Exact computation of generalized matrix inverses over the rationals.

Builds every classical inverse family ({1}, {2}, {1,2}, {1,3}, {1,2,3},
{1,4}, {1,2,4}, {1,3,4}, Moore-Penrose, group, Drazin) through block
representations over a full-rank reduction Q*A*P = E_r, entirely in exact
rational arithmetic, and verifies candidates against the defining equations.
"""

from .errors import (DimensionMismatch, GenInvError, IndexOutOfRange,
                     IndexTooLarge, InvalidFactorization, NotIdempotent,
                     ParseError, SingularMatrix)
from .exact import (RMatrix, Rational, block_compose, block_extract, identity,
                    mat_add, mat_inverse, mat_mul, mat_pow, mat_rank, mat_scale,
                    mat_sub, mat_transpose, partial_identity, zeros)
from .factorize import (FactoredMatrix, factor_with, full_rank_reduce,
                        verify_factorization)
from .penrose import PenroseReport, check
from .rect import (compute_star_blocks, g1_inverse, g12_inverse, g123_inverse,
                   g124_inverse, g13_inverse, g134_inverse, g14_inverse,
                   g2_inverse, moore_penrose, validate_g2_blocks,
                   validate_g3_blocks, validate_g4_blocks)
from .square import (MinimalPolynomial, drazin_inverse, group_blocks,
                     group_inverse_block, group_inverse_poly, index_of, is_ep,
                     minimal_polynomial, poly_at, poly_str, q_polynomial)

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatch", "FactoredMatrix", "GenInvError", "IndexOutOfRange",
    "IndexTooLarge", "InvalidFactorization",
    "MinimalPolynomial", "NotIdempotent", "ParseError", "PenroseReport",
    "RMatrix", "Rational", "SingularMatrix",
    "block_compose", "block_extract", "check", "compute_star_blocks",
    "drazin_inverse", "factor_with", "full_rank_reduce", "g1_inverse",
    "g12_inverse", "g123_inverse", "g124_inverse", "g13_inverse",
    "g134_inverse", "g14_inverse", "g2_inverse", "group_blocks",
    "group_inverse_block", "group_inverse_poly", "identity", "index_of",
    "is_ep", "mat_add", "mat_inverse", "mat_mul", "mat_pow", "mat_rank",
    "mat_scale", "mat_sub", "mat_transpose", "minimal_polynomial",
    "moore_penrose", "partial_identity", "poly_at", "poly_str", "q_polynomial",
    "validate_g2_blocks", "validate_g3_blocks", "validate_g4_blocks",
    "verify_factorization", "zeros",
]
