"""Determinants and inverses of comrade matrices.

A comrade matrix is tridiagonal except for a dense last row.  This
package computes its determinant in O(n) and its inverse in O(n^2)
scalar operations via pivot recurrences, in three arithmetic modes:
exact rationals, binary64 floats, and a symbolic mode that rescues
exactly-zero pivots and divisor alphas by substituting an indeterminate
t and evaluating the reduced result at t = 0.  A deliberately naive
dense solver (``comrade.oracle``) exists solely to cross-check the fast
path.
"""

from .factorization import (LUFactors, NonFiniteResultError, OpCounter,
                            Substitution, ZeroPivotError, determinant,
                            factorize, reconstruct_LU)
from .inversion import (InverseResult, invert, last_two_columns,
                        remaining_columns)
from .io import MatrixFormatError, dump_comrade, dump_dense, load_comrade, load_dense
from .matrix import (ComradeMatrix, DenseMatrix, SingularMatrixError,
                     comrade_times_dense, dense_times_comrade, example33,
                     make_comrade, random_comrade, to_dense)
from .oracle import dense_det, dense_invert
from .scalars import (PoleAtZeroError, Polynomial, RationalFunction, ScalarMode,
                      format_rational, parse_rational, poly_gcd)

__version__ = "0.1.0"

__all__ = [
    "ComradeMatrix", "DenseMatrix", "InverseResult", "LUFactors",
    "MatrixFormatError", "NonFiniteResultError", "OpCounter",
    "PoleAtZeroError", "Polynomial", "RationalFunction", "ScalarMode",
    "SingularMatrixError", "Substitution",
    "ZeroPivotError", "comrade_times_dense", "dense_det", "dense_invert",
    "dense_times_comrade", "determinant", "dump_comrade", "dump_dense",
    "example33", "factorize", "format_rational", "invert", "last_two_columns",
    "load_comrade", "load_dense", "make_comrade", "parse_rational", "poly_gcd",
    "random_comrade", "reconstruct_LU", "remaining_columns", "to_dense",
    "__version__",
]
