"""Pivot recurrences: LU-style factorization and determinant.

The factorization is Doolittle's, specialized to the comrade pattern.
L is unit lower bidiagonal except for a dense last row (x_1..x_{n-1}, 1),
U is upper bidiagonal with the pivots mu_1..mu_n on the diagonal and the
matrix's own superdiagonal above it.  Only the O(n) recurrence data is
ever computed; ``reconstruct_LU`` materializes the factors for checking.

In SYMBOLIC mode an identically-zero pivot is replaced by the
indeterminate t.  Algebraically that is a +t bump of the corresponding
diagonal entry, i.e. the factors describe a perturbed matrix M(t) with
M(0) equal to the input; the substitution log records which diagonals
were bumped.  EXACT and FLOAT modes raise ``ZeroPivotError`` instead,
except for the last pivot: nothing in the recurrences divides by mu_n,
a zero there just means the matrix is singular, and the determinant of a
singular matrix is still a perfectly good (zero) answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .matrix import ComradeMatrix, DenseMatrix
from .scalars import RationalFunction, ScalarMode

_T = RationalFunction.t()


class ZeroPivotError(ArithmeticError):
    """A zero pivot (or zero divisor alpha) in a mode without symbolic rescue."""

    def __init__(self, index: int, what: str = "pivot"):
        self.index = index
        self.what = what
        super().__init__(f"zero {what} at index {index}; retry in symbolic mode")


class NonFiniteResultError(ArithmeticError):
    """A FLOAT result overflowed to inf or became nan, typically through
    a tiny pivot in the unpivoted factorization."""

    def __init__(self, what: str):
        self.what = what
        super().__init__(f"float {what} is not finite; retry in exact mode")


class Substitution(NamedTuple):
    kind: str   # "pivot" | "alpha"
    index: int  # 1-based, matching the recurrence subscripts


class OpCounter:
    """Mutable tally of scalar field operations (add/sub/mul/div count 1,
    negation and comparisons are free)."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def tally(self, n: int):
        self.count += n


@dataclass(frozen=True)
class LUFactors:
    """Recurrence output: pivots mu (n values), last-row multipliers x
    (n-1 values), the substitution log, and the mode the run used.

    Together with the source matrix's alpha and gamma these determine L
    and U; L*U reconstructs the input up to the logged +t diagonal
    bumps.  In EXACT/FLOAT mode ``mu[-1]`` may be zero: that marks a
    singular matrix and blocks inversion, not the determinant.
    """

    mode: ScalarMode
    mu: tuple
    x: tuple
    substitutions: tuple


def factorize(C: ComradeMatrix, mode: ScalarMode, ops: OpCounter | None = None) -> LUFactors:
    """Run the pivot and last-row recurrences in the given mode.

    Cost: 6n - 9 field operations when no substitution fires.
    """
    n = C.n
    w = mode.scalar
    beta = [w(v) for v in C.beta]
    alpha = [w(v) for v in C.alpha]
    gamma = [w(v) for v in C.gamma]
    a = [w(v) for v in C.a]
    if ops is None:
        ops = OpCounter()
    symbolic = mode is ScalarMode.SYMBOLIC
    subs = []

    def pivot(i0, value):
        if value == 0:
            if symbolic:
                subs.append(Substitution("pivot", i0 + 1))
                return _T
            if i0 < n - 1:
                raise ZeroPivotError(i0 + 1)
        return value

    mu = [None] * n
    x = [None] * (n - 1)
    mu[0] = pivot(0, beta[0])
    x[0] = a[-1] / mu[0]                                   # x_1 = a_n / mu_1
    ops.tally(1)
    for i0 in range(1, n - 1):
        # mu_i = beta_i - (alpha_{i-1} / mu_{i-1}) * gamma_i
        mu[i0] = pivot(i0, beta[i0] - (alpha[i0 - 1] / mu[i0 - 1]) * gamma[i0 - 1])
        ops.tally(3)
        if i0 <= n - 3:
            # x_i = (a_{n-i+1} - alpha_{i-1} x_{i-1}) / mu_i; a[k] holds a_{k+3}
            x[i0] = (a[n - 3 - i0] - alpha[i0 - 1] * x[i0 - 1]) / mu[i0]
            ops.tally(3)
    x[n - 2] = (gamma[n - 2] - alpha[n - 3] * x[n - 3]) / mu[n - 2]
    ops.tally(3)
    mu[n - 1] = pivot(n - 1, beta[n - 1] - alpha[n - 2] * x[n - 2])
    ops.tally(2)
    return LUFactors(mode, tuple(mu), tuple(x), tuple(subs))


def pivot_product(F: LUFactors, ops: OpCounter):
    """The determinant mu_1 * ... * mu_n, n - 1 field operations.

    In SYMBOLIC mode the product reduces to a polynomial in t and is
    evaluated at t = 0, which is exactly the determinant of the
    unperturbed matrix; singular inputs therefore give exactly 0.
    """
    ops.tally(len(F.mu) - 1)
    return F.mode.finalize(math.prod(F.mu[1:], start=F.mu[0]))


def determinant(C: ComradeMatrix, mode: ScalarMode, ops: OpCounter | None = None):
    """Determinant as the pivot product, 7n - 10 field operations.

    Raises NonFiniteResultError in FLOAT mode when the product is inf
    or nan.
    """
    if ops is None:
        ops = OpCounter()
    det = pivot_product(factorize(C, mode, ops), ops)
    if mode is ScalarMode.FLOAT and not math.isfinite(det):
        raise NonFiniteResultError("determinant")
    return det


def bumped_beta(F: LUFactors, C: ComradeMatrix) -> tuple:
    """C's diagonal in F's working scalars, with +t at each substituted
    pivot: the diagonal of the matrix the factors actually describe."""
    w = F.mode.scalar
    beta = [w(v) for v in C.beta]
    for kind, index in F.substitutions:
        if kind == "pivot":
            beta[index - 1] = beta[index - 1] + _T
    return tuple(beta)


def reconstruct_LU(F: LUFactors, C: ComradeMatrix):
    """Materialize (L, U) as DenseMatrix pairs for verification.

    L*U equals the dense form of C, except that each logged pivot
    substitution bumps the matching diagonal entry by t (in EXACT/FLOAT
    mode there are never substitutions, so L*U == to_dense(C) up to
    roundoff in FLOAT).
    """
    n = C.n
    w = F.mode.scalar
    one, zero = w(1), w(0)
    lower = [[zero] * n for _ in range(n)]
    for i in range(n - 1):
        lower[i][i] = one
        if i > 0:
            lower[i][i - 1] = w(C.gamma[i - 1]) / F.mu[i - 1]   # gamma_{i+1} / mu_i
    lower[n - 1][: n - 1] = list(F.x)
    lower[n - 1][n - 1] = one
    upper = [[zero] * n for _ in range(n)]
    for i in range(n):
        upper[i][i] = F.mu[i]
        if i < n - 1:
            upper[i][i + 1] = w(C.alpha[i])
    return (DenseMatrix(n, tuple(tuple(r) for r in lower)),
            DenseMatrix(n, tuple(tuple(r) for r in upper)))
