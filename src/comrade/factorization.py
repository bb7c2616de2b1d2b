"""Pivot recurrences: LU-style factorization and determinant.

The factorization is Doolittle's, specialized to the comrade pattern.
L is unit lower bidiagonal except for a dense last row (x_1..x_{n-1}, 1),
U is upper bidiagonal with the pivots mu_1..mu_n on the diagonal and the
matrix's own superdiagonal above it.  Only the O(n) recurrence data is
ever computed; ``reconstruct_LU`` materializes the factors for checking.

EXACT mode runs the recurrences fraction-free (Bareiss 1968), on the
integer matrix C' = C diag(c), where c_k is the lcm of the denominators
in column k (``integer_scaled``).  With D_0 = 1, D_1 = beta'_1 and
X_1 = a'_n, the continuants

    D_i = beta'_i D_{i-1} - alpha'_{i-1} gamma'_i D_{i-2}
    X_i = a'_{n-i+1} D_{i-1} - alpha'_{i-1} X_{i-1}   (gamma'_n for i = n-1)
    D_n = beta'_n D_{n-1} - alpha'_{n-1} X_{n-1}

are the leading principal minors of C' and the last-row multipliers
times them, so mu_i = D_i / (c_i D_{i-1}), x_i = X_i / D_i and
det C = D_n / (c_1 .. c_n).  The loop multiplies big integers by small
ones and runs no gcd; a zero pivot mu_i shows as D_i = 0.  ``LUFactors``
keeps (c, D, X) and builds the Fractions mu and x only when they are
read, so ``determinant`` builds no Fraction but its result.  The
SYMBOLIC determinant runs the same loop: it never divides, so a zero
pivot needs no t, and ``inversion`` takes its unit det C' from it.

In SYMBOLIC mode ``factorize`` replaces an identically-zero pivot by
the indeterminate t.  Algebraically that is a +t bump of the
corresponding diagonal entry, i.e. the factors describe a perturbed
matrix M(t) with M(0) equal to the input; the substitution log records
which diagonals were bumped.  EXACT and FLOAT modes raise
``ZeroPivotError`` instead, except for the last pivot: nothing in the
recurrences divides by mu_n, a zero there just means the matrix is
singular, and the determinant of a singular matrix is still a perfectly
good (zero) answer.

The operation counts, 6n - 9 for the factorization and 7n - 10 for the
determinant, are the paper's model contract for its recurrences on
field elements.  Every mode tallies them, whatever its loop actually
runs on.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
    singular matrix and blocks inversion, not the determinant.  EXACT
    factors keep the integer continuants instead and build mu and x
    from them on first read.
    """

    mode: ScalarMode
    mu: tuple
    x: tuple
    substitutions: tuple

    @property
    def n(self) -> int:
        return len(self.mu)

    def pivot_product(self):
        """mu_1 * ... * mu_n, evaluated at t = 0 in SYMBOLIC mode."""
        return self.mode.finalize(math.prod(self.mu[1:], start=self.mu[0]))


class _ContinuantFactors(LUFactors):
    """EXACT factors held as the integer data of the module docstring:
    the column scales c, D = [D_0, .., D_n] and X = [X_1, .., X_{n-1}].
    mu and x are built from them on first read."""

    def __init__(self, scale, D, X):
        # frozen: set the fields as cached_property sets mu and x
        self.__dict__.update(mode=ScalarMode.EXACT, substitutions=(), scale=scale, D=D, X=X)

    @cached_property
    def mu(self):
        # mu_i = D_i / (c_i D_{i-1})
        return tuple(map(Fraction, self.D[1:], map(operator.mul, self.scale, self.D)))

    @cached_property
    def x(self):
        return tuple(map(Fraction, self.X, self.D[1:]))

    @property
    def n(self) -> int:
        return len(self.scale)

    def pivot_product(self):
        return Fraction(self.D[-1], math.prod(self.scale))


def integer_scaled(C: ComradeMatrix, coefficients=None):
    """(c, C'): c_k is the lcm of the denominators in column k of C, and
    C' = C diag(c) is C with integer entries.

    The entries are rationals.  With ``coefficients`` each entry is a
    polynomial in t, that function gives its Fraction coefficients, and
    each entry of C' is the list of its integer coefficients."""
    families = [getattr(C, name) for name in ("beta", "alpha", "gamma", "a")]
    if coefficients is None:
        families = [[v.as_integer_ratio() for v in f] for f in families]
        den = operator.itemgetter(1)
        scaled = lambda r, c: r[0] * (c // r[1])
    else:
        families = [[coefficients(v) for v in f] for f in families]
        den = lambda cs: math.lcm(*(v.denominator for v in cs))
        scaled = lambda cs, c: [v.numerator * (c // v.denominator) for v in cs]
    beta, alpha, gamma, a = families
    b, al, g, e = ([*map(den, f)] for f in families)
    # beta_k and gamma_{k+1} sit in column k, alpha_k in column k+1 and
    # a_m in column n-m+1 of the last row
    scale = [*map(math.lcm, b, [1, *al], [*g, 1], [*reversed(e), 1, 1])]
    return scale, ComradeMatrix(
        C.n, tuple(map(scaled, beta, scale)), tuple(map(scaled, alpha, scale[1:])),
        tuple(map(scaled, gamma, scale)), tuple(map(scaled, a, scale[C.n - 3::-1])))


def continuants(S: ComradeMatrix):
    """([D_0, .., D_n], [X_1, .., X_{n-1}]) of the module docstring, on
    any integer-like S (C' or its Kronecker-packed SYMBOLIC form): run
    to the end through any zero D_i, since they never divide."""
    beta, alpha, gamma = S.beta, S.alpha, S.gamma
    last = (*reversed(S.a), gamma[-1])              # row n left to right, without beta_n
    d2, d1, x = 1, beta[0], last[0]
    D, X = [1, d1], [x]
    for b, al, ag, e in zip(beta[1:-1], alpha, map(operator.mul, alpha, gamma), last[1:]):
        # D_i, and X_i with e = a'_{n-i+1} (gamma'_n for i = n - 1)
        d2, d1, x = d1, b * d1 - ag * d2, e * d1 - al * x
        D.append(d1)
        X.append(x)
    D.append(beta[-1] * d1 - alpha[-1] * x)
    return D, X


def _continuants(C: ComradeMatrix) -> _ContinuantFactors:
    """``continuants`` of C' = C diag(c), kept with the scales c."""
    scale, S = integer_scaled(C)
    return _ContinuantFactors(scale, *continuants(S))


def factorize(C: ComradeMatrix, mode: ScalarMode, ops: OpCounter | None = None) -> LUFactors:
    """Run the pivot and last-row recurrences in the given mode.

    Cost: 6n - 9 field operations when no substitution fires.  That is
    the paper's count, tallied in every mode; EXACT runs the recurrences
    as integer continuants (see the module docstring).
    """
    n = C.n
    if ops is None:
        ops = OpCounter()
    if mode is ScalarMode.EXACT:
        F = _continuants(C)
        if 0 in F.D[1:n]:                                # mu_i = 0 for some i < n
            i = F.D.index(0, 1)
            ops.tally(max(6 * i - 11, 0))                # the recurrences before mu_i
            raise ZeroPivotError(i)
        ops.tally(6 * n - 9)
        return F
    w = mode.scalar
    beta = [w(v) for v in C.beta]
    alpha = [w(v) for v in C.alpha]
    gamma = [w(v) for v in C.gamma]
    a = [w(v) for v in C.a]
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

    # row n left to right, without beta_n: e = (a_n, .., a_3, gamma_n)
    e = (*reversed(a), gamma[-1])
    mu = [None] * n
    x = [None] * (n - 1)
    mu[0] = pivot(0, beta[0])
    x[0] = e[0] / mu[0]                                    # x_1 = a_n / mu_1
    ops.tally(1)
    for i0 in range(1, n - 1):
        # mu_i = beta_i - (alpha_{i-1} / mu_{i-1}) * gamma_i and
        # x_i = (e_i - alpha_{i-1} x_{i-1}) / mu_i
        mu[i0] = pivot(i0, beta[i0] - (alpha[i0 - 1] / mu[i0 - 1]) * gamma[i0 - 1])
        x[i0] = (e[i0] - alpha[i0 - 1] * x[i0 - 1]) / mu[i0]
        ops.tally(6)
    mu[n - 1] = pivot(n - 1, beta[n - 1] - alpha[n - 2] * x[n - 2])
    ops.tally(2)
    return LUFactors(mode, tuple(mu), tuple(x), tuple(subs))


def pivot_product(F: LUFactors, ops: OpCounter):
    """The determinant mu_1 * ... * mu_n, n - 1 field operations.

    In SYMBOLIC mode the product reduces to a polynomial in t and is
    evaluated at t = 0, which is exactly the determinant of the
    unperturbed matrix; singular inputs therefore give exactly 0.
    EXACT factors give D_n / (c_1 .. c_n) instead, the same Fraction.
    """
    ops.tally(F.n - 1)
    return F.pivot_product()


def determinant(C: ComradeMatrix, mode: ScalarMode, ops: OpCounter | None = None):
    """Determinant as the pivot product, 7n - 10 field operations, the
    paper's count, tallied in every mode.

    EXACT divides the continuant D_n of ``factorize`` once by the column
    scales.  SYMBOLIC runs the same continuants without stopping at a
    zero pivot: they never divide, so no pivot needs t.  Raises
    NonFiniteResultError in FLOAT mode when the product is inf or nan.
    """
    if ops is None:
        ops = OpCounter()
    if mode is ScalarMode.SYMBOLIC:
        ops.tally(7 * C.n - 10)
        return _continuants(C).pivot_product()
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
