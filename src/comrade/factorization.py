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
ones and runs no gcd; a zero pivot mu_i shows as D_i = 0.  The factors
keep (c, C', D, X_{n-1}): no other X_i, since each is read only by the
next and the list would double the big integers held.  They build the
X list, mu and x only when these are read, from C' and D, so
``determinant`` builds no Fraction but its result, and ``inversion``
reads the last two columns of the inverse off the same integers.  The
SYMBOLIC determinant runs the same loop: it never divides, so a zero
pivot needs no t.

In SYMBOLIC mode ``factorize`` puts the indeterminate t in place of
each zero it would divide by, and logs it.  The column recursion of
``inversion`` divides by alpha_1 .. alpha_{n-2}, so each of them that
is zero becomes t.  An identically-zero pivot becomes t as well: that
is a +t bump of the corresponding diagonal entry.  So the factors
describe a perturbed matrix M(t) with M(0) equal to the input
(``perturbed``), and the log lists the pivots, then the alphas.  The
continuants run on C' = M(t) diag(c), whose entries are integer
polynomials in t, by Kronecker substitution: each polynomial p(t) is
held as the one integer p(2^B).  Evaluation at 2^B is a ring
homomorphism, so the loop's sums and products stay exact.  An integer
packs as itself and a substituted alpha_j as c_{j+1} 2^B.  A zero D_i
becomes c_i 2^B D_{i-1}, the D_i of beta'_i + c_i t, so that mu_i = t,
and C' keeps the bumped beta'_i.  Each continuant and each adjugate
entry of C' is a minor, a signed sum over permutations, so its
coefficients are at most the product of the rows' sums of
|coefficient| in absolute value; each row's sum counts the c_{j+1} of
a substituted alpha and a c_k for the bump it may get, and B is the
bound's bit length plus a sign bit.  So the coefficients read back as
balanced base-2^B digits, and mu and x are built from them when read.
The determinant D_n(0) / (c_1 .. c_n) takes the lowest digit of D_n.
The factors keep the integer C'(0) = C diag(c) they were packed from,
and ``unperturbed`` gives its EXACT factors: that matrix and the
lowest digits of the continuants D_i and X_{n-1}.

EXACT and FLOAT modes raise ``ZeroPivotError`` instead, except for the
last pivot: nothing in the recurrences divides by mu_n, a zero there
just means the matrix is singular, and the determinant of a singular
matrix is still a perfectly good (zero) answer.  FLOAT runs the
recurrences themselves on C in binary64, which its factors keep; an
entry beyond the binary64 range raises ``NonFiniteResultError``.

The operation counts, 6n - 9 for the factorization and 7n - 10 for the
determinant, are the paper's model contract for its recurrences on
field elements.  Every mode tallies them, whatever its loop actually
runs on.
"""

from __future__ import annotations

import math
import operator
from dataclasses import replace
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .matrix import ComradeMatrix, SingularMatrixError, _column_map, _row_entries, to_dense
from .scalars import Polynomial, RationalFunction, ScalarMode, _low_digit, _unpack

class ZeroPivotError(ArithmeticError):
    """A zero pivot (or zero divisor alpha) in a mode without symbolic rescue."""

    def __init__(self, index: int, what: str = "pivot"):
        self.index = index
        self.what = what
        super().__init__(f"zero {what} at index {index}; retry in symbolic mode")


class NonFiniteResultError(ArithmeticError):
    """A FLOAT result overflowed to inf or became nan, typically through
    a tiny pivot in the unpivoted factorization, or an entry of the input
    lies beyond the binary64 range."""

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


class LUFactors:
    """Recurrence output: the matrix the recurrences ran on, pivots mu
    (n values), last-row multipliers x (n-1 values), the substitution
    log, and the mode the run used.  Built as they are, by FLOAT
    ``factorize`` only, the factors have mode FLOAT and an empty log;
    ``_ContinuantFactors`` sets its own.

    Together with the alpha and gamma of ``perturbed(F)`` these determine
    L and U; L*U is ``perturbed(F)``, the input with t at each logged
    substitution.  FLOAT factors hold C in binary64 as their matrix.  In
    EXACT/FLOAT mode ``mu[-1]`` may be zero: that marks a singular matrix
    and blocks inversion, not the determinant.  EXACT and SYMBOLIC
    factors keep the integer continuants D and X_{n-1} instead and build
    mu and x on first read.
    """

    mode, substitutions = ScalarMode.FLOAT, ()

    def __init__(self, matrix, mu, x):
        self.matrix, self.mu, self.x = matrix, mu, x

    @property
    def n(self) -> int:
        return self.matrix.n

    def pivot_product(self):
        """mu_1 * ... * mu_n."""
        return math.prod(self.mu)


class _ContinuantFactors(LUFactors):
    """EXACT and SYMBOLIC factors held as the integer data of the module
    docstring: the column scales c, C' (of M(t) in SYMBOLIC mode),
    D = [D_0, .., D_n] and ``X_last`` = X_{n-1}, all packed at
    t = 2^width in SYMBOLIC mode, and ``scaled``, the integer
    C'(0) = C diag(c) they were built from.  X = [X_1, .., X_{n-1}],
    and mu and x from it, are built on first read; neither ``invert``
    nor ``determinant`` reads them."""

    def __init__(self, mode, substitutions, scale, matrix, D, X_last, width, scaled):
        self.mode, self.substitutions, self.scale = mode, substitutions, scale
        self.matrix, self.D, self.X_last = matrix, D, X_last
        self.width, self.scaled = width, scaled

    def _polynomial(self, v, c=1):
        """c times the packed polynomial v.  The digits are read first:
        c times a digit can exceed the bound the width is taken from."""
        return Polynomial([c * d for d in _unpack(v, self.width)])

    def _quotient(self, num, den, c=1):
        """num / (c den): a Fraction, or in SYMBOLIC mode the canonical
        RationalFunction of the packed num and den."""
        if self.mode is ScalarMode.EXACT:
            return Fraction(num, c * den)
        return RationalFunction(self._polynomial(num), self._polynomial(den, c))

    @cached_property
    def X(self):
        # X_i = a'_{n-i+1} D_{i-1} - alpha'_{i-1} X_{i-1} over C' and the
        # stored (in SYMBOLIC mode bumped) D: the values of the loop
        X, x = [], 0
        for e, al, d in zip(_last_row(self.matrix), (0, *self.matrix.alpha), self.D):
            x = e * d - al * x
            X.append(x)
        return X

    @cached_property
    def mu(self):
        # mu_i = D_i / (c_i D_{i-1})
        return tuple(map(self._quotient, self.D[1:], self.D, self.scale))

    @cached_property
    def x(self):
        return tuple(map(self._quotient, self.X, self.D[1:]))

    def pivot_product(self):
        d = self.D[-1]
        if self.mode is ScalarMode.SYMBOLIC:
            d = _low_digit(d, self.width)
        return Fraction(d, _pairwise_product(self.scale))

    def column(self, adj, at_zero: bool = False) -> list:
        """The column c_i adj_i / D_n of the inverse, for a column adj of
        adj(C'): Fractions, or in SYMBOLIC mode the canonical
        RationalFunctions of the inverse of M(t), or with ``at_zero``
        their values at t = 0, read off the lowest digits.  A zero D_n
        (D_n(0) at t = 0) raises SingularMatrixError."""
        scale, d = self.scale, self.D[-1]
        if self.mode is ScalarMode.SYMBOLIC and not at_zero:
            det = self._polynomial(d)
            return [RationalFunction(self._polynomial(v, c), det) for c, v in zip(scale, adj)]
        if self.mode is ScalarMode.SYMBOLIC:            # t = 0: the lowest balanced digits
            d, *adj = (_low_digit(v, self.width) for v in (d, *adj))
        if not d:
            raise SingularMatrixError()
        return [Fraction(c * v, d) for c, v in zip(scale, adj)]

    def unperturbed(self) -> _ContinuantFactors:
        """The EXACT factors of C'(0) = C diag(c): the integer matrix these
        SYMBOLIC factors were built from before any t went in, and the
        lowest balanced digit of every packed D_i and of X_{n-1}.  The
        scales are the same and the log is empty.  A D_i(0), i < n, may
        be zero: the column recursion never divides by it, but mu and x
        would.  EXACT factors already are those of C'(0) and come back as
        they are."""
        if self.mode is ScalarMode.EXACT:
            return self
        low = lambda v: _low_digit(v, self.width)
        return _ContinuantFactors(ScalarMode.EXACT, (), self.scale, self.scaled,
                                  [*map(low, self.D)], low(self.X_last), 0, self.scaled)


def _pairwise_product(xs):
    """math.prod of the integers xs as a balanced product: each round
    multiplies neighbours, so both factors of a product are of about the
    same size.  A running product multiplies an ever longer one by one
    small factor, at a cost that grows with the square of the result's
    bit length."""
    while len(xs) > 1:
        pairs = iter(xs)
        xs = [*map(operator.mul, pairs, pairs), *xs[len(xs) & ~1:]]
    return xs[0] if xs else 1


def integer_scaled(C: ComradeMatrix):
    """(c, C'): c_k is the lcm of the denominators in column k of the
    rational C, and C' = C diag(c) is C with integer entries."""
    families = [[v.as_integer_ratio() for v in f] for f in (C.beta, C.alpha, C.gamma, C.a)]
    b, al, g, e = ([*map(operator.itemgetter(1), f)] for f in families)
    # beta_k and gamma_{k+1} sit in column k, alpha_k in column k+1 and
    # a_m in column n-m+1 of the last row
    scale = [*map(math.lcm, b, [1, *al], [*g, 1], [*reversed(e), 1, 1])]
    scaled = lambda ratios, cs: tuple([p * (c // q) for (p, q), c in zip(ratios, cs)])
    return scale, _column_map(scaled, ComradeMatrix(C.n, *families), scale)


def _last_row(S: ComradeMatrix):
    """Row n of S left to right, without beta_n: (a_n, .., a_3, gamma_n)."""
    return (*reversed(S.a), S.gamma[-1])


def continuants(S: ComradeMatrix, bump=None):
    """([D_0, .., D_n], X_{n-1}, zeros) of the module docstring, on any
    integer-like S (C' or its Kronecker-packed SYMBOLIC form), with
    zeros the indices i of the zero D_i, in increasing order.  Only the
    last X_i is kept: each X_i is read only by the next, and X_{n-1}
    by D_n.  Without ``bump`` the loop runs to the end through any zero
    D_i, since they never divide; with it, a zero D_i becomes
    bump[i-1] D_{i-1}."""
    beta, alpha, gamma = S.beta, S.alpha, S.gamma
    bump = bump or (0,) * S.n
    d2, d1, x = 0, 1, 0
    D, zeros = [1], []
    for b, al, ag, e, s in zip(beta, (0, *alpha), (0, *map(operator.mul, alpha, gamma)),
                               _last_row(S), bump):
        # D_i, and X_i with e = a'_{n-i+1} (gamma'_n for i = n - 1)
        d2, d1, x = d1, b * d1 - ag * d2, e * d1 - al * x
        if not d1:
            zeros.append(len(D))
            d1 = s * d2
        D.append(d1)
    d = beta[-1] * d1 - alpha[-1] * x
    if not d:
        zeros.append(len(D))
        d = bump[-1] * d1
    D.append(d)
    return D, x, zeros


def continuant_factors(C: ComradeMatrix, mode: ScalarMode):
    """(F, zeros): the factors F of C' = C diag(c) as its continuants,
    and the indices i of the zero D_i that ``continuants`` found.  On
    integers in EXACT mode.  In SYMBOLIC mode C' is M(t) diag(c), packed
    at t = 2^width with the width of the module docstring: each zero
    alpha_j, j <= n - 2, is c_{j+1} t, and each zero D_i is bumped by
    c_i t.  The log lists the pivot substitutions, then the alpha ones."""
    scale, S = integer_scaled(C)
    if mode is ScalarMode.EXACT:
        D, X_last, zeros = continuants(S)
        return _ContinuantFactors(mode, (), scale, S, D, X_last, 0, S), zeros
    n = C.n
    # c_{j+1}, the coefficient of t at a zero alpha_j with j <= n - 2, else 0
    t_alpha = [scale[j] if j < n - 1 and not v else 0 for j, v in enumerate(S.alpha, 1)]
    # row i's sum of |coefficient|: its entries, the t of its alpha and its bump c_i
    bound = math.prod(c + t + sum(abs(v) for _, v in row)
                      for c, t, row in zip(scale, (*t_alpha, 0), _row_entries(S)))
    width = bound.bit_length() + 1
    packed = replace(S, alpha=tuple(v + (c << width) for v, c in zip(S.alpha, t_alpha)))
    bump = [c << width for c in scale]                  # c_i t at t = 2^width
    D, X_last, zeros = continuants(packed, bump)
    beta = list(S.beta)
    for i in zeros:
        beta[i - 1] += bump[i - 1]
    log = (*(Substitution("pivot", i) for i in zeros),
           *(Substitution("alpha", j) for j, c in enumerate(t_alpha, 1) if c))
    M = replace(packed, beta=tuple(beta))
    return _ContinuantFactors(mode, log, scale, M, D, X_last, width, S), zeros


def _binary64(C: ComradeMatrix) -> ComradeMatrix:
    """C with each entry rounded to binary64, as ``float`` rounds it.
    Raises NonFiniteResultError naming the first entry beyond its range."""
    fields = ("beta", "alpha", "gamma", "a")
    try:
        return ComradeMatrix(C.n, *(tuple(map(float, getattr(C, name))) for name in fields))
    except OverflowError:
        for name, first in zip(fields, (1, 1, 2, 3)):     # the paper's subscripts
            for i, v in enumerate(getattr(C, name), first):
                try:
                    float(v)
                except OverflowError:
                    raise NonFiniteResultError(f"entry {name}_{i}") from None
        raise


def factorize(C: ComradeMatrix, mode: ScalarMode, ops: OpCounter | None = None) -> LUFactors:
    """Run the pivot and last-row recurrences in the given mode.

    Cost: 6n - 9 field operations when no substitution fires.  That is
    the paper's count, tallied in every mode; EXACT and SYMBOLIC run the
    recurrences as integer continuants (see the module docstring).  The
    entries of C are rationals.  SYMBOLIC factors are those of M(t), with
    t at each zero pivot and each zero alpha_j, j <= n - 2, and log both
    kinds of substitution, pivots first.
    """
    n = C.n
    if ops is None:
        ops = OpCounter()
    if mode is not ScalarMode.FLOAT:
        F, zeros = continuant_factors(C, mode)
        if mode is ScalarMode.EXACT and zeros and zeros[0] < n:  # mu_i = 0, i < n
            ops.tally(max(6 * zeros[0] - 11, 0))    # the recurrences before mu_i
            raise ZeroPivotError(zeros[0])
        ops.tally(6 * n - 9)
        return F
    M = _binary64(C)
    beta, alpha, gamma, e = M.beta, M.alpha, M.gamma, _last_row(M)
    mu, x = [beta[0]], []
    for i0 in range(n - 1):
        if mu[i0] == 0:                                  # mu_i = 0 for some i < n
            ops.tally(max(6 * i0 - 5, 0))                # the recurrences before mu_i
            raise ZeroPivotError(i0 + 1)
        # x_i = (e_i - alpha_{i-1} x_{i-1}) / mu_i, then mu_{i+1} =
        # beta_{i+1} - (alpha_i / mu_i) gamma_{i+1}, or for i = n - 1
        # mu_n = beta_n - alpha_{n-1} x_{n-1}
        x.append((e[i0] - alpha[i0 - 1] * x[-1] if i0 else e[0]) / mu[i0])
        mu.append(beta[i0 + 1] - (alpha[i0] / mu[i0]) * gamma[i0] if i0 < n - 2
                  else beta[-1] - alpha[-1] * x[-1])
    ops.tally(6 * n - 9)
    return LUFactors(M, tuple(mu), tuple(x))


def pivot_product(F: LUFactors, ops: OpCounter):
    """The determinant mu_1 * ... * mu_n, n - 1 field operations.

    EXACT and SYMBOLIC factors give D_n(0) / (c_1 .. c_n): in SYMBOLIC
    mode that is the product at t = 0, exactly the determinant of the
    unperturbed matrix, so singular inputs give exactly 0.
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
        return continuant_factors(C, ScalarMode.EXACT)[0].pivot_product()
    det = pivot_product(factorize(C, mode, ops), ops)
    if mode is ScalarMode.FLOAT and not math.isfinite(det):
        raise NonFiniteResultError("determinant")
    return det


def perturbed(F: LUFactors) -> ComradeMatrix:
    """The matrix M(t) that the factors F factor, in F's working scalars:
    the input with t at each logged alpha and +t on the diagonal at each
    logged pivot, so the input itself where nothing is logged.  FLOAT
    factors hold it as their matrix.  EXACT and SYMBOLIC factors hold
    C' = M(t) diag(c), so each entry of M(t) is that of C' over its
    column's scale c_k."""
    S = F.matrix
    if F.mode is ScalarMode.FLOAT:
        return S
    return _column_map(lambda vs, cs: tuple([F._quotient(v, 1, c) for v, c in zip(vs, cs)]),
                       S, F.scale)


def reconstruct_LU(F: LUFactors):
    """Materialize (L, U) of the factors F as DenseMatrix pairs for
    verification.  Both keep the comrade pattern, so each is built as a
    ComradeMatrix and expanded by ``to_dense``: L has a unit diagonal,
    ell_k = gamma_{k+1} / mu_k below it and the last row
    (x_1, .., x_{n-1}, 1); U has the pivots mu on the diagonal and the
    alpha of ``perturbed(F)`` above it.  Every other entry is zero,
    Fraction(0) off the comrade pattern.

    L*U equals ``to_dense(perturbed(F))``: in EXACT/FLOAT mode there are
    never substitutions, so L*U is the input, up to roundoff in FLOAT.
    """
    n, M = F.n, perturbed(F)
    one, zero = F.mode.scalar(1), F.mode.scalar(0)
    ell = tuple(map(operator.truediv, M.gamma[:-1], F.mu))
    L = ComradeMatrix(n, (one,) * n, (zero,) * (n - 1), (*ell, F.x[-1]), F.x[-2::-1])
    U = ComradeMatrix(n, F.mu, M.alpha, (zero,) * (n - 1), (zero,) * (n - 2))
    return to_dense(L), to_dense(U)
