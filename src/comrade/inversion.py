"""Inverse of a comrade matrix from its factorization, in O(n^2) ops.

Column order is the whole trick.  Columns n and n-1 fall out of
back-substitution against the factors (the corresponding right-hand
sides after the forward pass are just (0,..,0,1) and (0,..,1,-x_{n-1})).
Every earlier column j then follows from columns j+1, j+2 and n because
column j+1 of the matrix has at most four structural nonzeros, which is
the identity S*C = I read one column at a time:

    alpha_j Col_j + beta_{j+1} Col_{j+1} + gamma_{j+2} Col_{j+2}
        + a_{n-j} Col_n = E_{j+1}

(the a-term drops out for j = n-2).  The recursion divides by alpha_j,
so in SYMBOLIC mode any exactly-zero alpha_1..alpha_{n-2} is replaced by
t *before* factorization, and the recursion uses the +t-bumped diagonal
recorded by the factorization, so all recurrences are identities of one
coherent perturbed matrix M(t) with M(0) equal to the input.  Evaluating
at t = 0 then recovers the exact inverse; for a nonsingular input the
reduced entries provably have no pole at t = 0 (their denominators
divide det M(t), a polynomial that is det(C) != 0 at t = 0).

EXACT mode runs the same recursion fraction-free (after Bareiss 1968).
Scaling column k of C by c_k, the lcm of the denominators of its at most
four entries, gives an integer matrix C' = C diag(c), and the recursion
is run on the columns of adj(C') = D C'^{-1}, D = det(C') = det(C) c_1 ..
c_n, the last continuant D_n of ``factorization.continuants``.  Then the
unit E_{j+1} becomes D E_{j+1}, every coefficient is an integer and
every division by alpha_j is exact, so the loop does integer arithmetic
with no gcd at all; entry (i, j) of the inverse is the one
Fraction c_i adj(C')_ij / D, built as each column is finished.

SYMBOLIC mode runs the same integer loop, by Kronecker substitution:
it is the EXACT recursion of M(t), evaluated at t = 2^B.  The entries
of M(t) are constants or linear in t (a bumped beta_i + t, a
substituted alpha_j = t), so with the same column scaling C' =
M(t) diag(c) has entries in Z[t], and D(t) = det C' and every adjugate
entry are integer polynomials of degree at most k, the number of rows
that carry t.  Each polynomial p(t) is held as the one integer p(2^B).
Evaluation at 2^B is a ring homomorphism, so the loop's sums and
products stay exact.  Each divisor alpha'_j is an integer or c t, and
the recursion's numerator is alpha'_j(t) times an adjugate entry in
Z[t]; so at 2^B it is an exact multiple of the nonzero alpha'_j(2^B),
and ``//`` returns the packed quotient.  The coefficients are read back
as balanced base-2^B digits, which is unique while each is below
2^(B-1) in absolute value.  D(t) and the adjugate entries are signed
sums over permutations, so their coefficients are bounded by the
product of all rows' sums of |coefficient|; B is that bound's bit
length plus a sign bit.  The unit D(2^B) is the last continuant of the
packed C', which the continuant loop computes without dividing, as it
computes D in EXACT mode; the two input columns are the values of
columns n and n-1, their RationalFunctions at t = 2^B, which the bound
on B keeps finite.  Nothing is divided in Q[t], and no polynomial gcd
runs inside the loop.  ``invert`` needs each entry only at t = 0,
where it is the Fraction c_i adj(C')_ij(0) / D(0): both are the lowest
balanced digits of the packed integers, and D(0) = det(C) c_1 .. c_n
is nonzero because ``invert`` has already rejected a singular C.  So
columns 1 .. n-2 cost no RationalFunction at all; only a direct call
of ``remaining_columns`` gets the canonical RationalFunctions
c_i adj(C')_ij(t) / D(t), built from all the digits.

Every solved column is one L-then-U solve, ``_solve_column``: columns
n and n-1 in every mode, and in FLOAT mode columns n-2 .. 1 as well
(``lu_columns``), while ``remaining_columns`` refuses FLOAT.  In
binary64 the recursion runs against the dominant solution of its own
homogeneous part and amplifies rounding by a constant factor per column
(about 2.618 on example33), while the forward pass over L and the
backward pass over U never divide by alpha.  Exact arithmetic has no
rounding to amplify, so EXACT and SYMBOLIC keep the paper's recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .factorization import (LUFactors, NonFiniteResultError, OpCounter,
                            Substitution, ZeroPivotError, bumped_beta,
                            continuants, factorize, integer_scaled,
                            pivot_product)
from .matrix import ComradeMatrix, DenseMatrix, SingularMatrixError
from .scalars import Polynomial, RationalFunction, ScalarMode

_T = RationalFunction.t()


@dataclass(frozen=True)
class InverseResult:
    """Evaluated inverse plus run metadata.

    determinant and the inverse entries are Fractions in EXACT and
    SYMBOLIC mode (t already substituted away) and floats in FLOAT mode.
    substitutions lists pivot substitutions first, then alpha ones.
    """

    inverse: DenseMatrix
    determinant: object
    substitutions: tuple
    op_count: int


def _solve_column(F: LUFactors, alpha, ell, j0: int):
    """Column j0 + 1 of the inverse from L U s = e_{j0+1} (0-based j0).

    The forward pass over L starts at the unit entry, the entries above
    it being zero, and reads ell_k = gamma_{k+1} / mu_k (not for
    j0 >= n - 2) and the last row x; the backward pass over U is
    s_i = -alpha_i s_{i+1} / mu_i above row j0 + 1.  Neither divides by
    alpha."""
    n = len(F.mu)
    mu, x = F.mu, F.x
    s = [F.mode.scalar(0)] * n
    y = last = s[j0] = F.mode.scalar(1)
    if j0 < n - 1:
        # y_k = -ell_k y_{k-1}, then y_n = -sum x_k y_k
        last = -x[j0]
        for k0 in range(j0 + 1, n - 1):
            y = -(ell[k0] * y)
            s[k0] = y
            last = last - x[k0] * y
    s[n - 1] = last / mu[n - 1]
    for i0 in range(n - 2, j0 - 1, -1):
        s[i0] = (s[i0] - alpha[i0] * s[i0 + 1]) / mu[i0]
    for i0 in range(j0 - 1, -1, -1):
        s[i0] = -(alpha[i0] * s[i0 + 1]) / mu[i0]
    return s


def last_two_columns(F: LUFactors, C: ComradeMatrix, ops: OpCounter | None = None):
    """Columns n and n-1 of the inverse, as top-to-bottom lists, each one
    ``_solve_column`` run: 2n - 1 and 2n field operations, every mode.

    C must be the matrix F was computed from (same working entries), so
    its superdiagonal is the one sitting along U.
    """
    if ops is None:
        ops = OpCounter()
    n = C.n
    alpha = [F.mode.scalar(v) for v in C.alpha]
    col_n = _solve_column(F, alpha, None, n - 1)
    ops.tally(2 * n - 1)
    col_n1 = _solve_column(F, alpha, None, n - 2)
    ops.tally(2 * n)
    return col_n, col_n1


def _polynomial_coefficients(v):
    """Coefficients of a SYMBOLIC working entry, which is a polynomial in t."""
    if not isinstance(v, RationalFunction):
        return (Fraction(v),)
    if v.den != 1:
        raise ValueError(f"working entry {v} is not a polynomial in t")
    return v.num.coeffs


def _kronecker_packed(C: ComradeMatrix):
    """(c, width, degree, C') for a SYMBOLIC working matrix: C' holds the
    integer polynomials p(t) of C diag(c) as the integers p(2^width).

    The unpacked values are D(t) = det C' and its adjugate entries.  Each
    is a signed sum over permutations, so its coefficients are at most
    the product of all row sums of |coefficient| in absolute value, and
    its degree is at most the sum of the rows' largest degrees; width
    leaves one more bit for the sign."""
    scale, S = integer_scaled(C, _polynomial_coefficients)
    n = C.n
    rows = [(S.beta[i0], S.alpha[i0], *S.gamma[i0 - 1:i0]) for i0 in range(n - 1)]
    rows.append((S.beta[-1], S.gamma[-1], *S.a))
    width = math.prod(sum(abs(c) for cs in row for c in cs) for row in rows).bit_length() + 1
    degree = sum(max(0, *(len(cs) - 1 for cs in row)) for row in rows)
    return scale, width, degree, replace(S, **{
        name: tuple(_pack(cs, width) for cs in getattr(S, name))
        for name in ("beta", "alpha", "gamma", "a")})


def _pack(coefficients, width: int) -> int:
    """The integer polynomial with these coefficients at t = 2^width."""
    return sum(c << (width * k) for k, c in enumerate(coefficients))


def _unpack(v: int, width: int, degree: int) -> list:
    """Coefficients of the packed polynomial v of at most this degree, as
    balanced digits in [-2^(width-1), 2^(width-1))."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    digits = []
    for _ in range(degree + 1):
        d = ((v + half) & mask) - half
        digits.append(d)
        v = (v - d) >> width
    assert v == 0, "packed polynomial exceeds its degree or coefficient bound"
    return digits


def remaining_columns(col_n, col_n1, C: ComradeMatrix, mode: ScalarMode,
                      ops: OpCounter | None = None, *, finalize: bool = False):
    """Columns n-2 down to 1 (returned in that order) via the four-term
    column recursion, in EXACT or SYMBOLIC mode; FLOAT columns come from
    ``lu_columns``.  C must carry the same working entries the first two
    columns were computed from, including any t-substituted alphas and
    +t-bumped diagonal.

    The recursion runs on the integer adjugate columns of C' = C diag(c),
    SYMBOLIC evaluated at t = 2^B (see the module docstring), with the
    unit det C' from ``factorization.continuants`` on that C'; the
    returned Fractions and canonical RationalFunctions are the same as
    those of the recursion on Fractions and RationalFunctions.

    With ``finalize`` the entries come back passed through
    ``mode.finalize``: in SYMBOLIC mode the Fractions c_i adj_ij(0) / D(0)
    are read off the packed integers and no RationalFunction is built.
    That needs M(0) = C to be nonsingular (else ZeroDivisionError)."""
    if mode is ScalarMode.FLOAT:
        raise ValueError("remaining_columns runs the exact recursion; "
                         "FLOAT columns come from lu_columns")
    if ops is None:
        ops = OpCounter()
    n = C.n
    # at(v): an entry of column n or n-1 as p / q, at t = 2^width in
    # SYMBOLIC mode; low(col): an output column, at t = 0 in SYMBOLIC mode
    if mode is ScalarMode.EXACT:
        scale, C = integer_scaled(C)
        at, low = lambda v: v.as_integer_ratio(), lambda col: col
    else:
        scale, width, degree, C = _kronecker_packed(C)
        point, half, mask = 1 << width, 1 << (width - 1), (1 << width) - 1
        at = lambda v: (v.num(point) / v.den(point)).as_integer_ratio()
        low = lambda col: [((v + half) & mask) - half for v in col]   # lowest digits
    # the unit D = det C'.  SYMBOLIC takes each input entry S_{i,k} =
    # c_i adj(C')_{i,k} / D at t = 2^width: its canonical den divides
    # D(t), whose coefficients are below 2^(width-1) in absolute value,
    # so den's roots lie within 2^(width-1) of 0 (Cauchy's bound) and
    # den(2^width) != 0.
    unit = continuants(C)[0][-1]
    col_n, col_n1 = ([unit * p // (q * c) for (p, q), c in zip(map(at, col), scale)]
                     for col in (col_n, col_n1))
    if finalize or mode is ScalarMode.EXACT:
        d0, = low([unit])
        output = lambda col: [Fraction(c * v, d0) for c, v in zip(scale, low(col))]
    else:
        det = Polynomial(_unpack(unit, width, degree))
        output = lambda col: [
            RationalFunction(Polynomial([c * d for d in _unpack(v, width, degree)]), det)
            for c, v in zip(scale, col)]

    cols = []
    prev2, prev1 = col_n, col_n1                      # Col_{j+2}, Col_{j+1}
    for j in range(n - 2, 0, -1):                     # 1-based column index j
        # -beta_{j+1}, -gamma_{j+2}, -a_{n-j} and alpha_j; column n-1 of
        # the matrix ends in gamma_n, so there is no a-term for j = n-2;
        # every quotient is exact, since adjugate entries are integers
        b, g, al = -C.beta[j], -C.gamma[j], C.alpha[j - 1]
        f = -C.a[n - j - 3] if j < n - 2 else 0
        col = [(b * u + g * v + f * z) // al for u, v, z in zip(prev1, prev2, col_n)]
        col[j] = (unit + b * prev1[j] + g * prev2[j] + f * col_n[j]) // al
        ops.tally(7 * n if j < n - 2 else 5 * n)
        cols.append(output(col))
        prev2, prev1 = prev1, col
    return cols


def lu_columns(F: LUFactors, C: ComradeMatrix, ops: OpCounter | None = None):
    """Columns 1 .. n-2 of the inverse (returned in that order), each
    solved from L U s = e_j with the factors F of C by ``_solve_column``,
    as the last two columns are."""
    if ops is None:
        ops = OpCounter()
    n = len(F.mu)
    w = F.mode.scalar
    alpha = [w(v) for v in C.alpha]
    ell = [None] + [w(C.gamma[k0 - 1]) / F.mu[k0 - 1] for k0 in range(1, n - 1)]
    ops.tally(n - 2)
    cols = []
    for j0 in range(n - 2):
        cols.append(_solve_column(F, alpha, ell, j0))
        ops.tally(6 * n - 8 - 4 * j0)
    return cols


def invert(C: ComradeMatrix, mode: ScalarMode) -> InverseResult:
    """Full inverse.  Raises SingularMatrixError when the determinant is
    exactly zero, ZeroPivotError in EXACT/FLOAT mode when the symbolic
    rescue would be needed, and NonFiniteResultError in FLOAT mode when
    the determinant or an inverse entry is inf or nan.

    EXACT and SYMBOLIC take 7n^2 - 5n - 11 field operations when nothing
    is degenerate: 6n - 9 to factorize, n - 1 for the determinant, 4n - 1
    for the last two columns and 5n + 7n(n - 3) for the recursion.

    FLOAT takes 4n^2 + 2n - 9: the same 11n - 11 through the last two
    columns, n - 2 multipliers of L, and for column j (1-based, j <= n-2)
    3(n - j) - 3 in the forward pass and 1 + 3(n - j) + 2(j - 1) in the
    backward pass, 6n - 4 - 4j in all; the sum over j is 4n^2 - 10n + 4.
    """
    n = C.n
    ops = OpCounter()

    # each phase converts the entries it reads to the mode's scalars
    work, alpha_subs = C, []
    if mode is ScalarMode.SYMBOLIC:
        # only alpha_1..alpha_{n-2} are ever divided by; alpha_{n-1} stays
        alpha_subs = [Substitution("alpha", j0 + 1) for j0 in range(n - 2) if C.alpha[j0] == 0]
        work = replace(C, alpha=tuple(_T if j0 < n - 2 and v == 0 else v
                                      for j0, v in enumerate(C.alpha)))

    F = factorize(work, mode, ops)
    det = pivot_product(F, ops)
    if det == 0:
        raise SingularMatrixError()
    if mode is not ScalarMode.SYMBOLIC:
        for j0 in range(n - 2):
            if C.alpha[j0] == 0:
                raise ZeroPivotError(j0 + 1, what="alpha")
    if F.substitutions:
        work = replace(work, beta=bumped_beta(F, work))

    col_n, col_n1 = last_two_columns(F, work, ops)
    if mode is ScalarMode.FLOAT:
        columns = lu_columns(F, work, ops)
    else:
        columns = remaining_columns(col_n, col_n1, work, mode, ops, finalize=True)[::-1]
    rows = tuple(zip(*columns, map(mode.finalize, col_n1), map(mode.finalize, col_n)))
    if mode is ScalarMode.FLOAT:
        for i0, row in enumerate(rows):
            for j0, v in enumerate(row):
                if not math.isfinite(v):
                    raise NonFiniteResultError(f"inverse entry ({i0 + 1}, {j0 + 1})")
        if not math.isfinite(det):
            raise NonFiniteResultError("determinant")
    return InverseResult(inverse=DenseMatrix(n, rows), determinant=det,
                         substitutions=tuple(F.substitutions) + tuple(alpha_subs),
                         op_count=ops.count)
