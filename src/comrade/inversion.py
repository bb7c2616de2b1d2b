"""Inverse of a comrade matrix from its factorization, in O(n^2) ops.

Column order is the whole trick.  Columns n and n-1 come straight from
the factors.  Every earlier column j then follows from columns j+1, j+2
and n because column j+1 of the matrix has at most four structural
nonzeros, which is the identity S*C = I read one column at a time:

    alpha_j Col_j + beta_{j+1} Col_{j+1} + gamma_{j+2} Col_{j+2}
        + a_{n-j} Col_n = E_{j+1}

(the a-term drops out for j = n-2).  The recursion divides by alpha_j,
so in SYMBOLIC mode ``factorize`` puts t at any exactly-zero
alpha_1..alpha_{n-2}, as at a zero pivot, and logs it.  The recursion
reads that C' off the factors, so all recurrences are identities of one
coherent perturbed matrix M(t) with M(0) equal to the input.  Evaluating
at t = 0 then recovers the exact inverse; for a nonsingular input the
reduced entries provably have no pole at t = 0 (their denominators
divide det M(t), a polynomial that is det(C) != 0 at t = 0).

EXACT and SYMBOLIC read the integer data of ``factorization``: the
scaled matrix C' = C diag(c) (M(t) diag(c), packed at t = 2^B, in
SYMBOLIC mode) and its continuants D_i and X_{n-1}, with D_n = det C'.
Entry (i, j) of the inverse is c_i adj(C')_ij / D_n, which ``F.column``
builds, reduced against the numerator of det C where that pays (see
``factorization``).  The minors behind the last two columns of adj(C')
are block triangular (cf. Usmani 1994), so
with P_i = D_{i-1} (-alpha'_i) .. (-alpha'_{n-2}) for i < n

    adj(C')_{i,n}   = -alpha'_{n-1} P_i,    adj(C')_{n,n}   = D_{n-1},
    adj(C')_{i,n-1} = beta'_n P_i,          adj(C')_{n,n-1} = -X_{n-1}.

The recursion runs fraction-free (after Bareiss 1968) on the columns of
adj(C') = D_n C'^{-1}, with the unit D_n E_{j+1}: every coefficient is
an integer and every division by alpha'_j is exact, so the loop runs no
gcd.  In SYMBOLIC mode alpha'_j is an integer or c t and the numerator
is alpha'_j(t) times an adjugate entry in Z[t], so at t = 2^B too
``//`` returns the exact packed quotient; nothing is divided in Q[t].
It reads C', D_n and the closed-form columns above off the factors, so
only ``factorization`` knows how the packed integers are laid out.
``invert`` needs the inverse only at t = 0.  When the log holds only
pivots, no t is needed at all, since nothing divides by a pivot: it
runs the EXACT last two columns and recursion on ``F.unperturbed()``,
the factors of C'(0) = C diag(c) read off the packed ones, and builds
no RationalFunction.  When an alpha holds t, entry (i, j) of columns
1 .. n-2 is the Fraction c_i adj(C')_ij(0) / D_n(0) of the lowest
balanced digits.  Either way D_n(0) = det(C) c_1 .. c_n, and a zero one
is refused as a singular C.  Only the last two columns of factors that
hold t, and ``remaining_columns`` without ``finalize``, build the
canonical RationalFunctions c_i adj(C')_ij(t) / D_n(t) from all the
digits: in ``invert``, only for inputs with a zero alpha.

FLOAT solves every column from the LU factors, which hold C in
binary64, by ``_solve_column``: columns n and n-1, and columns n-2 .. 1
as well, which ``remaining_columns`` takes from ``lu_columns``.  So
``invert`` runs the same three phases in every mode, and each phase
after ``factorize`` reads only the factors.  In binary64 the recursion
runs against the dominant solution of its own homogeneous part and
amplifies rounding by a constant factor per column (about 2.618 on
example33), while the forward pass over L and the backward pass over U
never divide by alpha.  Exact arithmetic has no rounding to amplify, so
EXACT and SYMBOLIC keep the paper's recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .factorization import (LUFactors, NonFiniteResultError, OpCounter,
                            ZeroPivotError, factorize, perturbed,
                            pivot_product)
from .matrix import ComradeMatrix, DenseMatrix, SingularMatrixError
from .scalars import ScalarMode


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
    """Column j0 + 1 of the inverse from L U s = e_{j0+1} (0-based j0),
    with alpha the superdiagonal of ``perturbed(F)``.

    The forward pass over L starts at the unit entry, the entries above
    it being zero, and reads ell_k = gamma_{k+1} / mu_k (not for
    j0 >= n - 2) and the last row x; the backward pass over U is
    s_i = -alpha_i s_{i+1} / mu_i above row j0 + 1.  Neither divides by
    alpha.  Every entry of s is written before it is read, and the unit
    is the int 1: each entry comes out of arithmetic with the factors, so
    it has their working type (float, Fraction or RationalFunction)."""
    n = F.n
    mu, x = F.mu, F.x
    s = [None] * n
    y = last = s[j0] = 1
    if j0 < n - 1:
        # y_k = -ell_k y_{k-1}, then y_n = -sum x_k y_k
        last = -x[j0]
        for k0 in range(j0 + 1, n - 1):
            y = -(ell[k0] * y)
            s[k0] = y
            last = last - x[k0] * y
    if mu[n - 1] == 0:
        raise SingularMatrixError()
    s[n - 1] = last / mu[n - 1]
    for i0 in range(n - 2, j0 - 1, -1):
        s[i0] = (s[i0] - alpha[i0] * s[i0 + 1]) / mu[i0]
    for i0 in range(j0 - 1, -1, -1):
        s[i0] = -(alpha[i0] * s[i0 + 1]) / mu[i0]
    return s


def _adjugate_last_two(F: LUFactors):
    """Columns n and n-1 of adj(C'), in closed form from the continuants
    of F (see the module docstring)."""
    S, D = F.matrix, F.D
    n = F.n
    # the suffix products (-alpha'_i) .. (-alpha'_{n-2}), i = n-1 down to 1
    suffix = [1]
    for al in S.alpha[n - 3::-1]:
        suffix.append(-al * suffix[-1])
    P = [d * s for d, s in zip(D, reversed(suffix))]    # P_1 .. P_{n-1}
    al, b = S.alpha[-1], S.beta[-1]
    return [-al * p for p in P] + [D[n - 1]], [b * p for p in P] + [-F.X_last]


def last_two_columns(F: LUFactors, ops: OpCounter | None = None):
    """Columns n and n-1 of the inverse, as top-to-bottom lists: 2n - 1
    and 2n field operations, every mode.

    EXACT and SYMBOLIC read them off the continuants of F in closed form
    (see the module docstring).  FLOAT runs ``_solve_column`` for each,
    along the superdiagonal of the binary64 C that F holds.  EXACT and
    FLOAT factors of a singular matrix raise SingularMatrixError.
    """
    if ops is None:
        ops = OpCounter()
    n = F.n
    if F.mode is ScalarMode.FLOAT:
        alpha = F.matrix.alpha
        columns = _solve_column(F, alpha, None, n - 1), _solve_column(F, alpha, None, n - 2)
    else:
        columns = tuple(map(F.column, _adjugate_last_two(F)))
    ops.tally(4 * n - 1)
    return columns


def _refuse_zero_alpha(C: ComradeMatrix):
    """ZeroPivotError for the lowest j <= n - 2 with alpha_j = 0, which
    the column recursion would divide by."""
    for j0 in range(C.n - 2):
        if C.alpha[j0] == 0:
            raise ZeroPivotError(j0 + 1, what="alpha")


def remaining_columns(F: LUFactors, ops: OpCounter | None = None, *, finalize: bool = False):
    """Columns n-2 down to 1 (returned in that order) via the four-term
    column recursion on the EXACT or SYMBOLIC factors F, which hold C'
    (of M(t) in SYMBOLIC mode) and the unit D_n.  EXACT factors raise
    ZeroPivotError at a zero alpha_j, j <= n-2, before any tally;
    SYMBOLIC factors hold t there.  Both raise SingularMatrixError at a
    singular C: EXACT always, SYMBOLIC with ``finalize``.  FLOAT factors
    give the columns of ``lu_columns`` in this order, with its tally:
    nothing there divides by alpha, and binary64 entries are final.

    The recursion starts from columns n and n-1 of adj(C') in closed
    form (see the module docstring).  The returned Fractions and
    canonical RationalFunctions are those of the recursion on Fractions
    and RationalFunctions from ``last_two_columns`` of F.

    With ``finalize`` the entries come back passed through
    ``mode.finalize``: in SYMBOLIC mode the Fractions c_i adj_ij(0) / D(0)
    are read off the packed integers and no RationalFunction is built."""
    if F.mode is ScalarMode.FLOAT:
        return lu_columns(F, ops)[::-1]
    if ops is None:
        ops = OpCounter()
    C, unit, n = F.matrix, F.D[-1], F.n
    _refuse_zero_alpha(C)           # EXACT: a scaled alpha is 0 when alpha is
    cols = []
    prev2, prev1 = col_n, col_n1 = _adjugate_last_two(F)   # Col_{j+2}, Col_{j+1}
    for j in range(n - 2, 0, -1):                     # 1-based column index j
        # -beta_{j+1}, -gamma_{j+2}, -a_{n-j} and alpha_j; column n-1 of
        # the matrix ends in gamma_n, so there is no a-term for j = n-2;
        # every quotient is exact, since adjugate entries are integers
        b, g, al = -C.beta[j], -C.gamma[j], C.alpha[j - 1]
        f = -C.a[n - j - 3] if j < n - 2 else 0
        col = [(b * u + g * v + f * z) // al for u, v, z in zip(prev1, prev2, col_n)]
        col[j] = (unit + b * prev1[j] + g * prev2[j] + f * col_n[j]) // al
        ops.tally(7 * n if j < n - 2 else 5 * n)
        cols.append(F.column(col, at_zero=finalize))
        prev2, prev1 = prev1, col
    return cols


def lu_columns(F: LUFactors, ops: OpCounter | None = None):
    """Columns 1 .. n-2 of the inverse (returned in that order), each
    solved from L U s = e_j with the factors F by ``_solve_column``, as
    the last two columns are.  It reads alpha and gamma off
    ``perturbed(F)``: the binary64 C of FLOAT factors, M(t) read off C'
    and the column scales of EXACT and SYMBOLIC ones."""
    if ops is None:
        ops = OpCounter()
    n = F.n
    M = perturbed(F)
    ell = [None] + [M.gamma[k0 - 1] / F.mu[k0 - 1] for k0 in range(1, n - 1)]
    ops.tally(n - 2)
    cols = []
    for j0 in range(n - 2):
        cols.append(_solve_column(F, M.alpha, ell, j0))
        ops.tally(6 * n - 8 - 4 * j0)
    return cols


def invert(C: ComradeMatrix, mode: ScalarMode) -> InverseResult:
    """Full inverse.  Raises ZeroPivotError in EXACT/FLOAT mode when the
    symbolic rescue would be needed, NonFiniteResultError in FLOAT mode
    when the determinant or an inverse entry is inf or nan, and
    SingularMatrixError where the last pivot would be divided by: in the
    last two columns in EXACT (D_n = 0) and FLOAT (mu_n = 0), and in
    SYMBOLIC (D_n(0) = 0) in the last two columns at t = 0 when the log
    holds no alpha, else in the recursion at t = 0.  So a FLOAT pivot
    product that only underflows to 0.0 is not singular.  Every mode runs
    ``factorize``, ``last_two_columns`` and ``remaining_columns``, and
    each phase after ``factorize`` reads only its factors, in SYMBOLIC
    mode with no alpha logged their t = 0 form ``unperturbed()``; the
    substitution log is ``factorize``'s, pivots first, then alphas.
    FLOAT refuses a zero alpha_j, j <= n - 2, of the rational C, as EXACT
    does, though none of its phases divides by alpha.

    EXACT and SYMBOLIC take 7n^2 - 5n - 11 field operations when nothing
    is degenerate: 6n - 9 to factorize, n - 1 for the determinant, 4n - 1
    for the last two columns and 5n + 7n(n - 3) for the recursion.

    FLOAT takes 4n^2 + 2n - 9: the same 11n - 11 through the last two
    columns, n - 2 multipliers of L, and for column j (1-based, j <= n-2)
    3(n - j) - 3 in the forward pass and 1 + 3(n - j) + 2(j - 1) in the
    backward pass, 6n - 4 - 4j in all; the sum over j is 4n^2 - 10n + 4.
    """
    ops = OpCounter()
    F = work = factorize(C, mode, ops)
    det = pivot_product(F, ops)
    if mode is ScalarMode.SYMBOLIC and all(kind == "pivot" for kind, _ in F.substitutions):
        work = F.unperturbed()                  # no alpha holds t, and no pivot is divided by
    col_n, col_n1 = last_two_columns(work, ops)
    if mode is ScalarMode.FLOAT:
        _refuse_zero_alpha(C)                   # a policy: lu_columns never divides by alpha
    # before col_n is finalized: a singular C is refused, not a pole
    columns = remaining_columns(work, ops, finalize=True)[::-1]
    rows = tuple(zip(*columns, map(mode.finalize, col_n1), map(mode.finalize, col_n)))
    if mode is ScalarMode.FLOAT:
        for i0, row in enumerate(rows):
            for j0, v in enumerate(row):
                if not math.isfinite(v):
                    raise NonFiniteResultError(f"inverse entry ({i0 + 1}, {j0 + 1})")
        if not math.isfinite(det):
            raise NonFiniteResultError("determinant")
    return InverseResult(inverse=DenseMatrix(C.n, rows), determinant=det,
                         substitutions=F.substitutions,
                         op_count=ops.count)
