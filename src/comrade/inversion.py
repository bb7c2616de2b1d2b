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
c_n.  Then the unit E_{j+1} becomes D E_{j+1}, every coefficient is an
integer and every division by alpha_j is exact, so the loop does integer
arithmetic with no gcd at all; entry (i, j) of the inverse is the one
Fraction c_i adj(C')_ij / D, built as each column is finished.

FLOAT mode keeps the last two columns but solves columns n-2 .. 1 from
the LU factors instead (``lu_columns``): in binary64 the recursion runs
against the dominant solution of its own homogeneous part and amplifies
rounding by a constant factor per column (about 2.618 on example33),
while the forward pass over L and the backward pass over U never divide
by alpha.  Exact arithmetic has no rounding to amplify, so EXACT and
SYMBOLIC keep the paper's recursion.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction

from .factorization import (LUFactors, NonFiniteResultError, OpCounter,
                            Substitution, ZeroPivotError, bumped_beta,
                            factorize, pivot_product)
from .matrix import ComradeMatrix, DenseMatrix, SingularMatrixError
from .scalars import RationalFunction, ScalarMode

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


def _column_n(F: LUFactors, alpha, ops: OpCounter):
    n = len(F.mu)
    w = F.mode.scalar
    s = [None] * n
    s[n - 1] = w(1) / F.mu[n - 1]
    ops.tally(1)
    for i0 in range(n - 2, -1, -1):
        s[i0] = -(alpha[i0] * s[i0 + 1]) / F.mu[i0]
        ops.tally(2)
    return s


def _column_n_minus_1(F: LUFactors, alpha, ops: OpCounter):
    n = len(F.mu)
    w = F.mode.scalar
    s = [None] * n
    s[n - 1] = -F.x[n - 2] / F.mu[n - 1]
    ops.tally(1)
    s[n - 2] = (w(1) - alpha[n - 2] * s[n - 1]) / F.mu[n - 2]
    ops.tally(3)
    for i0 in range(n - 3, -1, -1):
        s[i0] = -(alpha[i0] * s[i0 + 1]) / F.mu[i0]
        ops.tally(2)
    return s


def last_two_columns(F: LUFactors, C: ComradeMatrix,
                     ops: OpCounter | None = None, parallel: bool = False):
    """Columns n and n-1 of the inverse, as top-to-bottom lists.

    C must be the matrix F was computed from (same working entries), so
    its superdiagonal is the one sitting along U.  The two columns are
    independent; ``parallel=True`` computes them on two threads with
    private op sub-counters, bit-identically to the sequential path.
    """
    if ops is None:
        ops = OpCounter()
    alpha = [F.mode.scalar(v) for v in C.alpha]
    if parallel:
        ops_n, ops_n1 = OpCounter(), OpCounter()
        with ThreadPoolExecutor(max_workers=2) as pool:
            fut_n = pool.submit(_column_n, F, alpha, ops_n)
            fut_n1 = pool.submit(_column_n_minus_1, F, alpha, ops_n1)
            col_n, col_n1 = fut_n.result(), fut_n1.result()
        ops.tally(ops_n.count + ops_n1.count)
        return col_n, col_n1
    return _column_n(F, alpha, ops), _column_n_minus_1(F, alpha, ops)


def _integer_scaled(C: ComradeMatrix):
    """(c, C diag(c)): c_k is the lcm of the denominators in column k of
    C, so every entry of C diag(c) is an integer."""
    n = C.n
    # beta_k and gamma_{k+1} sit in column k, alpha_k in column k+1 and
    # a_m in column n-m+1 (0-based below)
    column_of = {"beta": range(n), "alpha": range(1, n), "gamma": range(n - 1),
                 "a": range(n - 3, -1, -1)}
    dens = [[] for _ in range(n)]
    for name, cols in column_of.items():
        for k0, v in zip(cols, getattr(C, name)):
            dens[k0].append(v.denominator)
    scale = [math.lcm(*d) for d in dens]
    return scale, replace(C, **{
        name: tuple(v.numerator * (scale[k0] // v.denominator)
                    for k0, v in zip(cols, getattr(C, name)))
        for name, cols in column_of.items()})


def remaining_columns(col_n, col_n1, C: ComradeMatrix, mode: ScalarMode,
                      ops: OpCounter | None = None):
    """Columns n-2 down to 1 (returned in that order) via the four-term
    column recursion.  C must carry the same working entries the first
    two columns were computed from, including any t-substituted alphas
    and +t-bumped diagonal.

    In EXACT mode the recursion runs on the integer adjugate columns of
    C diag(c) (see the module docstring); the returned Fractions are
    the same as those of the recursion on Fractions."""
    if ops is None:
        ops = OpCounter()
    n = C.n
    if mode is ScalarMode.EXACT:
        scale, C = _integer_scaled(C)
        # the unit D = +-det(C'), from the first entry of inverse column n
        # or n-1: the (n, 1) and (n-1, 1) minors of C' are triangular, so
        # adj(C')_{1,n} = +-alpha_1 .. alpha_{n-1} and adj(C')_{1,n-1} =
        # +-alpha_1 .. alpha_{n-2} beta_n, and S_{1,k} = c_1 adj(C')_{1,k} / D.
        # Column n of C' is nonzero, so one of the two is; the sign of the
        # unit cancels from the output.
        head = math.prod(C.alpha[:n - 2])
        if C.alpha[n - 2]:
            adj, first = head * C.alpha[n - 2], col_n[0]
        else:
            adj, first = head * C.beta[n - 1], col_n1[0]
        unit = scale[0] * adj * first.denominator // first.numerator
        col_n, col_n1 = ([unit * v.numerator // (v.denominator * c)
                          for v, c in zip(col, scale)] for col in (col_n, col_n1))
        divide = operator.floordiv                    # exact: adjugate entries are integers
        output = lambda col: [Fraction(c * v, unit) for c, v in zip(scale, col)]
    else:
        w = mode.scalar
        C = replace(C, **{name: tuple(map(w, getattr(C, name)))
                          for name in ("beta", "alpha", "gamma", "a")})
        unit = w(1)
        divide = operator.truediv
        output = lambda col: col

    cols = []
    prev2, prev1 = col_n, col_n1                      # Col_{j+2}, Col_{j+1}
    for j in range(n - 2, 0, -1):                     # 1-based column index j
        # -beta_{j+1}, -gamma_{j+2}, -a_{n-j} and alpha_j; column n-1 of
        # the matrix ends in gamma_n, so there is no a-term for j = n-2
        b, g, al = -C.beta[j], -C.gamma[j], C.alpha[j - 1]
        f = -C.a[n - j - 3] if j < n - 2 else 0
        col = [divide(b * u + g * v + f * z, al) for u, v, z in zip(prev1, prev2, col_n)]
        col[j] = divide(unit + b * prev1[j] + g * prev2[j] + f * col_n[j], al)
        ops.tally(7 * n if j < n - 2 else 5 * n)
        cols.append(output(col))
        prev2, prev1 = prev1, col
    return cols


def lu_columns(F: LUFactors, C: ComradeMatrix, ops: OpCounter | None = None):
    """Columns 1 .. n-2 of the inverse (returned in that order), each
    solved from L U s = e_j with the factors F of C.

    The forward pass over L starts at the unit entry y_j = 1, since the
    entries above it are zero; it needs the subdiagonal multipliers
    gamma_{k+1} / mu_k and the dense last row x.  The backward pass runs
    over the upper bidiagonal U.  Neither divides by alpha.
    """
    if ops is None:
        ops = OpCounter()
    n = len(F.mu)
    w = F.mode.scalar
    mu, x = F.mu, F.x
    alpha = [w(v) for v in C.alpha]
    ell = [None] + [w(C.gamma[k0 - 1]) / mu[k0 - 1] for k0 in range(1, n - 1)]
    ops.tally(n - 2)
    cols = []
    for j0 in range(n - 2):
        # forward: y_j = 1, y_k = -ell_k y_{k-1}, y_n = -sum x_k y_k
        s = [w(0)] * n
        y = s[j0] = w(1)
        last = -x[j0]
        for k0 in range(j0 + 1, n - 1):
            y = -(ell[k0] * y)
            s[k0] = y
            last = last - x[k0] * y
        # backward over U, from y_n down to row j, then zeros above it
        s[n - 1] = last / mu[n - 1]
        for i0 in range(n - 2, j0 - 1, -1):
            s[i0] = (s[i0] - alpha[i0] * s[i0 + 1]) / mu[i0]
        for i0 in range(j0 - 1, -1, -1):
            s[i0] = -(alpha[i0] * s[i0 + 1]) / mu[i0]
        ops.tally(6 * n - 8 - 4 * j0)
        cols.append(s)
    return cols


def invert(C: ComradeMatrix, mode: ScalarMode, *, parallel_columns: bool = False) -> InverseResult:
    """Full inverse.  Raises SingularMatrixError when the determinant is
    exactly zero, ZeroPivotError in EXACT/FLOAT mode when the symbolic
    rescue would be needed, and NonFiniteResultError in FLOAT mode when
    an inverse entry is inf or nan.

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
    w = mode.scalar

    alpha = [w(v) for v in C.alpha]
    alpha_subs = []
    if mode is ScalarMode.SYMBOLIC:
        # only alpha_1..alpha_{n-2} are ever divided by; alpha_{n-1} stays
        for j0 in range(n - 2):
            if alpha[j0] == 0:
                alpha[j0] = _T
                alpha_subs.append(Substitution("alpha", j0 + 1))
    work = ComradeMatrix(n, tuple(w(v) for v in C.beta), tuple(alpha),
                         tuple(w(v) for v in C.gamma), tuple(w(v) for v in C.a))

    F = factorize(work, mode, ops)
    det = pivot_product(F, ops)
    if det == 0:
        raise SingularMatrixError()
    if mode is not ScalarMode.SYMBOLIC:
        for j0 in range(n - 2):
            if alpha[j0] == 0:
                raise ZeroPivotError(j0 + 1, what="alpha")
    if F.substitutions:
        work = replace(work, beta=bumped_beta(F, work))

    col_n, col_n1 = last_two_columns(F, work, ops, parallel=parallel_columns)
    if mode is ScalarMode.FLOAT:
        columns = lu_columns(F, work, ops) + [col_n1, col_n]
    else:
        rest = remaining_columns(col_n, col_n1, work, mode, ops)
        columns = list(reversed(rest)) + [col_n1, col_n]
    rows = tuple(zip(*columns))
    if mode is ScalarMode.SYMBOLIC:                   # finalize is the identity otherwise
        rows = tuple(tuple(map(mode.finalize, row)) for row in rows)
    elif mode is ScalarMode.FLOAT:
        for i0, row in enumerate(rows):
            for j0, v in enumerate(row):
                if not math.isfinite(v):
                    raise NonFiniteResultError(f"inverse entry ({i0 + 1}, {j0 + 1})")
    return InverseResult(inverse=DenseMatrix(n, rows), determinant=det,
                         substitutions=tuple(F.substitutions) + tuple(alpha_subs),
                         op_count=ops.count)
