"""Comrade-matrix data model, dense conversion, and test-family generators.

A comrade matrix is tridiagonal except for a dense last row:

    [ beta_1  alpha_1                                  ]
    [ gamma_2 beta_2   alpha_2                         ]
    [         gamma_3  beta_3   alpha_3                ]
    [                  ...      ...      ...           ]
    [ a_n     a_{n-1}  ...      a_3      gamma_n beta_n]

The compact form stores the four entry families as O(n) tuples; dense
position (n, j), 1-based, holds a_{n-j+1} for j = 1..n-2.
``_row_entries`` lists each row's entries with their columns, for
``to_dense``, both structured products and the packing bound of
``factorization.continuant_factors``, and ``_column_map`` hands each
entry family, with the scales of its entries' columns, to one call of a
function that builds the whole family.  Two places still say where
entries sit by themselves: ``factorization.integer_scaled`` lines the
four families up by column to take each column's lcm, and
``inversion.remaining_columns`` reads the four entries of column j+1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


class SingularMatrixError(ArithmeticError):
    """Inversion was asked for a matrix whose determinant is exactly zero."""

    def __init__(self):
        super().__init__("matrix is singular")


@dataclass(frozen=True)
class ComradeMatrix:
    """Compact form of an n x n comrade matrix (n >= 3).

    beta   diagonal (beta_1 .. beta_n), length n
    alpha  superdiagonal (alpha_1 .. alpha_{n-1}), length n-1
    gamma  subdiagonal plus the (n, n-1) entry (gamma_2 .. gamma_n),
           length n-1
    a      extra last-row coefficients in increasing subscript order
           (a_3 .. a_n), length n-2

    Entries are any field scalars.  Data matrices hold Fractions, the
    factors of ``factorization`` hold floats or integers, and
    ``factorization.perturbed`` reads the perturbed matrix M(t) of the
    symbolic rescue off them, holding RationalFunctions.
    """

    n: int
    beta: tuple
    alpha: tuple
    gamma: tuple
    a: tuple

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"comrade matrix needs n >= 3, got n = {self.n}")
        for name, want in (("beta", self.n), ("alpha", self.n - 1),
                           ("gamma", self.n - 1), ("a", self.n - 2)):
            got = len(getattr(self, name))
            if got != want:
                raise ValueError(f"{name} must have {want} entries for n = {self.n}, got {got}")


def make_comrade(n, beta, alpha, gamma, a) -> ComradeMatrix:
    """Build a ComradeMatrix from any rational-convertible entries."""
    as_fractions = lambda seq: tuple(v if isinstance(v, Fraction) else Fraction(v) for v in seq)
    return ComradeMatrix(n, as_fractions(beta), as_fractions(alpha),
                         as_fractions(gamma), as_fractions(a))


@dataclass(frozen=True)
class DenseMatrix:
    """Row-major n x n matrix of field scalars."""

    n: int
    rows: tuple

    def __post_init__(self):
        if len(self.rows) != self.n or any(len(r) != self.n for r in self.rows):
            raise ValueError(f"dense matrix must be {self.n} x {self.n}")

    @classmethod
    def from_rows(cls, rows) -> "DenseMatrix":
        return cls(len(rows), tuple(tuple(r) for r in rows))

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        one, zero = Fraction(1), Fraction(0)
        return cls(n, tuple(tuple(one if i == j else zero for j in range(n))
                            for i in range(n)))

    def __getitem__(self, i):
        return self.rows[i]

    def matmul(self, other: "DenseMatrix") -> "DenseMatrix":
        n = self.n
        out = []
        for i in range(n):
            row = self.rows[i]
            out.append(tuple(sum(row[k] * other.rows[k][j] for k in range(n))
                             for j in range(n)))
        return DenseMatrix(n, tuple(out))

    def __sub__(self, other: "DenseMatrix"):
        return DenseMatrix(self.n, tuple(
            tuple(x - y for x, y in zip(r, s))
            for r, s in zip(self.rows, other.rows)))

    def inf_norm(self):
        """Induced infinity norm: max absolute row sum."""
        return max(sum(abs(x) for x in row) for row in self.rows)

    def as_floats(self) -> "DenseMatrix":
        return DenseMatrix(self.n, tuple(tuple(float(x) for x in row)
                                         for row in self.rows))


def _row_entries(C: ComradeMatrix) -> list:
    """Row by row, the structural entries of C as (0-based column, value)
    pairs, in the order ``comrade_times_dense`` sums them: beta_i,
    alpha_i, then gamma_i on a band row; beta_n, gamma_n, then
    a_n .. a_3 from the left on the last row.  ``to_dense``, both
    structured products and the packing bound of SYMBOLIC
    ``factorization.continuant_factors`` read it."""
    n = C.n
    rows = [[(i, C.beta[i]), (i + 1, C.alpha[i]), (i - 1, C.gamma[i - 1])]
            for i in range(1, n - 1)]
    return [[(0, C.beta[0]), (1, C.alpha[0])], *rows,
            [(n - 1, C.beta[-1]), (n - 2, C.gamma[-1]), *enumerate(reversed(C.a))]]


def _column_map(f, C: ComradeMatrix, scale) -> ComradeMatrix:
    """The matrix whose entry families are f(values, scales), called once
    for each family of C with its entries and the scales of their
    columns, in the same order and of the same length; f returns the
    family's tuple.  beta_k and gamma_{k+1} sit in column k, alpha_k in
    column k+1 and a_m in column n-m+1."""
    n = C.n
    return ComradeMatrix(n, f(C.beta, scale), f(C.alpha, scale[1:]),
                         f(C.gamma, scale[:-1]), f(C.a, scale[n - 3::-1]))


def to_dense(C: ComradeMatrix) -> DenseMatrix:
    """Expand the compact form; structural zeros become Fraction(0)."""
    rows = [[Fraction(0)] * C.n for _ in range(C.n)]
    for row, entries in zip(rows, _row_entries(C)):
        for k, v in entries:
            row[k] = v
    return DenseMatrix.from_rows(rows)


def comrade_times_dense(C: ComradeMatrix, M: DenseMatrix) -> DenseMatrix:
    """C*M in O(n^2) using the band-plus-last-row structure."""
    if C.n != M.n:
        raise ValueError("size mismatch")
    rows = []
    for (k, v), *rest in _row_entries(C):
        acc = [v * w for w in M.rows[k]]
        for k, v in rest:
            acc = [s + v * w for s, w in zip(acc, M.rows[k])]
        rows.append(tuple(acc))
    return DenseMatrix(C.n, tuple(rows))


def dense_times_comrade(M: DenseMatrix, C: ComradeMatrix) -> DenseMatrix:
    """M*C in O(n^2): entry (i, j) starts at M[i][0] * 0, a zero of M's
    scalars, and adds M[i][k] v for each nonzero entry v of C at (k, j),
    by increasing k."""
    if C.n != M.n:
        raise ValueError("size mismatch")
    nonzeros = [[(j, v) for j, v in row if v != 0] for row in _row_entries(C)]
    rows = []
    for mrow in M.rows:
        acc = [mrow[0] * 0] * C.n
        for m, row in zip(mrow, nonzeros):
            for j, v in row:
                acc[j] += m * v
        rows.append(tuple(acc))
    return DenseMatrix(C.n, tuple(rows))


def example33(n: int) -> ComradeMatrix:
    """Banded test family whose entries are halves (binary64-exact):
    diagonal -3/2 with a -2 corner, off-diagonals 1/2, last row -1/2
    except gamma_n = 0."""
    beta = [Fraction(-3, 2)] * (n - 1) + [Fraction(-2)]
    alpha = [Fraction(1, 2)] * (n - 1)
    gamma = [Fraction(1, 2)] * (n - 2) + [Fraction(0)]
    a = [Fraction(-1, 2)] * (n - 2)
    return ComradeMatrix(n, tuple(beta), tuple(alpha), tuple(gamma), tuple(a))


def random_comrade(n: int, seed: int, zero_pivot_bias: float = 0.0) -> ComradeMatrix:
    """Deterministic random instance with integer entries in [-9, 9].

    With probability ``zero_pivot_bias`` the instance is made degenerate:
    beta_1 is forced to 0 (so the first pivot vanishes) and, half the
    time, one interior alpha is zeroed as well (so inversion also needs
    the alpha substitution).
    """
    rng = random.Random(f"comrade:{n}:{seed}:{zero_pivot_bias}")
    pick = lambda count: [Fraction(rng.randint(-9, 9)) for _ in range(count)]
    beta, alpha, gamma, a = pick(n), pick(n - 1), pick(n - 1), pick(n - 2)
    if rng.random() < zero_pivot_bias:
        beta[0] = Fraction(0)
        if rng.random() < 0.5:
            alpha[rng.randrange(n - 2)] = Fraction(0)
    return ComradeMatrix(n, tuple(beta), tuple(alpha), tuple(gamma), tuple(a))
