"""Independent checks of the library's outputs, run outside the timed region.

* exact and symbolic inverses: C*S == I exactly (``comrade_times_dense``);
* float inverses: ||C*S - I||_inf <= 1e-8, the bound of acceptance
  criterion 5.  A miss is the documented float instability of the column
  recursion: it counts as a failed request, but not as a wrong answer;
* determinants: last-row cofactor expansion (below), exactly or, in
  float mode, within 1e-8 of the sum of the absolute terms;
* at n <= ORACLE_MAX_N also the dense oracle.  The oracle is O(n^3), so
  it is never called on larger inputs.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from typing import NamedTuple

import comrade

ORACLE_MAX_N = 24
FLOAT_BOUND = 1e-8


def last_row_expansion(beta, alpha, gamma, last, scale=False):
    """det C by expansion along the last row,

        det C = sum_j (-1)^(n+j) C[n,j] D_{j-1} alpha_j ... alpha_{n-1},

    where D_k = beta_k D_{k-1} - alpha_{k-1} gamma_k D_{k-2} is the
    continuant of the leading k x k block (deleting row n and column j
    leaves T_{j-1} and a lower bidiagonal block with diagonal alpha_j..).
    Evaluated without division by A_1 = c_1 D_0, A_j = alpha_{j-1}
    A_{j-1} + c_j D_{j-1}, det = A_n.  ``last`` is row n, C[n, 1..n].
    Returns (det, sum of |terms|); the sum is only tracked when
    ``scale`` is set."""
    n = len(beta)
    d_prev, d = 0, 1
    acc = total = 0
    for j in range(1, n + 1):
        c = last[j - 1] if (n + j) % 2 == 0 else -last[j - 1]
        if j > 1:
            acc = alpha[j - 2] * acc
            if scale:
                total = abs(alpha[j - 2]) * total
        term = c * d
        acc += term
        if scale:
            total += abs(term)
        if j < n:
            nxt = beta[j - 1] * d
            if j > 1:
                nxt -= alpha[j - 2] * gamma[j - 2] * d_prev
            d_prev, d = d, nxt
    return acc, total


def _entries(C, w):
    """(beta, alpha, gamma, last row) with every entry mapped through w."""
    beta, alpha, gamma = ([w(v) for v in seq] for seq in (C.beta, C.alpha, C.gamma))
    return beta, alpha, gamma, [w(v) for v in reversed(C.a)] + [gamma[-1], beta[-1]]


def cofactor_det(C) -> Fraction:
    """Exact determinant, independent of the library's pivot recurrences.
    Each row is first scaled to integers by the lcm of its denominators,
    so the expansion runs on Python ints without any gcd."""
    n = C.n
    rows = [[C.beta[0], C.alpha[0]]]
    rows += [[C.gamma[i - 1], C.beta[i], C.alpha[i]] for i in range(1, n - 1)]
    rows.append(list(C.a) + [C.gamma[-1], C.beta[-1]])
    s = [math.lcm(*(v.denominator for v in row)) for row in rows]
    beta = [v.numerator * (s[i] // v.denominator) for i, v in enumerate(C.beta)]
    alpha = [v.numerator * (s[i] // v.denominator) for i, v in enumerate(C.alpha)]
    gamma = [v.numerator * (s[i + 1] // v.denominator) for i, v in enumerate(C.gamma)]
    last = [v.numerator * (s[-1] // v.denominator) for v in reversed(C.a)]
    last += [gamma[-1], beta[-1]]
    return Fraction(last_row_expansion(beta, alpha, gamma, last)[0], math.prod(s))


def float_cofactor_det(C):
    """(det, sum of |terms|) in binary64."""
    return last_row_expansion(*_entries(C, float), scale=True)


def entry_bits(values) -> int:
    """Largest numerator or denominator, in bits."""
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in values), default=0)


def float_residual(C, S) -> float:
    """||C*S - I||_inf in binary64; inf if any row sum is not a number."""
    Cf = comrade.ComradeMatrix(C.n, *(tuple(map(float, getattr(C, f)))
                                      for f in ("beta", "alpha", "gamma", "a")))
    P = comrade.comrade_times_dense(Cf, S)
    sums = [sum(map(abs, row)) - abs(row[i]) + abs(row[i] - 1.0) for i, row in enumerate(P.rows)]
    return math.inf if any(math.isnan(s) for s in sums) else max(sums)


class Failure(NamedTuple):
    reason: str
    known: bool    # the documented float accuracy defect, not a wrong answer


class Checker:
    """Checks outputs and accumulates the check-side per-layer figures."""

    def __init__(self):
        self.matrix_s = 0.0
        self.oracle_s = 0.0
        self.max_entry_bits = 0

    def inverse(self, C, S, det, float_mode: bool) -> Failure | None:
        if float_mode:
            start = time.perf_counter()
            residual = float_residual(C, S)
            self.matrix_s += time.perf_counter() - start
            if not residual <= FLOAT_BOUND:
                return Failure(f"float inverse n={C.n}: residual {residual:.3g} > "
                               f"{FLOAT_BOUND:g}", known=True)
            return None
        self.max_entry_bits = max(self.max_entry_bits,
                                  entry_bits(v for row in S.rows for v in row))
        start = time.perf_counter()
        ok = comrade.comrade_times_dense(C, S) == comrade.DenseMatrix.identity(C.n)
        self.matrix_s += time.perf_counter() - start
        if not ok:
            return Failure(f"inverse n={C.n}: C*S != I", known=False)
        if C.n <= ORACLE_MAX_N:
            start = time.perf_counter()
            ok = comrade.dense_invert(comrade.to_dense(C)) == S
            self.oracle_s += time.perf_counter() - start
            if not ok:
                return Failure(f"inverse n={C.n}: differs from dense_invert", known=False)
        return self.determinant(C, det, float_mode)

    def determinant(self, C, det, float_mode: bool) -> Failure | None:
        start = time.perf_counter()
        ref, scale = float_cofactor_det(C) if float_mode else (cofactor_det(C), 0)
        self.matrix_s += time.perf_counter() - start
        if float_mode:
            if not (math.isfinite(det) and abs(det - ref) <= FLOAT_BOUND * scale):
                return Failure(f"float det n={C.n}: {det!r} vs cofactor {ref!r}", known=False)
            return None
        self.max_entry_bits = max(self.max_entry_bits, entry_bits((det,)))
        if det != ref:
            return Failure(f"det n={C.n}: differs from the cofactor expansion", known=False)
        if C.n <= ORACLE_MAX_N:
            start = time.perf_counter()
            ok = comrade.dense_det(comrade.to_dense(C)) == det
            self.oracle_s += time.perf_counter() - start
            if not ok:
                return Failure(f"det n={C.n}: differs from dense_det", known=False)
        return None

    def validate_cofactor(self, draw, seed: int) -> None:
        """Cross-check the cofactor expansion itself against the dense
        oracle on small instances; raises if the checker is wrong."""
        rng = random.Random(f"perfbench:validate:{seed}")
        start = time.perf_counter()
        for n in (3, 4, 5, 7, 9, 12):
            C = draw(n, rng)
            if cofactor_det(C) != comrade.dense_det(comrade.to_dense(C)):
                raise RuntimeError(f"cofactor expansion disagrees with dense_det at n={n}")
        self.oracle_s += time.perf_counter() - start
