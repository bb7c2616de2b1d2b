"""Shared test matrices and frozen expected values.

Everything here was cross-checked against the dense Gaussian oracle
(and, for the inverses, against the two-sided identity S*C = C*S = I)
before being frozen.  Tests import these constants instead of
recomputing them so a regression in the fast path cannot hide behind a
matching regression in the expectation.
"""

import random
from fractions import Fraction
from pathlib import Path

from comrade import make_comrade

F = Fraction

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def frows(rows):
    """Rows of ints/strings -> tuple of tuples of Fractions."""
    return tuple(tuple(F(v) for v in row) for row in rows)


# 5x5 with fractional entries; clean LU (no zero pivots in exact mode).
SAMPLE5 = make_comrade(
    5,
    ("-1/2", "-4/5", "-2/3", "-5/2", "-1"),
    ("1/2", "1/5", "1/3", "1/2"),
    ("3/5", "1/3", "2", "2/3"),
    ("-1/3", "-1/3", "-1/3"),
)
SAMPLE5_MU = (F(-1, 2), F(-1, 5), F(-1, 3), F(-1, 2), F(-4, 3))
SAMPLE5_X = (F(2, 3), F(10, 3), F(3), F(2, 3))
SAMPLE5_DET = F(-1, 45)
SAMPLE5_INVERSE = frows([
    (-24, "-75/4", "-39/4", "-3/2", "-3/4"),
    (-22, "-75/4", "-39/4", "-3/2", "-3/4"),
    (-16, "-55/4", "-39/4", "-3/2", "-3/4"),
    (-10, "-35/4", "-27/4", "-3/2", "-3/4"),
    (14, "45/4", "21/4", "1/2", "-3/4"),
])

# 4x4 with beta_1 = 0: exact mode hits a zero leading pivot, the
# symbolic path substitutes t and still lands on an integer result.
ZERO_PIVOT4 = make_comrade(4, (0, -1, 1, 3), (1, 5, 2), (2, 3, 5), (1, -1))
ZERO_PIVOT4_DENSE = frows([
    (0, 1, 0, 0),
    (2, -1, 5, 0),
    (0, 3, 1, 2),
    (-1, 1, 5, 3),
])
ZERO_PIVOT4_MU_STRS = ("t", "(-t - 2)/(t)", "(16*t + 2)/(t + 2)",
                       "(14*t - 12)/(8*t + 1)")
ZERO_PIVOT4_X_STRS = ("(-1)/(t)", "(-t - 1)/(t + 2)", "(10*t + 15)/(16*t + 2)")
ZERO_PIVOT4_DET = F(24)
# (1,3) is 5/8: the symbolic entry there is -15/(28t - 24), which is 5/8
# at t = 0, and row 1 of S*C = I forces the same value.
ZERO_PIVOT4_INVERSE = frows([
    ("-7/6", "7/24", "5/8", "-5/12"),
    (1, 0, 0, 0),
    ("2/3", "1/12", "-1/4", "1/6"),
    ("-11/6", "-1/24", "5/8", "-1/12"),
])

# Rows 3 and 4 coincide by construction (a_4 = 0, a_3 = gamma_3,
# gamma_4 = beta_3, beta_4 = alpha_3) while pivots 1..3 stay nonzero,
# so exact mode reaches mu_4 = 0 and reports determinant 0.
SINGULAR4 = make_comrade(4, (1, 3, 2, 2), (1, 1, 2), (1, 1, 2), (1, 0))
# Columns n and n-1 of the inverse of M(t) behind SINGULAR4's SYMBOLIC
# factors (pivot 4 bumped), checked against the dense oracle at t = 2/7:
# the column n-1 entries carry the bumped beta_4 + t.
SINGULAR4_COL_N_STRS = ("(-2)/(3*t)", "(2)/(3*t)", "(-4)/(3*t)", "(1)/(t)")
SINGULAR4_COL_N1_STRS = ("(t + 2)/(3*t)", "(-t - 2)/(3*t)", "(2*t + 4)/(3*t)", "(-1)/(t)")

# Rows 1 and 2 coincide: the zero appears at pivot 2, not pivot 1.
PROPORTIONAL4 = make_comrade(4, (1, 2, 1, 1), (2, 0, 1), (1, 1, 1), (1, 1))

# Nonsingular with an interior alpha_1 = 0: inversion must take the
# alpha-substitution branch (or refuse, outside the symbolic mode).
ALPHA_ZERO4 = make_comrade(4, (1, 2, 3, 4), (0, 1, 2), (1, 1, 1), (1, 1))
ALPHA_ZERO4_DET = F(18)

# Identity matrix written in comrade form; alpha_1 = 0 is interior.
IDENTITY3 = make_comrade(3, (1, 1, 1), (0, 0), (0, 0), (0,))

# Harmless for pivoted elimination (det = 5e-300 - 2e10), but the tiny
# leading pivot makes alpha_1 / mu_1 overflow in the unpivoted float
# factorization, so the float inverse comes out inf/nan.
TINY_PIVOT3 = make_comrade(3, (F(1, 10**300), 2, 3), (10**10, 1), (1, 1), (1,))

# Every float inverse entry is finite (about 1e-200 or 0), but the
# determinant, the product of three pivots near 1e200, overflows.
HUGE_DIAGONAL3 = make_comrade(3, (10**200,) * 3, (1, 1), (1, 1), (1,))

# Upper triangular with every entry 1e-200 or 0: nonsingular, with
# inverse entries of size 1e200, but the float product of its three
# pivots underflows to 0.0.
UNDERFLOW3 = make_comrade(3, (F(1, 10**200),) * 3, (F(1, 10**200),) * 2, (0, 0), (0,))

# Frozen output of random_comrade(4, 7, 0.0); guards the generator
# against silent reseeding, which would invalidate seeded regressions.
GOLDEN_RANDOM_4_7 = dict(
    beta=(F(1), F(4), F(6), F(8)),
    alpha=(F(2), F(-2), F(-5)),
    gamma=(F(8), F(-4), F(1)),
    a=(F(5), F(2)),
    det=F(-690),
)


#: Zero patterns that make SYMBOLIC substitute t: zero pivots (beta_1 = 0,
#: a beta that cancels its pivot, or a zero beta under a zero gamma) and
#: zero interior alphas, alone and together with zero entry families.
#: "dominant" has integer diagonals and off-diagonals +-1/q, so that in
#: every row of C diag(c) one entry, a constant or a multiple of t, is far
#: larger than the others, and some coefficients of the adjugate are close
#: to the bound the packing width is taken from.
ZERO_PATTERNS = ("pivots", "alphas and a pivot", "zero gammas", "zero a",
                 "alpha_{n-1} = 0", "dominant")


def zero_patterned_comrade(n, pattern, seed):
    """Seeded matrix with entries +-p/q, p and q up to 10**6, and up to
    three zero pivots and three zero interior alphas."""
    rng = random.Random(f"zeros:{n}:{pattern}:{seed}")
    sign = lambda: rng.choice((-1, 1))
    nonzero = lambda: F(sign() * rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
    beta, alpha, gamma, a = ([nonzero() for _ in range(k)] for k in (n, n - 1, n - 1, n - 2))
    if pattern == "dominant":
        beta = [F(sign() * rng.randint(1, 10 ** 6)) for _ in range(n)]
        alpha, gamma, a = ([F(sign(), rng.randint(1, 10 ** 6)) for _ in range(k)]
                           for k in (n - 1, n - 1, n - 2))
    if pattern == "zero gammas":
        gamma = [F(0)] * (n - 1)
    if pattern == "zero a":
        a = [F(0)] * (n - 2)
    if pattern == "alpha_{n-1} = 0":
        alpha[-1] = F(0)
    if pattern not in ("pivots", "zero gammas"):
        for j0 in rng.sample(range(n - 2), rng.randint(1, min(3, n - 2))):
            alpha[j0] = F(0)
    # a zero pivot next to a zero alpha could empty its row or column
    rows = [i0 for i0 in range(n - 1) if alpha[i0] != 0 and (i0 == 0 or alpha[i0 - 1] != 0)]
    pivots = rng.sample(rows, min(rng.randint(1, 3), len(rows)))
    if pattern == "alphas and a pivot":
        pivots = pivots[:1]
    mu = None                                         # the last pivot, if constant
    for i0 in range(n - 1):
        if i0 in pivots:
            if i0 > 0 and mu is not None and rng.random() < 0.5:
                beta[i0] = alpha[i0 - 1] * gamma[i0 - 1] / mu
            else:
                beta[i0] = F(0)
                if i0 > 0:
                    gamma[i0 - 1] = F(0)
            mu = None
        elif i0 == 0 or gamma[i0 - 1] == 0:
            mu = beta[i0]
        elif mu is not None and alpha[i0 - 1] != 0:
            mu = beta[i0] - alpha[i0 - 1] * gamma[i0 - 1] / mu
        else:
            mu = None
    return make_comrade(n, beta, alpha, gamma, a)
