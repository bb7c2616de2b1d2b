"""Workload definitions and seeded input generation.

Every workload is a closed loop: one caller in one thread issues the
requests of its plan back to back.  A plan spreads each ladder entry's
requests geometrically over its size range and is shuffled by the seed;
every request gets its own seeded matrix.  The seed changes the entries
and the order, never the sizes, so the latency percentiles of two seeds
describe the same mix of work, and neighbouring sizes are close enough
that noise moving a sample past its neighbour barely moves a percentile.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import comrade
from comrade import ScalarMode

from checks import cofactor_det

_L = 2520   # lcm(1..9): every magnitude below is a whole multiple of 1/_L

#: Off-diagonal entries of the band family: +-p/q in [1/3, 1/2] with
#: q <= 9.  Large enough that float inverses cross the accuracy bound
#: inside the band-float ladder, small enough to keep pivots near 1.
_SMALL = sorted({Fraction(p, q) for q in range(2, 10) for p in range(1, q)
                 if Fraction(1, 3) <= Fraction(p, q) <= Fraction(1, 2)})
_SMALL = _SMALL + [-v for v in _SMALL]
_SMALL_KEY = [int(abs(v) * _L) for v in _SMALL]
#: Diagonal magnitudes p/q in (0, 2] with q <= 9, and their negatives.
_DIAGONAL = sorted({Fraction(p, q) for q in range(1, 10) for p in range(1, 2 * q + 1)})
_DIAGONAL_NEG = [-v for v in _DIAGONAL]
_DIAGONAL_KEY = [int(v * _L) for v in _DIAGONAL]
#: A diagonal entry exceeds its row's off-diagonal sum by at most 1/2,
#: which keeps |det| inside binary64 range up to n = 4000.
_MARGIN = _L // 2


def band_matrix(n: int, rng: random.Random) -> comrade.ComradeMatrix:
    """Seeded comrade matrix whose band rows are strictly diagonally
    dominant and whose alphas are all nonzero, so every pivot before the
    last is nonzero and EXACT mode never needs the symbolic rescue.
    Every entry is p/q with q <= 9."""
    pick = lambda count: [int(rng.random() * len(_SMALL)) for _ in range(count)]
    alpha, gamma, a = pick(n - 1), pick(n - 1), pick(n - 2)
    beta = []
    for i in range(n):
        if i < n - 1:
            off = _SMALL_KEY[alpha[i]] + (_SMALL_KEY[gamma[i - 1]] if i > 0 else 0)
        else:
            off = _MARGIN          # the dense last row is not dominant
        lo = bisect_right(_DIAGONAL_KEY, off)
        hi = bisect_right(_DIAGONAL_KEY, off + _MARGIN)
        side = _DIAGONAL if rng.random() < 0.5 else _DIAGONAL_NEG
        beta.append(side[lo + int(rng.random() * (hi - lo))])
    entries = lambda idx: tuple(_SMALL[k] for k in idx)
    return comrade.ComradeMatrix(n, tuple(beta), entries(alpha), entries(gamma), entries(a))


def pivots_nonzero(C: comrade.ComradeMatrix) -> bool:
    """True if the pivots mu_1 .. mu_{n-1} of the LU recurrence are all
    nonzero: mu_k = D_k / D_{k-1}, with D_k the leading continuant."""
    d_prev, d = 1, C.beta[0]
    for i in range(1, C.n - 1):
        if d == 0:
            return False
        d_prev, d = d, C.beta[i] * d - C.alpha[i - 1] * C.gamma[i - 1] * d_prev
    return d != 0


def rescue_matrix(n: int, rng: random.Random, zero_pivot: bool) -> comrade.ComradeMatrix:
    """Seeded ``random_comrade`` instance (integers in [-9, 9]) that
    EXACT mode cannot finish, with a fixed shape for every seed.

    zero_pivot: beta_1 = 0, so EXACT stops at the first pivot, and every
    divisor alpha is nonzero, so the rescue carries a single t and its
    cost grows smoothly with n.  Otherwise every pivot is nonzero and
    exactly one divisor alpha is 0, so an EXACT inverse runs the whole
    factorization before it raises, and a determinant needs no rescue."""
    while True:
        seed = rng.randrange(2 ** 31)
        if zero_pivot:
            C = comrade.random_comrade(n, seed, zero_pivot_bias=1.0)
            if all(C.alpha[:n - 2]):
                return C
            continue
        C = comrade.random_comrade(n, seed)
        alpha = list(C.alpha)
        alpha[rng.randrange(n - 2)] = Fraction(0)
        C = comrade.ComradeMatrix(n, C.beta, tuple(alpha), C.gamma, C.a)
        if sum(v == 0 for v in alpha[:n - 2]) == 1 and pivots_nonzero(C):
            return C


def draw_matrix(family: str, n: int, rng: random.Random) -> comrade.ComradeMatrix:
    if family == "band":
        return band_matrix(n, rng)
    if family == "example33":
        return comrade.example33(n)
    if family in ("zero-pivot", "zero-alpha"):
        return rescue_matrix(n, rng, zero_pivot=family == "zero-pivot")
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class Workload:
    """name: as in BENCHMARK.json, which also says why each workload exists.
    mode: the ScalarMode of direct calls; None routes every request
          through ``comrade.cli.main`` with the default mode policy.
    ladder: (kind, family, smallest n, largest n, count) entries; kind
            is "inv" or "det", count the requests in a run of
            NOMINAL_SECONDS.  The counts were sized so that the timed
            calls take about that long at the baseline commit on the
            reference machine; they scale with --seconds, not with the
            speed of the code under test."""

    name: str
    mode: ScalarMode | None
    ladder: tuple

    @property
    def via_cli(self) -> bool:
        return self.mode is None


WORKLOADS = {w.name: w for w in (
    # The Fraction column recursion and big-integer factorize; never a rescue,
    # so symbolic-layer changes must leave it unchanged.
    Workload(
        "band-exact",
        ScalarMode.EXACT,
        (("inv", "band", 24, 128, 42), ("inv", "example33", 96, 160, 8),
         ("det", "band", 1000, 2000, 38), ("det", "example33", 3000, 4000, 4))),
    # Cheap scalars, so per-entry overhead shows; the inverse sizes straddle
    # the point where the float column recursion loses accuracy.
    Workload(
        "band-float",
        ScalarMode.FLOAT,
        (("inv", "band", 16, 800, 250), ("inv", "example33", 16, 200, 28),
         ("det", "band", 1000, 4000, 83))),
    # The only workload through cli and io and the only one that builds
    # RationalFunctions: every zero-pivot file and every zero-alpha inverse
    # needs the rescue, no band file does.
    Workload(
        "cli-mixed",
        None,
        (("inv", "zero-pivot", 8, 24, 26), ("inv", "zero-alpha", 8, 24, 17),
         ("det", "zero-pivot", 8, 24, 62),
         ("inv", "band", 64, 128, 29), ("det", "band", 64, 160, 62))),
)}


@dataclass(frozen=True)
class Request:
    index: int
    kind: str
    family: str
    matrix: comrade.ComradeMatrix
    path: str | None      # matrix file, for requests through the CLI

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def model_ops(self) -> int:
        """The paper's operation count for this request, from n alone."""
        n = self.n
        return 7 * n * n - 5 * n - 11 if self.kind == "inv" else 7 * n - 10


NOMINAL_SECONDS = 16


def sizes(lo: int, hi: int, count: int) -> list:
    """count sizes spread geometrically over [lo, hi]."""
    if count == 1:
        return [lo]
    return [round(lo * (hi / lo) ** (k / (count - 1))) for k in range(count)]


def build_plan(workload: Workload, seed: int, seconds: float, workdir: Path) -> list:
    """The seeded request list; matrix files go to workdir for CLI
    workloads.  Inverse inputs are redrawn until nonsingular."""
    rng = random.Random(f"perfbench:{workload.name}:{seed}")
    scale = seconds / NOMINAL_SECONDS
    entries = [(kind, family, n) for kind, family, lo, hi, count in workload.ladder
               for n in sizes(lo, hi, max(1, round(count * scale)))]
    rng.shuffle(entries)
    plan = []
    for index, (kind, family, n) in enumerate(entries):
        C = draw_matrix(family, n, rng)
        while kind == "inv" and cofactor_det(C) == 0:
            if family == "example33":
                raise ValueError(f"example33({n}) is singular")
            C = draw_matrix(family, n, rng)
        path = None
        if workload.via_cli:
            path = str(workdir / f"m{index}.json")
            comrade.dump_comrade(C, path)
        plan.append(Request(index, kind, family, C, path))
    return plan
