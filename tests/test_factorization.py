import math
import random
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F

import pytest

import support
from comrade import (ComradeMatrix, NonFiniteResultError, OpCounter,
                     Polynomial, RationalFunction, ScalarMode, Substitution,
                     ZeroPivotError, dense_det, determinant,
                     example33, factorize, invert, make_comrade, random_comrade,
                     reconstruct_LU, to_dense)
from comrade.factorization import (_ContinuantFactors, _pairwise_product, continuants,
                                   integer_scaled, perturbed)
from comrade.scalars import POLY_T, _unpack

T = RationalFunction.t()

ZERO_PIVOT4_MU = (
    T,
    RationalFunction(Polynomial((-2, -1)), POLY_T),
    RationalFunction(Polynomial((2, 16)), Polynomial((2, 1))),
    RationalFunction(Polynomial((-12, 14)), Polynomial((1, 8))),
)
ZERO_PIVOT4_X = (
    RationalFunction(Polynomial((-1,)), POLY_T),
    RationalFunction(Polynomial((-1, -1)), Polynomial((2, 1))),
    RationalFunction(Polynomial((15, 10)), Polynomial((2, 16))),
)


class TestFactorizeExact:
    def test_sample5_pivots(self):
        Ft = factorize(support.SAMPLE5, ScalarMode.EXACT)
        assert Ft.mu == support.SAMPLE5_MU
        assert Ft.x == support.SAMPLE5_X
        assert Ft.substitutions == ()

    def test_identity_embedding(self):
        Ft = factorize(support.IDENTITY3, ScalarMode.EXACT)
        assert Ft.mu == (F(1), F(1), F(1))
        assert Ft.x == (F(0), F(0))

    def test_zero_leading_pivot_raises(self):
        with pytest.raises(ZeroPivotError) as info:
            factorize(support.ZERO_PIVOT4, ScalarMode.EXACT)
        assert info.value.index == 1
        assert str(info.value) == "zero pivot at index 1; retry in symbolic mode"

    def test_zero_interior_pivot_raises(self):
        with pytest.raises(ZeroPivotError) as info:
            factorize(support.PROPORTIONAL4, ScalarMode.EXACT)
        assert info.value.index == 2

    def test_last_pivot_zero_is_not_an_error(self):
        # nothing divides by mu_n, and mu_n = 0 is how singularity shows up
        Ft = factorize(support.SINGULAR4, ScalarMode.EXACT)
        assert Ft.mu[-1] == 0
        assert Ft.substitutions == ()


class TestFactorizeSymbolic:
    def test_zero_pivot4_trace(self):
        Ft = factorize(support.ZERO_PIVOT4, ScalarMode.SYMBOLIC)
        assert Ft.mu == ZERO_PIVOT4_MU
        assert Ft.x == ZERO_PIVOT4_X
        assert Ft.substitutions == (Substitution("pivot", 1),)
        assert tuple(str(m) for m in Ft.mu) == support.ZERO_PIVOT4_MU_STRS
        assert tuple(str(x) for x in Ft.x) == support.ZERO_PIVOT4_X_STRS

    def test_no_substitution_when_pivots_nonzero(self):
        Ft = factorize(support.SAMPLE5, ScalarMode.SYMBOLIC)
        assert Ft.substitutions == ()
        assert tuple(m.at_zero() for m in Ft.mu) == support.SAMPLE5_MU

    def test_interior_pivot_substitution(self):
        # mu_2 vanishes first, and alpha_2 = 0 is t, which gives mu_3 = 0
        # as well; both are substituted, then the alpha is logged
        Ft = factorize(support.PROPORTIONAL4, ScalarMode.SYMBOLIC)
        assert Ft.substitutions == (Substitution("pivot", 2), Substitution("pivot", 3),
                                    Substitution("alpha", 2))
        assert Ft.mu[1] == T and Ft.mu[2] == T

    def test_working_entries_read_as_integers(self):
        # C' holds c_2 t at the zero alpha_1, packed as c_2 2^B, and the
        # integers of the EXACT C' = C diag(c) elsewhere
        C = make_comrade(4, [F(1, 2), 2, 3, F(1, 3)], [0, F(3, 4), 5], [1, F(2, 5), 7],
                         [F(1, 6), 2])
        Ft = factorize(C, ScalarMode.SYMBOLIC)
        assert Ft.substitutions == (Substitution("alpha", 1),)
        scale, E = integer_scaled(C)
        S = Ft.matrix
        assert Ft.scale == scale
        assert S.alpha[0] == scale[1] << Ft.width
        assert S == replace(E, alpha=(S.alpha[0],) + E.alpha[1:])
        assert all(type(v) is int for name in ("beta", "alpha", "gamma", "a")
                   for v in getattr(S, name))
        # the entries are rationals: a RationalFunction has no integer ratio
        with pytest.raises(AttributeError, match="as_integer_ratio"):
            factorize(replace(C, alpha=(T,) + C.alpha[1:]), ScalarMode.SYMBOLIC)


class TestFactorizeFloat:
    def test_matches_exact(self):
        C = example33(8)
        exact = factorize(C, ScalarMode.EXACT)
        approx = factorize(C, ScalarMode.FLOAT)
        for m_f, m_q in zip(approx.mu, exact.mu):
            assert isinstance(m_f, float)
            assert math.isclose(m_f, float(m_q), rel_tol=1e-12)

    def test_zero_pivot_raises(self):
        with pytest.raises(ZeroPivotError):
            factorize(support.ZERO_PIVOT4, ScalarMode.FLOAT)


class TestReconstructLU:
    def test_exact_product(self):
        Ft = factorize(support.SAMPLE5, ScalarMode.EXACT)
        L, U = reconstruct_LU(Ft)
        assert L.matmul(U) == to_dense(support.SAMPLE5)
        n = L.n
        for i in range(n):
            assert L[i][i] == 1
            for j in range(n):
                if j > i:
                    assert L[i][j] == 0
                if j < i:
                    assert U[i][j] == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_product_random(self, seed):
        C = random_comrade(6, seed)
        try:
            Ft = factorize(C, ScalarMode.EXACT)
        except ZeroPivotError:
            return
        L, U = reconstruct_LU(Ft)
        assert L.matmul(U) == to_dense(C)

    def test_symbolic_product_is_bumped_matrix(self):
        # after the pivot substitution the factors describe C with +t on
        # the substituted diagonal entry, so LU == that matrix, not C
        C = support.ZERO_PIVOT4
        Ft = factorize(C, ScalarMode.SYMBOLIC)
        L, U = reconstruct_LU(Ft)
        product = L.matmul(U)
        D = to_dense(C)
        for i in range(4):
            for j in range(4):
                expected = RationalFunction(D[i][j])
                if i == j == 0:
                    expected = expected + T
                assert product[i][j] == expected

    @pytest.mark.parametrize("mode", list(ScalarMode))
    def test_pattern_and_product_over_zero_patterns(self, mode):
        # L is unit lower triangular, zero off the comrade pattern, and U
        # upper bidiagonal; L*U is perturbed(F) exactly, or in FLOAT up to
        # the backward error n u (|L| |U|) of Higham (2002), ch. 9, with
        # u = 2^-53 and the product L*U taken exactly
        factored = 0
        for n in range(3, 15):
            for pattern in support.ZERO_PATTERNS:
                for seed in range(3):
                    C = support.zero_patterned_comrade(n, pattern, seed)
                    try:
                        Ft = factorize(C, mode)
                    except ZeroPivotError:
                        continue
                    L, U = reconstruct_LU(Ft)
                    M = to_dense(perturbed(Ft))
                    for i in range(n):
                        assert L[i][i] == 1
                        for j in range(n):
                            if j > i or (j < i - 1 and i < n - 1):
                                assert L[i][j] == 0, (n, pattern, seed, i, j)
                            if j < i or j > i + 1:
                                assert U[i][j] == 0, (n, pattern, seed, i, j)
                    if mode is not ScalarMode.FLOAT:
                        assert L.matmul(U) == M, (n, pattern, seed)
                    else:
                        Lq, Uq = ([[*map(F, row)] for row in A.rows] for A in (L, U))
                        for i in range(n):
                            for j in range(n):
                                terms = [Lq[i][k] * Uq[k][j] for k in range(n)]
                                assert abs(sum(terms) - F(M[i][j])) <= \
                                    n * sum(map(abs, terms)) / 2 ** 53, (n, pattern, seed)
                    factored += 1
        assert factored                 # EXACT and FLOAT refuse most of these inputs


class TestPerturbed:
    def test_symbolic_bump(self):
        C = support.ZERO_PIVOT4
        Ft = factorize(C, ScalarMode.SYMBOLIC)
        M = perturbed(Ft)
        assert M.beta[0] == T
        assert M.beta[1:] == tuple(RationalFunction(v) for v in C.beta[1:])
        assert (M.alpha, M.gamma, M.a) == (C.alpha, C.gamma, C.a)

    def test_symbolic_alpha(self):
        # t at the zero alpha_1, and L*U is that matrix
        C = support.ALPHA_ZERO4
        Ft = factorize(C, ScalarMode.SYMBOLIC)
        M = perturbed(Ft)
        assert M.alpha == (T,) + C.alpha[1:]
        L, U = reconstruct_LU(Ft)
        assert L.matmul(U) == to_dense(M)

    def test_exact_no_bump(self):
        Ft = factorize(support.SAMPLE5, ScalarMode.EXACT)
        assert perturbed(Ft) == support.SAMPLE5

    @pytest.mark.parametrize("mode", list(ScalarMode))
    def test_matches_the_replayed_log(self, mode):
        # perturbed reads M(t) off the factors; here it is rebuilt from C
        # in the working scalars and the log: t at each logged alpha and
        # +t at each logged pivot
        factored = logged = 0
        for n in range(3, 15):
            for pattern in support.ZERO_PATTERNS:
                for seed in range(3):
                    C = support.zero_patterned_comrade(n, pattern, seed)
                    try:
                        Ft = factorize(C, mode)
                    except ZeroPivotError:
                        continue
                    beta, alpha, gamma, a = ([mode.scalar(v) for v in getattr(C, name)]
                                             for name in ("beta", "alpha", "gamma", "a"))
                    for kind, index in Ft.substitutions:
                        if kind == "pivot":
                            beta[index - 1] = beta[index - 1] + T
                        else:
                            alpha[index - 1] = T
                    M = ComradeMatrix(n, *map(tuple, (beta, alpha, gamma, a)))
                    assert perturbed(Ft) == M, (n, pattern, seed)
                    factored += 1
                    logged += len(Ft.substitutions)
        assert factored                 # EXACT and FLOAT refuse most of these inputs
        assert logged or mode is not ScalarMode.SYMBOLIC


class TestDeterminant:
    def test_sample5(self):
        assert determinant(support.SAMPLE5, ScalarMode.EXACT) == support.SAMPLE5_DET
        assert determinant(support.SAMPLE5, ScalarMode.SYMBOLIC) == support.SAMPLE5_DET

    def test_zero_pivot4_symbolic(self):
        assert determinant(support.ZERO_PIVOT4, ScalarMode.SYMBOLIC) == 24

    def test_pivot_product_reduces_to_polynomial(self):
        # the telescoping product of the symbolic pivots is -28t + 24,
        # a polynomial: the t in mu_1 cancels against later denominators
        Ft = factorize(support.ZERO_PIVOT4, ScalarMode.SYMBOLIC)
        product = Ft.mu[0]
        for m in Ft.mu[1:]:
            product = product * m
        assert product == RationalFunction(Polynomial((24, -28)))
        assert str(product) == "-28*t + 24"
        assert product.at_zero() == 24

    def test_singular_exact_is_zero(self):
        assert determinant(support.SINGULAR4, ScalarMode.EXACT) == 0
        assert determinant(support.SINGULAR4, ScalarMode.SYMBOLIC) == 0

    def test_proportional_rows_symbolic_is_zero(self):
        assert determinant(support.PROPORTIONAL4, ScalarMode.SYMBOLIC) == 0

    def test_float(self):
        d = determinant(example33(6), ScalarMode.FLOAT)
        exact = determinant(example33(6), ScalarMode.EXACT)
        assert isinstance(d, float)
        assert math.isclose(d, float(exact), rel_tol=1e-12)

    def test_float_overflow_raises(self):
        # 1e-300 * -inf * nan: the tiny leading pivot overflows the next one
        with pytest.raises(NonFiniteResultError) as info:
            determinant(support.TINY_PIVOT3, ScalarMode.FLOAT)
        assert str(info.value) == "float determinant is not finite; retry in exact mode"
        assert determinant(support.TINY_PIVOT3, ScalarMode.EXACT) == dense_det(
            to_dense(support.TINY_PIVOT3))

    @pytest.mark.parametrize("compute", [determinant, invert])
    @pytest.mark.parametrize("C, name", [
        (make_comrade(3, (10**400, 1, 1), (1, 1), (1, 1), (1,)), "beta_1"),
        # 10**400/(10**400 + 1) is in range; gamma_3 and gamma_4 are not
        (make_comrade(4, (2, F(10**400, 10**400 + 1), 3, 4), (1, 1, 1),
                      (1, F(-10**400, 3), 10**309), (1, 1)), "gamma_3"),
        (make_comrade(4, (2, 3, 4, 5), (1, 1, 1), (1, 1, 1), (1, -2**1024)), "a_4"),
    ], ids=["beta", "gamma", "a"])
    def test_float_entry_beyond_range_is_named(self, compute, C, name):
        with pytest.raises(NonFiniteResultError) as info:
            compute(C, ScalarMode.FLOAT)
        assert str(info.value) == f"float entry {name} is not finite; retry in exact mode"
        assert determinant(C, ScalarMode.EXACT) == dense_det(to_dense(C))

    @pytest.mark.parametrize("seed", range(8))
    def test_mode_consistency_random(self, seed):
        C = random_comrade(5, seed)
        sym = determinant(C, ScalarMode.SYMBOLIC)
        try:
            assert determinant(C, ScalarMode.EXACT) == sym
        except ZeroPivotError:
            pass  # exact mode may refuse; symbolic value still checked below
        assert sym == dense_det(to_dense(C))


def cost_cases(pinned):
    """(n, mode) for every mode; the cases of the mode a test first
    pinned keep their original ids."""
    return [pytest.param(n, mode, id=str(n) if mode is pinned else f"{n}-{mode.value}")
            for mode in ScalarMode for n in (3, 5, 10, 37)]


class TestOpCounts:
    @pytest.mark.parametrize("n, mode", cost_cases(ScalarMode.EXACT))
    def test_factorize_cost(self, n, mode):
        ops = OpCounter()
        factorize(example33(n), mode, ops)
        assert ops.count == 6 * n - 9

    @pytest.mark.parametrize("n, mode", cost_cases(ScalarMode.FLOAT))
    def test_determinant_cost(self, n, mode):
        ops = OpCounter()
        determinant(example33(n), mode, ops)
        assert ops.count == 7 * n - 10

    def test_cost_is_mode_independent(self):
        a, b = OpCounter(), OpCounter()
        determinant(support.SAMPLE5, ScalarMode.EXACT, a)
        determinant(support.SAMPLE5, ScalarMode.SYMBOLIC, b)
        assert a.count == b.count == 7 * 5 - 10


def first_zero_pivot(n, i):
    """C with mu_1 .. mu_{i-1} = 1 and mu_i = 0, exact in binary64:
    beta = alpha = 1 (beta_1 = 0 when i = 1), gamma_k = 0 except
    gamma_i = 1, and a zero last row."""
    beta = [0 if i == 1 else 1] + [1] * (n - 1)
    gamma = [int(k == i) for k in range(2, n + 1)]
    return make_comrade(n, beta, [1] * (n - 1), gamma, [0] * (n - 2))


ZERO_PIVOT_CASES = [pytest.param(n, i, id=f"{n}-{i}") for n in (3, 5, 8) for i in range(1, n)]


class TestZeroPivotRefusal:
    """One rule in every mode: EXACT and FLOAT refuse the first zero pivot
    mu_i, i < n, after tallying the 6i - 11 operations before it, and
    SYMBOLIC puts t there and tallies the whole 6n - 9."""

    @pytest.mark.parametrize("n, i", ZERO_PIVOT_CASES)
    @pytest.mark.parametrize("mode", [ScalarMode.EXACT, ScalarMode.FLOAT], ids=lambda m: m.value)
    @pytest.mark.parametrize("compute", [factorize, determinant], ids=lambda f: f.__name__)
    def test_refused_with_the_partial_tally(self, compute, mode, n, i):
        ops = OpCounter()
        with pytest.raises(ZeroPivotError) as info:
            compute(first_zero_pivot(n, i), mode, ops)
        assert (info.value.index, info.value.what) == (i, "pivot")
        assert ops.count == max(6 * i - 11, 0)

    @pytest.mark.parametrize("n, i", ZERO_PIVOT_CASES)
    def test_symbolic_logs_the_pivot_and_tallies_in_full(self, n, i):
        ops = OpCounter()
        Ft = factorize(first_zero_pivot(n, i), ScalarMode.SYMBOLIC, ops)
        assert Ft.substitutions == (Substitution("pivot", i),)
        assert ops.count == 6 * n - 9

    @pytest.mark.parametrize("C, mode", [
        *((example33(6), mode) for mode in ScalarMode),
        *((first_zero_pivot(n, i), ScalarMode.SYMBOLIC) for n, i in [(3, 1), (5, 3), (8, 7)]),
    ])
    def test_the_counter_does_not_change_the_factors(self, C, mode):
        runs = [factorize(C, mode), factorize(C, mode, None), factorize(C, mode, OpCounter())]
        assert len({(Ft.mu, Ft.x, Ft.substitutions) for Ft in runs}) == 1


def fraction_recurrences(C):
    """(mu, x) of the EXACT pivot and last-row recurrences run directly
    on Fractions; raises ZeroPivotError at a zero pivot before mu_n."""
    n = C.n
    beta, alpha, gamma, a = C.beta, C.alpha, C.gamma, C.a

    def pivot(i0, value):
        if value == 0 and i0 < n - 1:
            raise ZeroPivotError(i0 + 1)
        return value

    mu, x = [pivot(0, beta[0])], [a[-1] / beta[0]]
    for i0 in range(1, n - 1):
        mu.append(pivot(i0, beta[i0] - alpha[i0 - 1] / mu[i0 - 1] * gamma[i0 - 1]))
        e = a[n - 3 - i0] if i0 <= n - 3 else gamma[n - 2]
        x.append((e - alpha[i0 - 1] * x[i0 - 1]) / mu[i0])
    mu.append(beta[n - 1] - alpha[n - 2] * x[n - 2])
    return tuple(mu), tuple(x)


def last_row_expansion(C):
    """det C expanded along the last row.  The (n, j) minor is block
    triangular: the leading (j-1) x (j-1) continuant times alpha_j ..
    alpha_{n-1}.  Runs on integers, each row scaled by the lcm r_i of
    its denominators, and divides by r_1 .. r_n once at the end."""
    n = C.n
    last = (*reversed(C.a), C.gamma[-1], C.beta[-1])
    rows = [(C.beta[i0], C.alpha[i0], *C.gamma[i0 - 1:i0]) for i0 in range(n - 1)] + [last]
    r = [math.lcm(*(v.denominator for v in row)) for row in rows]
    z = lambda v, i0: v.numerator * (r[i0] // v.denominator)
    minors = [1, z(C.beta[0], 0)]
    for i0 in range(1, n - 1):
        minors.append(z(C.beta[i0], i0) * minors[-1]
                      - z(C.alpha[i0 - 1], i0 - 1) * z(C.gamma[i0 - 1], i0) * minors[-2])
    det, alphas = 0, 1
    for j0 in range(n - 1, -1, -1):
        det += (-1) ** (n - 1 + j0) * z(last[j0], n - 1) * minors[j0] * alphas
        if j0:
            alphas *= z(C.alpha[j0 - 1], j0 - 1)
    return F(det, math.prod(r))


def band_comrade(n, seed):
    """Seeded matrix with entries +-p/q, q <= 9, whose band rows are
    strictly diagonally dominant, so every pivot before mu_n is nonzero."""
    rng = random.Random(f"band:{n}:{seed}")
    sign = lambda: rng.choice((-1, 1))
    small = lambda: F(sign() * rng.randint(1, 4), rng.randint(5, 9))
    beta = [F(sign() * rng.randint(19, 36), rng.randint(1, 9)) for _ in range(n)]
    return make_comrade(n, beta, *([small() for _ in range(k)] for k in (n - 1, n - 1, n - 2)))


class TestIntegerContinuants:
    """EXACT factorize and the EXACT and SYMBOLIC determinant run integer
    continuants.  They must give the Fractions of the recurrences on
    Fractions, the same ZeroPivotError, and the dense determinant."""

    @staticmethod
    def check(C):
        det = dense_det(to_dense(C))
        assert determinant(C, ScalarMode.SYMBOLIC) == det
        try:
            mu, x = fraction_recurrences(C)
        except ZeroPivotError as want:
            with pytest.raises(ZeroPivotError) as info:
                factorize(C, ScalarMode.EXACT)
            assert (info.value.index, str(info.value)) == (want.index, str(want))
            return "zero pivot"
        Ft = factorize(C, ScalarMode.EXACT)
        assert (Ft.mu, Ft.x, Ft.substitutions) == (mu, x, ())
        assert determinant(C, ScalarMode.EXACT) == det
        return "singular" if det == 0 else "regular"

    @pytest.mark.parametrize("n", range(3, 15))
    @pytest.mark.parametrize("pattern", support.ZERO_PATTERNS)
    def test_zero_patterns(self, n, pattern):
        for seed in range(3):
            self.check(support.zero_patterned_comrade(n, pattern, seed))

    def test_draws_cover_every_outcome(self):
        outcomes = {self.check(support.zero_patterned_comrade(n, pattern, seed))
                    for n in range(3, 15) for pattern in support.ZERO_PATTERNS
                    for seed in range(3)}
        outcomes |= {self.check(C) for C in (support.SINGULAR4, support.SAMPLE5)}
        assert outcomes == {"zero pivot", "singular", "regular"}

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 33])
    def test_example33(self, n):
        assert self.check(example33(n)) == "regular"

    @pytest.mark.parametrize("seed", range(4))
    def test_last_row_expansion_matches_dense(self, seed):
        for n in (3, 4, 7):
            C = random_comrade(n, seed, zero_pivot_bias=0.5)
            assert last_row_expansion(C) == dense_det(to_dense(C))

    @pytest.mark.parametrize("C", [example33(2000), band_comrade(1500, 0)],
                             ids=["example33-2000", "band-1500"])
    def test_large_n(self, C):
        det = last_row_expansion(C)
        assert det != 0
        assert determinant(C, ScalarMode.EXACT) == det
        assert determinant(C, ScalarMode.SYMBOLIC) == det


def test_exact_factors_keep_one_last_row_term(monkeypatch):
    """The big-integer working set of the continuants is their D list:
    the traced peak of ``continuants`` stays within 1.10 times the bytes
    of the D it returns, so it holds no X list and no sequence of the n
    entries it reads beside D, and no factors that ``invert`` or
    ``determinant`` build derive their X."""
    S = integer_scaled(band_comrade(600, 0))[1]
    tracemalloc.start()
    try:
        D = continuants(S)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.10 * sum(map(sys.getsizeof, D))
    built, init = [], _ContinuantFactors.__init__
    monkeypatch.setattr(_ContinuantFactors, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    invert(band_comrade(40, 1), ScalarMode.EXACT)
    determinant(band_comrade(600, 0), ScalarMode.EXACT)
    invert(support.ZERO_PIVOT4, ScalarMode.SYMBOLIC)    # a pivot-only log: F and F.unperturbed()
    assert len(built) == 4
    assert not any("X" in factors.__dict__ for factors in built)


FAMILIES = ("beta", "alpha", "gamma", "a")


def mixed_types(C):
    """C built directly as a ComradeMatrix, each entry held as the first
    of bool, int and binary64 float that holds it exactly, else as the
    Fraction it is."""
    def entry(v):
        if v in (0, 1):
            return bool(v)
        if v.denominator == 1:
            return int(v)
        if v.denominator & (v.denominator - 1) == 0:    # a power of two
            return float(v)
        return v
    return ComradeMatrix(C.n, *(tuple(map(entry, getattr(C, name))) for name in FAMILIES))


MIXED5 = ComradeMatrix(5, (F(1, 2), 3, True, 0.25, F(-7, 3)), (2, 0.5, F(5, 6), -1.5),
                       (True, F(2, 5), False, 0.1), (F(1, 6), -2 ** 70, 1e20))
MIXED_BANDS = [mixed_types(band_comrade(n, seed)) for n, seed in ((3, 0), (8, 1), (40, 2))]


class TestMixedEntryTypes:
    """EXACT factors read each entry through ``as_integer_ratio`` and
    build each family of C' from those ratios, so a ComradeMatrix built
    directly from ints, bools, binary64 floats and Fractions scales,
    factors and has the determinant of the all-Fraction matrix of the
    same values (0.1 as the binary64 value it is)."""

    def test_every_type_is_present(self):
        kinds = lambda C: {type(v) for name in FAMILIES for v in getattr(C, name)}
        assert kinds(MIXED5) == {bool, int, float, F}
        assert set().union(*map(kinds, MIXED_BANDS)) == {int, float, F}

    @pytest.mark.parametrize("C", [MIXED5, *MIXED_BANDS], ids=["n5", "band3", "band8", "band40"])
    def test_as_the_fraction_matrix(self, C):
        ref = make_comrade(C.n, C.beta, C.alpha, C.gamma, C.a)
        scale, S = integer_scaled(C)
        assert (scale, S) == integer_scaled(ref)
        assert all(type(v) is int for name in FAMILIES for v in getattr(S, name))
        got, want = factorize(C, ScalarMode.EXACT), factorize(ref, ScalarMode.EXACT)
        assert (got.scale, got.mu, got.x) == (want.scale, want.mu, want.x)
        det = determinant(C, ScalarMode.EXACT)
        assert type(det) is F and det == dense_det(to_dense(ref)) != 0


@pytest.mark.parametrize("xs", [[], [7], [2 ** 65 + 3], [1, 1], [1, 1, 1], [3, 2 ** 64 + 1, 1, 5],
                                [2 ** 64 - 1, 1, 3 ** 41, 2 ** 70 + 1, 9]],
                         ids=["empty", "one", "one-past-2^64", "ones-even", "ones-odd",
                              "even", "odd"])
def test_pairwise_product_is_math_prod(xs):
    before = list(xs)
    assert _pairwise_product(xs) == math.prod(xs)
    assert xs == before


def packing_bound(C, t_term=True, bump_term=True):
    """The bound on the coefficients of the packed SYMBOLIC continuants,
    recomputed from the dense rows of C' = C diag(c): each row's sum of
    |entries|, plus c_{j+1} on row j for a zero alpha_j, j <= n - 2 (the
    t it becomes), plus c_i on row i (the bump a zero D_i gets)."""
    scale, S = integer_scaled(C)
    n, bound = C.n, 1
    for i0, row in enumerate(to_dense(S).rows):
        total = int(sum(map(abs, row)))
        if t_term and i0 < n - 2 and S.alpha[i0] == 0:
            total += scale[i0 + 1]
        if bump_term:
            total += scale[i0]
        bound *= total
    return bound


def polynomial_continuants(C):
    """([D_0, .., D_n], [X_1, .., X_{n-1}]) of the module docstring over
    Z[t], as Polynomials: C' = M(t) diag(c) has c_{j+1} t at each zero
    alpha_j, j <= n - 2, and a zero D_i becomes c_i t D_{i-1}."""
    scale, S = integer_scaled(C)
    n, beta, gamma = C.n, S.beta, S.gamma
    alpha = [POLY_T * scale[j0 + 1] if j0 < n - 2 and v == 0 else v
             for j0, v in enumerate(S.alpha)]
    e = (*reversed(S.a), gamma[-1])                 # a'_n .. a'_3, gamma'_n
    D, X = [Polynomial((1,))], []
    for i0 in range(n):
        if i0 == 0:
            d = beta[0] * D[0]
        elif i0 < n - 1:
            d = beta[i0] * D[-1] - alpha[i0 - 1] * gamma[i0 - 1] * D[-2]
        else:
            d = beta[i0] * D[-1] - alpha[i0 - 1] * X[-1]
        if d.is_zero:
            d = POLY_T * scale[i0] * D[-1]
        if i0 < n - 1:
            X.append(e[0] * D[-1] if i0 == 0 else e[i0] * D[-1] - alpha[i0 - 1] * X[-1])
        D.append(d)
    return D, X


class TestPackingWidth:
    """SYMBOLIC factors pack each polynomial p(t) as p(2^width), with the
    width the bit length of the coefficient bound plus a sign bit.  The
    width is pinned to that bound, and every packed D_i and X_i must read
    back as the continuant computed over Z[t]."""

    DRAWS = [(n, pattern, seed) for n in range(3, 15)
             for pattern in support.ZERO_PATTERNS for seed in range(5)]

    @pytest.mark.parametrize("n", range(3, 15))
    def test_width_and_digits(self, n):
        for draw in self.DRAWS:
            if draw[0] != n:
                continue
            C = support.zero_patterned_comrade(*draw)
            Ft = factorize(C, ScalarMode.SYMBOLIC)
            assert Ft.width == packing_bound(C).bit_length() + 1
            D, X = polynomial_continuants(C)
            unpack = lambda v: Polynomial(_unpack(v, Ft.width))
            assert [*map(unpack, Ft.D)] == D
            assert [*map(unpack, Ft.X)] == X

    def test_each_term_of_the_bound_changes_some_width(self):
        """Without the t term or without the bump term the width would be
        smaller on some of the draws, so the test above pins both."""
        shorter = {"t": 0, "bump": 0}
        for draw in self.DRAWS:
            C = support.zero_patterned_comrade(*draw)
            width = packing_bound(C).bit_length()
            shorter["t"] += packing_bound(C, t_term=False).bit_length() < width
            shorter["bump"] += packing_bound(C, bump_term=False).bit_length() < width
        assert shorter["t"] > 0 and shorter["bump"] > 0
