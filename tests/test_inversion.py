import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import support
from comrade import factorization, scalars
from comrade import (DenseMatrix, NonFiniteResultError, OpCounter, Polynomial,
                     RationalFunction, ScalarMode, SingularMatrixError,
                     Substitution, ZeroPivotError,
                     comrade_times_dense, dense_det, dense_invert,
                     dense_times_comrade, determinant, example33, factorize,
                     invert, last_two_columns, make_comrade, random_comrade,
                     remaining_columns, to_dense)
from comrade.factorization import perturbed
from comrade.inversion import lu_columns


def two_sided_identity(C, S):
    I = DenseMatrix.identity(C.n)
    return comrade_times_dense(C, S) == I and dense_times_comrade(S, C) == I


class TestInvertFixtures:
    def test_sample5_exact(self):
        res = invert(support.SAMPLE5, ScalarMode.EXACT)
        assert res.inverse.rows == support.SAMPLE5_INVERSE
        assert res.determinant == support.SAMPLE5_DET
        assert res.substitutions == ()
        assert res.op_count == 7 * 25 - 5 * 5 - 11
        assert all(isinstance(v, F) for row in res.inverse.rows for v in row)
        assert two_sided_identity(support.SAMPLE5, res.inverse)

    def test_sample5_symbolic_agrees(self):
        res = invert(support.SAMPLE5, ScalarMode.SYMBOLIC)
        assert res.inverse.rows == support.SAMPLE5_INVERSE
        assert res.substitutions == ()

    def test_zero_pivot4_symbolic(self):
        res = invert(support.ZERO_PIVOT4, ScalarMode.SYMBOLIC)
        assert res.inverse.rows == support.ZERO_PIVOT4_INVERSE
        assert res.determinant == 24
        assert res.substitutions == (Substitution("pivot", 1),)
        assert res.op_count == 7 * 16 - 5 * 4 - 11
        assert two_sided_identity(support.ZERO_PIVOT4, res.inverse)

    @pytest.mark.parametrize("mode", [ScalarMode.EXACT, ScalarMode.FLOAT])
    def test_zero_pivot4_other_modes_refuse(self, mode):
        with pytest.raises(ZeroPivotError) as info:
            invert(support.ZERO_PIVOT4, mode)
        assert info.value.index == 1

    def test_identity_embedding(self):
        res = invert(support.IDENTITY3, ScalarMode.SYMBOLIC)
        assert res.inverse == DenseMatrix.identity(3)
        assert res.determinant == 1
        assert res.substitutions == (Substitution("alpha", 1),)

    @pytest.mark.parametrize("C, mode", [
        (example33(6), ScalarMode.EXACT), (example33(6), ScalarMode.SYMBOLIC),
        (support.ZERO_PIVOT4, ScalarMode.SYMBOLIC), (support.ALPHA_ZERO4, ScalarMode.SYMBOLIC),
    ], ids=["example33-exact", "example33-symbolic", "pivot-rescue", "alpha-rescue"])
    def test_factors_are_built_once(self, C, mode, monkeypatch):
        # the column recursion reads C' and D_n off the factors of factorize
        calls = []
        for name in ("integer_scaled", "continuants"):
            fn = getattr(factorization, name)
            monkeypatch.setattr(factorization, name, lambda *args, fn=fn, name=name:
                                calls.append(name) or fn(*args))
        invert(C, mode)
        assert sorted(calls) == ["continuants", "integer_scaled"]


class TestSymbolicColumns:
    """The unevaluated rational-function entries behind the 4x4 fixture."""

    def _working(self):
        C = support.ZERO_PIVOT4
        return factorize(C, ScalarMode.SYMBOLIC), C

    def test_last_two_columns_entries(self):
        Ft, C = self._working()
        col_n, col_n1 = last_two_columns(Ft)
        den = Polynomial((-12, 14))                       # 2(7t - 6)
        assert col_n[3] == RationalFunction(Polynomial((1, 8)), den)
        assert col_n[2] == RationalFunction(Polynomial((-2, -1)), den)
        assert [c.at_zero() for c in col_n] == [F(-5, 12), 0, F(1, 6), F(-1, 12)]
        # (1, n-1) entry: -15/(28t - 24), the source of the 5/8 in the
        # evaluated inverse
        assert col_n1[0] == RationalFunction(Polynomial((-15,)),
                                             Polynomial((-24, 28)))
        assert col_n1[0].at_zero() == F(5, 8)

    def test_last_two_columns_read_the_bumped_last_pivot(self):
        # SINGULAR4's only substitution is its last pivot, and column n-1
        # must read beta_4 + t, not beta_4: the columns are those of the
        # inverse of M(t), here at t = 2/7
        C = support.SINGULAR4
        Ft = factorize(C, ScalarMode.SYMBOLIC)
        assert Ft.substitutions == (Substitution("pivot", 4),)
        col_n, col_n1 = last_two_columns(Ft)
        t, M = F(2, 7), perturbed(Ft)
        dense = dense_invert(to_dense(make_comrade(
            4, *([at(v, t) for v in getattr(M, name)] for name in ("beta", "alpha", "gamma", "a")))))
        assert [at(v, t) for v in col_n] == [row[3] for row in dense.rows]
        assert [at(v, t) for v in col_n1] == [row[2] for row in dense.rows]
        assert tuple(map(str, col_n)) == support.SINGULAR4_COL_N_STRS
        assert tuple(map(str, col_n1)) == support.SINGULAR4_COL_N1_STRS

    def test_remaining_columns_entries(self):
        Ft, _ = self._working()
        cols = remaining_columns(Ft)
        col2, col1 = cols                                 # n-2 first, then 1
        assert col1[0] == RationalFunction(Polynomial((7,)), Polynomial((-6, 7)))
        assert [c.at_zero() for c in col1] == [F(-7, 6), 1, F(2, 3), F(-11, 6)]
        assert [c.at_zero() for c in col2] == [F(7, 24), 0, F(1, 12), F(-1, 24)]


class TestDegenerateHandling:
    @pytest.mark.parametrize("mode", list(ScalarMode))
    def test_singular_raises(self, mode):
        with pytest.raises(SingularMatrixError) as info:
            invert(support.SINGULAR4, mode)
        assert str(info.value) == "matrix is singular"

    @pytest.mark.parametrize("mode", [ScalarMode.EXACT, ScalarMode.FLOAT])
    def test_singular_phase_calls_raise(self, mode):
        # the last pivot is zero: the phases that divide by mu_n or D_n
        # refuse as invert does; the tally is what ran before the division
        C = support.SINGULAR4
        factors = factorize(C, mode)
        for phase, count in ((last_two_columns, 0), (lu_columns, C.n - 2)):
            ops = OpCounter()
            with pytest.raises(SingularMatrixError, match="matrix is singular"):
                phase(factors, ops)
            assert ops.count == count

    def test_singular_symbolic_finalized_columns_raise(self):
        # D(t) != 0, so the columns exist as rational functions, but at
        # t = 0 the finalized ones would divide by D(0) = 0
        C = support.SINGULAR4
        Ft = factorize(C, ScalarMode.SYMBOLIC)
        assert len(remaining_columns(Ft)) == C.n - 2
        with pytest.raises(SingularMatrixError, match="matrix is singular"):
            remaining_columns(Ft, finalize=True)

    def test_singular_found_after_substitution(self):
        # the zero pivot is substituted first; singularity emerges from
        # the reduced determinant, not from a zero mu
        with pytest.raises(SingularMatrixError):
            invert(support.PROPORTIONAL4, ScalarMode.SYMBOLIC)

    def test_alpha_zero_exact_refuses(self):
        with pytest.raises(ZeroPivotError) as info:
            invert(support.ALPHA_ZERO4, ScalarMode.EXACT)
        assert info.value.index == 1
        assert str(info.value) == "zero alpha at index 1; retry in symbolic mode"
        with pytest.raises(ZeroPivotError):
            invert(support.ALPHA_ZERO4, ScalarMode.FLOAT)

    def test_alpha_zero_symbolic_succeeds(self):
        res = invert(support.ALPHA_ZERO4, ScalarMode.SYMBOLIC)
        assert res.substitutions == (Substitution("alpha", 1),)
        assert res.determinant == support.ALPHA_ZERO4_DET
        assert res.inverse == dense_invert(to_dense(support.ALPHA_ZERO4))

    def test_last_alpha_zero_needs_no_substitution(self):
        # nothing divides by alpha_{n-1}; exact mode must handle it
        C = make_comrade(4, (2, 3, 4, 5), (1, 1, 0), (1, 1, 1), (1, 1))
        res = invert(C, ScalarMode.EXACT)
        assert res.substitutions == ()
        assert res.inverse == dense_invert(to_dense(C))

    @pytest.mark.parametrize("C", [example33(5), support.SAMPLE5, support.ALPHA_ZERO4],
                             ids=["example33(5)", "SAMPLE5", "ALPHA_ZERO4"])
    def test_remaining_columns_of_float_are_lu_columns(self, C):
        # FLOAT solves columns n-2..1 from the LU factors, which never
        # divide by alpha: a zero one is refused by invert, not here
        Ff = factorize(C, ScalarMode.FLOAT)
        ops, lu_ops = OpCounter(), OpCounter()
        assert remaining_columns(Ff, ops) == lu_columns(Ff, lu_ops)[::-1]
        assert remaining_columns(Ff, finalize=True) == lu_columns(Ff)[::-1]
        assert ops.count == lu_ops.count

    def test_remaining_columns_refuses_zero_alpha_exact(self):
        # the recursion divides by alpha_2 and alpha_3: the lowest zero one
        # is refused, as invert refuses it, before anything is tallied
        C = make_comrade(5, (1, 2, 3, 4, 5), (1, 0, 0, 1), (1, 1, 1, 1), (1, 1, 1))
        Fx = factorize(C, ScalarMode.EXACT)
        ops = OpCounter()
        with pytest.raises(ZeroPivotError) as info:
            remaining_columns(Fx, ops)
        assert (info.value.index, info.value.what, ops.count) == (2, "alpha", 0)
        assert str(info.value) == "zero alpha at index 2; retry in symbolic mode"
        with pytest.raises(ZeroPivotError) as info:
            invert(C, ScalarMode.EXACT)
        assert (info.value.index, info.value.what) == (2, "alpha")

    def test_remaining_columns_reads_t_at_zero_alpha_symbolic(self):
        # SYMBOLIC factors hold t at the zero alpha, so the recursion
        # divides by it and meets no refusal
        C = support.ALPHA_ZERO4
        Ft = factorize(C, ScalarMode.SYMBOLIC)
        assert Ft.substitutions == (Substitution("alpha", 1),)
        col2, col1 = remaining_columns(Ft, finalize=True)
        dense = dense_invert(to_dense(C))
        assert col2 == [row[1] for row in dense.rows]
        assert col1 == [row[0] for row in dense.rows]

    def test_float_pivot_product_underflow_is_not_singular(self):
        # every pivot is nonzero, so the columns divide by nothing zero;
        # only their product, the determinant, underflows
        C = support.UNDERFLOW3
        res = invert(C, ScalarMode.FLOAT)
        exact = invert(C, ScalarMode.EXACT)
        assert res.determinant == 0.0 and exact.determinant == F(1, 10**600)
        assert res.inverse == exact.inverse.as_floats()
        assert res.inverse[0][0] == 1e200


class TestInvertProperties:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("bias", [0.0, 1.0])
    def test_matches_oracle(self, n, bias):
        for seed in range(12):
            C = random_comrade(n, seed, bias)
            D = to_dense(C)
            if dense_det(D) == 0:
                with pytest.raises(SingularMatrixError):
                    invert(C, ScalarMode.SYMBOLIC)
                continue
            res = invert(C, ScalarMode.SYMBOLIC)
            assert res.inverse == dense_invert(D)
            assert two_sided_identity(C, res.inverse)
            assert res.determinant == determinant(C, ScalarMode.SYMBOLIC)

    def test_tridiagonal_special_case(self):
        C = make_comrade(5, (5, 4, 3, 2, 6), (1, 1, 1, 1), (1, 1, 1, 1),
                         (0, 0, 0))
        res = invert(C, ScalarMode.EXACT)
        assert res.inverse == dense_invert(to_dense(C))

    def test_float_mode_small_n(self):
        C = example33(6)
        approx = invert(C, ScalarMode.FLOAT)
        exact = dense_invert(to_dense(C)).as_floats()
        assert (exact - approx.inverse).inf_norm() < 1e-12
        assert all(isinstance(v, float)
                   for row in approx.inverse.rows for v in row)

    @pytest.mark.parametrize("n", [4, 5, 9])
    def test_op_count(self, n):
        # the paper's count on the column recursion; FLOAT solves columns
        # 1..n-2 from the LU factors instead (closed form in invert)
        res = invert(example33(n), ScalarMode.EXACT)
        assert res.op_count == 7 * n * n - 5 * n - 11
        res = invert(example33(n), ScalarMode.FLOAT)
        assert res.op_count == 4 * n * n + 2 * n - 9

    def test_float_matches_oracle_on_random_draws(self):
        checked = 0
        for n in range(3, 13):
            for seed in range(40):
                C = random_comrade(n, seed, 0.0)
                D = to_dense(C)
                if dense_det(D) == 0 or any(v == 0 for v in C.alpha[:n - 2]):
                    continue
                try:
                    factorize(C, ScalarMode.EXACT)
                except ZeroPivotError:
                    continue
                exact = dense_invert(D).as_floats()
                approx = invert(C, ScalarMode.FLOAT).inverse
                err = (exact - approx).inf_norm() / exact.inf_norm()
                assert err <= 1e-10, (n, seed, err)
                checked += 1
        assert checked >= 250

    def test_lu_columns_match_recursion_exactly(self):
        # SYMBOLIC entries compare as canonical forms, coefficient for
        # coefficient, not only as equal rational functions
        form = lambda v: (v.num.coeffs, v.den.coeffs) if isinstance(v, RationalFunction) else v
        factors = [factorize(C, ScalarMode.EXACT)
                   for C in (support.SAMPLE5, example33(7), random_comrade(6, 4, 0.0))]
        factors += [factorize(C, ScalarMode.SYMBOLIC)
                    for C in (support.ZERO_PIVOT4, support.ALPHA_ZERO4,
                              support.PROPORTIONAL4, support.IDENTITY3)]
        for Fx in factors:
            rest = remaining_columns(Fx)
            assert [[*map(form, col)] for col in lu_columns(Fx)] == \
                [[*map(form, col)] for col in reversed(rest)]

    def test_float_overflow_raises(self):
        C = support.TINY_PIVOT3
        with pytest.raises(NonFiniteResultError) as info:
            invert(C, ScalarMode.FLOAT)
        assert isinstance(info.value, ArithmeticError)
        assert "not finite" in str(info.value)
        exact = invert(C, ScalarMode.EXACT).inverse
        assert exact == dense_invert(to_dense(C))

    def test_float_determinant_overflow_raises(self):
        C = support.HUGE_DIAGONAL3
        with pytest.raises(NonFiniteResultError) as info:
            invert(C, ScalarMode.FLOAT)
        assert str(info.value) == "float determinant is not finite; retry in exact mode"
        assert invert(C, ScalarMode.EXACT).determinant == 10**600 - 2 * 10**200 + 1


#: Zero patterns and entry sizes the fraction-free EXACT recursion must
#: handle; "alpha_{n-1} = 0" sends its unit through column n-1.
PATTERNS = ("dense", "zero gammas", "zero a", "alpha_{n-1} = 0", "integers")


def over_seeds(test):
    return settings(max_examples=3, deadline=None, derandomize=True, database=None)(
        given(seed=st.integers(0, 2 ** 32 - 1))(test))


def patterned_comrade(n, pattern, seed):
    """Seeded matrix with entries +-p/q, p and q up to 10**6 (q = 1 for
    "integers"), with alpha_1 .. alpha_{n-2} and the diagonal nonzero."""
    rng = random.Random(f"pattern:{n}:{pattern}:{seed}")
    top = 1 if pattern == "integers" else 10 ** 6
    nonzero = lambda: F(rng.choice((-1, 1)) * rng.randint(1, 10 ** 6), rng.randint(1, top))
    entries = lambda count, zero: [F(0) if zero else nonzero() for _ in range(count)]
    alpha = entries(n - 1, False)
    if pattern == "alpha_{n-1} = 0":
        alpha[-1] = F(0)
    return make_comrade(n, entries(n, False), alpha,
                        entries(n - 1, pattern == "zero gammas"),
                        entries(n - 2, pattern == "zero a"))


class TestIntegerRecursion:
    """EXACT runs the column recursion on integer adjugate columns;
    SYMBOLIC runs the same loop on RationalFunctions, and the dense
    oracle shares no code with either."""

    @pytest.mark.parametrize("n", range(3, 15))
    @pytest.mark.parametrize("pattern", PATTERNS)
    @over_seeds
    def test_matches_oracle_and_symbolic(self, n, pattern, seed):
        C = patterned_comrade(n, pattern, seed)
        exact = invert(C, ScalarMode.EXACT)
        assert exact.inverse == dense_invert(to_dense(C))
        assert exact.op_count == 7 * n * n - 5 * n - 11
        symbolic = invert(C, ScalarMode.SYMBOLIC)
        assert symbolic.inverse == exact.inverse
        assert symbolic.determinant == exact.determinant
        assert symbolic.substitutions == ()


def rf_recursion(col_n, col_n1, work):
    """Columns n-2 .. 1 by the column recursion on RationalFunctions."""
    n, w = work.n, ScalarMode.SYMBOLIC.scalar
    beta, alpha, gamma, a = ([w(v) for v in getattr(work, name)]
                             for name in ("beta", "alpha", "gamma", "a"))
    cols, prev2, prev1 = [], col_n, col_n1
    for j in range(n - 2, 0, -1):
        b, g, al = -beta[j], -gamma[j], alpha[j - 1]
        f = -a[n - j - 3] if j < n - 2 else 0
        col = [(b * u + g * v + f * z) / al for u, v, z in zip(prev1, prev2, col_n)]
        col[j] = (1 + b * prev1[j] + g * prev2[j] + f * col_n[j]) / al
        cols.append(col)
        prev2, prev1 = prev1, col
    return cols


def symbolic_columns(C):
    """(M(t), columns 1 .. n of its inverse as RationalFunctions), from
    the SYMBOLIC factors of C."""
    Ft = factorize(C, ScalarMode.SYMBOLIC)
    col_n, col_n1 = last_two_columns(Ft)
    cols = remaining_columns(Ft)
    return perturbed(Ft), list(reversed(cols)) + [col_n1, col_n]


def at(v, t):
    """An entry of M(t) or of its inverse at the rational point t."""
    return v.num(t) / v.den(t) if isinstance(v, RationalFunction) else v


class TestPackedSymbolicRecursion:
    """SYMBOLIC runs the column recursion on integer polynomials packed
    into integers.  Its RationalFunction columns must be the inverse of
    the perturbed matrix M(t) at t = 0, where M(0) is the input, and at
    t = 2/7 (the dense oracle shares no code with them), and equal,
    canonical form for canonical form, those of the recursion on
    RationalFunctions."""

    @pytest.mark.parametrize("n", range(3, 15))
    @pytest.mark.parametrize("pattern", support.ZERO_PATTERNS)
    @over_seeds
    def test_matches_oracle(self, n, pattern, seed):
        C = support.zero_patterned_comrade(n, pattern, seed)
        if dense_det(to_dense(C)) == 0:
            with pytest.raises(SingularMatrixError):
                invert(C, ScalarMode.SYMBOLIC)
            return
        work, cols = symbolic_columns(C)
        assert work != C                              # something was substituted
        assert invert(C, ScalarMode.SYMBOLIC).substitutions == \
            factorize(C, ScalarMode.SYMBOLIC).substitutions
        for t in (F(0), F(2, 7)):
            M = make_comrade(n, *([at(v, t) for v in getattr(work, name)]
                                  for name in ("beta", "alpha", "gamma", "a")))
            assert [tuple(at(v, t) for v in col) for col in cols] == \
                list(zip(*dense_invert(to_dense(M)).rows))

    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("pattern", support.ZERO_PATTERNS)
    @over_seeds
    def test_matches_rf_recursion(self, n, pattern, seed):
        C = support.zero_patterned_comrade(n, pattern, seed)
        if dense_det(to_dense(C)) == 0:
            return
        work, cols = symbolic_columns(C)
        assert cols[:n - 2] == list(reversed(rf_recursion(cols[-1], cols[-2], work)))


#: Columns with tiny entries, so large scales c_i, next to a last row
#: with a small sum: c_i times a coefficient of adj(C') exceeds the bound
#: the packing width is taken from, although the coefficient does not.
LARGE_SCALES = (
    make_comrade(3, (0, F(-3, 5000), F(-1, 2500)), (F(-7, 10000), -5),
                 (F(1, 10000), F(-3, 10000)), (0,)),
    make_comrade(4, (0, 6, F(1, 1000), F(1, 125)), (1, F(1, 250), 7),
                 (F(1, 250), -6, F(3, 500)), (0, 0)),
)


@pytest.mark.parametrize("C", LARGE_SCALES, ids=["n3", "n4"])
def test_packed_digits_are_read_before_scaling(C):
    work, cols = symbolic_columns(C)
    assert work != C
    for t in (F(0), F(2, 7)):
        M = make_comrade(C.n, *([at(v, t) for v in getattr(work, name)]
                                for name in ("beta", "alpha", "gamma", "a")))
        assert [tuple(at(v, t) for v in col) for col in cols] == \
            list(zip(*dense_invert(to_dense(M)).rows))


class TestSymbolicInvert:
    """``invert`` in SYMBOLIC mode reads each entry of columns 1 .. n-2 at
    t = 0 off the packed adjugate, as the lowest balanced digit over D(0),
    and builds no RationalFunction for it."""

    @pytest.mark.parametrize("n", range(3, 15))
    @pytest.mark.parametrize("pattern", support.ZERO_PATTERNS)
    @over_seeds
    def test_matches_oracle(self, n, pattern, seed):
        C = support.zero_patterned_comrade(n, pattern, seed)
        D = to_dense(C)
        if dense_det(D) == 0:
            with pytest.raises(SingularMatrixError):
                invert(C, ScalarMode.SYMBOLIC)
            return
        res = invert(C, ScalarMode.SYMBOLIC)
        assert res.inverse == dense_invert(D)
        assert res.determinant == dense_det(D)
        assert res.substitutions
        assert res.op_count == 7 * n * n - 5 * n - 11

    @pytest.mark.parametrize("n", [12, 24])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_output_runs_no_gcd_per_entry(self, n, seed, monkeypatch):
        calls = []
        gcd = scalars.poly_gcd
        monkeypatch.setattr(scalars, "poly_gcd", lambda p, q: calls.append(1) or gcd(p, q))
        # the column recursion starts from integer columns: nothing is
        # evaluated at t = 2^B or at t = 0 as a polynomial
        evaluations = []
        at = Polynomial.__call__
        monkeypatch.setattr(Polynomial, "__call__",
                            lambda p, x: evaluations.append(1) or at(p, x))
        res = invert(random_comrade(n, seed, zero_pivot_bias=1.0), ScalarMode.SYMBOLIC)
        assert res.substitutions
        if any(kind == "alpha" for kind, _ in res.substitutions):
            assert 0 < len(calls) < n * n               # the canonical last two columns
        else:
            assert not calls                            # pivot-only: read at t = 0
        assert not evaluations

    def test_gcd_cases_have_both_kinds_of_log(self):
        # seed 0 draws a zero alpha, seed 1 only the zero pivot
        for n in (12, 24):
            kinds = [{kind for kind, _ in factorize(random_comrade(n, seed, zero_pivot_bias=1.0),
                                                    ScalarMode.SYMBOLIC).substitutions}
                     for seed in (0, 1)]
            assert kinds == [{"pivot", "alpha"}, {"pivot"}]


@pytest.mark.parametrize("n", range(3, 15))
@pytest.mark.parametrize("pattern", support.ZERO_PATTERNS)
def test_last_two_columns_at_zero_need_no_t(n, pattern):
    # columns n and n-1 of C^-1: the SYMBOLIC columns of M(t) at t = 0
    # are the EXACT columns of the t = 0 factors, alpha log entries and all
    for seed in range(5):
        C = support.zero_patterned_comrade(n, pattern, seed)
        if dense_det(to_dense(C)) == 0:
            continue
        F = factorize(C, ScalarMode.SYMBOLIC)
        assert last_two_columns(F.unperturbed()) == \
            tuple([v.at_zero() for v in col] for col in last_two_columns(F))


def pivot_only_draw(n, k):
    """The k-th draw of ``random_comrade(n, seed, zero_pivot_bias=1.0)``,
    seed = 0, 1, .., with alpha_1 .. alpha_{n-2} all nonzero: beta_1 = 0
    and no zero alpha, so its SYMBOLIC log holds only pivots."""
    draws = (random_comrade(n, seed, zero_pivot_bias=1.0) for seed in itertools.count())
    return next(itertools.islice((C for C in draws if 0 not in C.alpha[:n - 2]), k, None))


def last_row_terms(S, D):
    """[X_1, .., X_{n-1}] of the integer matrix S with leading minors D,
    indexed by the paper's subscripts: X_1 = a_n and
    X_i = a_{n-i+1} D_{i-1} - alpha_{i-1} X_{i-1}, gamma_n for i = n - 1."""
    n, X = S.n, []
    for i in range(1, n):
        e = S.a[n - i - 2] if i < n - 1 else S.gamma[n - 2]      # a_m is S.a[m - 3]
        X.append(e * D[i - 1] - (S.alpha[i - 2] * X[-1] if i > 1 else 0))
    return X


#: beta_1 = 0 and rows 3 and 4 equal, as in SINGULAR4: pivots 1 and 4
#: are substituted and no alpha is
SINGULAR_ZERO_PIVOT4 = make_comrade(4, (0, 3, 2, 2), (1, 1, 2), (1, 1, 2), (1, 0))


class TestPivotOnlySymbolicInvert:
    """A SYMBOLIC log with no alpha entry needs no t: the column recursion
    never divides by a pivot, so ``invert`` runs the EXACT pipeline on the
    factors of C'(0), ``unperturbed()`` of the packed ones."""

    @pytest.mark.parametrize("n", range(3, 25))
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("family", ["random", "pivots"])
    def test_matches_oracle_and_packed_path(self, n, seed, family):
        if family == "random":
            C = pivot_only_draw(n, seed)
        else:
            C = support.zero_patterned_comrade(n, "pivots", seed)
        self.check(C)

    def test_zero_pivot4(self):
        assert self.check(support.ZERO_PIVOT4).inverse.rows == support.ZERO_PIVOT4_INVERSE

    @staticmethod
    def check(C):
        """invert(C, SYMBOLIC) against the dense oracle and against the
        canonical columns of the packed factors, finalized."""
        F = factorize(C, ScalarMode.SYMBOLIC)
        assert F.substitutions
        assert all(kind == "pivot" for kind, _ in F.substitutions)
        D = to_dense(C)
        if dense_det(D) == 0:
            with pytest.raises(SingularMatrixError):
                invert(C, ScalarMode.SYMBOLIC)
            return None
        res = invert(C, ScalarMode.SYMBOLIC)
        assert res.inverse == dense_invert(D)
        assert res.determinant == dense_det(D)
        assert res.substitutions == F.substitutions
        assert res.op_count == 7 * C.n ** 2 - 5 * C.n - 11
        col_n, col_n1 = last_two_columns(F)
        finalize = ScalarMode.SYMBOLIC.finalize
        assert res.inverse.rows == tuple(zip(*reversed(remaining_columns(F, finalize=True)),
                                             map(finalize, col_n1), map(finalize, col_n)))
        return res

    @pytest.mark.parametrize("n", range(3, 15))
    @pytest.mark.parametrize("pattern", support.ZERO_PATTERNS)
    @pytest.mark.parametrize("seed", range(2))
    def test_unperturbed_factors_are_the_unbumped_continuants(self, n, pattern, seed):
        for C in (support.zero_patterned_comrade(n, pattern, seed), pivot_only_draw(n, seed)):
            Ft = factorize(C, ScalarMode.SYMBOLIC)
            F0 = Ft.unperturbed()
            scale, S = factorization.integer_scaled(C)
            D, X_last, _ = factorization.continuants(S)
            assert (F0.mode, F0.substitutions, F0.width) == (ScalarMode.EXACT, (), 0)
            assert (F0.scale, F0.matrix, F0.D, F0.X_last) == (scale, S, D, X_last)
            X = last_row_terms(S, D)
            assert F0.X == X and X[-1] == X_last
            assert Ft.X[-1] == Ft.X_last

    @pytest.mark.parametrize("C", [support.SAMPLE5, example33(6)], ids=["SAMPLE5", "example33(6)"])
    def test_unperturbed_exact_factors_are_themselves(self, C):
        # EXACT factors already are those of C'(0), with an empty log
        F = factorize(C, ScalarMode.EXACT)
        assert F.unperturbed() is F
        assert last_two_columns(F.unperturbed()) == last_two_columns(F)

    @pytest.mark.parametrize("C", [support.SINGULAR4, SINGULAR_ZERO_PIVOT4],
                             ids=["SINGULAR4", "SINGULAR_ZERO_PIVOT4"])
    def test_singular_input_raises(self, C):
        F = factorize(C, ScalarMode.SYMBOLIC)
        assert all(kind == "pivot" for kind, _ in F.substitutions)
        with pytest.raises(SingularMatrixError):
            invert(C, ScalarMode.SYMBOLIC)
        with pytest.raises(SingularMatrixError):   # D_n(0) = 0, in the t = 0 last two columns
            last_two_columns(F.unperturbed())


#: Entries from a small alphabet, zero weighted, so that zero pivots,
#: zero alphas and singular matrices turn up in every pattern.  FLOAT
#: draws add, about one entry in 13, one at or beyond binary64 range or
#: precision, so that most draws still reach the phases after the entries'
#: conversion.
SMALL_ALPHABET = (0, 0, 0, 1, -1, 2, -2, F(1, 3), F(-5, 2))
EXTREMES = (10 ** 300, -10 ** 300, F(1, 10 ** 300), 10 ** 400, F(1, 10 ** 400), 2 ** 1024)
FLOAT_ALPHABET = SMALL_ALPHABET * 8 + EXTREMES


@st.composite
def alphabet_comrade(draw, alphabet):
    n = draw(st.integers(3, 7))
    entries = lambda count: draw(st.lists(st.sampled_from(alphabet),
                                          min_size=count, max_size=count))
    return make_comrade(n, entries(n), entries(n - 1), entries(n - 1), entries(n - 2))


class TestSmallAlphabet:
    """Every mode against the dense oracle, or against its own named
    errors, on matrices whose zeros fall anywhere."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(C=alphabet_comrade(SMALL_ALPHABET))
    def test_exact_modes_match_the_oracle(self, C):
        D = to_dense(C)
        det = dense_det(D)
        assert determinant(C, ScalarMode.SYMBOLIC) == det
        if det == 0:
            with pytest.raises(SingularMatrixError):
                invert(C, ScalarMode.SYMBOLIC)
            return
        inverse, log = dense_invert(D), factorize(C, ScalarMode.SYMBOLIC).substitutions
        symbolic = invert(C, ScalarMode.SYMBOLIC)
        assert (symbolic.inverse, symbolic.determinant, symbolic.substitutions) == (
            inverse, det, log)
        if log:
            with pytest.raises(ZeroPivotError):
                invert(C, ScalarMode.EXACT)
        else:
            assert invert(C, ScalarMode.EXACT).inverse == inverse

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(C=alphabet_comrade(FLOAT_ALPHABET))
    def test_float_raises_only_named_errors(self, C):
        named = (ZeroPivotError, SingularMatrixError, NonFiniteResultError)
        for phase in (lambda: invert(C, ScalarMode.FLOAT),
                      lambda: determinant(C, ScalarMode.FLOAT)):
            try:
                phase()
            except named:
                pass
        try:
            factors = factorize(C, ScalarMode.FLOAT)
        except named:
            return
        for phase in (last_two_columns, remaining_columns):
            try:
                phase(factors)
            except named:
                pass


@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("mode, kind", [(ScalarMode.FLOAT, float), (ScalarMode.EXACT, F),
                                        (ScalarMode.SYMBOLIC, RationalFunction)])
def test_column_entries_have_the_working_type(n, mode, kind):
    """Every entry of every column phase is of the factors' working type,
    columns n and n - 1 included: the FLOAT solve of column n starts from
    the unit itself, so an int there would show.  A FLOAT inverse holds
    only floats."""
    C = example33(n)
    Ft = factorize(C, mode)
    columns = [*lu_columns(Ft), *last_two_columns(Ft), *remaining_columns(Ft)]
    assert len(columns) == 2 * n - 2
    assert {type(v) for col in columns for v in col} == {kind}
    if mode is ScalarMode.FLOAT:
        assert {type(v) for row in invert(C, mode).inverse.rows for v in row} == {float}
