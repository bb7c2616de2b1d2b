import math
from fractions import Fraction as F

import pytest

import support
from comrade import (NonFiniteResultError, OpCounter, Polynomial,
                     RationalFunction, ScalarMode, Substitution,
                     ZeroPivotError, dense_det, determinant,
                     example33, factorize, random_comrade, reconstruct_LU,
                     to_dense)
from comrade.factorization import bumped_beta
from comrade.scalars import POLY_T

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
        # mu_2 vanishes first; the matrix is singular, so mu_4 reduces to
        # the zero function as well and is substituted too
        Ft = factorize(support.PROPORTIONAL4, ScalarMode.SYMBOLIC)
        assert Ft.substitutions == (Substitution("pivot", 2),
                                    Substitution("pivot", 4))
        assert Ft.mu[1] == T and Ft.mu[3] == T


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
        L, U = reconstruct_LU(Ft, support.SAMPLE5)
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
        L, U = reconstruct_LU(Ft, C)
        assert L.matmul(U) == to_dense(C)

    def test_symbolic_product_is_bumped_matrix(self):
        # after the pivot substitution the factors describe C with +t on
        # the substituted diagonal entry, so LU == that matrix, not C
        C = support.ZERO_PIVOT4
        Ft = factorize(C, ScalarMode.SYMBOLIC)
        L, U = reconstruct_LU(Ft, C)
        product = L.matmul(U)
        D = to_dense(C)
        for i in range(4):
            for j in range(4):
                expected = RationalFunction(D[i][j])
                if i == j == 0:
                    expected = expected + T
                assert product[i][j] == expected


class TestBumpedBeta:
    def test_symbolic_bump(self):
        C = support.ZERO_PIVOT4
        Ft = factorize(C, ScalarMode.SYMBOLIC)
        bb = bumped_beta(Ft, C)
        assert bb[0] == T
        assert bb[1:] == tuple(RationalFunction(v) for v in C.beta[1:])

    def test_exact_no_bump(self):
        Ft = factorize(support.SAMPLE5, ScalarMode.EXACT)
        assert bumped_beta(Ft, support.SAMPLE5) == support.SAMPLE5.beta


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

    @pytest.mark.parametrize("seed", range(8))
    def test_mode_consistency_random(self, seed):
        C = random_comrade(5, seed)
        sym = determinant(C, ScalarMode.SYMBOLIC)
        try:
            assert determinant(C, ScalarMode.EXACT) == sym
        except ZeroPivotError:
            pass  # exact mode may refuse; symbolic value still checked below
        assert sym == dense_det(to_dense(C))


class TestOpCounts:
    @pytest.mark.parametrize("n", [3, 5, 10, 37])
    def test_factorize_cost(self, n):
        ops = OpCounter()
        factorize(example33(n), ScalarMode.EXACT, ops)
        assert ops.count == 6 * n - 9

    @pytest.mark.parametrize("n", [3, 5, 10, 37])
    def test_determinant_cost(self, n):
        ops = OpCounter()
        determinant(example33(n), ScalarMode.FLOAT, ops)
        assert ops.count == 7 * n - 10

    def test_cost_is_mode_independent(self):
        a, b = OpCounter(), OpCounter()
        determinant(support.SAMPLE5, ScalarMode.EXACT, a)
        determinant(support.SAMPLE5, ScalarMode.SYMBOLIC, b)
        assert a.count == b.count == 7 * 5 - 10
