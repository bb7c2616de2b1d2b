import random
from fractions import Fraction as F

import pytest

import support
from comrade import (ComradeMatrix, DenseMatrix, comrade_times_dense,
                     dense_times_comrade, example33, make_comrade,
                     random_comrade, to_dense)


class TestComradeMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_comrade(2, (1, 1), (1,), (1,), ())
        with pytest.raises(ValueError):
            make_comrade(3, (1, 1), (0, 0), (0, 0), (0,))      # beta short
        with pytest.raises(ValueError):
            make_comrade(3, (1, 1, 1), (0,), (0, 0), (0,))     # alpha short
        with pytest.raises(ValueError):
            make_comrade(3, (1, 1, 1), (0, 0), (0, 0, 0), (0,))
        with pytest.raises(ValueError):
            make_comrade(3, (1, 1, 1), (0, 0), (0, 0), ())

    def test_entries_become_fractions(self):
        C = make_comrade(3, ("1/2", 1, F(3)), (0, 0), (0, 0), (0,))
        assert C.beta == (F(1, 2), F(1), F(3))
        assert all(isinstance(v, F) for v in C.beta)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            support.SAMPLE5.n = 6


class TestToDense:
    def test_zero_pivot4_layout(self):
        assert to_dense(support.ZERO_PIVOT4).rows == support.ZERO_PIVOT4_DENSE

    def test_band_plus_last_row(self):
        C = random_comrade(7, 11)
        D = to_dense(C)
        for i in range(6):          # all rows but the last
            for j in range(7):
                if abs(i - j) > 1:
                    assert D.rows[i][j] == 0
        # last row carries a (reversed), then gamma_n, beta_n
        assert D.rows[6] == tuple(reversed(C.a)) + (C.gamma[5], C.beta[6])

    def test_identity_embedding(self):
        assert to_dense(support.IDENTITY3) == DenseMatrix.identity(3)


class TestExample33:
    def test_dense_4(self):
        expected = support.frows([
            ("-3/2", "1/2", 0, 0),
            ("1/2", "-3/2", "1/2", 0),
            (0, "1/2", "-3/2", "1/2"),
            ("-1/2", "-1/2", 0, -2),
        ])
        assert to_dense(example33(4)).rows == expected

    def test_dense_3(self):
        expected = support.frows([
            ("-3/2", "1/2", 0),
            ("1/2", "-3/2", "1/2"),
            ("-1/2", 0, -2),
        ])
        assert to_dense(example33(3)).rows == expected

    def test_components(self):
        C = example33(6)
        assert C.beta == (F(-3, 2),) * 5 + (F(-2),)
        assert C.alpha == (F(1, 2),) * 5
        assert C.gamma == (F(1, 2),) * 4 + (F(0),)
        assert C.a == (F(-1, 2),) * 4

    def test_minimum_order(self):
        with pytest.raises(ValueError):
            example33(2)


class TestRandomComrade:
    def test_deterministic(self):
        assert random_comrade(6, 3, 1.0) == random_comrade(6, 3, 1.0)
        assert random_comrade(6, 3) != random_comrade(6, 4)

    def test_golden(self):
        C = random_comrade(4, 7, 0.0)
        g = support.GOLDEN_RANDOM_4_7
        assert (C.beta, C.alpha, C.gamma, C.a) == (
            g["beta"], g["alpha"], g["gamma"], g["a"])

    def test_entries_are_small_integers(self):
        for seed in range(10):
            C = random_comrade(5, seed)
            for group in (C.beta, C.alpha, C.gamma, C.a):
                for v in group:
                    assert v.denominator == 1 and abs(v) <= 9

    def test_bias_forces_zero_leading_pivot(self):
        for seed in range(20):
            assert random_comrade(5, seed, 1.0).beta[0] == 0
        # and sometimes also knocks out an interior alpha
        assert any(0 in random_comrade(5, seed, 1.0).alpha[:3]
                   for seed in range(20))

    def test_no_bias_means_no_forced_zero(self):
        assert any(random_comrade(5, seed, 0.0).beta[0] != 0
                   for seed in range(5))


class TestDenseMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            DenseMatrix(2, ((F(1),),))
        with pytest.raises(ValueError):
            DenseMatrix(2, ((F(1), F(2)), (F(3),)))

    def test_identity_and_matmul(self):
        M = DenseMatrix.from_rows([(F(1), F(2)), (F(3), F(4))])
        I = DenseMatrix.identity(2)
        assert M.matmul(I) == M and I.matmul(M) == M
        assert M.matmul(M).rows == ((F(7), F(10)), (F(15), F(22)))

    def test_sub_and_inf_norm(self):
        M = DenseMatrix.from_rows([(F(1), F(-2)), (F(3), F(4))])
        assert (M - M).inf_norm() == 0
        assert M.inf_norm() == 7
        assert (M - DenseMatrix.identity(2)).inf_norm() == 6

    def test_as_floats(self):
        M = DenseMatrix.from_rows([(F(1, 2), F(1)), (F(0), F(-3, 4))])
        Mf = M.as_floats()
        assert all(isinstance(v, float) for row in Mf.rows for v in row)
        assert Mf.rows[0][0] == 0.5 and Mf.rows[1][1] == -0.75

    def test_getitem(self):
        M = DenseMatrix.identity(3)
        assert M[0][0] == 1 and M[0][2] == 0


class TestStructuredProducts:
    @pytest.mark.parametrize("n,seed,pattern", [
        *(pytest.param(n, seed, None, id=f"{n}-{seed}")
          for n, seed in [(3, 0), (4, 1), (5, 2), (7, 3)]),
        # zeros in every family: pivots, alphas, gammas and a
        *((n, 0, pattern) for pattern in support.ZERO_PATTERNS for n in (3, 4, 8))])
    def test_match_dense_matmul(self, n, seed, pattern):
        if pattern is None:
            C = random_comrade(n, seed)
        else:
            C = support.zero_patterned_comrade(n, pattern, seed)
        rng = random.Random(seed + 100)
        M = DenseMatrix.from_rows(
            [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(n)])
        D = to_dense(C)
        assert comrade_times_dense(C, M) == D.matmul(M)
        assert dense_times_comrade(M, C) == M.matmul(D)

    def test_float_bits_are_frozen(self):
        # `==` cannot see a signed zero flip; the hex text can.  C holds
        # explicit (signed) zeros: M*C skips them, so M's infinities meet
        # no zero there and make no nan.  C*M starts each row at its first
        # entry's product and M*C each entry at M[i][0] * 0; the signs of
        # the zeros below pin both starts and the order of the terms.
        inf, tiny = float("inf"), 5e-324
        C = ComradeMatrix(4, (-0.0, 2.0, 0.0, -1.5), (0.5, 0.0, -3.0), (0.0, 1.0, -0.0),
                          (0.25, -0.0))
        M = DenseMatrix.from_rows([[-1.0, 0.5, 1.0, tiny], [2.0, inf, -0.0, 2 * tiny],
                                   [-0.0, -0.5, tiny, -2.0], [3.0, 1.0, -0.0, -inf]])
        hex_rows = lambda P: [" ".join(map(float.hex, row)) for row in P.rows]
        assert hex_rows(comrade_times_dense(C, M)) == [
            "0x1.0000000000000p+0 inf -0x0.0p+0 0x0.0000000000001p-1022",
            "0x1.0000000000000p+2 inf 0x0.0p+0 0x0.0000000000004p-1022",
            "-0x1.c000000000000p+2 inf 0x0.0p+0 inf",
            "-0x1.0000000000000p+2 inf 0x0.0p+0 inf"]
        assert hex_rows(dense_times_comrade(M, C)) == [
            "-0x0.0p+0 0x1.8000000000000p+0 -0x0.0p+0 -0x1.8000000000000p+1",
            "0x0.0p+0 inf 0x0.0p+0 -0x0.0000000000003p-1022",
            "-0x0.0p+0 -0x1.8000000000000p+0 -0x0.0p+0 0x1.8000000000000p+1",
            "0x0.0p+0 -inf 0x0.0p+0 inf"]

    def test_size_mismatch_raises(self):
        C, M = support.SAMPLE5, DenseMatrix.identity(4)
        with pytest.raises(ValueError, match="size mismatch"):
            comrade_times_dense(C, M)
        with pytest.raises(ValueError, match="size mismatch"):
            dense_times_comrade(M, C)

    def test_identity_cases(self):
        C = support.SAMPLE5
        I = DenseMatrix.identity(5)
        assert comrade_times_dense(C, I) == to_dense(C)
        assert dense_times_comrade(I, C) == to_dense(C)
