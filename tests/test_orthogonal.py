"""Comrade matrices of orthogonal polynomials (Barnett 1975), checked
against the roots they are built from.

``support.orthogonal_comrade`` builds C from chosen rational roots r_i
and a monic basis, so its eigenvalues are the r_i - shift, and

    det C = prod r_i,   trace C^-1 = sum 1/r_i,   trace C^-2 = sum 1/r_i^2

hold exactly, with roots shifted.  trace C^-2 = sum_ij S_ij S_ji reads
every entry of the inverse S.  None of this needs the dense oracle.
The last rows carry large denominators, and Legendre and Chebyshev have
a zero diagonal, so D_1 = 0: EXACT refuses at pivot 1 and SYMBOLIC
substitutes t there, unless the diagonal is shifted.
"""

import math
import random
from fractions import Fraction as F

import pytest

import support
from comrade import (ScalarMode, Substitution, ZeroPivotError, determinant,
                     factorize, invert)

SHIFT = F(1, 11)
SIZES = (8, 16, 32)


def roots(basis, n, positive):
    """n seeded roots p/q, 1 <= |p|, q <= 9, p > 0 if ``positive``."""
    rng = random.Random(f"orthogonal:{basis}:{n}:{positive}")
    return [F(rng.randint(1, 9) * (1 if positive else rng.choice((-1, 1))), rng.randint(1, 9))
            for _ in range(n)]


def matrix(basis, n, shift):
    rs = roots(basis, n, positive=bool(shift))
    return support.orthogonal_comrade(rs, basis, shift), [r - shift for r in rs]


def check_roots(C, rs, mode):
    det = math.prod(rs)
    assert determinant(C, mode) == det
    res = invert(C, mode)
    S, n = res.inverse.rows, C.n
    assert res.determinant == det
    assert sum(S[i][i] for i in range(n)) == sum(1 / r for r in rs)
    assert sum(S[i][j] * S[j][i] for i in range(n) for j in range(n)) == sum(1 / r**2 for r in rs)
    # the factors invert reads: D_n = N h with N the numerator of det C
    # and h a large share of D_n, so the entries are reduced against N
    F_ = factorize(C, mode)
    N, h = F_.unperturbed()._det_split
    assert N == det.numerator and h * det.denominator == math.prod(F_.scale)
    assert 3 * h.bit_length() >= N.bit_length()
    assert F_._det_split == (N, h)      # SYMBOLIC: off the lowest digit of D_n
    return res


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("basis, shift, mode", [
    ("laguerre", 0, ScalarMode.EXACT),
    ("laguerre", 0, ScalarMode.SYMBOLIC),
    ("legendre", SHIFT, ScalarMode.EXACT),
    ("legendre", SHIFT, ScalarMode.SYMBOLIC),
    ("chebyshev", SHIFT, ScalarMode.EXACT),
    ("chebyshev", SHIFT, ScalarMode.SYMBOLIC),
], ids=["laguerre-exact", "laguerre-symbolic", "shifted-legendre-exact",
        "shifted-legendre-symbolic", "shifted-chebyshev-exact", "shifted-chebyshev-symbolic"])
def test_nonzero_diagonal_needs_no_substitution(basis, shift, mode, n):
    C, rs = matrix(basis, n, shift)
    assert check_roots(C, rs, mode).substitutions == ()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("basis", ["legendre", "chebyshev"])
def test_zero_diagonal_substitutes_pivot_1(basis, n):
    C, rs = matrix(basis, n, 0)
    with pytest.raises(ZeroPivotError) as refused:
        invert(C, ScalarMode.EXACT)
    assert (refused.value.index, refused.value.what) == (1, "pivot")
    res = check_roots(C, rs, ScalarMode.SYMBOLIC)
    assert res.substitutions == (Substitution("pivot", 1),)


def test_builder_matches_the_bases():
    # monic Legendre at n = 3: p_1 = x, p_2 = x^2 - 1/3, p_3 = x^3 - 3x/5,
    # and with roots 1, 2, 3, (x - 1)(x - 2)(x - 3) - p_3 = -6 p_2 + 58/5 p_1 - 8
    C = support.orthogonal_comrade([F(1), F(2), F(3)], "legendre")
    assert (C.beta, C.alpha, C.gamma, C.a) == ((0, 0, 6), (1, 1), (F(1, 3), F(4, 15) - F(58, 5)),
                                                (8,))
