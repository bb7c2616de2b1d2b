import random
from fractions import Fraction as F

import pytest

try:
    from hypothesis import assume, given, settings, strategies as st
except ImportError:                                   # seeded draws instead
    given = None

from comrade import scalars
from comrade import (PoleAtZeroError, Polynomial, RationalFunction, ScalarMode,
                     format_rational, parse_rational, poly_gcd)
from comrade.scalars import POLY_T

T = RationalFunction.t()
NCASES = 1500


def rand_poly(rng, max_deg=2, span=4):
    return Polynomial(tuple(rng.randint(-span, span)
                            for _ in range(rng.randint(1, max_deg + 1))))


def rand_rf(rng, max_deg=2, span=4):
    num = rand_poly(rng, max_deg, span)
    while True:
        den = rand_poly(rng, max_deg, span)
        if not den.is_zero:
            return RationalFunction(num, den)


class TestParseFormat:
    @pytest.mark.parametrize("text,value", [
        ("3", F(3)), ("-7/4", F(-7, 4)), ("+2/6", F(1, 3)),
        ("0", F(0)), (" 12/8 ", F(3, 2)),
    ])
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["1.5", "3/0", "x", "1e3", "2/-3", "", "1/2/3"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    @pytest.mark.parametrize("text", ["\u0663", "\uff11/\uff12", "1/\u0662", "-\u0967"])
    def test_parse_rejects_non_ascii_digits(self, text):
        # Unicode digits (Arabic-Indic, fullwidth, Devanagari) are not ASCII entries
        with pytest.raises(ValueError, match="invalid rational literal"):
            parse_rational(text)

    @pytest.mark.parametrize("text", ["\u30001", "1\u2003", "\xa0-2/3\u2028"])
    def test_parse_rejects_non_ascii_whitespace(self, text):
        # ideographic space, em space, no-break space, line separator
        with pytest.raises(ValueError, match="invalid rational literal"):
            parse_rational(text)

    @pytest.mark.parametrize("text,value", [(" 3 ", F(3)), ("\t-7/5\n", F(-7, 5)),
                                            ("\r\f\v1/2 ", F(1, 2))])
    def test_parse_strips_ascii_whitespace(self, text, value):
        assert parse_rational(text) == value

    def test_format(self):
        assert format_rational(F(5)) == "5"
        assert format_rational(F(-3, 4)) == "-3/4"
        assert format_rational(F(0)) == "0"

    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(200):
            q = F(rng.randint(-99, 99), rng.randint(1, 99))
            assert parse_rational(format_rational(q)) == q


class TestPolynomial:
    def test_canonical_coeffs(self):
        assert Polynomial((1, 0, 2, 0)).coeffs == (F(1), F(0), F(2))
        assert Polynomial((0, 0)).coeffs == ()
        assert Polynomial(()).is_zero
        assert Polynomial(()).degree == -1
        assert Polynomial((0, 1)).degree == 1

    def test_arithmetic(self):
        p = Polynomial((1, 2))        # 2t + 1
        q = Polynomial((-1, 0, 1))    # t^2 - 1
        assert p + q == Polynomial((0, 2, 1))
        assert q - p == Polynomial((-2, -2, 1))
        assert p * p == Polynomial((1, 4, 4))
        assert p * Polynomial(()) == Polynomial(())

    def test_divmod(self):
        q, r = divmod(Polynomial((-1, 0, 1)), Polynomial((-1, 1)))
        assert q == Polynomial((1, 1)) and r.is_zero
        # remainder case: t^2 + 1 = t * t + 1
        q, r = divmod(Polynomial((1, 0, 1)), POLY_T)
        assert q == POLY_T and r == Polynomial((1,))
        with pytest.raises(ZeroDivisionError):
            divmod(POLY_T, Polynomial(()))

    def test_division_identity_random(self):
        rng = random.Random(2)
        for _ in range(300):
            a, b = rand_poly(rng, 4), rand_poly(rng, 3)
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree

    def test_eval_is_horner(self):
        p = Polynomial((1, 2, 3))
        assert p(F(2)) == 17
        assert p(F(0)) == 1
        assert Polynomial(())(F(5)) == 0

    def test_monic(self):
        assert Polynomial((2, 4)).monic() == Polynomial((F(1, 2), 1))
        assert Polynomial((3,)).monic() == Polynomial((1,))

    def test_str(self):
        assert str(Polynomial((-1, 0, 1))) == "t^2 - 1"
        assert str(Polynomial(())) == "0"


class TestPolyGcd:
    def test_shared_factor(self):
        # gcd(2t^2 + 4t, 2t) = t once both arguments lose their content
        assert poly_gcd(Polynomial((0, 4, 2)), Polynomial((0, 2))) == POLY_T

    def test_zero_operands(self):
        p = Polynomial((2, 4))
        assert poly_gcd(p, Polynomial(())) == p.monic()
        assert poly_gcd(Polynomial(()), p) == p.monic()
        with pytest.raises(ValueError):
            poly_gcd(Polynomial(()), Polynomial(()))

    def test_divides_both(self):
        rng = random.Random(3)
        for _ in range(200):
            a, b = rand_poly(rng, 3), rand_poly(rng, 3)
            if a.is_zero and b.is_zero:
                continue
            g = poly_gcd(a, b)
            assert g.monic() == g
            assert (a % g).is_zero and (b % g).is_zero


def euclid_gcd(p, q):
    """Reference: the monic gcd by the Euclidean algorithm over Q."""
    a, b = p, q
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def planted_pair(rng, span):
    """(a, b, g): a and b of degree <= 5 with the common factor g of
    degree 1-3; Fraction coefficients with numerators up to span."""
    def poly(degree):
        cs = [F(rng.randint(-span, span), rng.randint(1, 9)) for _ in range(degree)]
        return Polynomial(cs + [F(rng.choice((-1, 1)) * rng.randint(1, span), rng.randint(1, 9))])
    g = poly(rng.randint(1, 3))
    return g * poly(rng.randint(0, 5 - g.degree)), g * poly(rng.randint(0, 5 - g.degree)), g


SPANS = pytest.mark.parametrize("span", (4, 10**6, 2**67, 2**200),
                                ids=("4", "10^6", "2^67", "2^200"))
# gcd 2t - 1; the balanced digits at the first xi = 8 give a candidate
# that does not divide, so a larger xi is tried
RETRY = (Polynomial((-2, 5, -2)), Polynomial((0, -2, 3, 2)))


class TestHeuristicGcd:
    """``poly_gcd`` (GCDHEU on integers) against the Euclidean reference."""

    @SPANS
    def test_planted_factors(self, span):
        rng = random.Random(f"planted:{span}")
        for _ in range(300):
            a, b, g = planted_pair(rng, span)
            got = poly_gcd(a, b)
            assert got == euclid_gcd(a, b)
            assert (got % g).is_zero

    @SPANS
    def test_random_pairs(self, span):
        rng = random.Random(f"pairs:{span}")
        for _ in range(300):
            a, b = (Polynomial([F(rng.randint(-span, span), rng.randint(1, 3))
                                for _ in range(rng.randint(1, 6))]) for _ in range(2))
            if not (a.is_zero and b.is_zero):
                assert poly_gcd(a, b) == euclid_gcd(a, b)

    def test_zero_and_constant_operands(self):
        rng = random.Random("zero-constant")
        zero = Polynomial(())
        for _ in range(100):
            p = planted_pair(rng, 2**67)[0]
            c = Polynomial((F(rng.choice((-1, 1)) * rng.randint(1, 2**200), rng.randint(1, 9)),))
            for a, b in [(p, zero), (zero, p), (p, c), (c, p), (c, zero), (zero, c), (c, c)]:
                assert poly_gcd(a, b) == euclid_gcd(a, b)

    @SPANS
    def test_constructor_is_canonical(self, span):
        rng = random.Random(f"canonical:{span}")
        for _ in range(200):
            num, den, _ = planted_pair(rng, span)
            r = RationalFunction(num, den)
            assert (r.num.coeffs, r.den.coeffs) == reduced(num, den)
            assert r.den.leading == 1 and euclid_gcd(r.num, r.den) == Polynomial((1,))
            assert r.num * den == num * r.den

    def test_retry_after_a_rejected_candidate(self, monkeypatch):
        a, b = ([int(c) for c in p.coeffs] for p in RETRY)

        def no_fallback(p, q):
            raise AssertionError("the Euclidean fallback ran")

        monkeypatch.setattr(scalars, "_euclidean_gcd", no_fallback)
        assert poly_gcd(*RETRY) == Polynomial((F(-1, 2), 1))
        assert scalars._heuristic_gcd(a, b) == [-1, 2]
        monkeypatch.setattr(scalars, "_GCDHEU_TRIES", 1)
        assert scalars._heuristic_gcd(a, b) is None

    def test_small_gcd_is_a_constant_on_the_first_try(self, monkeypatch):
        # t and 3t^2 + t + 2 at xi = 4: gcd(4, 54) = 2, whose balanced
        # digits read back as t - 2; 2 <= xi - 1 - norm rules out any
        # common factor of degree >= 1 without a retry
        monkeypatch.setattr(scalars, "_euclidean_gcd", None)
        monkeypatch.setattr(scalars, "_GCDHEU_TRIES", 1)
        assert scalars._heuristic_gcd([0, 1], [2, 1, 3]) == [1]
        assert poly_gcd(POLY_T, Polynomial((2, 1, 3))) == Polynomial((1,))

    def test_linear_factor_just_above_the_constant_bound(self):
        # gcd(t - c, (t - c)(t + 1)) evaluates to xi - c, one more than
        # the largest gcd read as a constant
        for c in range(1, 70):
            g = Polynomial((-c, 1))
            assert poly_gcd(g, g * Polynomial((1, 1))) == g

    def test_euclidean_fallback(self, monkeypatch):
        rng = random.Random("fallback")
        calls = []
        gcd = scalars.poly_gcd
        monkeypatch.setattr(scalars, "poly_gcd", lambda p, q: calls.append(1) or gcd(p, q))
        monkeypatch.setattr(scalars, "_GCDHEU_TRIES", 0)
        assert gcd(*RETRY) == Polynomial((F(-1, 2), 1))
        for _ in range(100):
            a, b, _ = planted_pair(rng, 2**67)
            assert scalars._euclidean_gcd(a, b) == gcd(a, b) == euclid_gcd(a, b)
            calls.clear()
            r = RationalFunction(a, b)
            assert len(calls) == 1              # the fallback calls no poly_gcd
            assert (r.num.coeffs, r.den.coeffs) == reduced(a, b)


class TestRationalFunction:
    def test_canonical_form(self):
        # 2t+2 over 2t reduces with monic denominator
        r = RationalFunction(Polynomial((2, 2)), Polynomial((0, 2)))
        assert r.num == Polynomial((1, 1)) and r.den == POLY_T
        assert r == RationalFunction(Polynomial((1, 1)), POLY_T)

    def test_canonical_random(self):
        rng = random.Random(4)
        for _ in range(400):
            r = rand_rf(rng)
            assert r.den.monic() == r.den
            assert poly_gcd(r.num, r.den) == Polynomial((1,)) or r.num.is_zero
            if r.num.is_zero:
                assert r.den == Polynomial((1,))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(POLY_T, Polynomial(()))
        with pytest.raises(ZeroDivisionError):
            T / RationalFunction(0)

    def test_pivot_style_arithmetic(self):
        # the second pivot of the zero-leading-pivot sample: -1 - (1/t)*2
        mu2 = RationalFunction(-1) - (RationalFunction(1) / T) * 2
        assert mu2 == RationalFunction(Polynomial((-2, -1)), POLY_T)
        assert str(mu2) == "(-t - 2)/(t)"

    def test_mixed_operand_coercion(self):
        assert T + 1 == RationalFunction(Polynomial((1, 1)))
        assert 1 + T == T + F(1)
        assert 2 * T == T + T
        assert T - T == RationalFunction(0)
        assert (T * T) / T == T
        assert F(1, 2) * T == T / 2

    def test_at_zero(self):
        assert (T + 1).at_zero() == 1
        assert ((T * T + T) / T).at_zero() == 1  # pole cancels in reduction
        with pytest.raises(PoleAtZeroError):
            (RationalFunction(1) / T).at_zero()

    def test_equality_is_field_equality(self):
        a = RationalFunction(Polynomial((2, 2)), Polynomial((0, 2)))
        b = RationalFunction(Polynomial((1, 1)), POLY_T)
        assert a == b and hash(a) == hash(b)
        assert a != b + 1

    def test_str_forms(self):
        assert str(T) == "t"
        assert str(T * T - 1) == "t^2 - 1"
        assert str((T + 1) / T) == "(t + 1)/(t)"
        assert str(RationalFunction(F(3, 4))) == "(3)/4"

    def test_field_laws_seeded(self):
        rng = random.Random(5)
        zero, one = RationalFunction(0), RationalFunction(1)
        for _ in range(NCASES):
            a, b, c = (rand_rf(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + zero == a and a * one == a
            assert a - a == zero and a + (-a) == zero
            if not b.is_zero:
                assert (a / b) * b == a

    def test_evaluation_homomorphism(self):
        rng = random.Random(6)
        for _ in range(300):
            a, b = rand_rf(rng), rand_rf(rng)
            try:
                a0, b0 = a.at_zero(), b.at_zero()
                s0 = (a + b).at_zero()
                p0 = (a * b).at_zero()
            except PoleAtZeroError:
                continue
            assert s0 == a0 + b0
            assert p0 == a0 * b0


def reduced(num, den):
    """(num, den) coefficient tuples of num/den in canonical form, by the
    textbook route: divide both by their monic gcd, then make den monic."""
    g = poly_gcd(num, den)
    num, den = num // g, den // g
    inv = 1 / den.leading
    return (num * inv).coeffs, (den * inv).coeffs


def check_shortcuts(f, c, p):
    """The results of -f, f +- p, f +- c, f c, f / c and c / f that skip
    the gcd equal the general constructor and the textbook reduction."""
    N, D = f.num, f.den
    cases = [(-f, -N, D), (f + p, N + p * D, D), (p + f, N + p * D, D),
             (f - p, N - p * D, D), (p - f, p * D - N, D),
             (RationalFunction(c), Polynomial((c,)), 1)]
    for k in (c, RationalFunction(c)):
        cases += [(f + k, N + D * c, D), (k + f, N + D * c, D),
                  (f - k, N - D * c, D), (k - f, D * c - N, D),
                  (f * k, N * c, D), (k * f, N * c, D)]
        if c != 0:
            cases.append((f / k, N, D * c))
        if not f.is_zero:
            cases.append((k / f, D * c, N))
    for got, num, den in cases:
        den = den if isinstance(den, Polynomial) else Polynomial((den,))
        general = RationalFunction(num, den)
        assert (got.num.coeffs, got.den.coeffs) == (general.num.coeffs, general.den.coeffs) \
            == reduced(num, den)
        assert got.den.leading == 1
        if got.is_zero:
            assert got.den.coeffs == (1,)


CONSTANTS = (0, 1, -1, F(3, 7), F(-5, 2))

if given is None:
    @pytest.mark.parametrize("seed", range(300))
    def test_gcd_free_shortcuts_are_canonical(seed):
        rng = random.Random(f"shortcuts:{seed}")
        c = rng.choice(CONSTANTS + (F(rng.randint(-9, 9), rng.randint(1, 9)),))
        check_shortcuts(rand_rf(rng, 3), c, rand_poly(rng))
else:
    coefficients = st.lists(st.integers(-4, 4), min_size=1, max_size=4)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(num=coefficients, den=coefficients, p=coefficients,
           c=st.one_of(st.sampled_from(CONSTANTS),
                       st.builds(F, st.integers(-9, 9), st.integers(1, 9))))
    def test_gcd_free_shortcuts_are_canonical(num, den, p, c):
        assume(any(den))
        check_shortcuts(RationalFunction(Polynomial(num), Polynomial(den)), c, Polynomial(p))


class TestScalarMode:
    def test_values(self):
        assert ScalarMode("exact") is ScalarMode.EXACT
        assert ScalarMode("symbolic") is ScalarMode.SYMBOLIC
        assert ScalarMode("float") is ScalarMode.FLOAT

    def test_scalar_conversion(self):
        assert ScalarMode.EXACT.scalar(3) == F(3)
        assert isinstance(ScalarMode.EXACT.scalar(F(1, 2)), F)
        assert ScalarMode.SYMBOLIC.scalar(F(1, 2)) == RationalFunction(F(1, 2))
        assert ScalarMode.FLOAT.scalar(F(1, 2)) == 0.5
        assert isinstance(ScalarMode.FLOAT.scalar(F(1, 3)), float)

    def test_scalar_idempotent(self):
        r = T + 1
        assert ScalarMode.SYMBOLIC.scalar(r) is r
        q = F(2, 3)
        assert ScalarMode.EXACT.scalar(q) is q

    def test_finalize(self):
        assert ScalarMode.SYMBOLIC.finalize(T + 5) == F(5)
        assert ScalarMode.EXACT.finalize(F(2, 3)) == F(2, 3)
        assert ScalarMode.FLOAT.finalize(0.25) == 0.25
        with pytest.raises(PoleAtZeroError):
            ScalarMode.SYMBOLIC.finalize(RationalFunction(1) / T)
