import math
import operator
import random
import sys
from contextlib import contextmanager
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

    # 4,300 is Python's default int/str digit limit, 640 its lowest
    @pytest.mark.parametrize("limit", [None, 640])
    @pytest.mark.parametrize("digits", [4300, 4301, 5000, 12001])
    def test_no_digit_limit(self, digits, limit):
        rng = random.Random(digits)
        p_text = str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=digits - 1))
        q_text = "1" + "0" * (digits // 2) + "7"
        with int_str_digits(0):
            p, q = int(p_text), int(q_text)
            values = [F(p), F(-p, q), F(q, p), F(10**digits)]
            texts = list(map(str, values))
        with int_str_digits(limit):
            before = sys.get_int_max_str_digits()
            for sign in ("", "-", "+"):
                signed = -p if sign == "-" else p
                assert parse_rational(f"{sign}{p_text}") == signed
                assert parse_rational(f" {sign}{p_text}/{q_text}") == F(signed, q)
            assert parse_rational(f"-{'0' * digits}{q_text}") == -q
            assert list(map(format_rational, values)) == texts
            assert texts[0] == p_text and texts[3] == "1" + "0" * digits
            with pytest.raises(ValueError, match="zero denominator"):
                parse_rational(f"{p_text}/{'0' * digits}")
            assert sys.get_int_max_str_digits() == before       # left as it was


@contextmanager
def int_str_digits(limit):
    """The block runs with Python's int/str digit limit set to limit
    (0: none; None: as it is), and the limit is restored after it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(old if limit is None else limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


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
# gcd t + 1; the balanced digits at the first xi = 16 give a candidate
# that does not divide, so a larger xi is tried
RETRY = (Polynomial((-3, -2, 1)), Polynomial((-2, -3, 1, 2)))


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
        assert poly_gcd(*RETRY) == Polynomial((1, 1))
        assert scalars._heuristic_gcd(a, b) == [1, 1]
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
        assert gcd(*RETRY) == Polynomial((1, 1))
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


# A Fraction-tuple reference for Polynomial and RationalFunction: the
# arithmetic on tuples of Fraction coefficients, lowest degree first,
# that the integer form over one denominator must reproduce.

def ref_trim(cs):
    cs = [F(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = a + (F(0),) * (n - len(a)), b + (F(0),) * (n - len(b))
    return ref_trim(x + sign * y for x, y in zip(a, b))


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_divmod(a, b):
    rem, quot = list(a), [F(0)] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        k = len(rem) - len(b)
        q = quot[k] = rem[-1] / b[-1]
        for j, c in enumerate(b):
            rem[k + j] -= q * c
        rem = list(ref_trim(rem))
    return ref_trim(quot), tuple(rem)


def ref_monic(a):
    return tuple(c / a[-1] for c in a)


def ref_eval(a, x):
    acc = F(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ref_str(a):
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        if k == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{mag}t" if k == 1 else f"{mag}t^{k}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def ref_canonical(num, den):
    """(num, den) of num/den with gcd 1 and a monic den; zero is 0/1."""
    if not num:
        return (), (F(1),)
    a, b = num, den
    while b:
        a, b = b, ref_divmod(a, b)[1]
    num, den = ref_divmod(num, a)[0], ref_divmod(den, a)[0]
    return tuple(c / den[-1] for c in num), ref_monic(den)


def ref_rf_str(num, den):
    scale = math.lcm(*(c.denominator for c in num + den))
    num, den = (tuple(c * scale for c in cs) for cs in (num, den))
    content = math.gcd(*(c.numerator for c in num + den))
    num, den = (tuple(c / content for c in cs) for cs in (num, den))
    if len(den) == 1:
        return ref_str(num) if den == (1,) else f"({ref_str(num)})/{ref_str(den)}"
    return f"({ref_str(num)})/({ref_str(den)})"


def mixed_coefficient(rng, bits):
    """An int, a bool, a Fraction, a float or zero, of up to ``bits`` bits."""
    span = 1 << bits
    kind = rng.randrange(6)
    if kind == 0:
        return rng.randint(-span, span)
    if kind == 1:
        return rng.choice((True, False))
    if kind == 2:
        return F(rng.randint(-span, span), rng.randint(1, rng.choice((9, span))))
    if kind == 3:
        return rng.randint(-2**20, 2**20) * 2.0 ** rng.randint(-40, min(bits, 900))
    if kind == 4:
        return rng.choice((-1, 1, F(-1, 2)))
    return 0


def mixed_coefficients(rng, bits, degree=5):
    """Up to degree + 1 mixed coefficients, maybe none, maybe with
    trailing zeros."""
    return [mixed_coefficient(rng, bits) for _ in range(rng.randint(0, degree + 1))]


BITS = pytest.mark.parametrize("bits", (3, 40, 230))
POINTS = (F(-3, 7), 0, 2, -1, F(5, 2**70), True)


class TestIntegerForm:
    """``Polynomial`` and ``RationalFunction`` on integers over one
    denominator, operation by operation, against the Fraction-tuple
    reference above."""

    @BITS
    def test_polynomial_operations(self, bits):
        rng = random.Random(f"integer-form:{bits}")
        for _ in range(300):
            xs, ys = mixed_coefficients(rng, bits), mixed_coefficients(rng, bits)
            a, b = Polynomial(xs), Polynomial(ys)
            ra, rb = ref_trim(xs), ref_trim(ys)
            assert a.coeffs == ra and all(type(c) is F for c in a.coeffs)
            assert a.degree == len(ra) - 1 and a.is_zero == (not ra)
            assert a.leading == (ra[-1] if ra else 0) and type(a.leading) is F
            assert (a + b).coeffs == ref_add(ra, rb)
            assert (a - b).coeffs == ref_add(ra, rb, -1)
            assert (-a).coeffs == ref_add((), ra, -1)
            assert (a * b).coeffs == ref_mul(ra, rb)
            if rb:
                q, r = ref_divmod(ra, rb)
                assert tuple(p.coeffs for p in divmod(a, b)) == (q, r)
                assert (a // b).coeffs == q and (a % b).coeffs == r
            else:
                for op in (divmod, operator.floordiv, operator.mod):
                    with pytest.raises(ZeroDivisionError):
                        op(a, b)
            assert a.monic().coeffs == (ref_monic(ra) if ra else ())
            for x in POINTS:
                assert a(x) == ref_eval(ra, x) and type(a(x)) is F
            assert (a == b) == (ra == rb)
            assert a == Polynomial(ra) and hash(a) == hash(Polynomial(ra))
            assert hash(a) == (hash(ra) if len(ra) > 1 else hash(ra[0] if ra else F(0)))
            assert str(a) == ref_str(ra)

    def test_float_points_are_taken_exactly(self):
        p = Polynomial((F(1, 3), -2, 5, F(-7, 2**200)))
        for x in (0.1, -2.5, 1e-30, 3.0):
            assert p(x) == ref_eval(p.coeffs, F(x)) and type(p(x)) is F

    @BITS
    def test_polynomial_with_scalar_operands(self, bits):
        rng = random.Random(f"integer-form-scalars:{bits}")
        for _ in range(200):
            xs = mixed_coefficients(rng, bits)
            a, ra = Polynomial(xs), ref_trim(xs)
            c = rng.choice((0, 1, -3, rng.randint(-2**bits, 2**bits),
                            F(rng.randint(-2**bits, 2**bits), rng.randint(1, 2**bits))))
            rc = ref_trim([c])
            assert (a + c).coeffs == (c + a).coeffs == ref_add(ra, rc)
            assert (a - c).coeffs == ref_add(ra, rc, -1)
            assert (c - a).coeffs == ref_add(rc, ra, -1)
            assert (a * c).coeffs == (c * a).coeffs == ref_mul(ra, rc)
            if c:
                assert (a // c).coeffs == ref_divmod(ra, rc)[0] and (a % c).is_zero
            assert (a == c) == (ra == rc) == (c == a)
            if len(ra) <= 1:
                value = ra[0] if ra else F(0)
                assert a == value and hash(a) == hash(value)

    def test_equality_with_scalars(self):
        for value in (0, 3, -7, 2**200, F(1, 2), F(-5, 2**230), True):
            p, r = Polynomial((value,)), RationalFunction(value)
            assert p == value and value == p and p == F(value)
            assert r == value and value == r and r == F(value)
            assert p != F(value) + 1 and r != F(value) + 1
            assert p != value + POLY_T and r != T + value
        assert Polynomial(()) == 0 and Polynomial((0, 0)) == F(0)
        assert POLY_T != 0 and POLY_T != 1 and T != 0

    def test_constants_hash_as_their_value(self):
        assert len({Polynomial((3,)), 3}) == 1
        assert {3: "x"}[Polynomial((3,))] == "x"
        assert len({RationalFunction(F(1, 2)), F(1, 2)}) == 1
        assert {F(1, 2): "y"}[RationalFunction(F(1, 2))] == "y"
        assert {0: "z"}[Polynomial(())] == "z" == {0: "z"}[RationalFunction(0)]
        for value in (1, -7, 2**200, F(3, 4), F(-5, 2**230), True, 0.5):
            assert hash(Polynomial((value,))) == hash(RationalFunction(value)) == hash(F(value))
        # non-constant: the hash of the coefficient tuples, and a
        # rational function with den 1 hashes as its num Polynomial
        assert hash(POLY_T) == hash((F(0), F(1)))
        assert hash(1 / T) == hash(((F(1),), (F(0), F(1))))
        assert hash(T + F(1, 2)) == hash(Polynomial((F(1, 2), 1)))
        assert len({POLY_T, RationalFunction.t()}) == 1
        assert hash(Polynomial((1, 2))) == hash(RationalFunction(Polynomial((1, 2))))

    @BITS
    def test_rational_function_operations(self, bits):
        rng = random.Random(f"integer-form-rf:{bits}")
        for _ in range(150):
            pairs = []
            while len(pairs) < 2:
                num, den = mixed_coefficients(rng, bits, 3), mixed_coefficients(rng, bits, 3)
                if ref_trim(den):
                    pairs.append((ref_trim(num), ref_trim(den)))
            (n1, d1), (n2, d2) = pairs
            f, k = (RationalFunction(Polynomial(n), Polynomial(d)) for n, d in pairs)
            rf, rk = ref_canonical(n1, d1), ref_canonical(n2, d2)
            assert (f.num.coeffs, f.den.coeffs) == rf
            cases = [(f + k, ref_add(ref_mul(n1, d2), ref_mul(n2, d1)), ref_mul(d1, d2)),
                     (f - k, ref_add(ref_mul(n1, d2), ref_mul(n2, d1), -1), ref_mul(d1, d2)),
                     (f * k, ref_mul(n1, n2), ref_mul(d1, d2))]
            if n2:
                cases.append((f / k, ref_mul(n1, d2), ref_mul(d1, n2)))
            for got, num, den in cases:
                assert (got.num.coeffs, got.den.coeffs) == ref_canonical(num, den)
            num, den = rf
            assert str(f) == ref_rf_str(num, den)
            if den[0] == 0:
                with pytest.raises(PoleAtZeroError):
                    f.at_zero()
            else:
                assert f.at_zero() == (num[0] if num else 0) / den[0]
            if den != (1,):
                expected = hash((num, den))
            elif len(num) > 1:                  # f equals its num Polynomial
                expected = hash(num)
            else:                               # f equals a constant
                expected = hash(num[0] if num else F(0))
            assert hash(f) == expected
            assert (f == k) == (rf == rk)


def integer_poly(rng, degree, bits, lead=None):
    """Integers lowest first, of exactly the given degree (none for -1),
    the leading one ``lead`` if given."""
    cs = [rng.randint(-2**bits, 2**bits) for _ in range(degree + 1)]
    if cs:
        cs[-1] = lead or rng.choice((-1, 1)) * rng.randint(1, 2**bits)
    return cs


class TestLongDivision:
    """``scalars._long_division``, the one long division in Z[t], against
    ``ref_divmod`` over Q."""

    @BITS
    def test_monic_divisor(self, bits):
        rng = random.Random(f"long-division:{bits}")
        for _ in range(300):
            b = integer_poly(rng, rng.randint(0, 3), bits, lead=1)
            a = integer_poly(rng, rng.randint(-1, 6), bits)
            quot, rem = scalars._long_division(a, b)
            assert type(quot) is tuple and type(rem) is list and len(rem) <= len(b) - 1
            assert (quot, ref_trim(rem)) == ref_divmod(ref_trim(a), ref_trim(b))

    @BITS
    def test_none_at_a_quotient_coefficient_that_is_not_an_integer(self, bits):
        rng = random.Random(f"long-division-none:{bits}")
        for _ in range(300):
            b = integer_poly(rng, rng.randint(0, 3), bits)
            a = integer_poly(rng, rng.randint(-1, 6), bits)
            quot, rem = ref_divmod(ref_trim(a), ref_trim(b))
            result = scalars._long_division(a, b)
            if all(q.denominator == 1 for q in quot):
                assert (result[0], ref_trim(result[1])) == (quot, rem)
            else:
                assert result is None

    def test_examples(self):
        # 2t^2 + 1 by 2t + 1: the first quotient coefficient, 1, is an
        # integer and the second, -1/2, is not
        assert scalars._long_division([1, 0, 2], [1, 2]) is None
        assert scalars._long_division([1, 2], [1, 0, 2]) == ((), [1, 2])
        # a remainder that is not a multiple of the divisor is returned:
        # 4t^2 + 2t + 1 = 2t (2t + 1) + 1
        assert scalars._long_division([1, 2, 4], [1, 2]) == ((0, 2), [1])
        assert scalars._long_division([], [5, 3]) == ((), [])

    def test_dividend_shorter_than_the_divisor(self):
        rng = random.Random("long-division-short")
        for _ in range(100):
            b = integer_poly(rng, rng.randint(1, 4), 40)
            a = integer_poly(rng, rng.randint(-1, len(b) - 2), 40)
            assert scalars._long_division(a, b) == ((), a)
