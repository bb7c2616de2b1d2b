"""Scalar arithmetic for the solvers: exact rationals, polynomials in t,
and rational functions of t.

The symbolic types exist for one job: when a pivot (or a divisor alpha
entry) is exactly zero, the solver substitutes the indeterminate t,
carries it through the recurrences, and evaluates the result at t = 0.
Everything is kept in canonical form so that "is this exactly zero" is a
structural test; no epsilon is ever involved on the exact paths.

Representation invariants:

* rationals are ``fractions.Fraction`` (lowest terms, denominator > 0,
  zero is 0/1);
* ``Polynomial`` stores its coefficients as a tuple of integers, lowest
  degree first, over one positive denominator, with no trailing zeros
  and gcd(content, denominator) = 1, the content being the gcd of the
  integers; the zero polynomial is the empty tuple over 1.  So each
  polynomial has one form, and a monic one has primitive integers (its
  leading integer is its denominator).  ``coeffs``, the tuple of
  Fractions, is built when read;
* ``RationalFunction`` stores a num/den Polynomial pair with
  gcd(num, den) = 1 and a monic den; zero is 0/1.  Reduction happens
  eagerly after every operation, so structural equality is field
  equality.

Arithmetic, ``divmod`` (by pseudo-division), ``monic``, evaluation and
printing run on the integers, and each result is reduced by one integer
gcd with its denominator.  One long division in Z[t], ``_long_division``,
serves ``divmod``, the gcd's trial division and the constructor.  A
constant Polynomial or RationalFunction equals its Fraction value and
hashes as it, and a RationalFunction whose den is 1 hashes as its num.

Both classes follow one operator protocol, built by ``_operators``: a
binary operator coerces its other operand with the class's ``_coerced``
(an int, bool or Fraction, and for a RationalFunction also a
Polynomial), returns NotImplemented for any other type, so Python raises
TypeError (or ``==`` gives False), and otherwise runs the arithmetic on
two instances.  Polynomial has ``+ - * divmod // % ==`` and the
reflected ``+ - *``; RationalFunction has ``+ - * / ==`` and the
reflected ``+ - * /``.

The RationalFunction constructor skips ``poly_gcd`` when num or den is a
constant, since the gcd is then 1.  Otherwise it divides the integers of
num and den by those of their monic gcd, exactly in Z[t], and makes den
monic by scaling both by one rational.  ``poly_gcd`` itself works on
integers: it finds the gcd from one integer gcd of the two primitive
integer polynomials evaluated at a power of two (GCDHEU), checked by
trial division over Z.  ``_low_digit`` and ``_unpack`` read such an
evaluation back as polynomial coefficients; ``factorization`` packs its
SYMBOLIC continuants the same way and reads them with these two
functions.
"""

from __future__ import annotations

import enum
import math
import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal of the form ``p`` or ``p/q``.

    Deliberately stricter than ``Fraction(str)``: decimal and exponent
    forms are rejected so matrix files stay exact by construction, and
    so are non-ASCII digits and non-ASCII whitespace around the literal.
    """
    m = _RATIONAL_RE.fullmatch(text.strip(" \t\n\r\f\v"))
    if not m:
        raise ValueError(f"invalid rational literal {text!r} (want 'p' or 'p/q')")
    try:
        p, q = int(m[1]), int(m[2] or 1)
    except ValueError:                  # past the int/str digit limit
        p, q = _decimal_int(m[1]), _decimal_int(m[2] or "1")
    if not q:
        raise ValueError(f"invalid rational literal {text!r} (zero denominator)")
    return Fraction(p, q)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``p`` or ``p/q`` (inverse of parse_rational),
    with p and q of any length through ``_decimal_str``."""
    p, q = _decimal_str(value.numerator), value.denominator
    return p if q == 1 else f"{p}/{_decimal_str(q)}"


# Python refuses to convert an int of more than
# sys.get_int_max_str_digits() decimal digits (4,300 by default) to or
# from a string, since 3.10.7 on the 3.10 line and on every later one.  Matrix files and printed results have no such limit:
# these two convert a number past it in halves, each within it, and
# leave the interpreter's setting alone.

def _decimal_int(text: str) -> int:
    """int(text) for a decimal integer literal, "[+-]?[0-9]+", of any length."""
    try:
        return int(text)
    except ValueError:
        digits = text.lstrip("+-")
        k = len(digits) // 2
        value = _decimal_int(digits[:-k]) * 10**k + _decimal_int(digits[-k:])
        return -value if text[0] == "-" else value


def _decimal_str(value: int) -> str:
    """str(value) for an int of any size."""
    try:
        return str(value)
    except ValueError:
        k = value.bit_length() * 3 // 20            # about half its digits
        high, low = divmod(abs(value), 10**k)
        sign = "-" if value < 0 else ""
        return sign + _decimal_str(high) + _decimal_str(low).zfill(k)


class PoleAtZeroError(ArithmeticError):
    """Evaluation of a rational function at t = 0 hit a zero denominator."""

    def __init__(self, function: "RationalFunction"):
        self.function = function
        super().__init__(f"pole at t = 0 in {function}")


def _operators(op):
    """The forward and the reflected method of a binary operator whose
    arithmetic is op(a, b) on two instances of one class.  Each coerces
    the other operand with the class's ``_coerced`` and returns
    NotImplemented for a type it refuses, as ``fractions.Fraction`` does."""
    def forward(self, other):
        other = self._coerced(other)
        return NotImplemented if other is None else op(self, other)

    def reflected(self, other):
        other = self._coerced(other)
        return NotImplemented if other is None else op(other, self)

    return forward, reflected


class Polynomial:
    """Univariate polynomial over Q in dense coefficient form.

    ``coeffs[k]`` is the coefficient of t**k, a Fraction.  The
    polynomial is held as integers over one positive denominator (see the
    module docstring), and ``coeffs`` is built from them when read.  The
    constructor takes ints, bools, Fractions, floats or anything else
    ``Fraction()`` takes; an all-int input builds no Fraction.  Instances
    are immutable by convention; arithmetic returns new objects.
    """

    __slots__ = ("_ints", "_den")

    def __init__(self, coeffs=()):
        cs, den = list(coeffs), 1
        if not all(type(c) is int for c in cs):
            # the lcm of lowest-terms denominators leaves the integers
            # with no factor in common with it
            cs = [c if isinstance(c, Fraction) else Fraction(c) for c in cs]
            den = math.lcm(*(c.denominator for c in cs))
            cs = [c.numerator * (den // c.denominator) for c in cs]
        while cs and not cs[-1]:
            cs.pop()
        self._ints, self._den = tuple(cs), den      # a zero has denominator 1

    @classmethod
    def _of(cls, ints: tuple, den: int = 1) -> "Polynomial":
        """The polynomial ints / den, which must already be canonical."""
        p = object.__new__(cls)
        p._ints, p._den = ints, den
        return p

    @property
    def coeffs(self) -> tuple:
        den = self._den
        if den == 1:
            return tuple(map(Fraction, self._ints))
        return tuple(Fraction(c, den) for c in self._ints)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self._ints

    @property
    def leading(self) -> Fraction:
        return Fraction(self._ints[-1], self._den) if self._ints else Fraction(0)

    def _coerced(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial((other,))
        return None

    def _plus(self, other, sign: int):
        """self + sign * other, on the integers over the lcm of the two
        denominators."""
        a, b, den = self._ints, other._ints, self._den
        if other._den != den:
            den = math.lcm(den, other._den)
            a = [c * (den // self._den) for c in a]
            b = [c * (den // other._den) for c in b]
        out = [*a, *[0] * (len(b) - len(a))]
        for k, c in enumerate(b):
            out[k] += sign * c
        return _reduced(out, den)

    __add__, __radd__ = _operators(lambda a, b: a._plus(b, 1))
    __sub__, __rsub__ = _operators(lambda a, b: a._plus(b, -1))

    def __neg__(self):
        return Polynomial._of(tuple(-c for c in self._ints), self._den)

    def _times(self, other):
        a, b = self._ints, other._ints
        if not a or not b:
            return _ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ci in enumerate(a):
            if ci:
                for j, cj in enumerate(b):
                    out[i + j] += ci * cj
        return _reduced(out, self._den * other._den)

    __mul__, __rmul__ = _operators(_times)

    def _divmod(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        a, b = self._ints, other._ints
        k = len(a) - len(b)
        if k < 0:
            return _ZERO, self
        # pseudo-division: lead^(k+1) a = q b + r has q and r in Z[t], so
        # every quotient coefficient is an exact integer division
        scale = b[-1] ** (k + 1)
        quot, rem = _long_division([c * scale for c in a], b)
        # self = (quot other._den / (scale self._den)) other + rem / (scale self._den)
        den = scale * self._den
        return _reduced([q * other._den for q in quot], den), _reduced(rem, den)

    __divmod__ = _operators(_divmod)[0]
    __floordiv__ = _operators(lambda a, b: a._divmod(b)[0])[0]
    __mod__ = _operators(lambda a, b: a._divmod(b)[1])[0]
    __eq__ = _operators(lambda a, b: a._ints == b._ints and a._den == b._den)[0]

    def __call__(self, x) -> Fraction:
        """The exact value at x: an int, bool or Fraction, or a float
        taken at its exact binary value."""
        if not self._ints:
            return Fraction(0)
        # at x = p/q: the sum of c_k p^k q^(d-k), over q^d
        p, q = x.as_integer_ratio()
        acc, power = 0, 1
        for c in reversed(self._ints):
            acc = acc * p + c * power
            power *= q
        return Fraction(acc, power // q * self._den)

    def monic(self) -> "Polynomial":
        ints = self._ints
        if not ints or ints[-1] == self._den:
            return self
        return _reduced(list(ints), ints[-1])

    def __hash__(self):
        # a constant equals its Fraction value, so it hashes as one
        return hash(self.leading) if len(self._ints) <= 1 else hash(self.coeffs)

    def __str__(self):
        ints, den = self._ints, self._den
        if not ints:
            return "0"
        parts = []
        for k in range(len(ints) - 1, -1, -1):
            c = ints[k]
            if not c:
                continue
            mag = abs(c) if den == 1 else Fraction(abs(c), den)
            if k == 0:
                term = str(mag)
            else:
                mag = "" if mag == 1 else f"{mag}*"
                term = f"{mag}t" if k == 1 else f"{mag}t^{k}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"


def _reduced(ints: list, den: int) -> Polynomial:
    """The canonical polynomial ints / den, for any nonzero den."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return _ZERO
    if den < 0:
        ints, den = [-c for c in ints], -den
    if den != 1:
        g = math.gcd(den, *ints)
        if g != 1:
            ints, den = [c // g for c in ints], den // g
    return Polynomial._of(tuple(ints), den)


#: The indeterminate t as a polynomial.
POLY_T = Polynomial((0, 1))
_ONE = Polynomial((1,))
_ZERO = Polynomial(())


def _low_digit(v: int, width: int) -> int:
    """The constant coefficient of the packed polynomial v: its lowest
    balanced base-2^width digit, in [-2^(width-1), 2^(width-1))."""
    half = 1 << (width - 1)
    return ((v + half) & ((1 << width) - 1)) - half


def _unpack(v: int, width: int) -> list:
    """Coefficients of the packed polynomial v, lowest first, as the
    balanced digits of ``_low_digit``."""
    digits = []
    while v:
        digits.append(_low_digit(v, width))
        v = (v - digits[-1]) >> width
    return digits


def _evaluate(cs: list, width: int) -> int:
    """The integer polynomial cs at t = 2^width."""
    v = 0
    for c in reversed(cs):
        v = (v << width) + c
    return v


def _primitive(p: Polynomial) -> list:
    """The integer coefficients of p times the positive rational that
    makes them coprime integers, lowest first."""
    content = math.gcd(*p._ints)
    return [c // content for c in p._ints] if content != 1 else list(p._ints)


def _long_division(a, b):
    """(quotient, remainder) of the integer polynomials a and b != 0,
    lowest first, a tuple and a list of len(b) - 1 or fewer integers; or
    None at the first quotient coefficient that is not an integer."""
    m = len(b) - 1
    rem, lead = list(a), b[-1]
    quot = [0] * max(len(a) - m, 0)
    for k in range(len(a) - 1 - m, -1, -1):
        r = rem[k + m]
        q = quot[k] = r // lead
        if q * lead != r:
            return None
        for j in range(m):
            rem[k + j] -= q * b[j]
    return tuple(quot), rem[:m]


#: evaluation points GCDHEU tries before the Euclidean fallback
_GCDHEU_TRIES = 6


def _heuristic_gcd(a: list, b: list):
    """The gcd of the primitive integer polynomials a and b, with a
    positive leading coefficient, or None if every try fails."""
    norm = min(max(map(abs, a)), max(map(abs, b)))
    width = (2 * norm + 1).bit_length() + 1         # 2^width >= 4 norm + 4
    for _ in range(_GCDHEU_TRIES):
        gamma = math.gcd(_evaluate(a, width), _evaluate(b, width))
        # a common root r has |r| < 1 + norm (Cauchy), so a common factor
        # G of degree >= 1 has |G(xi)| > xi - 1 - norm, and G(xi) divides
        # gamma: a gamma no larger leaves only a constant
        if gamma <= (1 << width) - 1 - norm:
            return [1]
        g = _unpack(gamma, width)
        content = math.gcd(*g) if g[-1] > 0 else -math.gcd(*g)
        g = [c // content for c in g]
        divisions = (_long_division(p, g) for p in (a, b))
        if all(d is not None and not any(d[1]) for d in divisions):     # g divides a and b
            return g
        width += width // 4 + 2
    return None


def _euclidean_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic gcd of p and q, not both zero, by the Euclidean algorithm
    over Q: the fallback of ``poly_gcd``."""
    a, b = p, q
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic gcd of p and q; gcd(0, 0) is undefined.

    A zero operand gives the other one, made monic, and a constant
    operand gives 1.  Otherwise the gcd is the heuristic GCDHEU (Char,
    Geddes and Gonnet 1989) on integers.  Both operands are scaled to
    primitive integer polynomials A and B and evaluated at xi = 2^w, the
    least power of two with xi >= 4 min(|A|_inf, |B|_inf) + 4.  If
    gcd(A(xi), B(xi)) is at most xi - 1 - min(|A|_inf, |B|_inf), no
    common factor of degree >= 1 fits in it and the gcd is 1.  Otherwise
    its balanced base-xi digits, divided by their content, are the
    candidate G.  If G divides A and B in Z[t] it is their gcd: any
    xi >= 2 min(|A|_inf, |B|_inf) + 2 makes the check sufficient, and
    twice that rejects fewer first candidates.  If not, the try is
    repeated at w + w // 4 + 2, up to 6 tries in all, and then the
    Euclidean algorithm over Q decides.
    """
    if p.is_zero and q.is_zero:
        raise ValueError("poly_gcd(0, 0) is undefined")
    if p.is_zero or q.is_zero:
        return (q if p.is_zero else p).monic()
    if p.degree == 0 or q.degree == 0:
        return _ONE
    g = _heuristic_gcd(_primitive(p), _primitive(q))
    if g is None:
        return _euclidean_gcd(p, q)
    return Polynomial._of(tuple(g), g[-1])           # primitive, with g[-1] > 0


class RationalFunction:
    """Quotient of two Polynomials in t, always in canonical form.

    Canonical means gcd(num, den) = 1 with den monic (zero is 0/1), so
    ``f == 0`` is exactly the "identically zero" test that pivot logic
    relies on, and ``==`` between canonical forms is field equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = num if isinstance(num, Polynomial) else Polynomial((num,))
        den = den if isinstance(den, Polynomial) else Polynomial((den,))
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = num, _ONE
            return
        if num.degree > 0 and den.degree > 0:
            g = poly_gcd(num, den)
            if g.degree > 0:
                # g is monic, so its integers G are primitive and divide
                # both sides' integers in Z[t]; num / den is unchanged
                # when both are divided by G
                G = g._ints
                num = Polynomial._of(_long_division(num._ints, G)[0], num._den)
                den = Polynomial._of(_long_division(den._ints, G)[0], den._den)
        lead = den._ints[-1]
        if lead != den._den:                        # scale both by den._den / lead
            num = _reduced([c * den._den for c in num._ints], num._den * lead)
            den = den.monic()
        self.num, self.den = num, den

    @classmethod
    def t(cls) -> "RationalFunction":
        """The indeterminate t."""
        return cls(POLY_T)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def _coerced(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction, Polynomial)):
            return RationalFunction(other)
        return None

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    __add__, __radd__ = _operators(
        lambda a, b: RationalFunction(a.num * b.den + b.num * a.den, a.den * b.den))
    __sub__, __rsub__ = _operators(
        lambda a, b: RationalFunction(a.num * b.den - b.num * a.den, a.den * b.den))
    __mul__, __rmul__ = _operators(
        lambda a, b: RationalFunction(a.num * b.num, a.den * b.den))

    def _quotient(self, other):
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    __truediv__, __rtruediv__ = _operators(_quotient)
    __eq__ = _operators(lambda a, b: a.num == b.num and a.den == b.den)[0]

    def at_zero(self) -> Fraction:
        """Value at t = 0; raises PoleAtZeroError if the reduced
        denominator vanishes there."""
        num, den = self.num, self.den
        d0 = den._ints[0]
        if not d0:
            raise PoleAtZeroError(self)
        return Fraction(num._ints[0] * den._den, num._den * d0) if num._ints else Fraction(0)

    def __hash__(self):
        # den is monic, so a constant den is 1: the function then equals
        # its num, a Polynomial or a constant, and hashes as it
        if self.den.degree == 0:
            return hash(self.num)
        return hash((self.num.coeffs, self.den.coeffs))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        # display with integer coefficients: num and den times the lcm of
        # their denominators.  These have no common content: a prime of
        # the lcm misses some integer of the side whose denominator holds
        # it to the higher power, and den's leading integer is the lcm.
        num, den = self.num, self.den
        scale = math.lcm(num._den, den._den)
        num, den = (Polynomial._of(tuple(c * (scale // p._den) for c in p._ints))
                    for p in (num, den))
        if den.degree == 0:
            return f"{num}" if den == 1 else f"({num})/{den}"
        return f"({num})/({den})"

    def __repr__(self):
        return f"RationalFunction({self})"


class ScalarMode(enum.Enum):
    """Arithmetic domain a factorization or inversion runs in.

    EXACT    Fraction arithmetic; zero pivots are errors.
    SYMBOLIC RationalFunction arithmetic; zero pivots become t and the
             result is evaluated at t = 0.
    FLOAT    binary64; "is zero" means exactly equal to 0.0, never an
             epsilon test.
    """

    EXACT = "exact"
    SYMBOLIC = "symbolic"
    FLOAT = "float"

    def scalar(self, value):
        """Convert a matrix entry to this mode's working type (idempotent)."""
        if self is ScalarMode.SYMBOLIC:
            return value if isinstance(value, RationalFunction) else RationalFunction(value)
        if self is ScalarMode.FLOAT:
            return float(value)
        return value if isinstance(value, Fraction) else Fraction(value)

    def finalize(self, value):
        """Collapse a working scalar to a reportable one (t = 0 in SYMBOLIC)."""
        if self is ScalarMode.SYMBOLIC and isinstance(value, RationalFunction):
            return value.at_zero()
        return value
