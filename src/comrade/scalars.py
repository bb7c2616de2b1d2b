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
* ``Polynomial`` stores a tuple of Fraction coefficients, lowest degree
  first, with no trailing zeros; the zero polynomial is the empty tuple;
* ``RationalFunction`` stores a num/den Polynomial pair with
  gcd(num, den) = 1 and a monic den; zero is 0/1.  Reduction happens
  eagerly after every operation, so structural equality is field
  equality.

The constructor skips ``poly_gcd`` when num or den is a constant, since
the gcd is then 1.  ``poly_gcd`` itself works on integers: it clears
denominators and finds the gcd from one integer gcd of the two
polynomials evaluated at a power of two (GCDHEU), checked by trial
division over Z.  ``_low_digit`` and ``_unpack`` read such an evaluation
back as polynomial coefficients; ``factorization`` packs its SYMBOLIC
continuants the same way and reads them with these two functions.
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
        return Fraction(int(m[1]), int(m[2] or 1))
    except ZeroDivisionError:
        raise ValueError(f"invalid rational literal {text!r} (zero denominator)") from None


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``p`` or ``p/q`` (inverse of parse_rational)."""
    return str(value)


class PoleAtZeroError(ArithmeticError):
    """Evaluation of a rational function at t = 0 hit a zero denominator."""

    def __init__(self, function: "RationalFunction"):
        self.function = function
        super().__init__(f"pole at t = 0 in {function}")


class Polynomial:
    """Univariate polynomial over Fraction in dense coefficient form.

    ``coeffs[k]`` is the coefficient of t**k.  Instances are immutable by
    convention; arithmetic returns new objects.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def _coerced(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial((other,))
        return None

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return Polynomial(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd, dv = len(rem) - 1, other.degree
        lead = other.leading
        quot = [Fraction(0)] * max(dd - dv + 1, 0)
        while len(rem) - 1 >= dv and rem:
            k = len(rem) - 1 - dv
            q = rem[-1] / lead
            quot[k] = q
            for j, c in enumerate(other.coeffs):
                rem[k + j] -= q * c
            while rem and rem[-1] == 0:
                rem.pop()
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other):
        result = self.__divmod__(other)
        return result if result is NotImplemented else result[0]

    def __mod__(self, other):
        result = self.__divmod__(other)
        return result if result is NotImplemented else result[1]

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "Polynomial":
        if self.is_zero or self.leading == 1:
            return self
        inv = 1 / self.leading
        return Polynomial(tuple(c * inv for c in self.coeffs))

    def __eq__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
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

    def __repr__(self):
        return f"Polynomial({self})"


#: The indeterminate t as a polynomial.
POLY_T = Polynomial((0, 1))
_ONE = Polynomial((1,))


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
    scale = math.lcm(*(c.denominator for c in p.coeffs))
    cs = [c.numerator * (scale // c.denominator) for c in p.coeffs]
    content = math.gcd(*cs)
    return [c // content for c in cs]


def _divides(g: list, a: list) -> bool:
    """Whether the integer polynomial g divides a in Z[t]: long division
    that stops at the first quotient coefficient that is not an integer."""
    m = len(g) - 1
    rem, lead = list(a), g[-1]
    for k in range(len(a) - 1 - m, -1, -1):
        q, r = divmod(rem[k + m], lead)
        if r:
            return False
        for j in range(m):
            rem[k + j] -= q * g[j]
    return not any(rem[:m])


#: evaluation points GCDHEU tries before the Euclidean fallback
_GCDHEU_TRIES = 6


def _heuristic_gcd(a: list, b: list):
    """The gcd of the primitive integer polynomials a and b, with a
    positive leading coefficient, or None if every try fails."""
    norm = min(max(map(abs, a)), max(map(abs, b)))
    width = (2 * norm + 1).bit_length()             # 2^width >= 2 norm + 2
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
        if _divides(g, a) and _divides(g, b):
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
    least power of two with xi >= 2 min(|A|_inf, |B|_inf) + 2.  If
    gcd(A(xi), B(xi)) is at most xi - 1 - min(|A|_inf, |B|_inf), no
    common factor of degree >= 1 fits in it and the gcd is 1.  Otherwise
    its balanced base-xi digits, divided by their content, are the
    candidate G.  If G divides A and B in Z[t] it is their gcd; that
    bound on xi is what makes the check sufficient.  If
    not, the try is repeated at w + w // 4 + 2, up to 6 tries in all,
    and then the Euclidean algorithm over Q decides.
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
    return Polynomial([Fraction(c, g[-1]) for c in g])


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
                num, den = num // g, den // g
        lead = den.leading
        if lead != 1:
            num, den = Polynomial([c / lead for c in num.coeffs]), den.monic()
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

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return other / self

    def at_zero(self) -> Fraction:
        """Value at t = 0; raises PoleAtZeroError if the reduced
        denominator vanishes there."""
        d0 = self.den.coeffs[0]
        if d0 == 0:
            raise PoleAtZeroError(self)
        return self.num.coeffs[0] / d0 if self.num.coeffs else Fraction(0)

    def __eq__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        # display with integer coefficients: scale num/den by the lcm of
        # all coefficient denominators, then strip the common content
        denoms = [c.denominator for c in self.num.coeffs + self.den.coeffs]
        scale = math.lcm(*denoms) if denoms else 1
        num, den = self.num * scale, self.den * scale
        content = math.gcd(*(abs(c.numerator) for c in num.coeffs + den.coeffs))
        if content > 1:
            num, den = num * Fraction(1, content), den * Fraction(1, content)
        if den.degree <= 0:
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
