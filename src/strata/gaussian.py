"""Exact Gaussian-rational arithmetic.

Coefficients throughout the library live in Q(i).  A value is held as three
plain ints ``(a, b, d)`` meaning ``(a + b i) / d``, with ``d > 0`` and
``gcd(a, b, d) == 1``, so equal values have equal triples and arithmetic needs
at most one gcd per result.  Literals in documents are strings of the form
``"a/b"`` or ``"a/b+c/d i"``; shorthand forms (``"2"``, ``"i"``, ``"1-2i"``,
``"6 i"``) are accepted on input, while output always uses the canonical
explicit-denominator form.
"""

from __future__ import annotations

import sys
from math import gcd, lcm

from .errors import DocumentParseError, LimitError


class GaussianRational:
    """An element of Q(i): ``(a + b i) / d`` in lowest terms, ``d > 0``."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            from fractions import Fraction
            re, im = Fraction(re), Fraction(im)
            # With both parts in lowest terms, no prime divides a, b and lcm.
            d = lcm(re.denominator, im.denominator)
            a = re.numerator * (d // re.denominator)
            b = im.numerator * (d // im.denominator)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.b, self.d)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _from_ints(self.a + other.a, self.b + other.b, d)
        return _from_ints(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _from_ints(self.a - other.a, self.b - other.b, d)
        return _from_ints(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.a, self.b
        c, e = other.a, other.b
        return _from_ints(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        c, e, f = other.a, other.b, other.d
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a + b i) / d * f / (c + e i) = (a + b i)(c - e i) f / (d norm)
        a, b = self.a, self.b
        return _from_ints((a * c + b * e) * f, (b * c - a * e) * f, self.d * norm)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _from_ints(-self.a, -self.b, self.d)

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __eq__(self, other) -> bool:
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def is_real(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is not rational")
        from fractions import Fraction
        return Fraction(self.a, self.d)

    def to_complex(self) -> complex:
        # int / int rounds correctly, so this is float(Fraction) of each part.
        return complex(self.a / self.d) + 1j * complex(self.b / self.d)

    # -- text ---------------------------------------------------------------

    def canonical(self) -> str:
        """Explicit-denominator document form, e.g. ``"3/2-1/1 i"``."""
        n, q = _lowest(self.a, self.d)
        s = f"{int_text(n)}/{int_text(q)}"
        if self.b != 0:
            sign = "-" if self.b < 0 else "+"
            n, q = _lowest(abs(self.b), self.d)
            s += f"{sign}{int_text(n)}/{int_text(q)} i"
        return s

    def __str__(self) -> str:
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return _rational_str(a, d)
        if a == 0:
            return _imag_str(b, d)
        sign = "-" if b < 0 else "+"
        return f"{_rational_str(a, d)}{sign}{_imag_str(abs(b), d)}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__
_set_a = GaussianRational.a.__set__
_set_b = GaussianRational.b.__set__
_set_d = GaussianRational.d.__set__


def _from_ints(a: int, b: int, d: int) -> GaussianRational:
    """The value ``(a + b i) / d`` for ints with ``d > 0``, brought to lowest terms."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = _new(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _coerce(other) -> GaussianRational | None:
    if isinstance(other, GaussianRational):
        return other
    # A Fraction can exist only once ``fractions`` is loaded, so an int needs no import.
    if isinstance(other, int) or isinstance(other, getattr(sys.modules.get("fractions"), "Fraction", ())):
        return GaussianRational(other)
    return None


def _lowest(n: int, d: int) -> tuple[int, int]:
    if d == 1:
        return n, 1
    g = gcd(n, d)
    return n // g, d // g


def int_text(n: int) -> str:
    """``str(n)``; LimitError when ``n`` has more digits than
    ``sys.get_int_max_str_digits()`` lets Python print."""
    try:
        return str(n)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise LimitError(f"a computed value needs more than {limit} digits to print") from None


def _rational_str(n: int, d: int) -> str:
    """``str(Fraction(n, d))``."""
    n, q = _lowest(n, d)
    return int_text(n) if q == 1 else f"{int_text(n)}/{int_text(q)}"


def _imag_str(b: int, d: int) -> str:
    if b == d:
        return "i"
    if b == -d:
        return "-i"
    return f"{_rational_str(b, d)}*i"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def _ratio_from_text(text: str, where: str) -> tuple[int, int]:
    """``(numerator, denominator > 0)`` of a rational literal, not reduced.

    ``""`` and ``"+"`` read as 1 and ``"-"`` as -1 (the coefficient of a bare
    ``i``).  An ASCII ``[sign]digits[/digits]`` literal is split and read with
    ``int()``; every other form is handed to ``Fraction``, which decides what
    else is accepted.  No value may need more digits than
    ``sys.get_int_max_str_digits()``: past it, printing fails, and a large
    exponent would take unbounded time to build.
    """
    if text in ("", "+"):
        return 1, 1
    if text == "-":
        return -1, 1
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    try:
        if text.isascii() and digits.isdigit() and (den.isdigit() or not slash):
            q = int(den) if slash else 1
            if q:
                return int(num), q
        from fractions import Fraction
        mantissa, e, exponent = text.replace("E", "e").partition("e")
        if e and not slash:
            value, shift = Fraction(mantissa), int(exponent)
        else:
            value, shift = Fraction(text), 0
        if value:
            # str() raises past the limit, and the shift adds |shift| digits.
            width = max(len(str(abs(value.numerator))), len(str(value.denominator)))
            limit = sys.get_int_max_str_digits()
            if limit and width + abs(shift) > limit:
                raise ValueError(f"more than {limit} digits")
            value *= Fraction(10) ** shift
    except (ValueError, ZeroDivisionError):
        raise DocumentParseError(f"malformed rational literal {text!r}", where)
    return value.numerator, value.denominator


def _ratio_from_text_strict(text: str, where: str) -> tuple[int, int]:
    if text in ("", "+", "-"):
        raise DocumentParseError(f"malformed rational literal {text!r}", where)
    return _ratio_from_text(text, where)


def parse_rational(value, where: str = "<literal>") -> Fraction:
    """Parse a plain rational literal (``"2/3"``, ``"-1"``, or a JSON int)."""
    from fractions import Fraction
    return Fraction(*_rational_ints(value, where))


def _rational_ints(value, where: str) -> tuple[int, int]:
    """``parse_rational`` as ``(numerator, denominator > 0)``, not reduced."""
    if isinstance(value, bool):
        raise DocumentParseError("boolean is not a rational literal", where)
    if isinstance(value, int):
        return value, 1
    if isinstance(value, str):
        text = "".join(value.split())
        if text in ("", "+", "-"):
            raise DocumentParseError(f"malformed rational literal {value!r}", where)
        return _ratio_from_text(text, where)
    raise DocumentParseError(f"expected rational literal, got {type(value).__name__}", where)


def parse_gaussian(value, where: str = "<literal>") -> GaussianRational:
    """Parse a Gaussian-rational literal (string or JSON int)."""
    if isinstance(value, bool):
        raise DocumentParseError("boolean is not a gaussian literal", where)
    if isinstance(value, int):
        return GaussianRational(value)
    if not isinstance(value, str):
        raise DocumentParseError(f"expected gaussian literal, got {type(value).__name__}", where)
    text = "".join(value.split())
    if not text:
        raise DocumentParseError("empty gaussian literal", where)
    if not text.endswith("i"):
        n, q = _ratio_from_text_strict(text, where)
        return _from_ints(n, 0, q)
    body = text[:-1]
    if body.endswith("*"):
        body = body[:-1]
    # Split off the trailing imaginary term at the last sign that is neither
    # leading, part of a fraction, nor an exponent's sign.
    split = -1
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "/+-*eE":
            split = k
            break
    if split < 0:
        n, q = _ratio_from_text(body, where)
        return _from_ints(0, n, q)
    re_n, re_q = _ratio_from_text_strict(body[:split], where)
    im_n, im_q = _ratio_from_text(body[split:], where)
    return _from_ints(re_n * im_q, im_n * re_q, re_q * im_q)
