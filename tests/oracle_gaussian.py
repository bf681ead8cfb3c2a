"""Reference implementation kept as the oracle for ``strata.gaussian``.

``GaussianRational`` here is the class ``strata.gaussian`` used before it moved
to three plain ints: an element of Q(i) held as a pair of exact
``fractions.Fraction`` values, every operation building two new Fractions.
``parse_gaussian`` and ``parse_rational`` are the parsers that went with it,
handing every literal to ``Fraction(text)``.  Both are deliberately slow and
obvious; the differential tests in ``test_gaussian.py`` compare the fast class
and parsers with them value by value, text by text and error by error.
"""

from __future__ import annotations

from fractions import Fraction

from strata.errors import DocumentParseError


class GaussianRational:
    """An element of Q(i) with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "GaussianRational | None":
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def is_real(self) -> bool:
        return self.im == 0

    def as_fraction(self) -> Fraction:
        if self.im != 0:
            raise ValueError(f"{self} is not rational")
        return self.re

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    # -- text ---------------------------------------------------------------

    def canonical(self) -> str:
        """Explicit-denominator document form, e.g. ``"3/2-1/1 i"``."""
        s = f"{self.re.numerator}/{self.re.denominator}"
        if self.im != 0:
            sign = "-" if self.im < 0 else "+"
            mag = abs(self.im)
            s += f"{sign}{mag.numerator}/{mag.denominator} i"
        return s

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return _imag_str(self.im)
        sign = "-" if self.im < 0 else "+"
        return f"{self.re}{sign}{_imag_str(abs(self.im)).lstrip('+')}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _imag_str(im: Fraction) -> str:
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}*i"


def _fraction_from_text(text: str, where: str) -> Fraction:
    if text in ("", "+"):
        return Fraction(1)
    if text == "-":
        return Fraction(-1)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DocumentParseError(f"malformed rational literal {text!r}", where)


def parse_rational(value, where: str = "<literal>") -> Fraction:
    """Parse a plain rational literal (``"2/3"``, ``"-1"``, or a JSON int)."""
    if isinstance(value, bool):
        raise DocumentParseError("boolean is not a rational literal", where)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = "".join(value.split())
        if text in ("", "+", "-"):
            raise DocumentParseError(f"malformed rational literal {value!r}", where)
        return _fraction_from_text(text, where)
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
        return GaussianRational(_fraction_from_text_strict(text, where))
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
        return GaussianRational(0, _fraction_from_text(body, where))
    real = _fraction_from_text_strict(body[:split], where)
    imag = _fraction_from_text(body[split:], where)
    return GaussianRational(real, imag)


def _fraction_from_text_strict(text: str, where: str) -> Fraction:
    if text in ("", "+", "-"):
        raise DocumentParseError(f"malformed rational literal {text!r}", where)
    return _fraction_from_text(text, where)
