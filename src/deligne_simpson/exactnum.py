"""Exact scalar arithmetic: string-encoded rationals and Gaussian rationals.

Every verdict-grade computation in this package runs over the field Q(i).
Floats are rejected at construction time; callers that want float output
convert explicitly at the edges.
"""

from __future__ import annotations

import re
from fractions import Fraction


class ExactNumberError(ValueError):
    pass


# p/q, an integer, or a decimal such as 1.5 or 1e-3; the exponent is
# capped at 3 digits so that no text can make Fraction build a huge integer
_RATIONAL = re.compile(r"[+-]?(?:[0-9]+/[0-9]+|(?=\.?[0-9])[0-9]*(?:\.[0-9]*)?(?:[eE][+-]?[0-9]{1,3})?)")


def parse_rational(text) -> Fraction:
    """Parse "p/q", "p" or a decimal like "1.5" or "1e-3" (optionally
    signed, exponent of at most 3 digits) into an exact Fraction."""
    if isinstance(text, Fraction):
        return text
    # JSON true/false arrive as bool, which subclasses int
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, float):
        raise ExactNumberError(f"refusing float {text!r}; pass a string like '1/3'")
    if not isinstance(text, str):
        raise ExactNumberError(f"cannot parse {text!r} as a rational")
    if not _RATIONAL.fullmatch(text.strip()):
        raise ExactNumberError(f"malformed rational {text!r}: expected p/q, an integer "
                               "or a decimal such as 1.5 or 1e-3 (exponent <= 3 digits)")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ExactNumberError(f"malformed rational {text!r}: {exc}") from exc


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", parse_rational(re))
        object.__setattr__(self, "im", parse_rational(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _as_gaussian(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gaussian(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _as_gaussian(other) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _as_gaussian(other)
        if not self.im and not other.im:
            return GaussianRational(self.re * other.re)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gaussian(other)
        if not other.re and not other.im:
            raise ZeroDivisionError("division by zero Gaussian rational")
        if not self.im and not other.im:
            return GaussianRational(self.re / other.re)
        norm = other.re * other.re + other.im * other.im
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        return _as_gaussian(other) / self

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_zero(self) -> bool:
        return not self

    def l1(self) -> Fraction:
        """|re| + |im|; submultiplicative magnitude proxy used for norms."""
        return abs(self.re) + abs(self.im)

    def __repr__(self):
        if not self.im:
            return f"GaussianRational({format_rational(self.re)})"
        return f"GaussianRational({format_rational(self.re)}, {format_rational(self.im)})"

    def __str__(self):
        if not self.im:
            return format_rational(self.re)
        if not self.re:
            return f"{format_rational(self.im)}i"
        sign = "+" if self.im > 0 else "-"
        return f"{format_rational(self.re)}{sign}{format_rational(abs(self.im))}i"


def _as_gaussian(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(x)


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
