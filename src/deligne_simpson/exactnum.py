"""Exact scalar arithmetic: string-encoded rationals and Gaussian rationals.

Every verdict-grade computation in this package runs over the field Q(i).
Floats are rejected at construction time; callers that want float output
convert explicitly at the edges.  A rational is read by one function,
`_ratio`, from a JSON integer or a text of one grammar: "p/q", an integer
or a decimal such as "1.5" or "1e-3", with an exponent of at most 3
digits.  A Gaussian rational (a + b*i)/d is held as one integer triple
with d > 0 and gcd(a, b, d) = 1, so its arithmetic is integer arithmetic
and one gcd per result.  Entry by entry, that arithmetic lives only in
`canonical` and the `triple_*` functions, which `GaussianRational`'s
operators and `linalg.Matrix` share; `linalg`'s kernels fuse their sums.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd


class ExactNumberError(ValueError):
    pass


# p/q, an integer, or a decimal such as 1.5 or 1e-3; the exponent is
# capped at 3 digits so that no text can make Fraction build a huge integer.
# The groups give p/q and integers as (sign, num, den) and (sign, int).
_RATIONAL = re.compile(
    r"(?P<sign>[+-]?)(?:(?P<num>[0-9]+)/(?P<den>[0-9]+)|(?P<int>[0-9]+)"
    r"|(?=\.?[0-9])[0-9]*(?:\.[0-9]*)?(?:[eE][+-]?[0-9]{1,3})?)"
)


def parse_rational(text) -> Fraction:
    """Parse "p/q", "p" or a decimal like "1.5" or "1e-3" (optionally
    signed, exponent of at most 3 digits) into an exact Fraction; a
    Fraction is returned as it is."""
    return text if type(text) is Fraction else Fraction(*_ratio(text))


def _ratio(text) -> tuple[int, int]:
    """(p, q) with q > 0 and p/q the value of `text`, not necessarily in
    lowest terms: a text of the grammar, an int (not a bool) or a Fraction.
    Integers and p/q texts are read off the grammar's groups, a decimal by
    Fraction's own parser; a zero denominator and a part past int's digit
    limit are refused with Fraction's error texts."""
    if isinstance(text, str):
        m = _RATIONAL.fullmatch(text.strip())
        if not m:
            raise ExactNumberError(f"malformed rational {text!r}: expected p/q, an integer "
                                   "or a decimal such as 1.5 or 1e-3 (exponent <= 3 digits)")
        sign, num, den, whole = m.groups()
        try:
            if not (whole or den):
                x = Fraction(m[0])
                return x.numerator, x.denominator
            p, q = int(whole or num), int(den or 1)
        except ValueError as exc:  # past int's digit limit
            raise ExactNumberError(f"malformed rational {text!r}: {exc}") from exc
        if sign == "-":
            p = -p
        if not q:
            raise ExactNumberError(f"malformed rational {text!r}: Fraction({p}, 0)")
        return p, q
    # JSON true/false arrive as bool, which subclasses int
    if isinstance(text, int) and not isinstance(text, bool):
        return text, 1
    if isinstance(text, Fraction):
        return text.numerator, text.denominator
    if isinstance(text, float):
        raise ExactNumberError(f"refusing float {text!r}; pass a string like '1/3'")
    raise ExactNumberError(f"cannot parse {text!r} as a rational")


def format_rational(x: Fraction) -> str:
    return _format_ratio(x.numerator, x.denominator)


def _format_ratio(p: int, q: int) -> str:
    g = gcd(p, q)
    p, q = p // g, q // g
    return str(p) if q == 1 else f"{p}/{q}"


def parse_triple(re, im=0) -> tuple[int, int, int]:
    """The canonical triple of re + im*i, each part read by `_ratio`."""
    a, p = _ratio(re)
    b, q = _ratio(im)
    return canonical(a * q, b * p, p * q)


def canonical(a: int, b: int, d: int) -> tuple[int, int, int]:
    """The canonical triple of (a + b*i)/d for d > 0: divided by gcd(a, b, d)."""
    g = gcd(a, b, d)
    return (a, b, d) if g == 1 else (a // g, b // g, d // g)


def triple_add(x, y) -> tuple[int, int, int]:
    a1, b1, d1 = x
    a2, b2, d2 = y
    if d1 == d2:
        return canonical(a1 + a2, b1 + b2, d1)
    return canonical(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def triple_sub(x, y) -> tuple[int, int, int]:
    a1, b1, d1 = x
    a2, b2, d2 = y
    if d1 == d2:
        return canonical(a1 - a2, b1 - b2, d1)
    return canonical(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)


def triple_neg(x) -> tuple[int, int, int]:
    return -x[0], -x[1], x[2]


def triple_mul(x, y) -> tuple[int, int, int]:
    a1, b1, d1 = x
    a2, b2, d2 = y
    return canonical(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)


class GaussianRational:
    """Complex number with exact rational real and imaginary parts.

    The value (a + b*i)/d is held as its canonical triple (a, b, d), d > 0
    and gcd(a, b, d) = 1.  That form is unique, so equality and hashing
    compare the triple.  The operators are the triple functions above,
    and every result is built by `_make`; only the public constructor
    parses its arguments.  `re` and `im` are the parts as Fractions.
    """

    __slots__ = ("_t",)

    def __init__(self, re=0, im=0):
        _set(self, parse_triple(re, im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._t[0], self._t[2])

    @property
    def im(self) -> Fraction:
        return Fraction(self._t[1], self._t[2])

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return _make(triple_add(self._t, triple(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return _make(triple_sub(self._t, triple(other)))

    def __rsub__(self, other):
        return _make(triple_sub(triple(other), self._t))

    def __neg__(self):
        return _make(triple_neg(self._t))

    def __mul__(self, other):
        return _make(triple_mul(self._t, triple(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a1, b1, d1 = self._t
        a2, b2, d2 = triple(other)
        if not a2 and not b2:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # multiply by the conjugate a2 - b2*i over the norm a2^2 + b2^2
        a, b = (a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2
        return _make(canonical(a, b, d1 * (a2 * a2 + b2 * b2)))

    def __rtruediv__(self, other):
        return _make(triple(other)) / self

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._t == other._t
        # a bool is not a number here, although it subclasses int
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self._t == (other.numerator, 0, other.denominator)
        return NotImplemented

    def __hash__(self):
        # a real value hashes as the equal Fraction, and so int, does
        a, b, d = self._t
        return hash(self._t) if b else hash(Fraction(a, d))

    def __bool__(self):
        return bool(self._t[0] or self._t[1])

    def format_parts(self) -> tuple[str, str]:
        """The real and imaginary parts as "p/q" (or "p") in lowest terms,
        formatted from the triple without building Fractions."""
        a, b, d = self._t
        return _format_ratio(a, d), _format_ratio(b, d)

    def __repr__(self):
        a, b, d = self._t
        parts = [_format_ratio(a, d)] + ([_format_ratio(b, d)] if b else [])
        return f"GaussianRational({', '.join(parts)})"

    def __str__(self):
        a, b, d = self._t
        if not b:
            return _format_ratio(a, d)
        if not a:
            return f"{_format_ratio(b, d)}i"
        sign = "+" if b > 0 else "-"
        return f"{_format_ratio(a, d)}{sign}{_format_ratio(abs(b), d)}i"


_new = object.__new__
_set = GaussianRational._t.__set__


def _make(t: tuple[int, int, int]) -> GaussianRational:
    """The Gaussian rational of the canonical triple t; `linalg.Matrix`'s
    views are built with it too."""
    z = _new(GaussianRational)
    _set(z, t)
    return z


def triple(x) -> tuple[int, int, int]:
    """The canonical triple of a Gaussian rational, an int, a Fraction or a text."""
    if isinstance(x, GaussianRational):
        return x._t
    return (x, 0, 1) if type(x) is int else parse_triple(x)


def residue_map(p: int, s: int):
    """The ring homomorphism (a + b*i)/d -> (a + b*s) * d^-1 mod p, for a
    prime p and s^2 = -1 mod p, as a function on canonical triples that
    returns None when p divides d.  Each distinct d is inverted once."""
    inverses: dict[int, int] = {}

    def residue(t: tuple[int, int, int]) -> int | None:
        a, b, d = t
        inv = inverses.get(d)
        if inv is None:
            if not d % p:
                return None
            inv = inverses[d] = pow(d, -1, p)
        return (a + b * s) * inv % p

    return residue


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
