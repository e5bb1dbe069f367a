"""GaussianRational against a reference that holds two Fractions.

`FractionPair` is the earlier implementation of GaussianRational, kept
here as the oracle: every operation on seeded operands (zero, pure
imaginary values, negative parts, 200-bit numerators, decimal and p/q
strings) must give the same value and the same text, and every result
must be in the canonical form (a + b*i)/d with d > 0 and gcd(a, b, d) = 1.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

import pytest

from deligne_simpson.exactnum import (
    GR_ONE,
    GR_ZERO,
    ExactNumberError,
    GaussianRational,
    format_rational,
    parse_rational,
)
from deligne_simpson.linalg import Matrix


class FractionPair:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", parse_rational(re))
        object.__setattr__(self, "im", parse_rational(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __add__(self, other):
        other = _as_pair(other)
        return FractionPair(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_pair(other)
        return FractionPair(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _as_pair(other) - self

    def __neg__(self):
        return FractionPair(-self.re, -self.im)

    def __mul__(self, other):
        other = _as_pair(other)
        return FractionPair(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_pair(other)
        if not other.re and not other.im:
            raise ZeroDivisionError("division by zero Gaussian rational")
        norm = other.re * other.re + other.im * other.im
        return FractionPair(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        return _as_pair(other) / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionPair(other)
        if not isinstance(other, FractionPair):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def l1(self) -> Fraction:
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


def _as_pair(x) -> FractionPair:
    return x if isinstance(x, FractionPair) else FractionPair(x)


STRINGS = ["-3/6", "1e-3", "4/8", "2.5", "-0.75", ".5", "1E+2", "-7", "0/5"]


def _part(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    if kind == 2:
        return Fraction(rng.randint(-60, 60), rng.randint(1, 60))
    if kind == 3:
        return f"{rng.randint(-40, 40)}/{rng.randint(1, 40)}"
    if kind == 4:
        return Fraction(rng.choice((1, -1)) * rng.getrandbits(200), rng.getrandbits(64) + 1)
    return rng.choice(STRINGS)


def _operands():
    rng = random.Random(20261018)
    fixed = [
        (0, 0), (0, 1), (0, "-3/6"), (1, 0), ("-3/6", "1e-3"), ("1e-3", 0),
        (2**200 + 1, 0), (0, -(2**200) + 3), (Fraction(-1, 3), Fraction(2, 9)),
    ]
    drawn = [(_part(rng), _part(rng)) for _ in range(50)]
    return fixed + drawn


OPERANDS = _operands()
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _canonical(x: GaussianRational) -> bool:
    a, b, d = x._t
    return d > 0 and math.gcd(a, b, d) == 1


def _agree(x: GaussianRational, ref: FractionPair) -> None:
    assert _canonical(x), x._t
    assert isinstance(x.re, Fraction) and isinstance(x.im, Fraction)
    assert (x.re, x.im) == (ref.re, ref.im)
    assert str(x) == str(ref)
    assert repr(x) == repr(ref)
    assert bool(x) == bool(ref)
    # the 1 x 1 row-sum norm is the entry's |re| + |im|
    assert Matrix([[x]]).norm_rowsum() == ref.l1()


def test_construction_agrees():
    for re, im in OPERANDS:
        _agree(GaussianRational(re, im), FractionPair(re, im))
    _agree(GaussianRational(), FractionPair())
    _agree(GaussianRational("-3/6"), FractionPair("-3/6"))
    assert GaussianRational("-3/6", "1e-3").re == Fraction(-1, 2)
    assert GaussianRational("-3/6", "1e-3").im == Fraction(1, 1000)


@pytest.mark.parametrize("op", sorted(OPS))
def test_binary_operations_agree(op):
    fn = OPS[op]
    values = [(GaussianRational(*p), FractionPair(*p)) for p in OPERANDS]
    for x, rx in values:
        for y, ry in values:
            if op == "/" and not ry:
                with pytest.raises(ZeroDivisionError):
                    fn(x, y)
                continue
            _agree(fn(x, y), fn(rx, ry))


@pytest.mark.parametrize("op", sorted(OPS))
def test_mixed_operands_agree(op):
    """int and Fraction on either side go through the same arithmetic."""
    fn = OPS[op]
    scalars = [0, 1, -3, Fraction(-3, 6), Fraction(2**200, 3)]
    for p in OPERANDS:
        x, rx = GaussianRational(*p), FractionPair(*p)
        for s in scalars:
            if not (op == "/" and not rx):
                _agree(fn(s, x), fn(s, rx))
            if not (op == "/" and s == 0):
                _agree(fn(x, s), fn(rx, s))


def test_negation_agrees():
    for p in OPERANDS:
        _agree(-GaussianRational(*p), -FractionPair(*p))


def test_equality_and_hash():
    values = [(GaussianRational(*p), FractionPair(*p)) for p in OPERANDS]
    for x, rx in values:
        for y, ry in values:
            assert (x == y) == (rx == ry)
            assert (x != y) == (rx != ry)
            if x == y:
                assert hash(x) == hash(y)
        for other in (0, 1, -7, Fraction(-1, 2), Fraction(1, 1000), rx.re):
            assert (x == other) == (rx == other)
            assert (other == x) == (other == rx)
    assert (x == "1/2") is False and x.__eq__("1/2") is NotImplemented


def test_numeric_tower():
    """Equal numbers hash equal, so a GaussianRational and the int or
    Fraction it equals find each other in dicts and sets; a bool is not
    a number and compares unequal instead of raising."""
    assert {GR_ONE: "x"}.get(1) == "x" and {1: "x"}.get(GR_ONE) == "x"
    assert hash(GaussianRational("1/3")) == hash(Fraction(1, 3))
    assert {Fraction(-1, 2), GaussianRational("-3/6"), GaussianRational(0, 1)} == {
        GaussianRational("-1/2"), GaussianRational(0, 1)}
    for p in OPERANDS:
        x = GaussianRational(*p)
        if not x.im:
            assert hash(x) == hash(x.re) and x == x.re
            if x.re.denominator == 1:
                assert hash(x) == hash(x.re.numerator) and x == x.re.numerator
    assert (GR_ONE == True) is False and (GR_ZERO == False) is False
    assert GR_ONE != True and (True == GR_ONE) is False


def test_equal_values_from_different_routes():
    half = GaussianRational(1, 0) / 2
    routes = [
        GaussianRational("1/2"), GaussianRational("-3/6") * -1, GaussianRational(".5"),
        GaussianRational(Fraction(4, 8), 0), half,
        GaussianRational(1, "1/3") - GaussianRational("1/2", "1/3"),
        GaussianRational(0, 1) * GaussianRational(0, "-1/2"),
        GaussianRational("1/4", "1/4") + GaussianRational("1/4", "-1/4"),
    ]
    for x in routes:
        assert _canonical(x)
        assert x == half == Fraction(1, 2)
        assert hash(x) == hash(half)
        assert str(x) == "1/2"
    assert len(set(routes)) == 1
    assert GaussianRational(1, 1) - GaussianRational(1, 1) == GR_ZERO == 0
    assert GaussianRational("1/2", "1/2") + GaussianRational("1/2", "-1/2") == GR_ONE == 1


def test_immutable():
    x = GaussianRational(1, 2)
    for name in ("re", "im", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
    assert (x.re, x.im) == (1, 2)


def test_constants_and_refusals():
    assert str(GR_ZERO) == "0" and repr(GR_ZERO) == "GaussianRational(0)" and not GR_ZERO
    assert str(GR_ONE) == "1" and repr(GR_ONE) == "GaussianRational(1)" and GR_ONE
    assert str(GaussianRational(0, -1)) == "-1i"
    assert str(GaussianRational("-3/6", "-1e-3")) == "-1/2-1/1000i"
    with pytest.raises(ValueError):
        GaussianRational(0.5)
    with pytest.raises(ValueError):
        GaussianRational(True)
    with pytest.raises(ZeroDivisionError):
        GR_ONE / GR_ZERO


TEXTS = ["0", "-0", "+5", "007", "3/4", "-6/8", "+10/4", "-0/5", " 7/8 ", "1.5", ".5",
         "-2.50", "1e-3", "2E+2", "1" * 60 + "/" + "7" * 40]


@pytest.mark.parametrize("text", TEXTS)
def test_texts_give_the_parsed_parts(text):
    """Integers and p/q become the triple without a Fraction; the value is
    the one parse_rational reads, in canonical form."""
    for re, im in ((text, "0"), ("-3/9", text), (text, text)):
        z = GaussianRational(re, im)
        assert _canonical(z), z._t
        assert (z.re, z.im) == (parse_rational(re), parse_rational(im))


BAD_TEXTS = {
    "zero denominator": "1/0", "negative over zero": "-3/0", "zero over zero": "+0/0",
    "digit limit": "1" * 5000, "digit limit denominator": "1/" + "2" * 5000,
    "long exponent": "1e1000", "underscore": "1_000", "nan": "nan", "empty": "",
    "blank": " ", "exponent over": "1/2e3", "bool": True, "float": 1.5, "none": None,
    "list": [1],
}


@pytest.mark.parametrize("name", sorted(BAD_TEXTS))
def test_refusals_are_parse_rationals(name):
    bad = BAD_TEXTS[name]
    with pytest.raises(ExactNumberError) as expected:
        parse_rational(bad)
    for args in ((bad,), (0, bad), (bad, "1/0")):
        with pytest.raises(ExactNumberError) as got:
            GaussianRational(*args)
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("text", TEXTS)
def test_parse_rational_matches_fraction(text):
    """Integers and p/q are read off the grammar's groups; Fraction's own
    parser is the reference for every accepted text."""
    got = parse_rational(text)
    assert type(got) is Fraction and got == Fraction(text.strip())


@pytest.mark.parametrize(
    "name",
    ["zero denominator", "negative over zero", "zero over zero", "digit limit",
     "digit limit denominator"],
)
def test_group_texts_keep_fractions_errors(name):
    bad = BAD_TEXTS[name]
    with pytest.raises((ValueError, ZeroDivisionError)) as reference:
        Fraction(bad.strip())
    with pytest.raises(ExactNumberError) as got:
        parse_rational(bad)
    assert str(got.value) == f"malformed rational {bad!r}: {reference.value}"
