"""`Matrix` stores rows of canonical triples; every method must agree with
the same computation written with `GaussianRational`'s operators.

The reference below holds lists of Gaussian rationals and computes each
method entry by entry with the operators.  Seeded matrices from 1 x 1 to
5 x 5 mix zeros, integers, real fractions, pure imaginary entries and
general entries over mixed denominators.  For each method the result
must equal the reference, every triple the engine stores must be
canonical, `rows` and `m[i, j]` must give `GaussianRational`s, `vec(m)`
must hold the entries as one column, and a `Matrix` built from the
reference values (as Gaussian rationals, ints or texts) must equal and
hash equal to the engine-built one.

`perfbench/tracing.py` reads matrices through `rows` on every traced
`linalg.rank` and `solve_first` call, so a change of storage could break
`--trace 1` runs unnoticed.  Its echelon hooks are run here, the module
imported read-only as `scripts/phase_split.py` imports it, on the witness
documents of the benchmark's first witness round, and must give the
pinned cell counts and largest entry sizes.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from deligne_simpson import GaussianRational, Matrix, cli
from deligne_simpson.linalg import LinalgError, vec

ZERO = GaussianRational(0)


def _entry(rng) -> GaussianRational:
    kind = rng.randrange(5)
    if kind == 0:
        return ZERO
    if kind == 1:
        return GaussianRational(rng.randint(-9, 9))
    den = rng.choice([1, 2, 3, 4, 6, 9, 12, 35, 2**40 + 15])
    part = f"{rng.randint(-99, 99)}/{den}"
    if kind == 2:
        return GaussianRational(part)
    if kind == 3:
        return GaussianRational(0, part)
    return GaussianRational(part, f"{rng.randint(-99, 99)}/{rng.choice([1, 5, 7, 8])}")


def _values(rng, nrows, ncols) -> list[list[GaussianRational]]:
    return [[_entry(rng) for _ in range(ncols)] for _ in range(nrows)]


# the reference: lists of Gaussian rationals and their operators


def _ref_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b)] for row in a]


def _ref_norm(a) -> Fraction:
    return max(sum((abs(x.re) + abs(x.im) for x in row), Fraction(0)) for row in a)


def _stored_canonical(m: Matrix) -> bool:
    return all(
        type(a) is int and type(b) is int and type(d) is int and d > 0 and math.gcd(a, b, d) == 1
        for row in m._rows for a, b, d in row
    )


def _check(m: Matrix, ref) -> None:
    """m holds exactly the reference values, canonically, and its views
    give Gaussian rationals."""
    assert _stored_canonical(m)
    rows = m.rows
    assert all(type(x) is GaussianRational for row in rows for x in row)
    assert [list(row) for row in rows] == ref
    assert (m.nrows, m.ncols) == (len(ref), len(ref[0]))
    for i, row in enumerate(ref):
        for j, x in enumerate(row):
            got = m[i, j]
            assert type(got) is GaussianRational and got == x
    flat = vec(m)
    assert _stored_canonical(flat) and flat.ncols == 1
    assert [x for (x,) in flat.rows] == [x for row in ref for x in row]
    # built from the values, as Gaussian rationals, ints where integral, or texts
    for rebuilt in (
        Matrix(ref),
        Matrix([[x.re.numerator if x == x.re and x.re.denominator == 1 else x for x in row] for row in ref]),
        Matrix([[GaussianRational(str(x.re), str(x.im)) for x in row] for row in ref]),
    ):
        assert rebuilt == m and hash(rebuilt) == hash(m)


def _cases():
    rng = random.Random(20261022)
    out = []
    for _ in range(60):
        r, c, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        out.append((_values(rng, r, c), _values(rng, r, c), _values(rng, c, k), _entry(rng)))
    return out


CASES = _cases()


def test_cases_cover_mixed_entries():
    entries = [x for a, *_ in CASES for row in a for x in row]
    assert any(not x for x in entries)
    assert any(x.re == 0 and x.im != 0 for x in entries)
    assert any(x.im == 0 and x.re.denominator > 1 for x in entries)
    assert len({x.re.denominator for x in entries}) > 5


@pytest.mark.parametrize("index", range(len(CASES)))
def test_methods_match_the_operators(index):
    a, b, c, s = CASES[index]
    ma, mb, mc = Matrix(a), Matrix(b), Matrix(c)
    _check(ma, a)
    _check(ma + mb, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
    _check(ma - mb, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
    _check(-ma, [[-x for x in row] for row in a])
    _check(ma.scale(s), [[x * s for x in row] for row in a])
    _check(ma * s, [[x * s for x in row] for row in a])
    _check(ma * Fraction(-3, 7), [[x * Fraction(-3, 7) for x in row] for row in a])
    _check(ma * mc, _ref_mul(a, c))
    _check(ma - ma, [[ZERO] * len(a[0]) for _ in a])
    assert (ma - ma).is_zero() and Matrix.zeros(len(a), len(a[0])).is_zero()
    assert ma.is_zero() == all(not x for row in a for x in row)
    assert ma.norm_rowsum() == _ref_norm(a)
    assert (ma == mb) == (a == b)
    if ma.is_square:
        n = ma.nrows
        trace = ma.trace()
        assert type(trace) is GaussianRational
        assert trace == sum((a[i][i] for i in range(n)), ZERO)
        _check(ma.minus_scalar(s), [[x - s if i == j else x for j, x in enumerate(row)]
                                    for i, row in enumerate(a)])
    else:
        with pytest.raises(LinalgError):
            ma.trace()
        with pytest.raises(LinalgError):
            ma.minus_scalar(s)


@pytest.mark.parametrize("n", range(1, 6))
def test_identity_and_zeros(n):
    one = GaussianRational(1)
    _check(Matrix.identity(n), [[one if i == j else ZERO for j in range(n)] for i in range(n)])
    _check(Matrix.zeros(n, n + 1), [[ZERO] * (n + 1) for _ in range(n)])
    assert Matrix.identity(n) == Matrix([[int(i == j) for j in range(n)] for i in range(n)])


def test_rows_is_a_read_only_view():
    m = Matrix([[1, "1/2"], [GaussianRational(0, 3), 0]])
    with pytest.raises(AttributeError):
        m.rows = ()
    rows = m.rows
    assert rows == ((GaussianRational(1), GaussianRational("1/2")), (GaussianRational(0, 3), ZERO))
    assert m.rows is not rows and m.rows == rows


# -- the benchmark tracer's view of matrices ---------------------------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing, workloads


def test_echelon_hooks_count_cells_and_bits(perfbench_modules):
    """The cells and the largest entry part, in bits, that the
    `linalg.rank` and `linalg.solve_first` pre-hooks count."""
    tracing, workloads = perfbench_modules
    docs = []

    def write(doc):
        docs.append(doc)
        return "unused"

    next(workloads.BUILDERS["witness"](1, workloads.load_recorded(), write))
    witnesses = [cli.parse_witness(d) for d in docs if isinstance(d, dict) and "matrices" in d]
    assert len(witnesses) == 32
    rank_hook, solve_hook = tracing._echelon_input("rank"), tracing._echelon_input("solve")
    ranked, solved = tracing.Tracer(), tracing.Tracer()
    for w in witnesses:
        for m in w.matrices:
            assert rank_hook(ranked, (m,), {}) == (m,)
        first = w.matrices[0]
        solve_hook(solved, (first, Matrix.zeros(first.nrows, 1)), {})
    assert dict(ranked.counters) == {"echelon_cells": 2184, "entry_bits_max": 42}
    assert dict(solved.counters) == {"echelon_cells": 874, "entry_bits_max": 7}
