"""The elimination results of `linalg` against sympy over Q(i).

Seeded Gaussian-rational matrices from 1 x 1 up to 6 x 9, some with a
planted rank deficiency (a product through a narrower inner dimension)
and some with zeroed rows and columns, are checked against sympy's
`DomainMatrix` over `QQ_I`: the pivot columns against `rref()`, every
`solve_first` answer against the augmented rank and A x = b, and
`left_divide(A, I)` against the identity.  Matrices with mixed
denominators and 4-, 60- and 400-bit parts are checked the same way,
`left_divide` against sympy's inverse and A^-1 B, every product against
sympy's and every `norm_rowsum` against a sum of Fractions, with every
entry the kernel stores or returns in lowest terms; `left_divide` by a
singular or non-square matrix is refused.  The generated-algebra dimension behind
`is_irreducible` is compared with a word-span closure ranked by sympy,
and with a^2 + b^2 + ab on conjugated block-upper-triangular tuples,
whose generated algebra is the whole block-upper-triangular algebra.
The closure `is_irreducible` runs without a tuple's last matrix when the
relation holds is checked against sympy's closure of all of them, on
relation tuples, block-diagonal assemblies and tuples that break their
relation.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from deligne_simpson import (
    ADDITIVE,
    MULTIPLICATIVE,
    GaussianRational,
    Matrix,
    MatrixTuple,
    assemble_block_diagonal,
    is_irreducible,
    verify_relation,
)
from deligne_simpson import linalg
from deligne_simpson.linalg import (
    LinalgError,
    SingularMatrixError,
    algebra_dimension,
    exact_algebra_dimension,
    left_divide,
    pivot_columns,
    rank,
    sl_basis,
    sl_element,
    solve_first,
)

from conftest import random_relation_tuple

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

SHAPES = [(r, c) for r in range(1, 7) for c in range(1, 10) if c >= r - 2]


def _entry(rng) -> GaussianRational:
    return GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))


def _random(rng, nrows, ncols, entry=_entry) -> list[list[GaussianRational]]:
    return [[entry(rng) for _ in range(ncols)] for _ in range(nrows)]


def _product(a, b) -> list[list[GaussianRational]]:
    return [
        [sum((x * y for x, y in zip(row, col)), GaussianRational(0)) for col in zip(*b)]
        for row in a
    ]


def _test_matrix(rng, nrows, ncols, entry=_entry) -> Matrix:
    """A full-rank-looking, a planted rank-deficient or a zero-padded
    matrix, chosen by the seed."""
    kind = rng.randrange(3)
    if kind == 1:
        inner = rng.randrange(0, min(nrows, ncols) + 1)
        if inner == 0:
            rows = [[GaussianRational(0)] * ncols for _ in range(nrows)]
        else:
            rows = _product(_random(rng, nrows, inner, entry), _random(rng, inner, ncols, entry))
    else:
        rows = _random(rng, nrows, ncols, entry)
    if kind == 2:
        for i in rng.sample(range(nrows), rng.randrange(nrows)):
            rows[i] = [GaussianRational(0)] * ncols
        for j in rng.sample(range(ncols), rng.randrange(ncols)):
            for row in rows:
                row[j] = GaussianRational(0)
    return Matrix(rows)


def _cases():
    rng = random.Random(20240611)
    return [(shape, _test_matrix(rng, *shape)) for shape in SHAPES for _ in range(3)]


CASES = _cases()
SQUARE = [m for _, m in CASES if m.is_square]


def _domain(m: Matrix) -> DomainMatrix:
    rows = [[sympy.Rational(x.re) + sympy.I * sympy.Rational(x.im) for x in row] for row in m.rows]
    return DomainMatrix.from_Matrix(sympy.Matrix(rows)).convert_to(sympy.QQ_I)


def _augmented(m: Matrix, rhs) -> Matrix:
    return Matrix([list(row) + [b] for row, b in zip(m.rows, rhs)])


def test_cases_cover_deficiency_and_zero_lines():
    deficient = [m for (r, c), m in CASES if rank(m) < min(r, c)]
    zero_row = [m for _, m in CASES if any(not any(row) for row in m.rows)]
    zero_col = [m for _, m in CASES if any(not any(col) for col in zip(*m.rows))]
    singular = [m for m in SQUARE if rank(m) < m.nrows]
    assert len(deficient) > 40 and len(zero_row) > 20 and len(zero_col) > 20
    assert len(singular) > 5 and len(SQUARE) - len(singular) > 5


@pytest.mark.parametrize("index", range(len(CASES)))
def test_pivot_columns_match_rref(index):
    _, m = CASES[index]
    _, pivots = _domain(m).rref()
    assert pivot_columns(m) == list(pivots)
    assert rank(m) == len(pivots)


@pytest.mark.parametrize("index", range(len(CASES)))
def test_solve_first_against_augmented_rank(index):
    _, m = CASES[index]
    rng = random.Random(index)
    _, pivots = _domain(m).rref()
    coeffs = [[_entry(rng)] for _ in range(m.ncols)]
    reachable = [row[0] for row in _product(m.rows, coeffs)]
    arbitrary = [_entry(rng) for _ in range(m.nrows)]
    for rhs in (reachable, arbitrary):
        column = Matrix([[b] for b in rhs])
        x, r = solve_first(m, column)
        assert r == len(pivots)
        consistent = _domain(_augmented(m, rhs)).rank() == len(pivots)
        assert (x is not None) == consistent
        if x is None:
            continue
        assert x.ncols == 1 and all(not v for j, (v,) in enumerate(x.rows) if j not in pivots)
        assert _domain(m) * _domain(x) == _domain(column)


@pytest.mark.parametrize("index", range(len(SQUARE)))
def test_inverse_or_singular(index):
    m = SQUARE[index]
    if _domain(m).rank() < m.nrows:
        with pytest.raises(SingularMatrixError):
            left_divide(m, Matrix.identity(m.nrows))
    else:
        assert left_divide(m, Matrix.identity(m.nrows)) * m == Matrix.identity(m.nrows)


# -- entries with denominators and with 60- and 400-bit parts ----------------


def _canonical(x: GaussianRational) -> bool:
    a, b, d = x._t
    return d > 0 and math.gcd(a, b, d) == 1


def _sized_entry(bits):
    """Parts p/q, p of up to `bits` bits and q from a mix of 1, small
    primes, a power of two and a random `bits`-bit denominator; every
    fifth entry 0."""

    def entry(rng) -> GaussianRational:
        if rng.randrange(5) == 0:
            return GaussianRational(0)

        def part():
            q = rng.choice([1, 1, 3, 7, 2**bits, rng.randint(1, 2**bits)])
            return f"{rng.randint(-(2**bits), 2**bits)}/{q}"

        return GaussianRational(part(), part())

    return entry


def _sized_cases():
    rng = random.Random(20261019)
    shapes = [(1, 1), (2, 3), (3, 2), (3, 3), (4, 4), (5, 3), (4, 6)]
    return [
        (bits, _test_matrix(rng, *shape, _sized_entry(bits)))
        for bits in (4, 60, 400)
        for shape in shapes
        for _ in range(2)
    ]


SIZED = _sized_cases()


@pytest.fixture
def canonical_kernel(monkeypatch):
    """Check after every `_add_row` that the reduced row and every stored
    pivot row hold canonical triples only."""
    add_row = linalg._add_row

    def checked(pivots, row):
        kept = add_row(pivots, row)
        for a, b, d in row:
            assert d > 0 and math.gcd(a, b, d) == 1, (a, b, d)
        for (pa, pb, pd), tail in pivots.values():
            for a, b, d in [(pa, pb, pd)] + [t[1:] for t in tail]:
                assert d > 0 and math.gcd(a, b, d) == 1, (a, b, d)
        return kept

    monkeypatch.setattr(linalg, "_add_row", checked)


def test_sized_cases_cover_denominators_and_sizes():
    entries = [x for _, m in SIZED for row in m.rows for x in row]
    assert {x._t[2] > 1 for x in entries} == {True, False}
    assert max(max(abs(x._t[0]), abs(x._t[1])).bit_length() for x in entries) > 400
    assert len({b for b, m in SIZED if rank(m) < min(m.nrows, m.ncols)}) == 3


@pytest.mark.parametrize("index", range(len(SIZED)))
def test_sized_elimination_against_sympy(index, canonical_kernel):
    bits, m = SIZED[index]
    rng = random.Random(index)
    domain = _domain(m)
    _, pivots = domain.rref()
    assert pivot_columns(m) == list(pivots)
    rhs = Matrix(_product(m.rows, _random(rng, m.ncols, 1, _sized_entry(bits))))
    x, r = solve_first(m, rhs)
    assert r == len(pivots) and x is not None and all(_canonical(v) for (v,) in x.rows)
    assert domain * _domain(x) == _domain(rhs)
    if m.is_square and len(pivots) == m.nrows:
        inv = left_divide(m, Matrix.identity(m.nrows))
        assert all(_canonical(v) for row in inv.rows for v in row)
        assert _domain(inv) == domain.inv()


@pytest.mark.parametrize("index", range(len(SIZED)))
def test_norm_rowsum_matches_fraction_sums(index):
    _, m = SIZED[index]
    expected = max(sum((abs(x.re) + abs(x.im) for x in row), Fraction(0)) for row in m.rows)
    assert m.norm_rowsum() == expected


@pytest.mark.parametrize("index", range(len(SIZED)))
def test_product_matches_sympy(index):
    bits, a = SIZED[index]
    b = _test_matrix(random.Random(index), a.ncols, 3, _sized_entry(bits))
    small = CASES[index][1]
    for left, right in ((a, b), (Matrix(zip(*small.rows)), small)):
        product = left * right
        assert all(_canonical(v) for row in product.rows for v in row)
        assert _domain(product) == _domain(left) * _domain(right)


@pytest.mark.parametrize("bits", [4, 60])
def test_sized_algebra_dimension(bits, canonical_kernel):
    """Conjugated block-upper-triangular pairs with denominators: the
    closure keeps every entry canonical and reaches a^2 + b^2 + ab."""
    rng = random.Random(bits)
    entry = _sized_entry(bits)
    p = _invertible(rng, 3)
    p_inv = left_divide(p, Matrix.identity(3))
    mats = [p_inv * Matrix([[entry(rng), entry(rng), entry(rng)],
                            [entry(rng), entry(rng), entry(rng)],
                            [0, 0, entry(rng)]]) * p for _ in range(2)]
    assert all(_canonical(v) for m in mats for row in m.rows for v in row)
    assert algebra_dimension(mats) == 7


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 1], [1, 1]],
        [[1, 2, 3], [4, 5, 6], [5, 7, 9]],
    ],
)
def test_singular_inverse_raises(rows):
    with pytest.raises(SingularMatrixError):
        left_divide(Matrix(rows), Matrix.identity(len(rows)))


@pytest.mark.parametrize("index", [i for i, m in enumerate(SQUARE) if _domain(m).rank() < m.nrows])
def test_left_divide_by_singular_raises(index):
    """Whatever the right-hand side, even zero, where [c | b] has rank
    below n, a singular c is refused."""
    m = SQUARE[index]
    rng = random.Random(index)
    for b in (Matrix.zeros(m.nrows, 2), m, Matrix(_random(rng, m.nrows, 3))):
        with pytest.raises(SingularMatrixError):
            left_divide(m, b)


def test_left_divide_refuses_shapes():
    with pytest.raises(LinalgError):
        left_divide(Matrix([[1, 2, 3], [4, 5, 6]]), Matrix.identity(2))
    with pytest.raises(LinalgError):
        left_divide(Matrix.identity(2), Matrix.identity(3))


@pytest.mark.parametrize("index", [
    i for i, (_, m) in enumerate(SIZED) if m.is_square and _domain(m).rank() == m.nrows
])
def test_left_divide_mixed_denominators(index, canonical_kernel):
    """c^-1 b for invertible c and b of mixed denominators and 4-, 60-
    and 400-bit parts, one and three columns, against sympy's c^-1 b."""
    bits, m = SIZED[index]
    domain = _domain(m)
    rng = random.Random(index)
    for width in (1, 3):
        b = Matrix(_random(rng, m.nrows, width, _sized_entry(bits)))
        x = left_divide(m, b)
        assert all(_canonical(v) for row in x.rows for v in row)
        assert m * x == b
        assert _domain(x) == domain.inv() * _domain(b)


def _sympy_algebra_dimension(mats: list[Matrix]) -> int:
    """Span of the words in `mats`, closed under left multiplication by
    every generator, ranked by sympy."""
    gens = [_domain(m) for m in mats]
    n = mats[0].nrows
    words = [DomainMatrix.eye(n, sympy.QQ_I)]
    flat = [words[0].to_Matrix().reshape(1, n * n)]
    frontier = list(words)
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                p = g * w
                candidate = flat + [p.to_Matrix().reshape(1, n * n)]
                stacked = DomainMatrix.from_Matrix(sympy.Matrix.vstack(*candidate))
                if stacked.convert_to(sympy.QQ_I).rank() == len(candidate):
                    flat = candidate
                    new.append(p)
        frontier = new
    return len(flat)


def _block_upper(rng, a, b) -> Matrix:
    n = a + b
    rows = _random(rng, n, n)
    for i in range(a, n):
        for j in range(a):
            rows[i][j] = GaussianRational(0)
    return Matrix(rows)


def _invertible(rng, n) -> Matrix:
    while True:
        p = Matrix(_random(rng, n, n))
        if rank(p) == n:
            return p


def _algebra_cases():
    rng = random.Random(7)
    cases = []
    for n in range(1, 5):
        for _ in range(3):
            count = rng.randint(1, 3)
            mats = [Matrix(_random(rng, n, n)) for _ in range(count)]
            if rng.random() < 0.5:
                # sparse generators: diagonal or nilpotent ones give proper subalgebras
                mats = [
                    Matrix([[x if (i == j or (i + 1 == j and k % 2)) else 0
                             for j, x in enumerate(row)] for i, row in enumerate(m.rows)])
                    for k, m in enumerate(mats)
                ]
            cases.append(mats)
    return cases


@pytest.mark.parametrize("mats", _algebra_cases())
def test_algebra_dimension_matches_sympy_closure(mats):
    report = is_irreducible(MatrixTuple(ADDITIVE, mats))
    assert report.algebra_dimension == _sympy_algebra_dimension(mats)


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 2)])
def test_block_upper_triangular_algebra_dimension(a, b):
    rng = random.Random(100 * a + b)
    p = _invertible(rng, a + b)
    p_inv = left_divide(p, Matrix.identity(a + b))
    mats = [p_inv * _block_upper(rng, a, b) * p for _ in range(3)]
    report = is_irreducible(MatrixTuple(ADDITIVE, mats))
    assert not report.irreducible
    assert report.algebra_dimension == a * a + b * b + a * b
    if a + b <= 4:
        assert report.algebra_dimension == _sympy_algebra_dimension(mats)


def _closure_cases():
    """Relation tuples of both modes, block-diagonal assemblies of them
    (reducible: generated algebra l^2 < n^2), and tuples whose relation is
    broken by a last matrix the other two do not generate."""
    rng = random.Random(8)
    cases = []
    for mode in (ADDITIVE, MULTIPLICATIVE):
        for n in range(1, 5):
            for count in (2, 3, 4):
                cases.append(random_relation_tuple(rng, n, count, mode=mode))
        for l, copies in ((1, 3), (2, 2)):
            block = random_relation_tuple(rng, l, 3, mode=mode)
            cases.append(assemble_block_diagonal(block, copies).assembled)
    for n in (2, 3):
        diagonal = [Matrix([[k + 1 + i * (k + 2) if i == j else 0 for j in range(n)]
                            for i in range(n)]) for k in range(2)]
        cases.append(MatrixTuple(ADDITIVE, diagonal + [_invertible(rng, n)]))
        cases.append(MatrixTuple(MULTIPLICATIVE, diagonal + [_invertible(rng, n)]))
    return cases


CLOSURE_CASES = _closure_cases()


@pytest.mark.parametrize("index", range(len(CLOSURE_CASES)))
def test_closure_without_the_last_generator(index):
    """`is_irreducible` leaves the last matrix out when the relation puts
    it in the algebra of the others; its dimension must still be that of
    the algebra of the whole tuple."""
    t = CLOSURE_CASES[index]
    expected = _sympy_algebra_dimension(list(t.matrices))
    assert algebra_dimension(t.matrices) == expected
    assert exact_algebra_dimension(t.matrices) == expected
    report = is_irreducible(t)
    assert report.algebra_dimension == expected
    assert report.irreducible == (expected == t.n * t.n)


def test_closure_cases_cover_dropping_and_keeping():
    related = [t for t in CLOSURE_CASES if verify_relation(t)]
    broken = [t for t in CLOSURE_CASES if not verify_relation(t)]
    assert len(related) > 20 and len(broken) == 4
    # without its last matrix a broken tuple generates a smaller algebra
    assert all(algebra_dimension(t.matrices[:-1]) < algebra_dimension(t.matrices) for t in broken)
    assert {is_irreducible(t).irreducible for t in related} == {True, False}


def test_rigid_n3_witness_algebra_dimension(rigid_n3_witness):
    assert verify_relation(rigid_n3_witness)
    assert is_irreducible(rigid_n3_witness).algebra_dimension == 5
    assert _sympy_algebra_dimension(list(rigid_n3_witness.matrices)) == 5


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sl_element_is_the_basis_combination(n):
    rng = random.Random(n)
    coords = [_entry(rng) for _ in range(n * n - 1)]
    expected = Matrix.zeros(n, n)
    for b, c in zip(sl_basis(n), coords):
        expected = expected + b.scale(c)
    # sl_1 is zero: a one-entry column stands for its empty coordinates
    column = Matrix([[c] for c in coords] or [[7]])
    assert sl_element(n, column, 0) == expected
    assert sl_element(n, column, 0).trace() == 0
    # block j reads entries j(n^2 - 1) .. (j + 1)(n^2 - 1) - 1
    padded = Matrix([[0]] * (n * n - 1) + [[c] for c in coords] or [[7]])
    assert sl_element(n, padded, 1) == expected
