"""The modular certificate for full-rank witness facts.

`tangent_rank`, `is_irreducible` and `euler_characteristic` first rank
their maps mod linalg.PRIME and prove a fact only when that rank reaches
its bound over Q(i): n^2 - 1 for the tangent map of the first k - 1
matrices, n^2 for the Burnside closure, n^2 - n for each ad_(M_j).  Every
value must equal the one the exact kernel (`_add_row`) computes, on tuples
that reach the bounds, tuples that fall short of them by a little or a
lot, and tuples whose denominators the prime divides.
"""

from __future__ import annotations

import random

import pytest
import sympy

from deligne_simpson import (
    ADDITIVE,
    MULTIPLICATIVE,
    GaussianRational,
    Matrix,
    MatrixTuple,
    assemble_block_diagonal,
    euler_characteristic,
    is_irreducible,
    tangent_rank,
    verify_relation,
)
from deligne_simpson.exactnum import residue_map
from deligne_simpson.linalg import (
    PRIME,
    ROOT,
    _residue_algebra_dimension,
    _residue_tangent_rank,
    algebra_dimension,
    commutator_operator,
    left_divide,
    pivot_columns,
    rank,
)
from deligne_simpson.witness import IrreducibilityReport, TangentRank

from conftest import random_relation_tuple
from test_hypergeometric import hypergeometric


def test_prime_and_root():
    assert sympy.isprime(PRIME)
    assert PRIME % 4 == 1
    assert (ROOT * ROOT + 1) % PRIME == 0


def test_residue_map_is_a_ring_homomorphism():
    rng = random.Random(71)
    residue = residue_map(PRIME, ROOT)

    def value():
        return GaussianRational(
            f"{rng.randint(-10**12, 10**12)}/{rng.randint(1, 10**6)}",
            f"{rng.randint(-10**12, 10**12)}/{rng.randint(1, 10**6)}",
        )

    assert residue(GaussianRational(0, 1)) == ROOT
    assert residue(GaussianRational(1)) == 1
    for _ in range(200):
        x, y = value(), value()
        assert residue(x + y) == (residue(x) + residue(y)) % PRIME
        assert residue(x * y) == residue(x) * residue(y) % PRIME
    assert residue(GaussianRational(f"1/{PRIME}")) is None
    assert residue(GaussianRational(0, f"5/{3 * PRIME}")) is None


def _exact(t: MatrixTuple):
    """The three facts from the exact kernel alone, as the witness layer
    computed them before the certificate."""
    n2 = t.n * t.n
    pivots = pivot_columns(commutator_operator(t.matrices))
    leading = (t.count - 1) * (n2 - 1)
    surjective = None if t.count == 1 else sum(c < leading for c in pivots) == n2 - 1
    gens = t.matrices[:-1] if t.count > 1 and verify_relation(t) else t.matrices
    dim = algebra_dimension(gens)
    euler = 2 * n2 - sum(rank(commutator_operator((m,))) for m in t.matrices)
    return (
        TangentRank(len(pivots), n2 - len(pivots), surjective),
        IrreducibilityReport(dim == n2, dim),
        euler,
    )


def _certified(t: MatrixTuple):
    """Which facts the certificate proves mod PRIME alone: the tangent
    rank, the closure, and each ad_(M_j)."""
    res = t.residues
    if res is None:
        return False, False, (False,) * t.count
    n = t.n
    keep = t.count - 1 if t.count > 1 and verify_relation(t) else t.count
    return (
        _residue_tangent_rank(res[: max(t.count - 1, 1)], n * n - 1) == n * n - 1,
        _residue_algebra_dimension(res[:keep]) == n * n,
        tuple(_residue_tangent_rank([r], n * n - n) == n * n - n for r in res),
    )


def _gaussian_relation_tuple(rng, mode, n, count, bits):
    """A relation tuple with Gaussian entries of about `bits` bits."""
    span = 2 ** bits

    def entry(s):
        return GaussianRational(rng.randint(-s, s), rng.randint(-s, s))

    if mode == ADDITIVE:
        mats = [Matrix([[entry(span) for _ in range(n)] for _ in range(n)]) for _ in range(count - 1)]
        total = mats[0]
        for m in mats[1:]:
            total = total + m
        return MatrixTuple(ADDITIVE, mats + [-total])
    half = 2 ** (bits // 2)
    mats = []
    for _ in range(count - 1):
        lower = Matrix([[1 if i == j else entry(half) if i > j else 0 for j in range(n)] for i in range(n)])
        upper = Matrix([[1 if i == j else entry(half) if i < j else 0 for j in range(n)] for i in range(n)])
        mats.append(lower * upper)
    product = Matrix.identity(n)
    for m in mats:
        product = product * m
    return MatrixTuple(MULTIPLICATIVE, mats + [left_divide(product, Matrix.identity(n))])


def _conjugated(rng, mode, diagonals) -> MatrixTuple:
    """Diagonal matrices with these entries, conjugated by one unimodular P."""
    n = len(diagonals[0])
    lower = Matrix([[1 if i == j else rng.randint(-2, 2) if i > j else 0 for j in range(n)] for i in range(n)])
    upper = Matrix([[1 if i == j else rng.randint(-2, 2) if i < j else 0 for j in range(n)] for i in range(n)])
    p = lower * upper
    p_inv = left_divide(p, Matrix.identity(n))
    return MatrixTuple(mode, [
        p * Matrix([[d[i] if i == j else 0 for j in range(n)] for i in range(n)]) * p_inv
        for d in diagonals
    ])


def _block_sum(a: MatrixTuple, b: MatrixTuple) -> MatrixTuple:
    n, m = a.n, b.n
    out = []
    for x, y in zip(a.matrices, b.matrices):
        rows = [list(r) + [0] * m for r in x.rows] + [[0] * n + list(r) for r in y.rows]
        out.append(Matrix(rows))
    return MatrixTuple(a.mode, out)


def _upper(rng, n, split) -> Matrix:
    """A random matrix that keeps span(e_1..e_split) invariant."""
    return Matrix([[0 if i >= split > j else rng.randint(-3, 3) for j in range(n)] for i in range(n)])


def _cases():
    """(label, tuple)."""
    rng = random.Random(5081)
    out = []
    for mode in (ADDITIVE, MULTIPLICATIVE):
        for n in range(2, 8):
            # exact ranks of 20-bit tuples take 4-37 s each at n = 6 and 7
            for count in (2, 3, 4) if n <= 5 else (3,):
                out.append((f"{mode} small n={n} k={count}", random_relation_tuple(rng, n, count, mode=mode)))
            out.append((f"{mode} gaussian n={n}", _gaussian_relation_tuple(rng, mode, n, 3, 2)))
            if n <= 5:
                out.append((f"{mode} 20-bit n={n}", _gaussian_relation_tuple(rng, mode, n, 3, 20)))
        for l, copies in ((1, 3), (2, 2), (3, 2)):
            inner = random_relation_tuple(rng, l, 3, mode=mode)
            out.append((f"{mode} blocks {l}x{copies}", assemble_block_diagonal(inner, copies).assembled))
        for n in (3, 4, 5):
            # an irreducible (n - 1)-block beside a 1 x 1 block: centralizer
            # dimension 2, tangent rank n^2 - 2
            inner = random_relation_tuple(rng, n - 1, 3, mode=mode)
            scalar = (GaussianRational(2), GaussianRational(3), GaussianRational(1, 6))
            if mode == ADDITIVE:
                scalar = (GaussianRational(2), GaussianRational(-5), GaussianRational(3))
            one = MatrixTuple(mode, [Matrix([[x]]) for x in scalar])
            out.append((f"{mode} two blocks n={n}", _block_sum(inner, one)))
        # the first two matrices commute, the last is generic: only the
        # last k - 1 matrices reach n^2 - 1
        for n in (2, 3, 4):
            diag = _conjugated(rng, mode, [[i + 1 for i in range(n)], [2 * i + 3 for i in range(n)]])
            last = random_relation_tuple(rng, n, 2, mode=mode).matrices[0]
            out.append((f"{mode} commuting pair n={n}", MatrixTuple(mode, diag.matrices + (last,))))
    for n in (2, 3, 4, 5):
        # a double eigenvalue: centralizer n + 2, ad rank n^2 - n - 2
        derogatory = _conjugated(rng, ADDITIVE, [[1, 1] + list(range(2, n)), list(range(n, 0, -1))])
        out.append((f"derogatory n={n}", derogatory))
    for n, split in ((2, 1), (3, 1), (3, 2), (4, 2)):
        # a common invariant subspace: closure of dimension n^2 - n + 1 or
        # less, n^2 - 1 and n^2 - 2 at n = 2 and 3
        mats = [_upper(rng, n, split) for _ in range(3)]
        out.append((f"reducible n={n} split={split}", MatrixTuple(ADDITIVE, mats)))
    out.append(("diagonal n=2", MatrixTuple(ADDITIVE, [Matrix([[1, 0], [0, 2]]), Matrix([[3, 0], [0, -1]])])))
    for n in range(3, 11):
        out.append((f"hypergeometric n={n}", hypergeometric(n)))
    # PRIME divides a denominator: every fact is left to the exact kernel
    t = random_relation_tuple(rng, 3, 3)
    out.append(("all over PRIME", MatrixTuple(ADDITIVE, [m.scale(GaussianRational(f"1/{PRIME}")) for m in t.matrices])))
    t = random_relation_tuple(rng, 3, 3, mode=MULTIPLICATIVE)
    first = [list(r) for r in t.matrices[0].rows]
    first[0][0] = first[0][0] + GaussianRational(f"1/{3 * PRIME}")
    out.append(("one entry over 3 PRIME", MatrixTuple(ADDITIVE, [Matrix(first), *t.matrices[1:]])))
    return out


CASES = _cases()


@pytest.mark.parametrize("label,t", CASES, ids=[c[0] for c in CASES])
def test_certified_facts_equal_the_exact_ones(label, t):
    tangent, irreducible, euler = _exact(t)
    assert tangent_rank(t) == tangent
    assert is_irreducible(t) == irreducible
    assert is_irreducible(t, verify_relation(t)) == irreducible
    assert euler_characteristic(t) == euler


def test_cases_cover_both_paths_of_every_fact():
    paths = {label: _certified(t) for label, t in CASES}
    assert {p[0] for p in paths.values()} == {True, False}
    assert {p[1] for p in paths.values()} == {True, False}
    assert {x for p in paths.values() for x in p[2]} == {True, False}
    assert paths["all over PRIME"] == (False, False, (False,) * 3)
    assert paths["one entry over 3 PRIME"] == (False, False, (False,) * 3)
    # the reducible rigid triple: trivial centralizer, closure of dimension 5
    # short of 9; the hypergeometric pseudo-reflection is not regular
    assert paths["hypergeometric n=5"] == (True, True, (True, True, False))


def test_rigid_n3_closure_falls_back(rigid_n3_witness):
    t = rigid_n3_witness
    assert _certified(t)[:2] == (True, False)
    assert is_irreducible(t) == IrreducibilityReport(False, 5)
    assert tangent_rank(t) == _exact(t)[0]

