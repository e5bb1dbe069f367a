"""Witness ranks against ranks built independently with plain sympy.

The tangent-map builder's columns are compared entry by entry with
L_j (M_j b - b M_j) R_j multiplied out in sympy, and every rank-based
witness check with its defining formula:
the centralizer as the null space of X -> ([M_1, X], .., [M_k, X]), the
class dimensions as ranks of X -> [M_j, X], and the summed tangent map
(X_1..X_k) -> sum of [M_j, X_j] over the full gl_n basis.  Tuples are
seeded: random relation tuples, tuples conjugated from upper-triangular
ones (whose classes are read off exactly, so `local_dimension` applies),
and block-diagonal assemblies of both, in both modes, n = 1..5.
"""

from __future__ import annotations

import json
import random
from functools import reduce
from types import SimpleNamespace

import pytest

from deligne_simpson import (
    ADDITIVE,
    MULTIPLICATIVE,
    ClassSpec,
    GaussianRational,
    JnfShape,
    Matrix,
    MatrixTuple,
    Partition,
    assemble_block_diagonal,
    euler_characteristic,
    local_dimension,
    tangent_rank,
    verify_relation,
)
from deligne_simpson.cli import run_command, serialize_witness
from deligne_simpson.linalg import commutator_operator, left_divide, rank, sl_basis

from conftest import random_relation_tuple

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402


def _gaussian(rows) -> DomainMatrix:
    """Rows of sympy numbers as a matrix over Q(i)."""
    m = DomainMatrix.from_Matrix(sympy.Matrix(rows).applyfunc(sympy.expand))
    return m.convert_to(sympy.QQ_I)


def _rank(rows) -> int:
    return _gaussian(rows).rank()


def _sym(m: Matrix):
    return sympy.Matrix(
        m.nrows,
        m.ncols,
        lambda i, j: sympy.Rational(m[i, j].re) + sympy.I * sympy.Rational(m[i, j].im),
    )


def _units(n):
    for r in range(n):
        for s in range(n):
            e = sympy.zeros(n, n)
            e[r, s] = 1
            yield e


def _flat(m):
    return list(m)  # row-major


def _sum_map_rank(mats) -> int:
    """Rank of (X_1..X_k) -> sum of [M_j, X_j], X_j over all of gl_n."""
    n = mats[0].rows
    cols = [_flat(m * e - e * m) for m in mats for e in _units(n)]
    return _rank(cols)


def _stacked_nullity(mats) -> int:
    """Dimension of {X : [M_j, X] = 0 for every j}."""
    n = mats[0].rows
    cols = [sum((_flat(m * e - e * m) for m in mats), []) for e in _units(n)]
    return n * n - _rank(cols)


def _class_of(m: Matrix, values) -> ClassSpec:
    """The exact class of m, given its distinct eigenvalues: block counts
    from the ranks of the shifted powers."""
    s = _sym(m)
    n = m.nrows
    partitions = []
    for lam in values:
        shifted = _gaussian(
            s - (sympy.Rational(lam.re) + sympy.I * sympy.Rational(lam.im)) * sympy.eye(n)
        )
        ranks = [n]
        power = shifted
        while True:
            ranks.append(power.rank())
            power = power * shifted
            if ranks[-1] == ranks[-2]:
                break
        at_least = [a - b for a, b in zip(ranks, ranks[1:]) if a > b]
        parts = [sum(1 for c in at_least if c > i) for i in range(at_least[0])]
        partitions.append(Partition(parts))
    return ClassSpec(JnfShape(partitions), values)


def _unimodular(rng, n) -> Matrix:
    """Lower times upper unitriangular Gaussian-integer matrix."""
    lower = Matrix(
        [[1 if i == j else (GaussianRational(rng.randint(-1, 1), rng.randint(-1, 1)) if i > j else 0)
          for j in range(n)] for i in range(n)]
    )
    upper = Matrix(
        [[1 if i == j else (rng.randint(-2, 2) if i < j else 0) for j in range(n)] for i in range(n)]
    )
    return lower * upper


DIAGONAL_POOL = {
    ADDITIVE: [GaussianRational(x, y) for x, y in ((0, 0), (1, 0), (-1, 0), (0, 1), (2, -1))],
    MULTIPLICATIVE: [GaussianRational(x, y) for x, y in ((1, 0), (-1, 0), (0, 1), (2, 0), (1, 1))],
}


def _triangular_tuple(rng, mode, n, count):
    """(tuple, per-matrix eigenvalues) conjugated by one unimodular matrix
    from upper-triangular matrices with eigenvalues drawn from a small
    pool, so repeated eigenvalues and Jordan blocks occur."""
    pool = DIAGONAL_POOL[mode]

    def triangular():
        return Matrix(
            [[rng.choice(pool) if i == j else (rng.randint(-1, 1) if i < j else 0)
              for j in range(n)] for i in range(n)]
        )

    tri = [triangular() for _ in range(count - 1)]
    if mode == ADDITIVE:
        tri.append(-reduce(lambda a, b: a + b, tri))
    else:
        tri.append(left_divide(reduce(lambda a, b: a * b, tri), Matrix.identity(n)))
    p = _unimodular(rng, n)
    p_inv = left_divide(p, Matrix.identity(n))
    mats = [p * t * p_inv for t in tri]
    values = [tuple(dict.fromkeys(t[i, i] for i in range(n))) for t in tri]
    return MatrixTuple(mode, mats), values


def _cases():
    """(label, tuple, per-matrix eigenvalues or None)."""
    rng = random.Random(4417)
    out = []
    for mode in (ADDITIVE, MULTIPLICATIVE):
        for n in range(1, 6):
            for trial in range(3):
                count = 2 + trial
                out.append((f"{mode} random n={n} k={count}",
                            random_relation_tuple(rng, n, count, mode=mode), None))
                t, values = _triangular_tuple(rng, mode, n, count)
                out.append((f"{mode} triangular n={n} k={count}", t, values))
        for l, copies in ((1, 2), (1, 5), (2, 2)):
            inner = random_relation_tuple(rng, l, 3, mode=mode)
            out.append((f"{mode} random blocks {l}x{copies}",
                        assemble_block_diagonal(inner, copies).assembled, None))
            inner, values = _triangular_tuple(rng, mode, l, 3)
            out.append((f"{mode} triangular blocks {l}x{copies}",
                        assemble_block_diagonal(inner, copies).assembled, values))
    return out


CASES = _cases()


@pytest.mark.parametrize("label,t,values", CASES, ids=[c[0] for c in CASES])
def test_witness_ranks_match_sympy(label, t, values):
    n = t.n
    mats = [_sym(m) for m in t.matrices]
    orbit = [_sum_map_rank([m]) for m in mats]
    tangent = tangent_rank(t)
    assert tangent.centralizer_dimension == _stacked_nullity(mats)
    assert tangent.rank == _sum_map_rank(mats)
    assert euler_characteristic(t) == 2 * n * n - sum(orbit)
    if t.count > 1:
        surjective = _sum_map_rank(mats[:-1]) == n * n - 1
        assert tangent.surjective_without_last == surjective
        assert (rank(commutator_operator(t.matrices[:-1])) == n * n - 1) == surjective
    if values is not None:
        classes = [_class_of(m, v) for m, v in zip(t.matrices, values)]
        # 1+i has no MultiplicativeEigenvalue form, so no TupleProblem here
        problem = SimpleNamespace(mode=t.mode, n=n, classes=classes)
        assert local_dimension(t, problem) == sum(orbit) - _sum_map_rank(mats)


def test_cases_cover_both_outcomes():
    centralizers = {tangent_rank(t).centralizer_dimension == 1 for _, t, _ in CASES}
    assert centralizers == {True, False}
    assert sum(values is not None for _, _, values in CASES) >= 30


@pytest.mark.parametrize("mode", [ADDITIVE, MULTIPLICATIVE])
def test_builder_columns_are_the_commutator_images(mode):
    """Column j * (n^2 - 1) + i is vec(L_j [M_j, b_i] R_j), b_i in
    sl_basis order; the multiplicative case passes arbitrary outer factors."""
    rng = random.Random(29)
    for n in range(1, 5):
        t = random_relation_tuple(rng, n, 3, mode=mode)
        outer = None
        if mode == MULTIPLICATIVE:
            outer = [(_unimodular(rng, n), _unimodular(rng, n).scale(GaussianRational(1, 2)))
                     for _ in range(t.count)]
        op = commutator_operator(t.matrices, outer)
        basis = sl_basis(n)
        if n == 1:
            assert op == Matrix.zeros(1, 1)
            continue
        assert (op.nrows, op.ncols) == (n * n, t.count * len(basis))
        for j, m in enumerate(t.matrices):
            left, right = (sympy.eye(n), sympy.eye(n)) if outer is None else map(_sym, outer[j])
            m = _sym(m)
            for i, b in enumerate(basis):
                b = _sym(b)
                expected = _flat(left * (m * b - b * m) * right)
                column = _flat(_sym(Matrix([[op[r, j * len(basis) + i]] for r in range(n * n)])))
                assert all(sympy.expand(x - y) == 0 for x, y in zip(column, expected))


def _verify_cases():
    """Relation tuples and tuples whose last matrix is replaced by an
    unrelated one, which breaks the relation, n = 1..4, k = 2..4."""
    rng = random.Random(6131)
    out = []
    for mode in (ADDITIVE, MULTIPLICATIVE):
        for n in range(1, 5):
            for count in range(2, 5):
                t = random_relation_tuple(rng, n, count, mode=mode)
                out.append(t)
                out.append(MatrixTuple(mode, t.matrices[:-1] + (_unimodular(rng, n).scale(2),)))
    return out


def test_verify_surjectivity_without_last_matches_its_own_map(tmp_path):
    """`dsp verify` reads surjectivity without the last matrix off the
    pivots of the full tuple's map; it must equal the rank test of the
    first k - 1 matrices' own map, also where the relation fails (there it
    can differ from a trivial centralizer)."""
    differs = 0
    for i, t in enumerate(_verify_cases()):
        scalar = {"re": "0"} if t.mode == ADDITIVE else {"angle": "0"}
        problem = {
            "mode": t.mode,
            "n": t.n,
            "classes": [
                {"eigenvalues": [{"value": scalar, "multiplicity": t.n, "blocks": [1] * t.n}]}
            ] * t.count,
        }
        problem_path, witness_path = tmp_path / f"p{i}.json", tmp_path / f"w{i}.json"
        problem_path.write_text(json.dumps(problem))
        witness_path.write_text(json.dumps(serialize_witness(t)))
        code, report = run_command(["verify", str(problem_path), str(witness_path)])
        assert code in (0, 1)
        assert report["relation"] == verify_relation(t)
        surjective = rank(commutator_operator(t.matrices[:-1])) == t.n * t.n - 1
        assert report["surjective_without_last"] == surjective
        assert tangent_rank(t).surjective_without_last == surjective
        differs += report["surjective_without_last"] != report["centralizer_trivial"]
    assert differs > 0
