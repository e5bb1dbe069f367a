from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product as iter_product
from pathlib import Path

import pytest

from deligne_simpson import (
    ADDITIVE,
    MULTIPLICATIVE,
    ClassSpec,
    GaussianRational,
    JnfShape,
    Matrix,
    MatrixTuple,
    MultiplicativeEigenvalue,
    TupleProblem,
)

SAMPLES = Path(__file__).resolve().parent.parent / "sample_problems"


def gr(x, y=0) -> GaussianRational:
    return GaussianRational(x, y)


def me(angle, magnitude=1) -> MultiplicativeEigenvalue:
    return MultiplicativeEigenvalue(Fraction(angle), Fraction(magnitude))


def shape(*blocks) -> JnfShape:
    return JnfShape.of(*blocks)


@pytest.fixture
def samples_dir() -> Path:
    return SAMPLES


@pytest.fixture
def n4_shapes():
    return (shape([4]), shape([1, 1], [2]), shape([1, 1], [1, 1]))


@pytest.fixture
def n9_shapes():
    s = shape([2, 2, 1, 1], [1, 1, 1])
    return (s, s, shape([2, 2, 1, 1], [2, 1]))


@pytest.fixture
def n4_special_problem(n4_shapes):
    """The size-4 triple with the eigenvalue assignment that admits a
    2-fold block collapse (product of inner eigenvalues is 1)."""
    c1 = ClassSpec(n4_shapes[0], [me("1/2")])
    c2 = ClassSpec(n4_shapes[1], [me("1/3"), me("2/3")])
    c3 = ClassSpec(n4_shapes[2], [me("1/4"), me("3/4")])
    return TupleProblem(MULTIPLICATIVE, 4, [c1, c2, c3])


@pytest.fixture
def n9_problem(n9_shapes):
    return TupleProblem(
        ADDITIVE,
        9,
        [
            ClassSpec(n9_shapes[0], [gr(1), gr(-2)]),
            ClassSpec(n9_shapes[1], [gr(-1), gr(2)]),
            ClassSpec(n9_shapes[2], [gr(2), gr(-4)]),
        ],
    )


@pytest.fixture
def nilpotent_n2_problem():
    nil = ClassSpec(shape([2]), [gr(0)])
    return TupleProblem(ADDITIVE, 2, [nil, nil, nil])


@pytest.fixture
def unipotent_n2_problem():
    uni = ClassSpec(shape([2]), [me(0)])
    return TupleProblem(MULTIPLICATIVE, 2, [uni, uni, uni])


@pytest.fixture
def double_blocks_generic():
    """Four double-block classes with eigenvalues (i, 1, 1, 1)."""
    s = shape([2, 2])
    return TupleProblem(
        MULTIPLICATIVE,
        4,
        [ClassSpec(s, [me("1/4")])] + [ClassSpec(s, [me(0)]) for _ in range(3)],
    )


@pytest.fixture
def double_blocks_nongeneric():
    s = shape([2, 2])
    return TupleProblem(
        MULTIPLICATIVE,
        4,
        [ClassSpec(s, [me("1/2")])] + [ClassSpec(s, [me(0)]) for _ in range(3)],
    )


@pytest.fixture
def rigid_n2_witness():
    e = Matrix([[0, 1], [0, 0]])
    f = Matrix([[0, 0], [1, 0]])
    return MatrixTuple(ADDITIVE, [e, f, -(e + f)])


@pytest.fixture
def rigid_n2_classes():
    nil = ClassSpec(shape([2]), [gr(0)])
    return (nil, nil, ClassSpec(shape([1], [1]), [gr(1), gr(-1)]))


@pytest.fixture
def rigid_n2_problem(rigid_n2_classes):
    return TupleProblem(ADDITIVE, 2, rigid_n2_classes)


@pytest.fixture
def rigid_n3_witness():
    a1 = Matrix([[1, 0, 0], [0, 4, 0], [0, 0, 6]])
    a2 = Matrix([[1, 0, 0], [1, 0, 0], [1, 0, 0]])
    a3 = Matrix([[-2, 0, 0], [-1, -4, 0], [-1, 0, -6]])
    return MatrixTuple(ADDITIVE, [a1, a2, a3])


@pytest.fixture
def rigid_n3_classes():
    return (
        ClassSpec(shape([1], [1], [1]), [gr(1), gr(4), gr(6)]),
        ClassSpec(shape([1], [1, 1]), [gr(1), gr(0)]),
        ClassSpec(shape([1], [1], [1]), [gr(-2), gr(-4), gr(-6)]),
    )


def random_partition(rng: random.Random, total: int) -> list[int]:
    parts = []
    remaining = total
    while remaining:
        p = rng.randint(1, remaining)
        parts.append(p)
        remaining -= p
    return parts


def random_shape(rng: random.Random, n: int, max_labels: int = 3) -> JnfShape:
    label_count = rng.randint(1, min(max_labels, n))
    cuts = sorted(rng.sample(range(1, n), label_count - 1)) if label_count > 1 else []
    bounds = [0] + cuts + [n]
    mults = [b - a for a, b in zip(bounds, bounds[1:])]
    return JnfShape.of(*(random_partition(rng, m) for m in mults))


def random_shape_tuple(rng: random.Random, n: int, count: int) -> tuple[JnfShape, ...]:
    return tuple(random_shape(rng, n) for _ in range(count))


def random_relation_tuple(
    rng: random.Random, n: int, count: int, mode: str = ADDITIVE, span: int = 3
) -> MatrixTuple:
    """Random exact tuple satisfying the defining relation."""

    def rand_matrix():
        return Matrix(
            [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
        )

    if mode == ADDITIVE:
        mats = [rand_matrix() for _ in range(count - 1)]
        total = mats[0]
        for m in mats[1:]:
            total = total + m
        mats.append(-total)
        return MatrixTuple(ADDITIVE, mats)
    from deligne_simpson.linalg import left_divide

    mats = []
    for _ in range(count - 1):
        lower = Matrix(
            [
                [1 if i == j else (rng.randint(-span, span) if i > j else 0) for j in range(n)]
                for i in range(n)
            ]
        )
        upper = Matrix(
            [
                [1 if i == j else (rng.randint(-span, span) if i < j else 0) for j in range(n)]
                for i in range(n)
            ]
        )
        mats.append(lower * upper)
    prod = Matrix.identity(n)
    for m in mats:
        prod = prod * m
    mats.append(left_divide(prod, Matrix.identity(n)))
    return MatrixTuple(MULTIPLICATIVE, mats)


def selection_vectors(mults: tuple[int, ...], m: int) -> list[tuple[int, ...]]:
    """Count vectors 0 <= t_i <= mults[i] with sum m, lexicographic order."""
    return [t for t in iter_product(*(range(mu + 1) for mu in mults)) if sum(t) == m]


def bruteforce_relations(problem: TupleProblem) -> list[tuple[int, tuple]]:
    """Every relation (m, count vectors) with 1 <= m < n, by direct-product
    enumeration of the selections, combining angles and magnitudes
    (multiplicative) or Gaussian rationals (additive) directly."""
    found = []
    for m in range(1, problem.n):
        vector_sets = [
            selection_vectors(c.shape.multiplicities(), m) for c in problem.classes
        ]
        for combo in iter_product(*vector_sets):
            pairs = [
                (v, k)
                for c, t in zip(problem.classes, combo)
                for v, k in zip(c.values, t)
            ]
            if problem.mode == ADDITIVE:
                holds = not sum(v.re * k for v, k in pairs) and not sum(
                    v.im * k for v, k in pairs
                )
            else:
                angle = sum(v.angle * k for v, k in pairs)
                magnitude = math.prod(v.magnitude**k for v, k in pairs)
                holds = angle.denominator == 1 and magnitude == 1
            if holds:
                found.append((m, combo))
    return found
