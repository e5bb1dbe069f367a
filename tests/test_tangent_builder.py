"""`linalg.commutator_operator` against the builder it replaced.

`reference_commutator_operator` is the earlier implementation, kept
here as the oracle: it multiplies out L [M, E_rs] R = (LM) E_rs R -
L E_rs (MR) for every basis element, with identities as the outer
factors when none are given, and differences the two diagonal images
over all n^2 entries.  The engine's builder places entries instead; its
rows must be equal, entry for entry, on seeded tuples for n = 1..7 and
k = 1..4, without outer factors and with the prefix and suffix products
that `deform` passes, over entries that are zero, small Gaussian, pure
imaginary or 20-bit rationals.
"""

from __future__ import annotations

import random

import pytest

from deligne_simpson import GaussianRational, Matrix
from deligne_simpson.exactnum import GR_ZERO
from deligne_simpson.linalg import commutator_operator


def reference_commutator_operator(matrices, outer=None) -> Matrix:
    matrices = tuple(matrices)
    n = matrices[0].nrows
    if n == 1:
        return Matrix.zeros(1, 1)
    identity = Matrix.identity(n)
    columns = []
    for j, m in enumerate(matrices):
        left, right = (identity, identity) if outer is None else outer[j]
        left_cols, lm_cols = _nonzero(zip(*left.rows)), _nonzero(zip(*(left * m).rows))
        right_rows, mr_rows = _nonzero(right.rows), _nonzero((m * right).rows)

        def image(r, s):
            v = [GR_ZERO] * (n * n)
            for a, x in lm_cols[r]:
                for b, y in right_rows[s]:
                    v[a * n + b] = v[a * n + b] + x * y
            for a, x in left_cols[r]:
                for b, y in mr_rows[s]:
                    v[a * n + b] = v[a * n + b] - x * y
            return v

        columns.extend(image(r, s) for r in range(n) for s in range(n) if r != s)
        diagonal = [image(i, i) for i in range(n)]
        columns.extend(
            [x - y for x, y in zip(diagonal[i], diagonal[i + 1])] for i in range(n - 1)
        )
    return Matrix(zip(*columns))


def _nonzero(lines):
    return [[(i, x) for i, x in enumerate(line) if x] for line in lines]


KINDS = ("small", "imaginary", "wide")


def _entry(rng, kind) -> GaussianRational:
    if rng.random() < 0.3:
        return GaussianRational(0)
    if kind == "small":
        return GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
    if kind == "imaginary":
        return GaussianRational(0, f"{rng.randint(-9, 9) or 1}/{rng.randint(1, 4)}")
    return GaussianRational(
        f"{rng.randint(-2**20, 2**20)}/{rng.randint(1, 2**20)}",
        f"{rng.randint(-2**20, 2**20)}/{rng.randint(1, 2**20)}",
    )


def _tuple(n, k, kind) -> list[Matrix]:
    rng = random.Random(f"{n}/{k}/{kind}")
    return [Matrix([[_entry(rng, kind) for _ in range(n)] for _ in range(n)]) for _ in range(k)]


def deform_outer(matrices):
    """The (L_j, R_j) of `deform`: the products of the matrices before and
    after the j-th."""
    n, k = matrices[0].nrows, len(matrices)
    prefix = [Matrix.identity(n)]
    for m in matrices[:-1]:
        prefix.append(prefix[-1] * m)
    suffix = [Matrix.identity(n)] * k
    for j in range(k - 2, -1, -1):
        suffix[j] = matrices[j + 1] * suffix[j + 1]
    return list(zip(prefix, suffix))


CASES = [(n, k, kind) for n in range(1, 8) for k in range(1, 5) for kind in KINDS]


def test_cases_cover_zero_imaginary_and_wide_entries():
    entries = [x for n, k, kind in CASES for m in _tuple(n, k, kind) for row in m.rows for x in row]
    assert sum(not x for x in entries) > 100
    assert sum(bool(x) and not x.re for x in entries) > 100
    assert sum(max(abs(x.re.numerator), x.re.denominator).bit_length() == 20 for x in entries) > 100


@pytest.mark.parametrize("n,k,kind", CASES)
def test_builder_matches_reference(n, k, kind):
    mats = _tuple(n, k, kind)
    assert commutator_operator(mats).rows == reference_commutator_operator(mats).rows
    outer = deform_outer(mats)
    assert (
        commutator_operator(mats, outer).rows
        == reference_commutator_operator(mats, outer).rows
    )
