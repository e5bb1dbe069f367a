"""Exact arithmetic the benchmark uses to build inputs and to check answers.

It is deliberately independent of the engine: Gaussian rationals are plain
``(re, im)`` pairs of ``Fraction`` and matrices are lists of rows, so a
defect in the engine's arithmetic cannot hide in the checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def g(re, im=0):
    return (Fraction(re), Fraction(im))


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def scale(a, s):
    s = Fraction(s)
    return (a[0] * s, a[1] * s)


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse(text: str) -> Fraction:
    return Fraction(text)


def entry_doc(a) -> dict:
    return {"re": fmt(a[0]), "im": fmt(a[1])}


def entry_from_doc(doc) -> tuple:
    return (parse(doc["re"]), parse(doc.get("im", "0")))


# -- matrices -------------------------------------------------------------------


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def diag(values):
    n = len(values)
    return [[values[i] if i == j else ZERO for j in range(n)] for i in range(n)]


def matmul(a, b):
    cols = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            re = im = Fraction(0)
            for x, y in zip(row, col):
                if x[0] or x[1]:
                    re += x[0] * y[0] - x[1] * y[1]
                    im += x[0] * y[1] + x[1] * y[0]
            out_row.append((re, im))
        out.append(out_row)
    return out


def matadd(a, b):
    return [[add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def matscale(a, s):
    return [[scale(x, s) for x in row] for row in a]


def trace(a):
    return reduce(add, (a[i][i] for i in range(len(a))), ZERO)


def rowsum_norm(a) -> Fraction:
    return max(sum((abs(x[0]) + abs(x[1]) for x in row), Fraction(0)) for row in a)


def is_zero_matrix(a) -> bool:
    return all(not x[0] and not x[1] for row in a for x in row)


def div(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm)


def rank(a) -> int:
    rows = [row[:] for row in a]
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != ZERO), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != ZERO:
                f = div(rows[i][c], rows[r][c])
                rows[i] = [sub(x, mul(f, y)) for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def block_diag_copies(a, copies):
    l = len(a)
    n = l * copies
    out = [[ZERO] * n for _ in range(n)]
    for b in range(copies):
        for i in range(l):
            for j in range(l):
                out[b * l + i][b * l + j] = a[i][j]
    return out


def entry_bits(x) -> int:
    return max(
        x[0].numerator.bit_length(),
        x[0].denominator.bit_length(),
        x[1].numerator.bit_length(),
        x[1].denominator.bit_length(),
    )


def max_bits(matrices) -> int:
    return max(entry_bits(x) for m in matrices for row in m for x in row)


# -- eigenvalue data ------------------------------------------------------------


@lru_cache(maxsize=None)
def primes_between(lo: int, hi: int) -> tuple[int, ...]:
    return tuple(q for q in range(max(2, lo), hi) if all(q % d for d in range(2, math.isqrt(q) + 1)))


def selection_count(mults, m: int) -> int:
    """Number of count vectors 0 <= t_i <= mults[i] with sum m."""
    counts = [1] + [0] * m
    for mu in mults:
        new = [0] * (m + 1)
        for s, c in enumerate(counts):
            if c:
                for t in range(min(mu, m - s) + 1):
                    new[s + t] += c
        counts = new
    return counts[m]


def search_size(class_mults, n: int, last_m: int | None = None):
    """Computed size of a meet-in-the-middle relation search over
    cardinalities 1..last_m (default n - 1).

    Returns (selections, table_bound, largest_product, fold_steps): the sum
    over cardinalities of the full selection product (what a relation cap
    limits), the largest side product of a balanced split of the classes,
    the largest full product at one cardinality, and the number of
    partial-sum steps of the two folds plus the lookups.
    """
    last_m = n - 1 if last_m is None else last_m
    selections = table_bound = largest = steps = 0
    for m in range(1, last_m + 1):
        per = [selection_count(mults, m) for mults in class_mults]
        total = math.prod(per)
        if not total:
            continue
        selections += total
        largest = max(largest, total)
        h = min(
            range(1, len(per) + 1),
            key=lambda k: max(math.prod(per[:k]), math.prod(per[k:])),
        )
        table_bound = max(table_bound, max(math.prod(per[:h]), math.prod(per[h:])))
        for side in (per[:h], per[h:]):
            acc = 1
            for c in side:
                acc *= c
                steps += acc
        steps += math.prod(per[:h])
    return selections, table_bound, largest, steps
