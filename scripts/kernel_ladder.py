#!/usr/bin/env python3
"""Time linalg's exact kernels on a ladder of seeded inputs and print JSON.

Usage: python scripts/kernel_ladder.py [--sizes 4-12] [--bits 8,20,60]
                                       [--repeats 5]

For each size n and bit size b the inputs are two n x n matrices A and B
and a column v whose entries are (p + q*i)/d with |p|, |q| <= 2^b and
1 <= d <= 2^b, A invertible; and the pair of generators of
`exact_algebra_dimension`: a diagonal matrix of Gaussian integers with parts of
at most b bits and the cyclic shift, which generate all n x n matrices.
(The closure's words are products of up to about 2n generators, so with
b-bit denominators their entries, and the time, grow far past the other
kernels'.)  Each kernel's time is the median wall time in seconds over
`--repeats` calls: rank(A), solve_first(A, v), the inverse of A as
left_divide(A, I), A * B and, in the `algebra_dimension` row, the exact
closure exact_algebra_dimension([D, P]): the generators span every
matrix, so the certified `algebra_dimension` would time its modular pass
instead.  The answers are printed beside the times.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from deligne_simpson import GaussianRational, Matrix
from deligne_simpson.linalg import exact_algebra_dimension, left_divide, rank, solve_first


def _ratio(rng: random.Random, bits: int) -> str:
    return f"{rng.randint(-2**bits, 2**bits)}/{rng.randint(1, 2**bits)}"


def _entry(rng: random.Random, bits: int) -> GaussianRational:
    return GaussianRational(_ratio(rng, bits), _ratio(rng, bits))


def _matrix(rng: random.Random, n: int, bits: int) -> Matrix:
    return Matrix([[_entry(rng, bits) for _ in range(n)] for _ in range(n)])


def _inputs(n: int, bits: int) -> dict:
    rng = random.Random(f"kernel-ladder/0/{n}/{bits}")
    a = _matrix(rng, n, bits)
    while rank(a) < n:
        a = _matrix(rng, n, bits)
    diagonal = [GaussianRational(rng.randint(-2**bits, 2**bits), rng.randint(-2**bits, 2**bits))
                for _ in range(n)]
    return {
        "a": a,
        "b": _matrix(rng, n, bits),
        "v": Matrix([[_entry(rng, bits)] for _ in range(n)]),
        "gens": [
            Matrix([[diagonal[r] if r == s else 0 for s in range(n)] for r in range(n)]),
            Matrix([[int(s == (r + 1) % n) for s in range(n)] for r in range(n)]),
        ],
    }


KERNELS = {
    "rank": lambda x: rank(x["a"]),
    "solve_first": lambda x: solve_first(x["a"], x["v"])[1],
    "inverse": lambda x: left_divide(x["a"], Matrix.identity(x["a"].nrows)).nrows,
    "matmul": lambda x: (x["a"] * x["b"]).nrows,
    "algebra_dimension": lambda x: exact_algebra_dimension(x["gens"]),
}


def _median_time(kernel, inputs, repeats: int):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        answer = kernel(inputs)
        times.append(time.perf_counter() - start)
    return round(statistics.median(times), 6), answer


def ladder(sizes, bit_sizes, repeats: int) -> dict:
    rows = []
    for n in sizes:
        for bits in bit_sizes:
            inputs = _inputs(n, bits)
            row = {"n": n, "bits": bits, "seconds": {}, "answers": {}}
            for name, kernel in KERNELS.items():
                row["seconds"][name], row["answers"][name] = _median_time(kernel, inputs, repeats)
            rows.append(row)
    return {"seed": 0, "repeats": repeats, "statistic": "median wall seconds", "rows": rows}


def _sizes(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=_sizes, default=_sizes("4-12"), help="n range, like 4-12")
    parser.add_argument("--bits", type=lambda t: [int(b) for b in t.split(",")], default=[8, 20, 60])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    print(json.dumps(ladder(args.sizes, args.bits, args.repeats), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
