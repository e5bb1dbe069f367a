#!/usr/bin/env python3
"""Randomized sweep over the two structural invariants that anchor the
engine: rigidity-index invariance along the reduction chain, and the
centralizer/commutator-map duality on exact matrix tuples.

Usage: python scripts/invariance_sweep.py [seed] [tuples]
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from deligne_simpson import is_good, tangent_rank
from deligne_simpson.linalg import commutator_operator, rank

from conftest import random_relation_tuple, random_shape_tuple


def sweep_kappa(rng: random.Random, rounds: int) -> dict:
    stats = {"tuples": 0, "multi_level": 0, "max_depth": 0}
    while stats["tuples"] < rounds:
        n = rng.randint(2, 10)
        shapes = random_shape_tuple(rng, n, rng.randint(2, 5))
        res = is_good(shapes)
        kappas = [s.report.kappa for s in res.trace.steps]
        assert len(set(kappas)) == 1, (shapes, kappas)
        depth = len(res.trace.steps)
        stats["tuples"] += 1
        stats["max_depth"] = max(stats["max_depth"], depth)
        if depth > 1:
            stats["multi_level"] += 1
    return stats


def sweep_duality(rng: random.Random, rounds: int) -> dict:
    stats = {"tuples": 0, "trivial": 0}
    for trial in range(rounds):
        n = rng.randint(2, 5)
        mode = "additive" if trial % 2 else "multiplicative"
        t = random_relation_tuple(rng, n, rng.randint(2, 4), mode=mode)
        tangent = tangent_rank(t)
        centr = tangent.centralizer_dimension
        # the map of the first k - 1 matrices, eliminated on its own
        surj = rank(commutator_operator(t.matrices[:-1])) == n * n - 1
        assert tangent.surjective_without_last == surj, t
        assert (centr == 1) == surj, t
        stats["tuples"] += 1
        stats["trivial"] += centr == 1
    return stats


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    rounds = int(sys.argv[2]) if len(sys.argv) > 2 else 200
    rng = random.Random(seed)

    t0 = time.monotonic()
    kappa_stats = sweep_kappa(rng, rounds)
    t1 = time.monotonic()
    duality_stats = sweep_duality(rng, max(20, rounds // 4))
    t2 = time.monotonic()

    print(f"rigidity-index invariance: {kappa_stats} ({t1 - t0:.2f}s)")
    print(f"centralizer duality:       {duality_stats} ({t2 - t1:.2f}s)")
    print("no violations found")
    return 0


if __name__ == "__main__":
    sys.exit(main())
