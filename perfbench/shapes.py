"""Seeded shape-tuple pools for the workloads.

A pool is a fixed list of Jordan shape tuples generated from a fixed pool
seed, so the verdict fields that construction does not fix (goodness,
specialness) can be recorded once per pool entry from the seed commit
(``data/recorded.json``) and looked up for any workload seed.  A shape is a
list of partitions, one per eigenvalue label; a partition is a list of block
sizes in decreasing order.
"""

from __future__ import annotations

import json
import math
import random
from functools import reduce

from exact import search_size

RELATION_CAP = 10**8  # the engine's default relation cap, which requests keep

GENERICITY_POOL = {"seed": 2002, "size": 1800}
SCREENS_POOL = {"seed": 204030, "size": 600}

# Work bands (computed fold steps of a full relation search, exact.
# search_size) that the genericity pool is stratified over, cheapest first.
# A multiplicative search costs about 1.6 times an additive one of the same
# steps (fitted on 319 timed searches), so a multiplicative tuple belongs to
# a band when 1.6 x its steps do.  Each request takes the next band and mode
# in turn, so every run sees the same cost mix whatever its seed.
GENERICITY_BANDS = [
    (400, 900),
    (1_500, 3_000),
    (4_000, 7_000),
    (9_000, 14_000),
    (18_000, 26_000),
]
MODE_COST = {"additive": 1.0, "multiplicative": 1.6}


def multiplicities(shape):
    return [sum(p) for p in shape]


def conjugate(parts):
    return [sum(1 for p in parts if p >= k) for k in range(1, parts[0] + 1)]


def orbit_dimension(shape) -> int:
    n = sum(multiplicities(shape))
    return n * n - sum(c * c for p in shape for c in conjugate(p))


def random_partition(rng, k):
    if rng.random() < 0.35:
        return [1] * k
    parts = []
    while k:
        p = rng.randint(1, k)
        parts.append(p)
        k -= p
    return sorted(parts, reverse=True)


def random_shape(rng, n, labels):
    cuts = sorted(rng.sample(range(1, n), labels - 1))
    mults = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return [random_partition(rng, mu) for mu in mults]


def _genericity_entry(rng, mode):
    while True:
        n = rng.randint(6, 14)
        shapes = [
            random_shape(rng, n, rng.randint(2, min(n, 5)))
            for _ in range(rng.randint(3, 5))
        ]
        mults = [multiplicities(s) for s in shapes]
        if mode == "additive" and reduce(math.gcd, (mu for ms in mults for mu in ms)) > 1:
            continue  # no generic additive assignment exists
        _, _, largest, steps = search_size(mults, n)
        if largest > RELATION_CAP:
            continue
        cost = steps * MODE_COST[mode]
        band = next(
            (b for b, (lo, hi) in enumerate(GENERICITY_BANDS) if lo <= cost < hi),
            None,
        )
        if band is not None:
            return {"n": n, "shapes": shapes, "steps": steps, "band": band, "mode": mode}


def genericity_pool():
    """Shape tuples for provably generic documents, n = 6..14, 3-5 classes,
    2..5 labels per class; every (band, mode) pair equally represented."""
    rng = random.Random(GENERICITY_POOL["seed"])
    cells = len(GENERICITY_BANDS) * len(MODE_COST)
    per_cell = GENERICITY_POOL["size"] // cells
    counts = {}
    pool, seen = [], set()
    while len(pool) < GENERICITY_POOL["size"]:
        mode = list(MODE_COST)[len(pool) % len(MODE_COST)]
        entry = _genericity_entry(rng, mode)
        key = json.dumps(entry["shapes"])
        cell = (entry["band"], mode)
        if counts.get(cell, 0) >= per_cell or key in seen:
            continue
        counts[cell] = counts.get(cell, 0) + 1
        seen.add(key)
        pool.append(entry)
    return pool


def _screens_entry(rng):
    """A rigidity-index-2 shape tuple, n = 2..11, 3 or 4 classes: all but
    the last class are random, the last is drawn until the orbit dimensions
    add up to 2n^2 - 2."""
    while True:
        n = rng.randint(2, 11)
        k = rng.choice((3, 3, 4))
        shapes = [random_shape(rng, n, rng.randint(1, min(n, 4))) for _ in range(k - 1)]
        need = 2 * n * n - 2 - sum(orbit_dimension(s) for s in shapes)
        if not 0 <= need <= n * n - n:
            continue
        for _ in range(200):
            last = random_shape(rng, n, rng.randint(1, min(n, 4)))
            if orbit_dimension(last) == need:
                shapes.append(last)
                break
        else:
            continue
        mults = [multiplicities(s) for s in shapes]
        selections, _, _, _ = search_size(mults, n)
        if selections > 20_000:
            continue  # keeps `special`'s full relation enumeration small
        return {"n": n, "shapes": shapes}


def screens_pool():
    rng = random.Random(SCREENS_POOL["seed"])
    pool, seen = [], set()
    while len(pool) < SCREENS_POOL["size"]:
        entry = _screens_entry(rng)
        key = json.dumps(entry["shapes"])
        if key not in seen:
            seen.add(key)
            pool.append(entry)
    return pool
