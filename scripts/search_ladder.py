#!/usr/bin/env python3
"""Time the exhaustive genericity search on a ladder of fixed problems and
print JSON.

Usage: python scripts/search_ladder.py [--sizes 8-16]

The problems are the semisimple four-class family: at even n each class has
(n - 2) / 2 labels of multiplicity 2 and two simple labels, with the
certified generic assignment `generate_generic(shapes, mode, seed=0)`.  For
each size n and both modes, `is_generic` runs with the relation cap lifted
in a fresh child process, which reports the wall seconds of the call and
the child's peak resident memory (ru_maxrss, MiB; it includes the import of
the package).  Every problem is generic, so each search runs to m = n // 2.
The `classify` rows give the verdict and genericity note at the default
relation cap for n = 12 and 14, where they are in the size range.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from deligne_simpson import (
    ADDITIVE, MULTIPLICATIVE, JnfShape, classify, generate_generic, is_generic,
)

# sizes whose classify verdict at the default cap is reported
CLASSIFY_SIZES = (12, 14)


def _family(n: int) -> tuple[JnfShape, ...]:
    labels = [[1, 1]] * ((n - 2) // 2) + [[1], [1]]
    return (JnfShape.of(*labels),) * 4


def _search(n: int, mode: str) -> dict:
    problem = generate_generic(_family(n), mode, seed=0)
    start = time.perf_counter()
    generic = is_generic(problem, cap=10**30).generic
    seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"n": n, "mode": mode, "generic": generic, "seconds": round(seconds, 4),
            "peak_rss_mb": round(peak, 1)}


def _child(n: int, mode: str) -> dict:
    result = subprocess.run(
        [sys.executable, __file__, "--child", str(n), mode],
        capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout)


def _classify(n: int) -> dict:
    verdict = classify(generate_generic(_family(n), ADDITIVE, seed=0))
    return {"n": n, "mode": ADDITIVE, "dsp": verdict.dsp, "weak_dsp": verdict.weak_dsp,
            "genericity_note": verdict.genericity_note}


def _sizes(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return [n for n in range(int(low), int(high or low) + 1) if n % 2 == 0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=_sizes, default=_sizes("8-16"),
                        help="n range, like 8-16 (even n only)")
    parser.add_argument("--child", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_search(int(args.child[0]), args.child[1])))
        return 0
    out = {
        "family": "semisimple, 4 classes: (n - 2) / 2 labels of multiplicity 2, two simple",
        "seed": 0,
        "search": [_child(n, mode) for n in args.sizes for mode in (ADDITIVE, MULTIPLICATIVE)],
        "classify_default_cap": [_classify(n) for n in args.sizes if n in CLASSIFY_SIZES],
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
