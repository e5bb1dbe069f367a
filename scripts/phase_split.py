#!/usr/bin/env python3
"""Split the wall time of benchmark rounds into engine phases and print JSON.

Usage: python scripts/phase_split.py [--workload screens]

The rounds are the first ROUNDS rounds of seed 1 of one perfbench workload
(`perfbench/workloads.py`, imported read-only; its documents are written to
a temporary directory).  Every request runs in-process through `cli.main`
with stdout captured, as the benchmark sends it, and its answer is checked.
Generating the rounds is not timed.

The phases are timed by the benchmark's own tracer (`perfbench/tracing.py`,
imported read-only).  Its installation plan is cut down to the phase
functions, which it rebinds wherever a module holds them, and a phase's
time is `Tracer._outer_time` of its names, so a call made while the same
phase is already open adds nothing.  The plan holds public functions only,
so `cli`'s private reader, witness parser and JSON writer are wrapped here
with the tracer's own `wrap`.  Phases nest (the special search runs
`is_good` and the relation search), so shares may sum to more than 1.
`calls` counts every call of a phase's functions, nested ones too, and
`commands` the requests per `dsp` command.
`wall_s` is the time spent inside `cli.main`; `counters_s` is the time of
the tracer's counter hooks, which run after the search, `is_good` and the
special search return and land in the enclosing phase, if any; `other_s`
is the rest of `wall_s` outside every phase and hook.

Only the phase functions are wrapped because a span on every public call
inflates the phases that call small helpers: over 60 screens rounds,
`rigidity_report` read 0.035-0.056 s with the whole plan installed and
0.018-0.023 s with the plan cut down (every `d_of` and `r_of` call opens
a span), and a round 0.47-0.75 s against 0.40-0.54 s (Linux x86-64,
Python 3.11, three runs each).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import itertools
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing
import workloads
from deligne_simpson import cli

ROUNDS = 60
PRIVATE = ("_load_json", "_parse_matrices", "_to_json")
PHASES = {
    "parse": ["cli._load_json", "cli.parse_problem", "cli.parse_witness", "cli._parse_matrices"],
    "rigidity_report": ["criteria.rigidity_report"],
    "is_good": ["criteria.is_good"],
    "find_first_relation": ["eigenvalues.find_first_relation"],
    "special_search": ["special.classify_specialness"],
    "witness_facts": [
        "witness.check_witness", "witness.tangent_rank", "witness.is_irreducible",
        "witness.euler_characteristic", "witness.local_dimension",
    ],
    "deform_step": ["witness.deform_step"],
    "json_encode": ["cli._to_json"],
}
TIMED = {n for names in PHASES.values() for n in names}


def _traced_name(entry) -> str:
    """The span name the tracer gives one (owner, attribute, original,
    wrapper) entry of its installation plan."""
    _, attr, original, _ = entry
    if attr == "json":
        return "cli.json.dumps"
    return f"{original.__module__.rsplit('.', 1)[-1]}.{original.__name__}"


def split(workload: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        count = itertools.count()

        def write(doc) -> str:
            path = Path(tmp) / f"d{next(count)}.json"
            path.write_text(json.dumps(doc))
            return str(path)

        stream = workloads.BUILDERS[workload](1, workloads.load_recorded(), write)
        batches = [next(stream) for _ in range(ROUNDS)]
        tracer = tracing.Tracer()
        tracer._plan_cache = [
            entry for entry in tracer._plan()
            if _traced_name(entry) in TIMED
        ]
        tracer.install()
        for attr in PRIVATE:
            setattr(cli, attr, tracer.wrap(f"cli.{attr}", getattr(cli, attr)))
        wall, wrong = 0.0, 0
        for batch in batches:
            for request in batch:
                buf = io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(list(request.argv))
                wall += time.perf_counter() - start
                wrong += request.check(code, json.loads(buf.getvalue())) != workloads.OK
    phases = {}
    for name, names in PHASES.items():
        seconds = tracer._outer_time(names)
        phases[name] = {
            "s": round(seconds, 4),
            "share": round(seconds / wall, 4),
            "calls": sum(tracer.calls[n] for n in names),
        }
    inside = tracer._outer_time([*TIMED, "bench.counters"])
    return {
        "workload": workload,
        "seed": 1,
        "rounds": ROUNDS,
        "requests": sum(len(b) for b in batches),
        "commands": dict(collections.Counter(r.argv[0] for b in batches for r in b)),
        "wrong_answers": wrong,
        "wall_s": round(wall, 4),
        "phases": phases,
        "counters_s": round(tracer._outer_time(["bench.counters"]), 4),
        "other_s": round(wall - inside, 4),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS), default="screens")
    args = parser.parse_args(argv)
    print(json.dumps(split(args.workload), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
