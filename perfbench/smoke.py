"""Self-check of the benchmark (``python3 perfbench/run.py --smoke``).

1. Generators are deterministic per seed and differ between seeds.
2. Every known answer holds on the engine at tiny sizes.
3. A deliberately wrong expected answer is caught as a wrong answer, which
   makes a run report ``"correct": false``.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
from pathlib import Path

import run as R
import workloads as W


def _fingerprint(workload, seed, directory):
    """The first two rounds' argvs (file paths replaced by file contents)
    and expected answers."""
    out = []
    rounds = R._stream(workload, seed, directory)
    for request in next(rounds) + next(rounds):
        argv = [
            Path(a).read_text() if a.startswith(str(directory)) else a for a in request.argv
        ]
        out.append((argv, json.dumps(request.expected, sort_keys=True)))
    return out


def _tiny(workload, rounds):
    """Cheap requests of the first rounds: the smallest work band, the
    first screens sweeps, witness sizes up to 4."""
    if workload == "genericity":
        return [r for i, r in enumerate(next(rounds)) if i % 5 == 0]
    if workload == "screens":
        return [r for _ in range(3) for r in next(rounds)]
    return [r for r in next(rounds) if any(f"n={k}" in r.label for k in (3, 4)) or "rigid" in r.label]


def _wrong_copy(request):
    """The same request with one known field contradicted."""
    bad = copy.deepcopy(request.expected)
    key = next(k for k, v in bad.items() if isinstance(v, (bool, int)))
    bad[key] = (not bad[key]) if isinstance(bad[key], bool) else bad[key] + 1
    if "dsp" in bad:
        check = W.check_classify(bad)
    else:
        check = W.check_fields(0, **bad)
    return W.Request(request.argv, check, f"{request.label} (corrupted {key})", bad)


def main() -> int:
    cli = R._engine()
    base = R.WORK / f"smoke-{os.getpid()}"
    failures = []
    try:
        for workload in R.WORKLOADS:
            a = _fingerprint(workload, 7, base / f"{workload}-a")
            b = _fingerprint(workload, 7, base / f"{workload}-b")
            c = _fingerprint(workload, 8, base / f"{workload}-c")
            if a != b:
                failures.append(f"{workload}: seed 7 generated two different inputs")
            if a == c:
                failures.append(f"{workload}: seeds 7 and 8 generated the same inputs")

            requests = _tiny(workload, R._stream(workload, 7, base / f"{workload}-run"))
            outcomes, notes = {W.OK: 0, W.WRONG: 0, W.UNDECIDED: 0}, []
            R.run_requests(cli, requests, outcomes, notes)
            if outcomes[W.OK] != len(requests):
                failures.extend(f"{workload}: {note}" for note in notes)
            print(f"{workload}: {outcomes[W.OK]} of {len(requests)} tiny requests answered as known")

            target = next(r for r in requests if r.expected)
            outcomes, notes = {W.OK: 0, W.WRONG: 0, W.UNDECIDED: 0}, []
            R.run_requests(cli, [_wrong_copy(target)], outcomes, notes)
            if outcomes[W.WRONG] != 1:
                failures.append(f"{workload}: a corrupted expected answer was not caught")
            else:
                print(f"{workload}: corrupted answer caught: {notes[0]}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 0 if not failures else 1
