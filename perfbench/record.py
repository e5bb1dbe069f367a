"""Record the verdict fields that construction does not fix.

Run once, from the repository root, against the commit whose answers are
taken as known:

    python3 perfbench/record.py

It writes ``perfbench/data/recorded.json``: the seeded shape-tuple pools
with goodness, reduction-trace length, terminal and tie branches per tuple,
shape-only specialness certificates per factorization, and the answers on
the bundled samples.  The benchmark never regenerates this file; it refuses
to overwrite an existing one.
"""

from __future__ import annotations

import json
import random
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from deligne_simpson.cli import parse_problem, run_command  # noqa: E402
from deligne_simpson.criteria import TieVerdictError, is_good  # noqa: E402
from deligne_simpson.jnf_core import JnfShape  # noqa: E402
from deligne_simpson.special import find_special_certificates  # noqa: E402

import shapes as S  # noqa: E402
import workloads as W  # noqa: E402


def _shapes(entry):
    return tuple(JnfShape.of(*s) for s in entry["shapes"])


def record_genericity():
    out = []
    for e in S.genericity_pool():
        out.append({
            "n": e["n"],
            "shapes": W.encode_shapes(e["shapes"]),
            "steps": e["steps"],
            "band": e["band"],
            "mode": e["mode"],
            "good": is_good(_shapes(e)).good,
        })
    return out


def record_screens():
    out = []
    rng = random.Random(0)
    for e in S.screens_pool():
        shapes = _shapes(e)
        try:
            res = is_good(shapes, exhaustive_ties=True)
        except TieVerdictError:
            continue
        doc = W.planted_doc(rng, e["shapes"], "additive", 1)
        if doc is None:
            continue
        per_n1 = defaultdict(lambda: [0, 0])
        for cert in find_special_certificates(parse_problem(doc)):
            per_n1[str(cert.n1)][0] += 1
            per_n1[str(cert.n1)][1] += int(cert.diagonal)
        out.append({
            "n": e["n"],
            "shapes": W.encode_shapes(e["shapes"]),
            "good": res.good,
            "levels": len(res.trace.steps),
            "terminal": res.trace.terminal,
            "branches": res.branches_explored,
            "special": dict(per_n1),
        })
    return out


def _run(argv):
    code, report = run_command(argv)
    return code, json.loads(json.dumps(report))


def record_samples():
    samples = ROOT / "sample_problems"
    problems, witnesses = [], []
    for path in sorted(samples.glob("*.json")):
        doc = json.loads(path.read_text())
        if "classes" not in doc:
            continue
        p = str(path)
        exp = {}
        code, r = _run(["classify", p])
        v = r["verdict"]
        exp["classify"] = {k: v[k] for k in ("dsp", "weak_dsp", "good", "generic")}
        exp["classify"].update({k: v[k] for k in ("special", "special_diagonal") if k in v})
        code, r = _run(["good", p, "--exhaustive-ties"])
        if code != 2:
            exp["trace"] = {
                "good": r["good"],
                "levels": len(r["trace"]["levels"]),
                "terminal": r["trace"]["terminal"],
                "branches": r["branches_explored"],
            }
        code, r = _run(["special", p])
        if code != 2:
            exp["special"] = {
                "special": r["special"],
                "special_diagonal": r["special_diagonal"],
                "certificates": len(r["certificates"]),
                "quasi_generic": r["quasi_generic"],
            }
        code, r = _run(["dim", p])
        exp["dim"] = {"expected_dimension": r["expected_dimension"], "kappa": r["kappa"]}
        code, r = _run(["generic", p])
        exp["generic"] = {"generic": r["generic"]}
        problems.append({"name": path.stem, "doc": doc, "expected": exp})
    for stem in ("rigid_n2", "rigid_n3"):
        ppath = samples / f"{stem}_problem.json"
        wpath = samples / f"{stem}_witness.json"
        code, r = _run(["verify", str(ppath), str(wpath)])
        r.pop("command")
        witnesses.append({
            "name": stem,
            "problem": json.loads(ppath.read_text()),
            "witness": json.loads(wpath.read_text()),
            "exit": code,
            "expected": r,
        })
    return {"problems": problems, "witnesses": witnesses}


def main() -> int:
    if W.DATA.exists():
        print(f"{W.DATA} exists; recorded answers are never regenerated", file=sys.stderr)
        return 1
    data = {
        "genericity": record_genericity(),
        "screens": record_screens(),
        "samples": record_samples(),
    }
    W.DATA.parent.mkdir(exist_ok=True)
    W.DATA.write_text(json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n")
    print(f"wrote {W.DATA}: {len(data['genericity'])} genericity and "
          f"{len(data['screens'])} screens tuples, "
          f"{len(data['samples']['problems'])} sample problems")
    return 0


if __name__ == "__main__":
    sys.exit(main())
