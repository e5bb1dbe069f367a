"""The three workloads: seeded documents, `dsp` requests and known answers.

Every request is an argv for ``deligne_simpson.cli.main`` plus the answer
it must give.  Answers come from construction (see each builder) or, for
verdict fields construction does not fix, from ``data/recorded.json``,
which was recorded once from the seed commit and is never regenerated.

A checker returns OK, WRONG (the answer contradicts the known answer) or
UNDECIDED (exit status 2, "unknown" where an answer is known, a refusal).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from pathlib import Path
from typing import Callable

import exact as X

OK, WRONG, UNDECIDED = "ok", "wrong", "undecided"

DATA = Path(__file__).resolve().parent / "data" / "recorded.json"


@dataclass
class Request:
    argv: list[str]
    check: Callable[[int, dict], str]
    label: str
    expected: dict = field(default_factory=dict)


def load_recorded() -> dict:
    return json.loads(DATA.read_text())


# -- shape strings: "3,1|2;1,1|2,2;4" = classes ';', labels '|', blocks ',' --


def decode_shapes(text: str):
    return [[[int(b) for b in lab.split(",")] for lab in cls.split("|")] for cls in text.split(";")]


def encode_shapes(shapes) -> str:
    return ";".join("|".join(",".join(map(str, p)) for p in s) for s in shapes)


# -- documents ------------------------------------------------------------------


def additive_value(x) -> dict:
    re, im = (x, Fraction(0)) if isinstance(x, Fraction) else x
    return {"re": X.fmt(re), "im": X.fmt(im)}


def multiplicative_value(angle: Fraction, magnitude: Fraction = Fraction(1)) -> dict:
    return {"angle": X.fmt(angle % 1), "magnitude": X.fmt(magnitude)}


def problem_doc(mode: str, shapes, values) -> dict:
    """values[j][i] is the value document of label i of class j."""
    return {
        "mode": mode,
        "n": sum(sum(p) for p in shapes[0]),
        "classes": [
            {
                "eigenvalues": [
                    {"value": v, "multiplicity": sum(p), "blocks": list(p)}
                    for p, v in zip(shape, vals)
                ]
            }
            for shape, vals in zip(shapes, values)
        ],
    }


def witness_doc(mode: str, matrices) -> dict:
    return {
        "mode": mode,
        "n": len(matrices[0]),
        "matrices": [[[X.entry_doc(x) for x in row] for row in m] for m in matrices],
    }


def _slots(doc):
    """[(class, multiplicity, value)] with additive values as (re, im) and
    multiplicative ones as (angle, magnitude), all Fractions."""
    out = []
    for j, c in enumerate(doc["classes"]):
        for e in c["eigenvalues"]:
            v = e["value"]
            if doc["mode"] == "additive":
                val = (X.parse(v["re"]), X.parse(v.get("im", "0")))
            else:
                val = (X.parse(v["angle"]), X.parse(v.get("magnitude", "1")))
            out.append((j, e["multiplicity"], val))
    return out


def relation_holds(doc, counts) -> bool:
    """Plain-Fraction check of a non-genericity relation: per class the
    counts respect multiplicities and add up to one cardinality m with
    1 <= m < n, and the selected values sum to zero (additive) or multiply
    to one (multiplicative)."""
    classes = doc["classes"]
    if len(counts) != len(classes):
        return False
    sizes = set()
    for c, t in zip(classes, counts):
        evs = c["eigenvalues"]
        if len(t) != len(evs) or any(not 0 <= k <= e["multiplicity"] for k, e in zip(t, evs)):
            return False
        sizes.add(sum(t))
    if len(sizes) != 1 or not 1 <= sizes.pop() < doc["n"]:
        return False
    flat = [k for t in counts for k in t]
    slots = _slots(doc)
    if doc["mode"] == "additive":
        re = sum((k * v[0] for k, (_, _, v) in zip(flat, slots)), Fraction(0))
        im = sum((k * v[1] for k, (_, _, v) in zip(flat, slots)), Fraction(0))
        return re == 0 and im == 0
    angle = sum((k * v[0] for k, (_, _, v) in zip(flat, slots)), Fraction(0))
    magnitude = math.prod(v[1] ** k for k, (_, _, v) in zip(flat, slots))
    return angle.denominator == 1 and magnitude == 1


def consistent(doc) -> bool:
    slots = _slots(doc)
    counts = [[e["multiplicity"] for e in c["eigenvalues"]] for c in doc["classes"]]
    flat = [k for t in counts for k in t]
    if doc["mode"] == "additive":
        return all(
            sum((k * v[i] for k, (_, _, v) in zip(flat, slots)), Fraction(0)) == 0
            for i in (0, 1)
        )
    angle = sum((k * v[0] for k, (_, _, v) in zip(flat, slots)), Fraction(0))
    return angle.denominator == 1 and math.prod(v[1] ** k for k, (_, _, v) in zip(flat, slots)) == 1


def is_prime(q: int) -> bool:
    return q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1))


def proven_generic(doc) -> bool:
    """True when the document has the prime-denominator form that makes it
    generic: every slot but the last is 1/q for distinct primes q > n^2
    (real part, resp. angle; magnitude 1), the total condition holds, and
    additively gcd(multiplicities) = 1, multiplicatively the absorbing
    integer mu_last * last + sum(mu/q) is coprime to mu_last.

    Proof sketch: a relation with counts t gives sum_s (mu_last t_s -
    t_last mu_s) / q_s = integer, each numerator is below q_s in size, so
    every numerator vanishes and t is a multiple t_last/mu_last of the
    multiplicity vector; both side conditions exclude 0 < t_last < mu_last.
    """
    n = doc["n"]
    slots = _slots(doc)
    *head, (_, mu_last, last) = slots
    qs = []
    for _, _, v in head:
        if v[0].numerator != 1 or v[1] != (0 if doc["mode"] == "additive" else 1):
            return False
        qs.append(v[0].denominator)
    if len(set(qs)) != len(qs) or not all(q > n * n and is_prime(q) for q in qs):
        return False
    s = sum(Fraction(mu, q) for (_, mu, _), q in zip(head, qs))
    if doc["mode"] == "additive":
        mults = [mu for _, mu, _ in slots]
        return last == (-s / mu_last, 0) and reduce(math.gcd, mults) == 1
    k = mu_last * last[0] + s
    return last[1] == 1 and k.denominator == 1 and math.gcd(k.numerator, mu_last) == 1


# -- answer checking ----------------------------------------------------------


def compare(code: int, report: dict, exp_code: int | None, fields: dict) -> str:
    """Known fields by key; "unknown"/None in place of a decisive answer is
    undecided, anything else that differs is wrong."""
    if code == 2 or "error" in report:
        return UNDECIDED
    verdict = OK
    for key, want in fields.items():
        got = report.get(key, "<missing>")
        if got == want:
            continue
        if got in ("unknown", None) and want not in ("unknown", None):
            verdict = UNDECIDED
        else:
            return WRONG
    if verdict == UNDECIDED:
        return UNDECIDED
    if exp_code is not None and code != exp_code:
        return WRONG
    return verdict


def check_fields(exp_code, **fields):
    return lambda code, report: compare(code, report, exp_code, fields)


def check_classify(exp):
    def check(code, report):
        if code == 2:
            return UNDECIDED
        v = report.get("verdict", {})
        fields = {k: exp[k] for k in ("dsp", "weak_dsp", "good", "generic")}
        for k in ("special", "special_diagonal"):
            if k in exp and k in v:
                fields[k] = exp[k]
        unknown = "unknown" in (exp["dsp"], exp["weak_dsp"])
        return compare(code, v, 1 if unknown else 0, fields)
    return check


def check_trace(exp, with_branches):
    def check(code, report):
        if code == 2:
            return UNDECIDED
        trace = report.get("trace", {})
        got = {
            "good": report.get("good"),
            "levels": len(trace.get("levels", [])),
            "terminal": trace.get("terminal"),
        }
        want = {"good": exp["good"], "levels": exp["levels"], "terminal": exp["terminal"]}
        if with_branches:
            got["branches"] = report.get("branches_explored")
            want["branches"] = exp["branches"]
        return compare(code, got, 0 if exp["good"] else 1, want)
    return check


def check_special(exp):
    def check(code, report):
        if code == 2:
            return UNDECIDED
        got = {
            "special": report.get("special"),
            "special_diagonal": report.get("special_diagonal"),
            "certificates": len(report.get("certificates", [])),
        }
        want = {k: exp[k] for k in got}
        if "quasi_generic" in exp:
            got["quasi_generic"] = report.get("quasi_generic")
            want["quasi_generic"] = exp["quasi_generic"]
        return compare(code, got, 0 if exp["special"] else 1, want)
    return check


def check_nongeneric(doc, max_cardinality):
    """The relation witness must hold in plain Fractions and be no larger
    than the planted cardinality or its complement."""
    def check(code, report):
        if code == 2:
            return UNDECIDED
        if report.get("generic") is not False:
            return WRONG
        w = report.get("witness") or {}
        counts = w.get("counts")
        if not counts or not relation_holds(doc, counts):
            return WRONG
        m = sum(counts[0])
        if w.get("cardinality") != m or (max_cardinality and m > max_cardinality):
            return WRONG
        return OK if code == 1 else WRONG
    return check


def check_generated(doc):
    """`generic --generate` must return the same shapes with a consistent
    assignment.  When it has the prime-denominator form, genericity is
    proven here; the engine's own generator produces that form."""
    def check(code, report):
        if code == 2:
            return UNDECIDED
        if report.get("generated") is not True:
            return UNDECIDED if report.get("generated") is False else WRONG
        out = report.get("problem", {})
        same = out.get("mode") == doc["mode"] and out.get("n") == doc["n"] and [
            [(e["multiplicity"], e["blocks"]) for e in c["eigenvalues"]] for c in out.get("classes", [])
        ] == [[(e["multiplicity"], e["blocks"]) for e in c["eigenvalues"]] for c in doc["classes"]]
        if not same or not consistent(out) or code != 0:
            return WRONG
        return OK if proven_generic(out) else UNDECIDED
    return check


# -- genericity -----------------------------------------------------------------


def genericity_doc(rng, shapes, mode):
    """Prime-denominator assignment: every slot but the last gets 1/q with
    distinct primes q > n^2, the last absorbs the total condition.  Generic
    by the argument in `proven_generic`."""
    n = sum(sum(p) for p in shapes[0])
    mults = [[sum(p) for p in s] for s in shapes]
    flat = [mu for ms in mults for mu in ms]
    qs = rng.sample(X.primes_between(n * n + 1, 4 * n * n + 400), len(flat) - 1)
    s = sum(Fraction(mu, q) for mu, q in zip(flat, qs))
    mu_last = flat[-1]
    if mode == "additive":
        vals = [additive_value(Fraction(1, q)) for q in qs] + [additive_value(-s / mu_last)]
    else:
        k = math.ceil(s) + rng.randint(0, 3)
        while math.gcd(k, mu_last) != 1 or (k - s) / mu_last % 1 in {Fraction(1, q) for q in qs}:
            k += 1
        vals = [multiplicative_value(Fraction(1, q)) for q in qs]
        vals.append(multiplicative_value((k - s) / mu_last))
    values, pos = [], 0
    for ms in mults:
        values.append(vals[pos : pos + len(ms)])
        pos += len(ms)
    return problem_doc(mode, shapes, values)


GENERICITY_COMMANDS = ("classify", "generic", "generate")


GENERICITY_ROUND = 30


def genericity_rounds(seed, recorded, write):
    """Endless rounds of 30 requests.  Request i of a round takes work band
    i % 5, mode (i // 5) % 2 and command (i // 10) % 3, so every round has
    the same cost mix; the seed picks which pool tuples and which primes.
    No shape tuple recurs until all tuples of its band and mode were used
    (see _spread_order)."""
    rng = random.Random(f"genericity/{seed}")
    cells = {}
    for e in recorded["genericity"]:
        cells.setdefault((e["band"], e["mode"]), []).append(e)
    queues = {cell: [] for cell in cells}
    bands = 1 + max(b for b, _ in cells)
    while True:
        yield [_genericity_request(rng, cells, queues, bands, i, write) for i in range(GENERICITY_ROUND)]


def _spread_order(rng, entries):
    """All entries once each, as a stack: from a seeded start, a stride of
    about 0.62 of the cell through the entries sorted by search steps.  Any
    few dozen consecutive ones then spread evenly over the cell's cost range,
    so a run's median does not hang on which tuples the seed drew."""
    ordered = sorted(entries, key=lambda e: (e["steps"], e["shapes"]))
    n = len(ordered)
    stride = max(1, round(0.618 * n))
    while math.gcd(stride, n) != 1:
        stride += 1
    start = rng.randrange(n)
    return [ordered[(start + j * stride) % n] for j in reversed(range(n))]


def _genericity_request(rng, cells, queues, bands, i, write):
    cell = (i % bands, ("additive", "multiplicative")[(i // bands) % 2])
    queue = queues[cell]
    if not queue:
        queue.extend(_spread_order(rng, cells[cell]))
    entry = queue.pop()
    mode = cell[1]
    doc = genericity_doc(rng, decode_shapes(entry["shapes"]), mode)
    path = write(doc)
    command = GENERICITY_COMMANDS[(i // (2 * bands)) % 3]
    label = f"{command} n={doc['n']} {mode} band={cell[0]}"
    solvable = "solvable" if entry["good"] else "unsolvable"
    if command == "classify":
        exp = {"dsp": solvable, "weak_dsp": solvable, "good": entry["good"], "generic": True}
        return Request(["classify", path], check_classify(exp), label, exp)
    if command == "generic":
        exp = {"generic": True, "witness": None}
        return Request(["generic", path], check_fields(0, **exp), label, exp)
    argv = ["generic", path, "--generate", "--seed", str(rng.randint(0, 9))]
    return Request(argv, check_generated(doc), label)


# -- screens --------------------------------------------------------------------


def _random_selection(rng, mults, m):
    t = [0] * len(mults)
    for _ in range(m):
        free = [i for i, mu in enumerate(mults) if t[i] < mu]
        t[rng.choice(free)] += 1
    return t


def _small_rational(rng):
    return Fraction(rng.randint(-12, 12), rng.randint(1, 6))


def planted_doc(rng, shapes, mode, m0):
    """Random values with a relation planted at cardinality m0: two slots
    are solved for so that both the planted selection and the whole tuple
    vanish (additive) or multiply to one (multiplicative, magnitude 1)."""
    mults = [[sum(p) for p in s] for s in shapes]
    flat = [mu for ms in mults for mu in ms]
    sel = [k for ms in mults for k in _random_selection(rng, ms, m0)]
    pairs = [
        (a, b)
        for a in range(len(flat))
        for b in range(a + 1, len(flat))
        if sel[a] * flat[b] != sel[b] * flat[a]
    ]
    dims = (0, 1) if mode == "additive" and rng.random() < 0.5 else (0,)
    for _ in range(100):
        vals = [[_small_rational(rng) for _ in dims] for _ in flat]
        if pairs:
            a, b = rng.choice(pairs)
            det = sel[a] * flat[b] - sel[b] * flat[a]
            for d in range(len(dims)):
                r = sum(sel[s] * vals[s][d] for s in range(len(flat)) if s not in (a, b))
                t = sum(flat[s] * vals[s][d] for s in range(len(flat)) if s not in (a, b))
                vals[a][d] = (-r * flat[b] + t * sel[b]) / det
                vals[b][d] = (-t * sel[a] + r * flat[a]) / det
        else:
            # the planted selection is m0/n of the whole tuple: only the
            # total condition has to hold
            for d in range(len(dims)):
                t = sum(flat[s] * vals[s][d] for s in range(len(flat) - 1))
                vals[-1][d] = -t / flat[-1]
        if mode == "additive":
            docs = [additive_value((v[0], v[1] if len(v) > 1 else Fraction(0))) for v in vals]
            keys = [(v[0], v[1] if len(v) > 1 else 0) for v in vals]
        else:
            docs = [multiplicative_value(v[0]) for v in vals]
            keys = [v[0] % 1 for v in vals]
        values, pos, distinct = [], 0, True
        for ms in mults:
            chunk = keys[pos : pos + len(ms)]
            distinct &= len(set(chunk)) == len(chunk)
            values.append(docs[pos : pos + len(ms)])
            pos += len(ms)
        if distinct:
            return problem_doc(mode, shapes, values)
    return None


def _special_flags(doc, per_n1):
    """Specialness from the recorded shape certificates per n1: in
    multiplicative mode a factorization counts only when the inner
    eigenvalues multiply to one, i.e. sum(mu/n1 * angle) is an integer."""
    special = diagonal = certs = 0
    for n1, (count, diag) in per_n1.items():
        if doc["mode"] == "multiplicative":
            angle = sum(
                (Fraction(mu, int(n1)) * v[0] for _, mu, v in _slots(doc)), Fraction(0)
            )
            if angle.denominator != 1:
                continue
        certs += count
        special |= count > 0
        diagonal |= diag > 0
    return bool(special), bool(diagonal), certs


SCREENS_COMMANDS = ("classify", "good", "psi-trace", "special", "dim", "generic")
SCREENS_SWEEP = 3  # eigenvalue assignments per shape tuple, taken in a row


def screens_expectations(doc, entry):
    n = doc["n"]
    special, diagonal, certs = _special_flags(doc, entry["special"])
    good = entry["good"]
    if not good:
        dsp = weak = "unsolvable"
    else:
        dsp = "unsolvable" if special else "unknown"
        weak = "unsolvable" if diagonal else "unknown"
    return {
        "classify": {
            "dsp": dsp,
            "weak_dsp": weak,
            "good": good,
            "generic": False,
            **({"special": special, "special_diagonal": diagonal} if good else {}),
        },
        "trace": {k: entry[k] for k in ("good", "levels", "terminal", "branches")},
        "special": {"special": special, "special_diagonal": diagonal, "certificates": certs},
        "dim": {"expected_dimension": n * n - 1, "kappa": 2},
        "generic": {"generic": False},
    }


def _screens_requests_for(doc, path, exp, max_card, label):
    out = []
    for command in SCREENS_COMMANDS:
        lab = f"{command} {label}"
        if command == "classify":
            out.append(Request(["classify", path], check_classify(exp["classify"]), lab, exp["classify"]))
        elif command == "good":
            out.append(Request(["good", path, "--exhaustive-ties"], check_trace(exp["trace"], True), lab, exp["trace"]))
        elif command == "psi-trace":
            out.append(Request(["psi-trace", path], check_trace(exp["trace"], False), lab, exp["trace"]))
        elif command == "special":
            if "special" in exp:
                out.append(Request(["special", path], check_special(exp["special"]), lab, exp["special"]))
        elif command == "dim":
            out.append(Request(["dim", path], check_fields(0, **exp["dim"]), lab, exp["dim"]))
        elif exp["generic"]["generic"]:
            out.append(Request(["generic", path], check_fields(0, generic=True, witness=None), lab, exp["generic"]))
        else:
            out.append(Request(["generic", path], check_nongeneric(doc, max_card), lab, exp["generic"]))
    return out


# Pool tuples whose exhaustive tie exploration visits more reduction tuples
# than this are left out: a handful of them (up to 142 branches, 0.2 s per
# `good --exhaustive-ties`) would decide the tail of a whole run.
SCREENS_MAX_BRANCHES = 12


def screens_rounds(seed, recorded, write):
    """Endless sweeps, one round each: a shape tuple from the kappa = 2 pool
    gets SCREENS_SWEEP planted assignments in a row, each asked all six
    commands.  Round t takes size n = 2 + t % 10, so every run holds the
    same mix of sizes and planted cardinalities; the seed orders the tuples
    of each size and picks the values.  Every 40th round is the bundled
    samples (answers recorded from the seed commit)."""
    rng = random.Random(f"screens/{seed}")
    by_n = {}
    for e in recorded["screens"]:
        if e["branches"] <= SCREENS_MAX_BRANCHES:
            by_n.setdefault(e["n"], []).append(e)
    sizes = sorted(by_n)
    for group in by_n.values():
        rng.shuffle(group)
    samples = [(s, write(s["doc"])) for s in recorded["samples"]["problems"]]
    # The k-th document of size n takes m0 = 1 + (start + k) % (n - 1) and
    # alternates mode after each full turn of m0, so every run holds the same
    # mix of planted cardinalities, which set how far a search goes.
    start = {n: rng.randrange(n - 1) for n in sizes}
    made = dict.fromkeys(sizes, 0)
    t = 0
    while True:
        if t % 40 == 0:
            yield [
                r for s, path in samples
                for r in _screens_requests_for(s["doc"], path, s["expected"], None, s["name"])
            ]
        group = by_n[sizes[t % len(sizes)]]
        entry = group[(t // len(sizes)) % len(group)]
        t += 1
        shapes = decode_shapes(entry["shapes"])
        n = entry["n"]
        sweep = []
        for _ in range(SCREENS_SWEEP):
            k = made[n]
            made[n] += 1
            mode = ("additive", "multiplicative")[k // (n - 1) % 2]
            m0 = 1 + (start[n] + k) % (n - 1)
            doc = planted_doc(rng, shapes, mode, m0)
            if doc is None:
                continue
            path = write(doc)
            exp = screens_expectations(doc, entry)
            label = f"n={n} {mode} m0={m0}"
            sweep.extend(_screens_requests_for(doc, path, exp, min(m0, n - m0), label))
        if sweep:  # empty when no assignment had distinct values
            yield sweep


# -- witness --------------------------------------------------------------------


def _distinct_rationals(rng, k, avoid=(), positive=False):
    out = []
    while len(out) < k:
        x = Fraction(rng.randint(1 if positive else -9, 9), rng.randint(1, 3))
        if x not in out and x not in avoid:
            out.append(x)
    return out


def rigid_triple(rng, mode, n):
    """Irreducible rigid triple with centralizer 1 (unconjugated), its
    inverses (multiplicative) and its classes, from seeded distinct
    eigenvalues a and b.

    Additive: diag(a), 1 v^T and -(diag(a) + 1 v^T), where
    v_i = -prod_k(a_i - b_k) / prod_{k != i}(a_i - a_k) gives the last one
    eigenvalues -b.  Multiplicative: diag(a), I + 1 v^T and the inverse of
    their product, with v_i scaled by 1/a_i so the product has
    eigenvalues b; all eigenvalues are positive rationals.
    """
    while True:
        a = _distinct_rationals(rng, n, positive=mode != "additive")
        b = _distinct_rationals(rng, n, avoid=a, positive=mode != "additive")
        c = [
            math.prod(ai - bk for bk in b) / math.prod(ai - aj for aj in a if aj != ai)
            for ai in a
        ]
        if mode == "additive":
            v = [-ci for ci in c]
            top = sum(v)
            if top == 0:
                continue
            m1 = X.diag([X.g(x) for x in a])
            m2 = [[X.g(vj) for vj in v] for _ in range(n)]
            m3 = X.matscale(X.matadd(m1, m2), -1)
            classes = [
                [([1], ("a", x)) for x in a],
                [([1] * (n - 1), ("a", Fraction(0))), ([1], ("a", top))],
                [([1], ("a", -x)) for x in b],
            ]
            return [m1, m2, m3], None, classes
        v = [-ci / ai for ci, ai in zip(c, a)]
        lam = 1 + sum(v)
        if lam in (0, 1):
            continue
        m1 = X.diag([X.g(x) for x in a])
        m2 = X.matadd(X.identity(n), [[X.g(vj) for vj in v] for _ in range(n)])
        m1_inv = X.diag([X.g(1 / x) for x in a])
        m2_inv = X.matadd(X.identity(n), [[X.g(-vj / lam) for vj in v] for _ in range(n)])
        m3 = X.matmul(m2_inv, m1_inv)
        classes = [
            [([1], ("m", x)) for x in a],
            [([1] * (n - 1), ("m", Fraction(1))), ([1], ("m", lam))],
            [([1], ("m", 1 / x)) for x in b],
        ]
        return [m1, m2, m3], [m1_inv, m2_inv, X.matmul(m1, m2)], classes


def _class_docs(classes, copies=1):
    out = []
    for cls in classes:
        labels = []
        for blocks, (kind, x) in cls:
            if kind == "a":
                val = additive_value(x)
            else:
                val = multiplicative_value(Fraction(0) if x > 0 else Fraction(1, 2), abs(x))
            labels.append((blocks * copies, val))
        out.append(labels)
    return [[p for p, _ in c] for c in out], [[v for _, v in c] for c in out]


# Conjugation by a unimodular P (a product of Gaussian shears) makes
# entries grow with n as real witnesses do.  Shears are added until the
# largest numerator or denominator of the conjugated tuple has
# TARGET_BITS[n] +- 2 bits (8 at n = 3 to 20 at n = 7, or 2 more than the
# unconjugated tuple).  Larger entries put verify at n = 7 near the 10 s
# request limit.
TARGET_BITS = {n: 8 + 3 * (n - 3) for n in range(2, 8)}


def conjugate_to_target(rng, groups, n):
    """Conjugate every matrix list in `groups` by one seeded unimodular P,
    applied one shear E = I + c e_i e_j^T at a time: M <- E M E^-1."""
    target = max(TARGET_BITS[n], X.max_bits(groups[0]) + 2)
    while True:
        out = [[[row[:] for row in m] for m in ms] for ms in groups]
        bits = 0
        while bits < target - 2:
            i, j = rng.sample(range(n), 2)
            c = X.g(*rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1)]))
            for ms in out:
                for m in ms:
                    m[i] = [X.add(x, X.mul(c, y)) for x, y in zip(m[i], m[j])]
                    for row in m:
                        row[j] = X.sub(row[j], X.mul(c, row[i]))
            bits = X.max_bits(out[0])
        if bits <= target + 2:
            return out


def witness_case(rng, mode, n, copies=1):
    """Documents and known answers of one witness request family.

    copies > 1 repeats an (n // copies)-block along the diagonal: the
    centralizer has dimension copies^2 and the generated algebra l^2."""
    l = n // copies
    mats, inverses, classes = rigid_triple(rng, mode, l)
    if copies > 1:
        mats = [X.block_diag_copies(m, copies) for m in mats]
        inverses = inverses and [X.block_diag_copies(m, copies) for m in inverses]
    mats, *rest = conjugate_to_target(rng, [mats] + ([inverses] if inverses else []), n)
    inverses = rest[0] if rest else None
    shapes, values = _class_docs(classes, copies)
    problem = problem_doc(mode, shapes, values)
    kappa = 2 * copies * copies
    cdim = copies * copies
    local = n * n - cdim
    expected_dim = n * n + 1 - kappa
    verify = {
        "relation": True,
        "class_membership": [True] * 3,
        "centralizer_dimension": cdim,
        "centralizer_trivial": cdim == 1,
        "surjective_without_last": cdim == 1,
        "irreducible": copies == 1,
        "algebra_dimension": l * l,
        "euler_characteristic": kappa,
        "kappa": kappa,
        "euler_matches_kappa": True,
        "local_dimension": local,
        "expected_dimension": expected_dim,
        "dimension_consistent": (local == expected_dim) if cdim == 1 else None,
    }
    dim = {"expected_dimension": expected_dim, "kappa": kappa, "local_dimension": local}
    return problem, mats, inverses, verify, dim


def deform_directions(rng, mode, mats, inverses):
    """Seeded Gaussian-integer directions N_j meeting the first-order
    constraint: tr(sum N_j) = 0, resp. sum tr(M_j^-1 N_j) = 0, enforced by
    adding a multiple of I, resp. of M_last, to the last direction.  In
    multiplicative mode the directions document is a multiplicative tuple
    too, so every N_j must be invertible."""
    n = len(mats[0])
    while True:
        dirs = [
            [[X.g(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)]
            for _ in mats
        ]
        if mode == "additive":
            s = reduce(X.add, (X.trace(d) for d in dirs))
            fix = X.matscale(X.identity(n), Fraction(-1, n))
            dirs[-1] = X.matadd(dirs[-1], [[X.mul(x, s) for x in row] for row in fix])
            return dirs
        s = reduce(X.add, (X.trace(X.matmul(mi, d)) for mi, d in zip(inverses, dirs)))
        c = X.scale(s, Fraction(-1, n))
        dirs[-1] = X.matadd(dirs[-1], [[X.mul(x, c) for x in row] for row in mats[-1]])
        if all(X.rank(d) == n for d in dirs):
            return dirs


def check_deform(mode, mats, dirs, eps):
    """The reported residual must equal the residual of the returned tuple,
    stay within the reported proven bound, and each returned matrix must
    keep the trace of M_j + eps N_j (it is conjugate to it)."""
    def check(code, report):
        if code == 2 or "deformed" not in report:
            return UNDECIDED
        out = report["deformed"]
        deformed = [[[X.entry_from_doc(x) for x in row] for row in m] for m in out["matrices"]]
        n = len(deformed[0])
        for m, d, o in zip(mats, dirs, deformed):
            if X.trace(o) != X.add(X.trace(m), X.scale(X.trace(d), eps)):
                return WRONG
        if mode == "additive":
            acc = reduce(X.matadd, deformed)
        else:
            acc = reduce(X.matmul, deformed)
            acc = X.matadd(acc, X.matscale(X.identity(n), -1))
        residual = Fraction(0) if X.is_zero_matrix(acc) else X.rowsum_norm(acc)
        if X.parse(report["residual"]) != residual:
            return WRONG
        bound = report.get("residual_bound")
        if bound is not None and residual > X.parse(bound):
            return WRONG
        if code != (0 if report.get("within_tolerance") else 1):
            return WRONG
        return OK
    return check


# One round of the witness workload after the bundled witness samples:
# (command, mode, n, copies).  A single verify varies up to fourfold in
# cost with the seed's data (0.27-1.1 s at n = 5), which would make the
# tail a lottery; dim and deform at one size vary by about 15%, except that
# about one base tuple in 150 makes elimination 20-30 times slower (a
# deform at n = 7 then passes the 10 s request limit).  So verify stops at
# n = 4, deform at n = 6 and dim reaches n = 7; the most costly requests
# (deform at n = 6, dim at n = 7) come twice per round so that the tail
# lies inside their cluster, and the mid-cost dim at n = 6 and deform at
# n = 5 come twice so that the median lies inside theirs.
WITNESS_ROUND = [
    ("verify", "additive", 3, 1),
    ("verify", "multiplicative", 3, 1),
    ("dim", "additive", 3, 1),
    ("deform", "additive", 3, 1),
    ("deform", "multiplicative", 3, 1),
    ("verify", "additive", 4, 1),
    ("verify", "multiplicative", 4, 1),
    ("verify", "additive", 4, 2),
    ("dim", "multiplicative", 4, 1),
    ("deform", "additive", 4, 1),
    ("deform", "multiplicative", 4, 1),
    ("dim", "additive", 5, 1),
    ("deform", "additive", 5, 1),
    ("deform", "additive", 5, 1),
    ("dim", "additive", 6, 1),
    ("dim", "additive", 6, 1),
    ("dim", "multiplicative", 6, 1),
    ("deform", "additive", 6, 1),
    ("deform", "additive", 6, 1),
    ("dim", "additive", 7, 1),
    ("dim", "additive", 7, 1),
    ("dim", "multiplicative", 7, 1),
]


def witness_rounds(seed, recorded, write):
    """Endless rounds: the bundled witness samples (answers recorded from
    the seed commit), then WITNESS_ROUND on fresh seeded tuples."""
    rng = random.Random(f"witness/{seed}")
    samples = []
    for s in recorded["samples"]["witnesses"]:
        argv = ["verify", write(s["problem"]), write(s["witness"])]
        samples.append(Request(argv, check_fields(s["exit"], **s["expected"]), f"verify {s['name']}", s["expected"]))
    while True:
        yield samples + [_witness_request(rng, *spec, write) for spec in WITNESS_ROUND]


def _witness_request(rng, command, mode, n, copies, write):
    problem, mats, inverses, verify, dim = witness_case(rng, mode, n, copies)
    ppath = write(problem)
    wpath = write(witness_doc(mode, mats))
    label = f"{command} {mode} n={n}" + (f" copies={copies}" if copies > 1 else "")
    if command == "verify":
        return Request(["verify", ppath, wpath], check_fields(0, **verify), label, verify)
    if command == "dim":
        return Request(["dim", ppath, "--witness", wpath], check_fields(0, **dim), label, dim)
    dirs = deform_directions(rng, mode, mats, inverses)
    dpath = write(witness_doc(mode, dirs))
    eps = Fraction(1, 1024)
    argv = ["deform", wpath, dpath, "--epsilon", X.fmt(eps)]
    return Request(argv, check_deform(mode, mats, dirs, eps), label)


BUILDERS = {
    "genericity": genericity_rounds,
    "screens": screens_rounds,
    "witness": witness_rounds,
}
