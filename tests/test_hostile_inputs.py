"""Hostile documents and flags end in exit 2 with a JSON error on stdout:
no traceback, no hang and no huge allocation; a valid document of huge n
is answered in time.  Each case runs the console entry point as a separate
process under a timeout."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SAMPLES
from test_cli import MISMATCH, MISMATCHED_WITNESSES, _mismatch_argv

SRC = Path(__file__).resolve().parent.parent / "src"
TIMEOUT_S = 30

PROBLEM = str(SAMPLES / "rigid_n2_problem.json")
WITNESS = str(SAMPLES / "rigid_n2_witness.json")
DIRECTIONS = str(SAMPLES / "deform_directions_n2.json")


def _huge_value_problem():
    doc = json.loads((SAMPLES / "rigid_n2_problem.json").read_text())
    doc["classes"][1]["eigenvalues"][0]["value"] = {"re": "1e999999999"}
    return json.dumps(doc)


# name -> (files to write as {name: text or bytes}, argv in which each
# file name stands for its path, text the error must contain)
CORPUS = {
    "huge int literal": (
        {"p.json": '{"mode": "additive", "n": ' + "1" * 5000 + ', "classes": []}'},
        ["classify", "p.json"],
        "p.json is not valid JSON",
    ),
    "huge exponent value": (
        {"p.json": _huge_value_problem()},
        ["classify", "p.json"],
        "classes[1].eigenvalues[0].value: malformed rational",
    ),
    "huge exponent epsilon": (
        {},
        ["deform", WITNESS, DIRECTIONS, "--epsilon", "1e999999999"],
        "--epsilon: malformed rational",
    ),
    "huge exponent tolerance": (
        {},
        ["deform", WITNESS, DIRECTIONS, "--epsilon", "1/1024", "--tolerance", "1e999999999"],
        "--tolerance: malformed rational",
    ),
    "truncated problem": (
        {"p.json": (SAMPLES / "rigid_n2_problem.json").read_text()[:200]},
        ["classify", "p.json"],
        "p.json is not valid JSON",
    ),
    "truncated witness": (
        {"w.json": (SAMPLES / "rigid_n2_witness.json").read_text()[:200]},
        ["verify", PROBLEM, "w.json"],
        "w.json is not valid JSON",
    ),
    "invalid utf-8": (
        {"p.json": b"\xff\xfe{}"},
        ["classify", "p.json"],
        "p.json is not valid JSON",
    ),
    "deep nesting": (
        {"p.json": "[" * 100_000},
        ["classify", "p.json"],
        "p.json is not valid JSON",
    ),
}
for _command in ("verify", "dim", "classify"):
    for _kind, _doc in MISMATCHED_WITNESSES.items():
        CORPUS[f"{_command} {_kind} mismatch"] = (
            {"w.json": json.dumps(_doc)},
            _mismatch_argv(_command, "w.json"),
            MISMATCH,
        )


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_hostile_input_is_exit_two(tmp_path, name):
    files, argv, expected = CORPUS[name]
    for fname, content in files.items():
        path = tmp_path / fname
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
    argv = [str(tmp_path / arg) if arg in files else arg for arg in argv]
    proc = _run_dsp(argv, TIMEOUT_S)
    assert proc.stderr == ""
    assert proc.returncode == 2
    assert expected in json.loads(proc.stdout)["error"]


def _run_dsp(argv, timeout):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    return subprocess.run(
        [sys.executable, "-m", "deligne_simpson.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


HUGE_N = 20000


def _huge_n_problem(tmp_path):
    """Three classes with labels of multiplicity n - 1 and 1 at n = HUGE_N:
    the relation search walks all n // 2 cardinalities."""
    n = HUGE_N
    eigenvalues = [{"value": {"re": "1"}, "multiplicity": n - 1, "blocks": [n - 1]},
                   {"value": {"re": str(1 - n)}, "multiplicity": 1, "blocks": [1]}]
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"mode": "additive", "n": n,
                                "classes": [{"eigenvalues": eigenvalues}] * 3}))
    return str(path)


def test_generate_at_huge_n_is_certified_not_searched(tmp_path):
    # generation needs none of the search's cardinalities
    proc = _run_dsp(["generic", _huge_n_problem(tmp_path), "--generate"], 10)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["generated"] is True and report["problem"]["n"] == HUGE_N


@pytest.mark.parametrize("command", ["generic", "classify"])
def test_relation_search_at_huge_n_is_linear_per_label(tmp_path, command):
    # a label's key totals at cardinality m take only the counts its
    # predecessors can complete, so a multiplicity-1 label after one of
    # multiplicity n - 1 costs O(1) per m, not O(m), and the search O(n)
    proc = _run_dsp([command, _huge_n_problem(tmp_path)], 10)
    assert proc.stderr == ""
    assert proc.returncode == 0


def _set(path, value):
    """A mutation of a document that puts `value` at `path`, a list of keys
    and indices."""
    def mutate(doc):
        *outer, last = path
        for step in outer:
            doc = doc[step]
        doc[last] = value
    return mutate


def _multiplicative(doc):
    """rigid_n3_problem with the value of label k replaced by e(2 pi i k/7)."""
    doc["mode"] = "multiplicative"
    for cdoc in doc["classes"]:
        for k, edoc in enumerate(cdoc["eigenvalues"]):
            edoc["value"] = {"angle": f"{k}/7"}


def _label(j, k, *field):
    return ["classes", j, "eigenvalues", k, *field]


# name -> (document kind, mutations, full error text): each breaks one field
# at indices >= 1 of the three-class rigid_n3_problem or its witness, so a
# path built from the wrong index, or a stale one, shows in the text
DEEP_PATHS = {
    "label not an object": (
        "problem", [_set(_label(2, 2), [])],
        "classes[2].eigenvalues[2]: must be an object",
    ),
    "value not an object": (
        "problem", [_set(_label(2, 1, "value"), "4")],
        "classes[2].eigenvalues[1].value: must be an object",
    ),
    "value with an unknown key": (
        "problem", [_set(_label(1, 1, "value"), {"re": "0", "imag": "0"})],
        'classes[1].eigenvalues[1].value: additive values use {"re": "p/q", "im": "p/q"}',
    ),
    "value malformed": (
        "problem", [_set(_label(2, 2, "value"), {"re": "1/0"})],
        "classes[2].eigenvalues[2].value: malformed rational '1/0': Fraction(1, 0)",
    ),
    "multiplicative value refused": (
        "problem", [_multiplicative, _set(_label(1, 1, "value"), {"angle": "1/2", "magnitude": "-1"})],
        "classes[1].eigenvalues[1].value: magnitude must be positive, got -1",
    ),
    "multiplicative value with additive keys": (
        "problem", [_multiplicative, _set(_label(2, 1, "value"), {"re": "1/2"})],
        'classes[2].eigenvalues[1].value: multiplicative values use {"angle": "p/q", "magnitude": "p/q"}',
    ),
    "multiplicity zero": (
        "problem", [_set(_label(2, 1, "multiplicity"), 0)],
        "classes[2].eigenvalues[1].multiplicity: must be a positive integer",
    ),
    "multiplicity boolean": (
        "problem", [_set(_label(1, 1, "multiplicity"), True)],
        "classes[1].eigenvalues[1].multiplicity: must be a positive integer",
    ),
    "blocks with a zero": (
        "problem", [_set(_label(1, 1, "blocks"), [1, 0])],
        "classes[1].eigenvalues[1].blocks: must be a non-empty list of positive integers",
    ),
    "blocks off the multiplicity": (
        "problem", [_set(_label(2, 2, "blocks"), [2])],
        "classes[2].eigenvalues[2].blocks: block sizes sum to 2, multiplicity is 1",
    ),
    "eigenvalues empty": (
        "problem", [_set(["classes", 2, "eigenvalues"], [])],
        "classes[2].eigenvalues: must be a non-empty list",
    ),
    "class not an object": (
        "problem", [_set(["classes", 1], "x")],
        "classes[1]: must be an object",
    ),
    "class multiplicities off n": (
        "problem", [_set(_label(1, 1, "multiplicity"), 1), _set(_label(1, 1, "blocks"), [1])],
        "classes[1]: multiplicities sum to 2, expected n = 3",
    ),
    "class with a repeated value": (
        "problem", [_set(_label(2, 2, "value"), {"re": "-4"})],
        "classes[2]: duplicate eigenvalue within one class",
    ),
    "entry with an unknown key": (
        "witness", [_set(["matrices", 1, 2, 1], {"re": "1", "imag": "7"})],
        'matrices[1][2][1]: additive values use {"re": "p/q", "im": "p/q"}',
    ),
    "entry not an object": (
        "witness", [_set(["matrices", 2, 1, 2], 5)],
        "matrices[2][1][2]: must be an object",
    ),
    "entry malformed": (
        "witness", [_set(["matrices", 1, 1, 2], {"re": "a"})],
        "matrices[1][1][2]: malformed rational 'a': expected p/q, an integer or a decimal "
        "such as 1.5 or 1e-3 (exponent <= 3 digits)",
    ),
    "row too short": (
        "witness", [_set(["matrices", 2, 1], [{"re": "0"}] * 2)],
        "matrices[2][1]: must be a list of 3 entries",
    ),
    "matrix too short": (
        "witness", [_set(["matrices", 1], [[{"re": "0"}] * 3] * 2)],
        "matrices[1]: must be a list of 3 rows",
    ),
    "entry with an extra key": (
        "witness", [_set(["matrices", 2, 2, 1], {"re": "1", "im": "0", "x": "0"})],
        'matrices[2][2][1]: additive values use {"re": "p/q", "im": "p/q"}',
    ),
    "entry without re": (
        "witness", [_set(["matrices", 1, 2, 2], {"im": "1"})],
        'matrices[1][2][2]: additive values use {"re": "p/q", "im": "p/q"}',
    ),
}


def _int_limit_text(digits: str) -> str:
    try:
        int(digits)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("no digit limit")


# The witness-entry reader refuses a bad part in `re` and in `im` alike,
# with `_ratio`'s text and the entry's path.
_DIGITS = "1" * 5000
_BAD_PARTS = {
    "float": (1.5, "refusing float 1.5; pass a string like '1/3'"),
    "bool": (True, "cannot parse True as a rational"),
    "null": (None, "cannot parse None as a rational"),
    "zero denominator": ("1/0", "malformed rational '1/0': Fraction(1, 0)"),
    "5000-digit integer": (_DIGITS, f"malformed rational '{_DIGITS}': {_int_limit_text(_DIGITS)}"),
    "4-digit exponent": (
        "1e1000",
        "malformed rational '1e1000': expected p/q, an integer or a decimal "
        "such as 1.5 or 1e-3 (exponent <= 3 digits)",
    ),
}
for _name, (_bad, _text) in _BAD_PARTS.items():
    for _part, (_j, _i, _k) in (("re", (1, 2, 1)), ("im", (2, 1, 2))):
        DEEP_PATHS[f"entry {_part} {_name}"] = (
            "witness", [_set(["matrices", _j, _i, _k], {"re": "1", "im": "0", _part: _bad})],
            f"matrices[{_j}][{_i}][{_k}]: {_text}",
        )


@pytest.mark.parametrize("name", sorted(DEEP_PATHS))
def test_error_path_names_nonzero_indices(tmp_path, name):
    kind, mutations, expected = DEEP_PATHS[name]
    docs = {k: json.loads((SAMPLES / f"rigid_n3_{k}.json").read_text())
            for k in ("problem", "witness")}
    for mutate in mutations:
        mutate(docs[kind])
    paths = {}
    for k, doc in docs.items():
        paths[k] = tmp_path / f"{k}.json"
        paths[k].write_text(json.dumps(doc))
    proc = _run_dsp(["verify", str(paths["problem"]), str(paths["witness"])], TIMEOUT_S)
    assert proc.stderr == ""
    assert proc.returncode == 2
    assert json.loads(proc.stdout) == {"error": expected}
