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
