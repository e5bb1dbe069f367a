"""Golden reports: the default JSON report and exit status of every bundled
sample under every command, pinned byte for byte.

Each case's file under `tests/golden/` holds the exit status on its first
line and `json.dumps(report, indent=2, sort_keys=True)` after it.  The suite
only compares against these files and never rewrites them: a changed report
is a behaviour change and has to be reviewed as one.  The CLI's own JSON
writer must print the same bytes, for these reports and for the documents
that `--output` writes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from deligne_simpson.cli import _to_json, run_command

from conftest import SAMPLES

GOLDEN = Path(__file__).resolve().parent / "golden"

PROBLEM_COMMANDS = {
    "classify": ["classify"],
    "good": ["good"],
    "good-exhaustive-ties": ["good", "--exhaustive-ties"],
    "generic": ["generic"],
    "generic-generate-seed0": ["generic", "--generate", "--seed", "0"],
    "special": ["special"],
    "psi-trace": ["psi-trace"],
    "dim": ["dim"],
}
# cap 0 refuses every relation search at its first cardinality, the others
# refuse some of the samples' searches and let the rest finish
CAPS = (0, 1, 10, 100)


def _samples():
    problems, witnesses = [], []
    for path in sorted(SAMPLES.glob("*.json")):
        doc = json.loads(path.read_text())
        (problems if "classes" in doc else witnesses).append(path)
    return problems, witnesses


def golden_cases() -> dict[str, list[str]]:
    """Case id -> argv, over every problem sample and problem/witness pair."""
    problems, witnesses = _samples()
    cases: dict[str, list[str]] = {}
    for p in problems:
        for name, (command, *flags) in PROBLEM_COMMANDS.items():
            cases[f"{p.stem}__{name}"] = [command, str(p), *flags]
        for command in ("special", "classify"):
            for cap in CAPS:
                cases[f"{p.stem}__{command}-cap{cap}"] = [
                    command, str(p), "--relation-cap", str(cap)
                ]
        for w in witnesses:
            cases[f"{p.stem}__verify__{w.stem}"] = ["verify", str(p), str(w)]
    cases["rigid_n2_witness__deform__deform_directions_n2"] = [
        "deform",
        str(SAMPLES / "rigid_n2_witness.json"),
        str(SAMPLES / "deform_directions_n2.json"),
        "--epsilon",
        "1/1024",
    ]
    return cases


def render(argv: list[str]) -> str:
    code, report = run_command(argv)
    return f"{code}\n{json.dumps(report, indent=2, sort_keys=True)}\n"


CASES = golden_cases()


def test_every_case_has_a_golden_file():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_is_byte_identical(case):
    assert render(CASES[case]) == (GOLDEN / f"{case}.txt").read_text()


@pytest.mark.parametrize("case", sorted(CASES))
def test_writer_prints_the_golden_bytes(case):
    code, report = run_command(CASES[case])
    assert f"{code}\n{_to_json(report)}\n" == (GOLDEN / f"{case}.txt").read_text()


def _output_cases():
    """The golden cases that write a document when given --output (deform
    always, generic --generate when it succeeds), with their pinned exit
    status."""
    cases = {}
    for case, argv in CASES.items():
        code = int((GOLDEN / f"{case}.txt").read_text().split("\n", 1)[0])
        if argv[0] == "deform" or ("--generate" in argv and code == 0):
            cases[case] = (argv, code)
    return cases


OUTPUT_CASES = _output_cases()


@pytest.mark.parametrize("case", sorted(OUTPUT_CASES))
def test_output_document_is_json_dumps(tmp_path, case):
    argv, code = OUTPUT_CASES[case]
    path = tmp_path / "out.json"
    assert run_command([*argv, "--output", str(path)])[0] == code
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
