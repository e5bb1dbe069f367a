from __future__ import annotations

import argparse
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deligne_simpson import ADDITIVE, MULTIPLICATIVE, ClassSpec, JnfShape, TupleProblem, cli
from deligne_simpson.eigenvalues import DEFAULT_RELATION_CAP
from deligne_simpson.exactnum import ExactNumberError, parse_rational
from deligne_simpson.cli import (
    CliInputError,
    main,
    parse_problem,
    parse_witness,
    run_command,
    serialize_problem,
    serialize_witness,
)
from deligne_simpson.linalg import Matrix
from deligne_simpson.witness import MatrixTuple, WitnessError

from conftest import SAMPLES, gr, me, random_shape_tuple


def _load(name):
    return json.loads((SAMPLES / name).read_text())


class TestParseProblem:
    def test_n4_document_roundtrips_with_kappa_two(self):
        problem = parse_problem(_load("n4_special.json"))
        from deligne_simpson.criteria import rigidity_report

        assert rigidity_report(problem.shapes).kappa == 2
        assert parse_problem(serialize_problem(problem)) == problem

    def test_multiplicity_sum_error_names_class(self):
        doc = _load("nilpotent_n2.json")
        doc["classes"][1]["eigenvalues"][0]["multiplicity"] = 1
        doc["classes"][1]["eigenvalues"][0]["blocks"] = [1]
        with pytest.raises(CliInputError) as err:
            parse_problem(doc)
        assert "classes[1]" in str(err.value)

    def test_duplicate_eigenvalue_error(self):
        doc = _load("rigid_n2_problem.json")
        doc["classes"][2]["eigenvalues"][1]["value"] = {"re": "1", "im": "0"}
        with pytest.raises(CliInputError):
            parse_problem(doc)

    def test_blocks_must_match_multiplicity(self):
        doc = _load("nilpotent_n2.json")
        doc["classes"][0]["eigenvalues"][0]["blocks"] = [1]
        with pytest.raises(CliInputError) as err:
            parse_problem(doc)
        assert "blocks" in str(err.value)

    @pytest.mark.parametrize("blocks", [[2, 0], [0, 2], [3, -1], [0]])
    def test_block_sizes_must_be_positive(self, blocks):
        """Partition drops zero parts, so a zero block would not survive a
        round trip; the document refuses every non-positive size."""
        doc = _load("nilpotent_n2.json")
        doc["classes"][0]["eigenvalues"][0]["blocks"] = blocks
        with pytest.raises(CliInputError) as err:
            parse_problem(doc)
        assert str(err.value) == (
            "classes[0].eigenvalues[0].blocks: must be a non-empty list of positive integers"
        )

    def test_roundtrip_random_problems(self):
        rng = random.Random(71)
        from deligne_simpson import ADDITIVE, MULTIPLICATIVE, ClassSpec, TupleProblem

        for trial in range(25):
            n = rng.randint(1, 6)
            shapes = random_shape_tuple(rng, n, rng.randint(1, 4))
            mode = ADDITIVE if trial % 2 else MULTIPLICATIVE
            classes = []
            for s in shapes:
                if mode == ADDITIVE:
                    values = [gr(i, i % 2) for i in range(s.label_count)]
                else:
                    values = [me((i, i + 1)[0], 1) if False else me(f"{i}/{s.label_count + 1}") for i in range(s.label_count)]
                classes.append(ClassSpec(s, values))
            problem = TupleProblem(mode, n, classes)
            assert parse_problem(serialize_problem(problem)) == problem


_SMALL = st.fractions(min_value=-5, max_value=5, max_denominator=12)
_VALUES = {
    ADDITIVE: st.builds(gr, _SMALL, _SMALL),
    MULTIPLICATIVE: st.builds(
        me,
        st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda f: f < 1),
        st.fractions(min_value=Fraction(1, 12), max_value=5, max_denominator=12),
    ),
}


@st.composite
def _parts(draw, total):
    """A list of positive integers with the given sum."""
    parts = []
    while total:
        parts.append(draw(st.integers(1, total)))
        total -= parts[-1]
    return parts


@st.composite
def _problems(draw):
    mode = draw(st.sampled_from([ADDITIVE, MULTIPLICATIVE]))
    n = draw(st.integers(1, 5))
    classes = []
    for _ in range(draw(st.integers(1, 3))):
        mults = draw(_parts(n))
        shape = JnfShape.of(*(draw(_parts(mu)) for mu in mults))
        values = draw(st.lists(_VALUES[mode], min_size=len(mults), max_size=len(mults), unique=True))
        classes.append(ClassSpec(shape, values))
    return TupleProblem(mode, n, classes)


@st.composite
def _witnesses(draw):
    mode = draw(st.sampled_from([ADDITIVE, MULTIPLICATIVE]))
    n = draw(st.integers(1, 3))
    entries = st.lists(_VALUES[ADDITIVE], min_size=n * n, max_size=n * n)
    matrices = [
        Matrix([flat[i : i + n] for i in range(0, n * n, n)])
        for flat in draw(st.lists(entries, min_size=1, max_size=3))
    ]
    try:
        return MatrixTuple(mode, matrices)
    except WitnessError:  # a singular multiplicative matrix
        assume(False)


class TestDocumentRoundTrip:
    """parse(serialize(x)) == x, and serialize(parse(doc)) == doc for every
    document that serialize produces, after a trip through JSON text."""

    @given(_problems())
    @settings(max_examples=150, deadline=None)
    def test_problems(self, problem):
        doc = json.loads(json.dumps(serialize_problem(problem)))
        assert parse_problem(doc) == problem
        assert serialize_problem(parse_problem(doc)) == doc

    @given(_witnesses())
    @settings(max_examples=100, deadline=None)
    def test_witnesses(self, witness):
        doc = json.loads(json.dumps(serialize_witness(witness)))
        assert parse_witness(doc) == witness
        assert serialize_witness(parse_witness(doc)) == doc


_MODE_OBJECTS = st.sampled_from([ADDITIVE, MULTIPLICATIVE])
# quotes, backslashes, control characters, non-ASCII and astral characters
_STRINGS = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\xe9\u2028\ufeff\U0001d11e') | st.characters())
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**300), 10**300),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e300, -1e-300, 1e16, 0.1]),
    _STRINGS,
    _MODE_OBJECTS,
)
_REPORTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(_STRINGS | _MODE_OBJECTS, inner, max_size=4),
    ),
    max_leaves=24,
)


class TestReportWriter:
    """cli's one JSON writer prints what json.dumps(indent=2, sort_keys=True)
    prints, byte for byte."""

    @given(_REPORTS)
    @settings(max_examples=400, deadline=None)
    def test_equals_json_dumps(self, report):
        assert cli._to_json(report) == json.dumps(report, indent=2, sort_keys=True)

    def test_empty_containers_and_non_finite_floats(self):
        for report in ({}, [], {"a": {}, "b": [], "c": [{}, []]},
                       [float("inf"), float("-inf"), float("nan")]):
            assert cli._to_json(report) == json.dumps(report, indent=2, sort_keys=True)

    @pytest.mark.parametrize("report", [
        {"a": object()}, [{1, 2}], {"a": b"bytes"}, {1: "int key"}, {None: 1},
        {"a": Fraction(1, 2)}, {"a": (1, 2)},
    ])
    def test_unsupported_types_raise_type_error(self, report):
        with pytest.raises(TypeError):
            cli._to_json(report)


class TestParseWitness:
    def test_roundtrip(self):
        wit = parse_witness(_load("rigid_n2_witness.json"))
        assert parse_witness(serialize_witness(wit)) == wit

    def test_ragged_matrix_rejected(self):
        doc = _load("rigid_n2_witness.json")
        doc["matrices"][0][0] = doc["matrices"][0][0][:1]
        with pytest.raises(CliInputError):
            parse_witness(doc)

    def test_entry_with_unknown_key_rejected(self, tmp_path):
        doc = _load("rigid_n2_witness.json")
        doc["matrices"][0][0][1] = {"re": "1", "imag": "7"}
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(doc))
        code, report = _run("verify", str(SAMPLES / "rigid_n2_problem.json"), str(path))
        assert code == 2
        assert report["error"].startswith("matrices[0][0][1]: ")


def _run(*argv):
    return run_command(list(argv))


class TestCommands:
    def test_classify_nilpotent(self):
        code, report = _run("classify", str(SAMPLES / "nilpotent_n2.json"))
        assert code == 0
        verdict = report["verdict"]
        assert verdict["dsp"] == "unsolvable" and verdict["weak_dsp"] == "unsolvable"
        assert any(
            r["rule"] == "special-diagonal-obstruction"
            for r in verdict["justification"]
        )

    def test_classify_unknown_exits_one(self):
        code, report = _run("classify", str(SAMPLES / "n4_special.json"))
        assert code == 1
        assert report["verdict"]["weak_dsp"] == "unknown"

    def test_psi_trace_n4_three_reductions(self):
        code, report = _run("psi-trace", str(SAMPLES / "n4_special.json"))
        assert code == 0 and report["good"]
        levels = report["trace"]["levels"]
        assert [lvl["n"] for lvl in levels] == [4, 3, 2, 1]
        assert report["trace"]["terminal"] == "reached_n_equals_1"

    @pytest.mark.parametrize("flags", [[], ["--exhaustive-ties"]])
    def test_psi_trace_is_good_under_its_own_name(self, flags):
        code, report = _run("good", str(SAMPLES / "n4_special.json"), *flags)
        assert _run("psi-trace", str(SAMPLES / "n4_special.json"), *flags) == (
            code,
            {**report, "command": "psi-trace"},
        )

    def test_good_command(self):
        code, report = _run("good", str(SAMPLES / "n9_good_not_special.json"))
        assert code == 0 and report["good"]

    def test_good_exhaustive_ties_flag(self):
        code, report = _run(
            "good", str(SAMPLES / "n4_special.json"), "--exhaustive-ties"
        )
        assert code == 0 and report["good"]
        assert report["branches_explored"] > 1

    def test_generic_exit_codes(self):
        code, report = _run("generic", str(SAMPLES / "double_blocks_generic.json"))
        assert code == 0 and report["generic"]
        code, report = _run("generic", str(SAMPLES / "double_blocks_nongeneric.json"))
        assert code == 1 and not report["generic"]
        assert report["witness"]["cardinality"] == 2

    def test_generic_generate(self, tmp_path):
        out = tmp_path / "generated.json"
        code, report = _run(
            "generic",
            str(SAMPLES / "rigid_n2_problem.json"),
            "--generate",
            "--seed",
            "4",
            "--output",
            str(out),
        )
        assert code == 0 and report["generated"]
        generated = parse_problem(json.loads(out.read_text()))
        from deligne_simpson import check_consistency, is_generic

        assert check_consistency(generated)
        assert is_generic(generated).generic

    def test_special_command(self):
        code, report = _run("special", str(SAMPLES / "n4_special.json"))
        assert code == 0 and report["special"]
        assert not report["special_diagonal"]
        assert report["certificates"][0]["l"] == 2
        code, report = _run("special", str(SAMPLES / "n9_good_not_special.json"))
        assert code == 1 and report["certificates"] == []

    def test_special_kappa_precondition_is_input_error(self):
        code, report = _run("special", str(SAMPLES / "double_blocks_generic.json"))
        assert code == 2 and "error" in report

    def test_verify_rigid_n2(self):
        code, report = _run(
            "verify",
            str(SAMPLES / "rigid_n2_problem.json"),
            str(SAMPLES / "rigid_n2_witness.json"),
        )
        assert code == 0
        assert report["relation"] and all(report["class_membership"])
        assert report["irreducible"] and report["centralizer_trivial"]
        assert report["euler_matches_kappa"]
        assert report["local_dimension"] == report["expected_dimension"] == 3

    def test_verify_detects_bad_witness(self, tmp_path):
        doc = _load("rigid_n2_witness.json")
        doc["matrices"][0][0][1] = {"re": "2", "im": "0"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, report = _run(
            "verify", str(SAMPLES / "rigid_n2_problem.json"), str(bad)
        )
        assert code == 1 and not report["relation"]

    def test_dim_command(self):
        code, report = _run(
            "dim",
            str(SAMPLES / "rigid_n3_problem.json"),
            "--witness",
            str(SAMPLES / "rigid_n3_witness.json"),
        )
        assert code == 0
        assert report["expected_dimension"] == 8 and report["local_dimension"] == 8

    def test_deform_command(self, tmp_path):
        out = tmp_path / "deformed.json"
        code, report = _run(
            "deform",
            str(SAMPLES / "rigid_n2_witness.json"),
            str(SAMPLES / "deform_directions_n2.json"),
            "--epsilon",
            "1/1024",
            "--tolerance",
            "1e-3",
            "--output",
            str(out),
        )
        assert code == 0 and report["within_tolerance"]
        deformed = parse_witness(json.loads(out.read_text()))
        assert deformed.n == 2

    @pytest.mark.parametrize("tolerance,code", [("4/4194303", 0), ("4/4194304", 1)])
    def test_deform_tolerance_is_exact(self, tolerance, code):
        # the residual at epsilon 1/1024 is exactly 4/4194303
        got, report = _run(
            "deform",
            str(SAMPLES / "rigid_n2_witness.json"),
            str(SAMPLES / "deform_directions_n2.json"),
            "--epsilon",
            "1/1024",
            "--tolerance",
            tolerance,
        )
        assert report["residual"] == "4/4194303"
        assert got == code and report["within_tolerance"] == (code == 0)

    def test_deform_singular_conjugator_is_input_error(self):
        # X_1 = [[1/2, 0], [-1, -1/2]], so I + 2 X_1 is singular
        code, report = _run(
            "deform",
            str(SAMPLES / "rigid_n2_witness.json"),
            str(SAMPLES / "deform_directions_n2.json"),
            "--epsilon",
            "2",
        )
        assert code == 2
        assert report["error"] == "DeformationError: epsilon too large: I + eps X is singular"

    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_deform_base_breaking_its_relation_is_input_error(self, tmp_path, mode):
        # trivial centralizer, relation broken in the last matrix
        base = {
            "additive": [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, -1], [-1, 0]]],
            "multiplicative": [[[1, 1], [0, 1]], [[0, -1], [1, 0]], [[0, 1], [-1, 2]]],
        }[mode]
        identity = [[1, 0], [0, 1]]
        paths = []
        for name, mats in (("base", base), ("directions", [identity] * 3)):
            doc = {
                "mode": mode,
                "n": 2,
                "matrices": [[[{"re": str(x)} for x in row] for row in m] for m in mats],
            }
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(doc))
        code, report = _run("deform", *map(str, paths), "--epsilon", "1/64")
        assert code == 2
        assert "defining relation" in report["error"]

    def test_classify_with_subordinate_witness(self):
        code, report = _run(
            "classify",
            str(SAMPLES / "subordinate_demo_problem.json"),
            "--subordinate-witness",
            str(SAMPLES / "subordinate_demo_sub_witness.json"),
            "--subordinate-classes",
            str(SAMPLES / "subordinate_demo_sub_classes.json"),
        )
        verdict = report["verdict"]
        assert verdict["dsp"] == "unsolvable"
        assert any(
            r["rule"] == "subordinate-solution-obstruction"
            for r in verdict["justification"]
        )

    def test_missing_file_is_input_error(self):
        code, report = _run("classify", "no_such_file.json")
        assert code == 2 and "error" in report


def _witness_doc(mode, mats):
    return {
        "mode": mode,
        "n": len(mats[0]),
        "matrices": [[[{"re": str(x)} for x in row] for row in m] for m in mats],
    }


MISMATCH = "witness mode/size/class count does not match the problem"
MISMATCHED_WITNESSES = {
    "mode": _witness_doc("multiplicative", [[[1, 0], [0, 1]]] * 3),
    "n": _witness_doc("additive", [[[0] * 3] * 3] * 3),
    # the first three matrices lie in subordinate_demo's subordinate classes
    # but sum to diag(2, -2); only the fourth restores the relation
    "count": _witness_doc(
        "additive",
        [[[0, 0], [0, 0]], [[1, 0], [0, -1]], [[1, 0], [0, -1]], [[-2, 0], [0, 2]]],
    ),
}


def _mismatch_argv(command, witness):
    if command == "verify":
        return ["verify", str(SAMPLES / "rigid_n2_problem.json"), witness]
    if command == "dim":
        return ["dim", str(SAMPLES / "rigid_n2_problem.json"), "--witness", witness]
    return [
        "classify",
        str(SAMPLES / "subordinate_demo_problem.json"),
        "--subordinate-witness",
        witness,
        "--subordinate-classes",
        str(SAMPLES / "subordinate_demo_sub_classes.json"),
    ]


class TestWitnessContract:
    """verify, dim --witness and classify --subordinate-witness reject a
    witness that does not fit its problem alike: exit 2, one message."""

    @pytest.mark.parametrize("kind", sorted(MISMATCHED_WITNESSES))
    @pytest.mark.parametrize("command", ["verify", "dim", "classify"])
    def test_mismatch_is_one_input_error(self, tmp_path, command, kind):
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(MISMATCHED_WITNESSES[kind]))
        assert _run(*_mismatch_argv(command, str(path))) == (2, {"error": MISMATCH})

    def test_subordinate_rule_needs_subordinate_classes_before_classifying(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("classify ran")

        monkeypatch.setattr(cli, "classify", fail)
        code, report = _run(
            "classify",
            str(SAMPLES / "subordinate_demo_problem.json"),
            "--subordinate-witness",
            str(SAMPLES / "subordinate_demo_sub_witness.json"),
        )
        assert code == 2
        assert report["error"] == "--subordinate-witness requires --subordinate-classes"

    def test_subordinate_classes_alone_is_input_error(self):
        # an option the command would ignore, even naming a missing file
        code, report = _run(
            "classify",
            str(SAMPLES / "subordinate_demo_problem.json"),
            "--subordinate-classes",
            str(SAMPLES / "no_such_classes.json"),
        )
        assert code == 2
        assert report["error"] == "--subordinate-classes requires --subordinate-witness"

    def test_deform_directions_need_not_be_invertible(self, tmp_path):
        # trivial centralizer, A B C = I; zero directions in a
        # multiplicative-mode document leave the base unchanged
        base = [[[1, 1], [0, 1]], [[0, -1], [1, 0]], [[0, 1], [-1, 1]]]
        paths = []
        for name, mats in (("base", base), ("directions", [[[0, 0], [0, 0]]] * 3)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(_witness_doc("multiplicative", mats)))
        code, report = _run("deform", *map(str, paths), "--epsilon", "1/64")
        assert code == 0
        assert report["residual"] == "0"
        assert parse_witness(report["deformed"]) == parse_witness(
            _witness_doc("multiplicative", base)
        )


class TestRationalGrammar:
    """Document values and --epsilon / --tolerance go through one bounded
    parser: p/q, integers and decimals with an exponent of at most 3 digits."""

    @pytest.mark.parametrize(
        "text,value",
        [("3/4", Fraction(3, 4)), ("-2", Fraction(-2)), ("1.5", Fraction(3, 2)),
         (".5", Fraction(1, 2)), ("1e-3", Fraction(1, 1000)), ("2E+2", Fraction(200)),
         (" 7/8 ", Fraction(7, 8)), ("1e999", Fraction(10**999))],
    )
    def test_accepted(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize(
        "text", ["1e1000", "1e999999999", "1_000", "1/2e3", "1.5/2", "nan", "", "1/0"]
    )
    def test_rejected(self, text):
        with pytest.raises(ExactNumberError):
            parse_rational(text)

    @pytest.mark.parametrize("text", ["1e999999999", "1_000"])
    def test_document_value_is_input_error_with_path(self, tmp_path, text):
        doc = _size_one_problem()
        doc["classes"][1]["eigenvalues"][0]["value"] = {"re": text}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        code, report = _run("classify", str(path))
        assert code == 2
        assert report["error"].startswith("classes[1].eigenvalues[0].value: malformed rational")

    @pytest.mark.parametrize("flag", ["--epsilon", "--tolerance"])
    @pytest.mark.parametrize("text", ["1e999999999", "1_000"])
    def test_flag_is_input_error_with_flag_name(self, flag, text):
        argv = {"--epsilon": "1/1024", "--tolerance": "1e-3", flag: text}
        code, report = _run(
            "deform",
            str(SAMPLES / "rigid_n2_witness.json"),
            str(SAMPLES / "deform_directions_n2.json"),
            *[x for item in argv.items() for x in item],
        )
        assert code == 2
        assert report["error"].startswith(f"{flag}: malformed rational")


def _size_one_problem():
    zero = {"value": {"re": "0", "im": "0"}, "multiplicity": 1, "blocks": [1]}
    return {"mode": "additive", "n": 1, "classes": [{"eigenvalues": [dict(zero)]} for _ in range(2)]}


class TestBooleansAreNotIntegers:
    """JSON true is a bool, which subclasses int in Python; every integer
    field must still reject it with exit 2 and its JSON path."""

    def _classify(self, tmp_path, doc):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        return _run("classify", str(path))

    def test_valid_size_one_document_accepted(self, tmp_path):
        code, report = self._classify(tmp_path, _size_one_problem())
        assert code in (0, 1) and "verdict" in report

    def test_problem_n(self, tmp_path):
        doc = _size_one_problem()
        doc["n"] = True
        code, report = self._classify(tmp_path, doc)
        assert code == 2
        assert report["error"].startswith("n: ")

    def test_multiplicity(self, tmp_path):
        doc = _size_one_problem()
        doc["classes"][1]["eigenvalues"][0]["multiplicity"] = True
        code, report = self._classify(tmp_path, doc)
        assert code == 2
        assert report["error"].startswith("classes[1].eigenvalues[0].multiplicity: ")

    def test_block_size(self, tmp_path):
        doc = _size_one_problem()
        doc["classes"][0]["eigenvalues"][0]["blocks"] = [True]
        code, report = self._classify(tmp_path, doc)
        assert code == 2
        assert report["error"].startswith("classes[0].eigenvalues[0].blocks: ")

    def test_witness_n(self, tmp_path):
        entry = {"re": "0", "im": "0"}
        witness = {"mode": "additive", "n": True, "matrices": [[[entry]], [[entry]]]}
        problem_path = tmp_path / "problem.json"
        problem_path.write_text(json.dumps(_size_one_problem()))
        witness_path = tmp_path / "witness.json"
        witness_path.write_text(json.dumps(witness))
        code, report = _run("verify", str(problem_path), str(witness_path))
        assert code == 2
        assert report["error"].startswith("n: ")
        witness["n"] = 1
        witness_path.write_text(json.dumps(witness))
        code, report = _run("verify", str(problem_path), str(witness_path))
        assert code != 2 and "error" not in report

    def test_rational_value(self, tmp_path):
        doc = _size_one_problem()
        doc["classes"][0]["eigenvalues"][0]["value"] = {"re": True}
        code, report = self._classify(tmp_path, doc)
        assert code == 2
        assert report["error"].startswith("classes[0].eigenvalues[0].value: ")


class TestRelationCap:
    def test_cap_error_is_input_error(self):
        code, report = _run(
            "generic", str(SAMPLES / "n9_good_not_special.json"), "--relation-cap", "10"
        )
        assert code == 2
        assert report["error"] == (
            "RelationSearchCapError: cardinality 2 needs 27 selections, cap is 10"
        )


class TestOptionsPerCommand:
    def test_ignored_options_are_rejected(self, capsys):
        problem = str(SAMPLES / "rigid_n2_problem.json")
        witness = str(SAMPLES / "rigid_n2_witness.json")
        removed = [
            ["verify", problem, witness, "--relation-cap", "5"],
            ["verify", problem, witness, "--exhaustive-ties"],
            ["dim", problem, "--relation-cap", "5"],
            ["dim", problem, "--exhaustive-ties"],
            ["good", problem, "--relation-cap", "5"],
            ["psi-trace", problem, "--relation-cap", "5"],
            ["generic", problem, "--exhaustive-ties"],
            ["special", problem, "--exhaustive-ties"],
        ]
        for argv in removed:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["classify", "P", "--hum"],
        ["--hum", "classify", "P"],
        ["classify", "P", "--exh"],
        ["good", "P", "--exh"],
        ["classify", "P", "--relation", "5"],
        ["special", "P", "--relation", "5"],
    ])
    def test_abbreviated_flags_are_refused(self, capsys, argv):
        # `main` reads --human from argv, so an abbreviation that argparse
        # accepted would print JSON where it had parsed a request for prose
        argv = [str(SAMPLES / "rigid_n2_problem.json") if a == "P" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_no_command_takes_an_abbreviation(self, capsys):
        for name, parser in _commands().items():
            for option in _long_options(parser) - {"--help"}:
                # valid operands, then the option less its last letter
                argv = [*TestArgumentSurface.OPERANDS[name], option[:-1], "1"]
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv)
                assert exc.value.code == 2, (name, option)
                err = capsys.readouterr().err.splitlines()[-1]
                assert err.endswith(f"unrecognized arguments: {option[:-1]} 1"), (name, option)


def _commands() -> dict:
    """Each command name of dsp, aliases included, and its subparser."""
    (action,) = [
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def _long_options(parser) -> set[str]:
    return {s for a in parser._actions for s in a.option_strings if s.startswith("--")}


class TestArgumentSurface:
    PROBLEM = str(SAMPLES / "rigid_n2_problem.json")
    WITNESS = str(SAMPLES / "rigid_n2_witness.json")
    OPERANDS = {
        "classify": [PROBLEM], "good": [PROBLEM], "psi-trace": [PROBLEM],
        "generic": [PROBLEM], "special": [PROBLEM], "verify": [PROBLEM, WITNESS],
        "dim": [PROBLEM],
        "deform": [WITNESS, str(SAMPLES / "deform_directions_n2.json"), "--epsilon", "1/2"],
    }

    def test_human_on_either_side_and_cap_defaults(self, capsys):
        parser = cli._build_parser()
        assert set(_commands()) == set(self.OPERANDS)
        for command, operands in self.OPERANDS.items():
            for argv in (["--human", command, *operands], [command, *operands, "--human"]):
                assert parser.parse_args(argv).func is not None
                code, _ = run_command(argv)
                assert main(argv) == code
                out = capsys.readouterr().out
                assert out and not out.startswith("{"), argv
        # generic's None default, which tells an explicit cap from none,
        # stays its own: the other two commands keep the default cap
        caps = {"generic": None, "classify": DEFAULT_RELATION_CAP,
                "special": DEFAULT_RELATION_CAP}
        for command, cap in caps.items():
            assert parser.parse_args([command, self.PROBLEM]).relation_cap == cap


def test_readme_flag_table_lists_each_commands_options():
    """The README table "command | flags besides `--human`" names exactly
    the long options of every command (aliases share their row)."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| command | flags besides `--human` |\n")[1].split("\n\n")[0]
    documented = {}
    for row in table.splitlines()[1:]:
        names, flags = row.strip("|").split("|")
        for name in re.findall(r"`([a-z-]+)`", names):
            documented[name] = set(re.findall(r"`(--[a-z-]+)", flags))
    actual = {
        name: _long_options(p) - {"--help", "--human"} for name, p in _commands().items()
    }
    assert documented == actual


class TestParserBuiltOnce:
    """The parser is built once per process; no parse may carry state into
    the next one."""

    def test_reports_match_a_fresh_parser(self, capsys):
        problem = str(SAMPLES / "n9_good_not_special.json")
        build = cli._build_parser
        assert build() is build()
        bad = ["classify", problem, "--no-such-option"]
        for parser in (build(), build.__wrapped__()):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(bad)
            assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        capsys.readouterr()
        for argv in (
            ["classify", problem, "--exhaustive-ties"],
            ["classify", problem],
            ["good", problem, "--exhaustive-ties"],
            ["good", problem],
        ):
            cached = build().parse_args(argv)
            fresh = build.__wrapped__().parse_args(argv)
            assert vars(cached) == vars(fresh)
            assert run_command(argv) == fresh.func(fresh)
        assert build().parse_args(["classify", problem]).exhaustive_ties is False
        assert run_command(["good", problem])[1]["branches_explored"] == 1


class TestDeterminism:
    def test_reports_byte_identical(self, capsys):
        main(["classify", str(SAMPLES / "nilpotent_n2.json")])
        first = capsys.readouterr().out
        main(["classify", str(SAMPLES / "nilpotent_n2.json")])
        second = capsys.readouterr().out
        assert first == second

    def test_human_flag_renders_prose(self, capsys):
        main(["--human", "classify", str(SAMPLES / "nilpotent_n2.json")])
        out = capsys.readouterr().out
        assert "dsp: unsolvable" in out
        assert "{" not in out.splitlines()[0]


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "deligne_simpson.cli", "good",
             str(SAMPLES / "nilpotent_n2.json")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["good"] is True

    @pytest.mark.parametrize("flags", [[], ["--human"]], ids=["json", "human"])
    def test_closed_stdout_exits_quietly(self, flags):
        """`dsp deform ... | head -c1` with the reader gone before the
        report is written: every write to stdout fails with EPIPE, and the
        exit status is still the command's."""
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "deligne_simpson.cli", "deform",
                 str(SAMPLES / "rigid_n2_witness.json"),
                 str(SAMPLES / "deform_directions_n2.json"), "--epsilon", "1/1024",
                 "--tolerance", "1e-3", *flags],
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        finally:
            os.close(write)
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_relation_cap_with_generate_is_input_error(self):
        # generation is certified and runs no search, so a cap given with
        # --generate would be ignored; without --generate it still bounds
        # the search (TestRelationCap)
        proc = subprocess.run(
            [sys.executable, "-m", "deligne_simpson.cli", "generic",
             str(SAMPLES / "rigid_n2_problem.json"), "--generate", "--relation-cap", "100"],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stderr) == (2, "")
        assert json.loads(proc.stdout) == {
            "error": "--relation-cap: not used by --generate, which runs no search"
        }

    @pytest.mark.parametrize("values", [
        ("additive", [{"re": "1"}, {"re": "0"}, {"re": "0"}]),
        ("multiplicative", [{"angle": "1/3"}, {"angle": "0"}, {"angle": "0"}]),
    ], ids=["additive", "multiplicative"])
    def test_special_refuses_inconsistent_data_like_classify(self, tmp_path, values):
        mode, docs = values
        path = tmp_path / "inconsistent.json"
        path.write_text(json.dumps({"mode": mode, "n": 2, "classes": [
            {"eigenvalues": [{"value": v, "multiplicity": 2, "blocks": [2]}]} for v in docs
        ]}))
        outputs = []
        for command in ("special", "classify", "generic"):
            proc = subprocess.run(
                [sys.executable, "-m", "deligne_simpson.cli", command, str(path)],
                capture_output=True,
                text=True,
            )
            assert (proc.returncode, proc.stderr) == (2, "")
            outputs.append(json.loads(proc.stdout))
        assert outputs[0] == outputs[1] == outputs[2] == {
            "error": "ProblemError: inconsistent eigenvalue data: "
            "the total sum/product condition fails"
        }

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_generation_seed_is_input_error(self, seed):
        proc = subprocess.run(
            [sys.executable, "-m", "deligne_simpson.cli", "generic",
             str(SAMPLES / "rigid_n2_problem.json"), "--generate", "--seed", seed],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stderr) == (2, "")
        assert json.loads(proc.stdout) == {"error": "--seed: must be a non-negative integer"}

    def test_generation_seed_past_the_prime_walk_is_input_error(self):
        # 4 slots: seed 10^7 would walk about 4 * 10^7 primes
        proc = subprocess.run(
            [sys.executable, "-m", "deligne_simpson.cli", "generic",
             str(SAMPLES / "rigid_n2_problem.json"), "--generate", "--seed", "10000000"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert (proc.returncode, proc.stderr) == (2, "")
        assert json.loads(proc.stdout) == {
            "error": "--seed: seed 10000000 would walk up to 40000127 primes, more than 1000000"
        }
