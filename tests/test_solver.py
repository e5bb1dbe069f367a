from __future__ import annotations

import random
from functools import reduce
from math import gcd

import pytest

from deligne_simpson import (
    ADDITIVE,
    MULTIPLICATIVE,
    SOLVABLE,
    UNKNOWN,
    UNSOLVABLE,
    ClassSpec,
    ProblemError,
    TupleProblem,
    apply_subordinate_witness,
    check_consistency,
    classify,
    generate_generic,
    is_generic,
    is_good,
    rigidity_report,
)
from deligne_simpson import eigenvalues
from deligne_simpson.linalg import Matrix
from deligne_simpson.witness import MatrixTuple

from conftest import gr, random_shape_tuple, shape


class TestClassify:
    def test_generic_good_instance_solvable(self, rigid_n2_problem):
        verdict = classify(rigid_n2_problem)
        assert verdict.dsp == SOLVABLE and verdict.weak_dsp == SOLVABLE
        assert verdict.genericity.generic
        assert any(r.name == "generic-eigenvalues" for r in verdict.justification)
        assert verdict.rigidity.expected_dimension == 3

    def test_nilpotent_triple_both_unsolvable(self, nilpotent_n2_problem):
        verdict = classify(nilpotent_n2_problem)
        assert verdict.dsp == UNSOLVABLE and verdict.weak_dsp == UNSOLVABLE
        names = [r.name for r in verdict.justification]
        assert "special-obstruction" in names
        assert "special-diagonal-obstruction" in names
        assert verdict.specialness.special_diagonal

    def test_n4_special_dsp_unsolvable_weak_unknown(self, n4_special_problem):
        verdict = classify(n4_special_problem)
        assert verdict.dsp == UNSOLVABLE
        assert verdict.weak_dsp == UNKNOWN
        assert any(r.name == "special-obstruction" for r in verdict.justification)
        assert verdict.specialness.special and not verdict.specialness.special_diagonal

    def test_size_one_solvable(self):
        problem = TupleProblem(
            ADDITIVE, 1, [ClassSpec(shape([1]), [gr(5)]), ClassSpec(shape([1]), [gr(-5)])]
        )
        verdict = classify(problem)
        assert verdict.dsp == SOLVABLE and verdict.weak_dsp == SOLVABLE
        assert verdict.justification[0].name == "size-one"

    def test_generic_not_good_both_unsolvable(self):
        # two classes at n=2 cannot be good (beta fails); pick generic values
        classes = [
            ClassSpec(shape([1], [1]), [gr("1/5"), gr("-1/5")]),
            ClassSpec(shape([1], [1]), [gr("1/7"), gr("-1/7")]),
        ]
        problem = TupleProblem(ADDITIVE, 2, classes)
        verdict = classify(problem)
        assert verdict.genericity.generic
        assert not verdict.good.good
        assert verdict.dsp == UNSOLVABLE and verdict.weak_dsp == UNSOLVABLE

    def test_inconsistent_rejected(self):
        classes = [ClassSpec(shape([1]), [gr(1)]) for _ in range(3)]
        with pytest.raises(ProblemError):
            classify(TupleProblem(ADDITIVE, 1, classes))

    def test_consistency_is_checked_once(self, monkeypatch, rigid_n2_problem, n4_special_problem):
        # the genericity result comes from the relation search alone
        calls = []

        def counted(problem):
            calls.append(problem)
            return check_consistency(problem)

        monkeypatch.setattr(eigenvalues, "check_consistency", counted)
        for problem in (rigid_n2_problem, n4_special_problem):
            calls.clear()
            verdict = classify(problem)
            assert calls.count(problem) == 1
            assert verdict.genericity == is_generic(problem)

    def test_every_decided_verdict_cites_a_rule(self, nilpotent_n2_problem, rigid_n2_problem):
        for problem in (nilpotent_n2_problem, rigid_n2_problem):
            verdict = classify(problem)
            if UNKNOWN not in (verdict.dsp, verdict.weak_dsp):
                assert verdict.justification


class TestExpectedDimension:
    def test_formula(self, rigid_n2_problem, n4_special_problem):
        assert rigidity_report(rigid_n2_problem.shapes).expected_dimension == 3
        assert rigidity_report(n4_special_problem.shapes).expected_dimension == 15

    def test_kappa_zero(self, double_blocks_generic):
        assert rigidity_report(double_blocks_generic.shapes).expected_dimension == 17


class TestSolverProperties:
    def test_generic_verdict_equals_goodness(self):
        rng = random.Random(51)
        checked = 0
        while checked < 30:
            n = rng.randint(2, 8)
            shapes = random_shape_tuple(rng, n, rng.randint(2, 4))
            mults = [m for s in shapes for m in s.multiplicities()]
            mode = ADDITIVE if reduce(gcd, mults) == 1 else MULTIPLICATIVE
            problem = generate_generic(shapes, mode, seed=checked)
            verdict = classify(problem)
            good = is_good(shapes).good
            assert (verdict.dsp == SOLVABLE) == good
            assert verdict.weak_dsp == verdict.dsp
            checked += 1

    def test_monotonicity_never_violated(self):
        rng = random.Random(53)
        for trial in range(25):
            n = rng.randint(1, 6)
            shapes = random_shape_tuple(rng, n, rng.randint(2, 4))
            mults = [m for s in shapes for m in s.multiplicities()]
            mode = ADDITIVE if reduce(gcd, mults) == 1 else MULTIPLICATIVE
            problem = generate_generic(shapes, mode, seed=trial)
            verdict = classify(problem)
            assert not (verdict.dsp == SOLVABLE and verdict.weak_dsp == UNSOLVABLE)


class TestSubordinateWitnessRule:
    @pytest.fixture
    def subordinate_setup(self):
        c1 = ClassSpec(shape([2]), [gr(0)])
        c2 = ClassSpec(shape([1], [1]), [gr(1), gr(-1)])
        c3 = ClassSpec(shape([1], [1]), [gr(-1), gr(1)])
        problem = TupleProblem(ADDITIVE, 2, [c1, c2, c3])
        sub_classes = (
            ClassSpec(shape([1, 1]), [gr(0)]),
            c2,
            c3,
        )
        witness = MatrixTuple(
            ADDITIVE,
            [
                Matrix([[0, 0], [0, 0]]),
                Matrix([[1, 0], [0, -1]]),
                Matrix([[-1, 0], [0, 1]]),
            ],
        )
        return problem, sub_classes, witness

    def test_rule_applies(self, subordinate_setup):
        problem, sub_classes, witness = subordinate_setup
        verdict = apply_subordinate_witness(problem, witness, sub_classes, classify(problem))
        assert verdict.dsp == UNSOLVABLE
        assert any(
            r.name == "subordinate-solution-obstruction" for r in verdict.justification
        )

    def test_rule_needs_proper_subordination(self, subordinate_setup):
        problem, _, witness = subordinate_setup
        with pytest.raises(ProblemError):
            apply_subordinate_witness(problem, witness, problem.classes, classify(problem))

    def test_rule_checks_membership(self, subordinate_setup):
        problem, sub_classes, _ = subordinate_setup
        bad_witness = MatrixTuple(
            ADDITIVE,
            [
                Matrix([[0, 1], [0, 0]]),  # nilpotent, not scalar zero
                Matrix([[1, 0], [0, -1]]),
                Matrix([[-1, -1], [0, 1]]),
            ],
        )
        with pytest.raises(ProblemError):
            apply_subordinate_witness(problem, bad_witness, sub_classes, classify(problem))
