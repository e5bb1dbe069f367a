from __future__ import annotations

import random

import pytest

from deligne_simpson import (
    JnfShape,
    Partition,
    is_good,
    rigidity_report,
)
from deligne_simpson import criteria
from deligne_simpson.criteria import (
    CriteriaError,
    TERMINAL_ALPHA_FAILED,
    TERMINAL_BETA_FAILED,
    TERMINAL_N_EQUALS_1,
    max_block_labels,
)

from conftest import random_shape_tuple, shape


class TestRigidityReport:
    def test_n4_triple(self, n4_shapes):
        rep = rigidity_report(n4_shapes)
        assert rep.kappa == 2
        assert rep.sum_d == 30 and rep.alpha
        assert rep.beta and not rep.beta_failures
        assert rep.r_values == (3, 2, 2) and rep.sum_r == 7 and not rep.omega

    def test_three_scalar_classes(self):
        scalar = shape([1, 1])
        rep = rigidity_report((scalar, scalar, scalar))
        assert rep.d_values == (0, 0, 0)
        assert rep.kappa == 8
        assert not rep.alpha

    def test_n9_triple(self, n9_shapes):
        rep = rigidity_report(n9_shapes)
        assert rep.kappa == 162 - 160 == 2
        assert rep.r_values == (5, 5, 5)
        assert rep.sum_r == 15 < 18 and not rep.omega
        assert rep.alpha and rep.beta

    def test_size_mismatch(self):
        with pytest.raises(CriteriaError):
            rigidity_report((shape([2]), shape([3])))


class TestPsiReduce:
    """The reduction step, as `is_good` takes it: `trace.steps[i].n1` is
    the size that level i reduces to, and step i + 1 holds the result."""

    def test_n4_first_step(self, n4_shapes):
        steps = is_good(n4_shapes).trace.steps
        assert steps[0].n1 == 3
        assert steps[1].shapes == (shape([3]), shape([1], [2]), shape([1], [1, 1]))

    def test_n3_tie_step(self):
        level = (shape([3]), shape([1], [2]), shape([1], [1, 1]))
        steps = is_good(level).trace.steps
        assert steps[0].n1 == 2
        # canonical tie-break: first label of class 2 is decremented
        assert steps[1].shapes == (shape([2]), shape([2]), shape([1], [1]))
        # the other tie branch
        other = criteria._shrink(level, (0, 1, 1), 2)
        assert other == (shape([2]), shape([1], [1]), shape([1], [1]))

    def test_n9_first_step(self, n9_shapes):
        steps = is_good(n9_shapes).trace.steps
        assert steps[0].n1 == 6
        assert steps[1].shapes == (
            shape([2, 1], [1, 1, 1]),
            shape([2, 1], [1, 1, 1]),
            shape([2, 1], [2, 1]),
        )

    def test_output_size_is_sum_r_minus_n(self):
        rng = random.Random(11)
        applied = 0
        while applied < 40:
            n = rng.randint(2, 10)
            shapes = random_shape_tuple(rng, n, rng.randint(2, 5))
            steps = is_good(shapes).trace.steps
            for step, after in zip(steps, steps[1:]):
                assert step.n1 == step.report.sum_r - step.n
                assert after.n == step.n1 and all(s.n == step.n1 for s in after.shapes)
                applied += 1

    def test_beta_failure_names_its_classes(self):
        # alpha holds, omega fails, and deleting class 3 leaves r-sum 3 < 4
        thin = shape([2, 1, 1])
        shapes = (thin, thin, thin, shape([1], [2], [1]))
        assert rigidity_report(shapes).beta_failures == (3,)
        assert is_good(shapes).trace.terminal == TERMINAL_BETA_FAILED

    def test_reducible_levels_have_positive_target_size(self):
        # beta gives n1 = sum r - n >= r_j >= 0, and n1 = 0 would force
        # sum r = 0 < n; so no reducible level reaches a size below 1
        rng = random.Random(23)
        reducible = 0
        while reducible < 300:
            n = rng.randint(2, 6)
            shapes = random_shape_tuple(rng, n, rng.randint(2, 5))
            for step in is_good(shapes).trace.steps[:-1]:
                assert step.n1 == step.report.sum_r - step.n >= 1
                reducible += 1


class TestIsGood:
    def test_n4_triple_good(self, n4_shapes):
        res = is_good(n4_shapes)
        assert res.good
        assert tuple(s.n for s in res.trace.steps) == (4, 3, 2, 1)
        assert res.trace.terminal == TERMINAL_N_EQUALS_1

    def test_n9_triple_good(self, n9_shapes):
        res = is_good(n9_shapes)
        assert res.good
        assert tuple(s.n for s in res.trace.steps) == (9, 6, 4, 2, 1)

    def test_scalar_triple_not_good(self):
        scalar = shape([1, 1])
        res = is_good((scalar, scalar, scalar))
        assert not res.good
        assert res.trace.terminal == TERMINAL_ALPHA_FAILED

    def test_size_one_good(self):
        res = is_good((shape([1]), shape([1])))
        assert res.good and res.trace.terminal == TERMINAL_N_EQUALS_1

    def test_kappa_invariant_along_chain(self):
        rng = random.Random(3)
        checked = 0
        while checked < 120:
            n = rng.randint(2, 10)
            shapes = random_shape_tuple(rng, n, rng.randint(2, 5))
            res = is_good(shapes)
            kappas = [s.report.kappa for s in res.trace.steps]
            assert len(set(kappas)) == 1, (shapes, kappas)
            checked += 1

    def test_omega_implies_strict_alpha_on_chain_levels(self):
        rng = random.Random(13)
        seen_omega = 0
        for _ in range(300):
            n = rng.randint(2, 10)
            shapes = random_shape_tuple(rng, n, rng.randint(2, 5))
            res = is_good(shapes)
            for step in res.trace.steps:
                if step.report.omega and step.n > 1:
                    assert step.report.sum_d > 2 * step.n * step.n - 2
                    seen_omega += 1
        assert seen_omega > 10

    def test_exhaustive_ties_agree(self, n4_shapes, n9_shapes):
        assert is_good(n4_shapes, exhaustive_ties=True).good
        assert is_good(n9_shapes, exhaustive_ties=True).good
        rng = random.Random(17)
        for _ in range(80):
            n = rng.randint(2, 10)
            shapes = random_shape_tuple(rng, n, rng.randint(2, 4))
            plain = is_good(shapes)
            branched = is_good(shapes, exhaustive_ties=True)
            assert plain.good == branched.good
            assert branched.branches_explored >= 1

    def test_tie_branches_cover_both_reductions(self):
        # the documented branch pair at the size-3 level of the n=4 chain
        level = (shape([3]), shape([1], [2]), shape([1], [1, 1]))
        outcomes = set()
        from itertools import product

        for choice in product(*(max_block_labels(s) for s in level)):
            outcomes.add(criteria._shrink(level, choice, 2))
        assert (shape([2]), shape([2]), shape([1], [1])) in outcomes
        assert (shape([2]), shape([1], [1]), shape([1], [1])) in outcomes


def _reference_shrink(shapes, chosen_labels, n1):
    """The reduction step written plainly: decrement the chosen label's
    smallest blocks in a list, then rebuild every label's Partition,
    dropping a label with no positive part."""
    drop = shapes[0].n - n1
    reduced = []
    for s, lab in zip(shapes, chosen_labels):
        parts = list(s.blocks[lab].parts)
        assert len(parts) >= drop
        for i in range(len(parts) - drop, len(parts)):
            parts[i] -= 1
        new_blocks = []
        for i, p in enumerate(s.blocks):
            src = parts if i == lab else p.parts
            if any(x > 0 for x in src):
                new_blocks.append(Partition(src))
        reduced.append(JnfShape(new_blocks))
    return tuple(reduced)


class TestShrinkAgainstReference:
    def test_every_visited_level_of_kappa_two_tuples(self, monkeypatch):
        """Every reduction that `is_good` and `_explore_branches` make on
        seeded kappa = 2 tuples gives the reference's shapes, and the
        labels it does not shrink keep their Partition objects."""
        shrink = criteria._shrink
        seen = {"levels": 0, "vanished": 0}

        def checked(shapes, chosen_labels, n1):
            got = shrink(shapes, chosen_labels, n1)
            assert got == _reference_shrink(shapes, chosen_labels, n1), shapes
            for s, lab, r in zip(shapes, chosen_labels, got):
                kept = s.blocks[:lab] + s.blocks[lab + 1:]
                assert all(any(p is q for q in r.blocks) for p in kept)
                seen["vanished"] += r.label_count < s.label_count
            seen["levels"] += 1
            return got

        monkeypatch.setattr(criteria, "_shrink", checked)
        rng = random.Random("shrink-reference")
        tuples = 0
        while tuples < 300:
            n = rng.randint(2, 9)
            shapes = random_shape_tuple(rng, n, rng.randint(3, 4))
            if rigidity_report(shapes).kappa != 2:
                continue
            tuples += 1
            is_good(shapes, exhaustive_ties=True)
        assert seen["levels"] > 2000 and seen["vanished"] > 1000
