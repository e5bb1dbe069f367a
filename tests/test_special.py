from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from deligne_simpson import (
    ADDITIVE,
    MULTIPLICATIVE,
    ClassSpec,
    JnfShape,
    MultiplicativeEigenvalue,
    Partition,
    TupleProblem,
    check_consistency,
    classify_specialness,
    find_special_certificates,
    is_generic,
    is_subordinate,
)
from deligne_simpson import special as special_module
from deligne_simpson.criteria import is_good, rigidity_report
from deligne_simpson.eigenvalues import RelationSearchCapError
from deligne_simpson.jnf_core import JnfError
from deligne_simpson.special import SpecialSearchError, _n_fold_union

from conftest import bruteforce_relations, gr, me, random_shape_tuple, shape


class TestFindCertificates:
    def test_n4_triple_is_2_special_non_diagonal(self, n4_special_problem):
        certs = find_special_certificates(n4_special_problem)
        assert len(certs) == 1
        cert = certs[0]
        assert cert.l == 2 and cert.n1 == 2
        assert not cert.diagonal
        assert [c.shape for c in cert.inner_classes] == [
            shape([2]),
            shape([1], [1]),
            shape([1], [1]),
        ]
        assert [c.shape for c in cert.subordinate_classes] == [
            shape([2, 2]),
            shape([1, 1], [1, 1]),
            shape([1, 1], [1, 1]),
        ]

    def test_n9_triple_has_no_certificates(self, n9_problem):
        assert find_special_certificates(n9_problem) == ()

    def test_nilpotent_triple_is_1_special_diagonal(self, nilpotent_n2_problem):
        certs = find_special_certificates(nilpotent_n2_problem)
        assert len(certs) == 1
        cert = certs[0]
        assert cert.l == 1 and cert.n1 == 2 and cert.diagonal
        assert all(c.shape == shape([1]) for c in cert.inner_classes)

    def test_unipotent_triple_is_1_special_diagonal(self, unipotent_n2_problem):
        certs = find_special_certificates(unipotent_n2_problem)
        assert len(certs) == 1 and certs[0].diagonal

    def test_kappa_two_required(self):
        regular = ClassSpec(shape([1], [1]), [gr(1), gr(-1)])
        balanced = ClassSpec(shape([1], [1]), [gr(2), gr(-2)])
        problem = TupleProblem(ADDITIVE, 2, [regular, balanced])
        assert rigidity_report(problem.shapes).kappa != 2
        with pytest.raises(SpecialSearchError):
            find_special_certificates(problem)

    def test_inner_identity_filter_blocks_wrong_assignment(self, n4_shapes):
        # same shapes, but the halved-multiplicity product is -1, not 1
        c1 = ClassSpec(n4_shapes[0], [me("1/4")])
        c2 = ClassSpec(n4_shapes[1], [me("1/3"), me("2/3")])
        c3 = ClassSpec(n4_shapes[2], [me("1/5"), me("4/5")])
        problem = TupleProblem(MULTIPLICATIVE, 4, [c1, c2, c3])
        assert check_consistency(problem)
        assert find_special_certificates(problem) == ()


class TestCertificateInvariants:
    def test_inner_kappa_always_two(self, n4_special_problem, nilpotent_n2_problem):
        for problem in (n4_special_problem, nilpotent_n2_problem):
            for cert in find_special_certificates(problem):
                assert cert.inner_kappa == 2
                assert rigidity_report(cert.inner_problem.shapes).kappa == 2

    def test_subordinate_classes_reverify(self, n4_special_problem):
        for cert in find_special_certificates(n4_special_problem):
            for sub, outer in zip(
                cert.subordinate_classes, n4_special_problem.classes
            ):
                assert is_subordinate(sub, outer).holds

    def test_inner_tuple_good(self, n4_special_problem):
        for cert in find_special_certificates(n4_special_problem):
            assert is_good(cert.inner_problem.shapes).good

    def test_additive_certificate_implies_nongeneric(self, nilpotent_n2_problem):
        certs = find_special_certificates(nilpotent_n2_problem)
        assert certs
        assert not is_generic(nilpotent_n2_problem).generic


class TestClassifySpecialness:
    def test_nilpotent_flags(self, nilpotent_n2_problem):
        rep = classify_specialness(nilpotent_n2_problem)
        assert rep.special and rep.special_diagonal
        assert rep.quasi_generic is True

    def test_n4_flags(self, n4_special_problem):
        rep = classify_specialness(n4_special_problem)
        assert rep.special and not rep.special_diagonal
        assert rep.quasi_generic is False

    def test_n4_diagonal_candidate_not_good(self):
        # the only diagonal inner candidate forces this inner tuple, which
        # fails both necessary inequalities (beta at classes 1 and 2)
        inner = (shape([1, 1]), shape([1], [1]), shape([1], [1]))
        res = is_good(inner)
        assert not res.good
        report = rigidity_report(inner)
        assert not report.alpha
        assert not report.beta and report.beta_failures == (1, 2)

    def test_n9_flags(self, n9_problem):
        rep = classify_specialness(n9_problem)
        assert not rep.special and not rep.special_diagonal
        assert rep.certificates == ()

    def test_quasi_generic_skippable(self, n4_special_problem):
        rep = classify_specialness(n4_special_problem, include_quasi_generic=False)
        assert rep.quasi_generic is None


# kappa-2 shape tuples, by name: (n1, shapes).  Each has one certificate,
# diagonal with l = n / n1.  In "l2" (n = 4) a relation at m = 1 is seen
# by the inner genericity check too; in "l3" (n = 6) a relation at m = 2
# is neither a forced multiple nor an inner relation.
_FAMILIES = {
    "l2": (2, (shape([2], [1, 1]),) * 3),
    "l3": (2, (shape([1, 1], [1, 1], [1, 1]),) * 2 + (shape([1, 1], [2, 1, 1]),)),
}


def _family_problem(rng, mode, family):
    """A problem of the family with values from small pools whose inner
    eigenvalues sum to zero (multiply to one), so that it is consistent and
    relations at several m occur; None on a collision."""
    n1, shapes = _FAMILIES[family]
    slots = [(j, i) for j, s in enumerate(shapes) for i in range(s.label_count)]
    inner = {(j, i): shapes[j].multiplicity(i) // n1 for j, i in slots}
    absorber, rest = slots[0], slots[1:]
    assert inner[absorber] == 1
    if mode == ADDITIVE:
        values = {slot: gr(rng.randint(-3, 3), rng.randint(-2, 2)) for slot in rest}
        values[absorber] = -sum((v * inner[slot] for slot, v in values.items()), gr(0))
    else:
        values = {
            slot: me(
                Fraction(rng.randint(0, 11), 12),
                Fraction(rng.randint(1, 3)) ** rng.randint(-1, 1),
            )
            for slot in rest
        }
        angle = sum((v.angle * inner[slot] for slot, v in values.items()), Fraction(0))
        magnitude = math.prod(
            (v.magnitude ** inner[slot] for slot, v in values.items()), start=Fraction(1)
        )
        values[absorber] = MultiplicativeEigenvalue(-angle, 1 / magnitude)
    try:
        classes = [
            ClassSpec(s, [values[j, i] for i in range(s.label_count)])
            for j, s in enumerate(shapes)
        ]
    except JnfError:
        return None
    return TupleProblem(mode, shapes[0].n, classes)


def _bruteforce_quasi_generic(problem):
    """Every relation is a forced multiple s * (inner multiplicities),
    1 <= s < n1, of one diagonal certificate with generic inner values."""
    relations = {counts for _, counts in bruteforce_relations(problem)}
    for cert in find_special_certificates(problem):
        if not cert.diagonal or bruteforce_relations(cert.inner_problem):
            continue
        forced = {
            tuple(
                tuple(s * mu for mu in c.shape.multiplicities())
                for c in cert.inner_classes
            )
            for s in range(1, cert.n1)
        }
        if relations <= forced:
            return True
    return False


class TestQuasiGenericAgainstBruteForce:
    @pytest.mark.parametrize("mode", [ADDITIVE, MULTIPLICATIVE])
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_family(self, family, mode):
        rng = random.Random(f"quasi/{family}/{mode}")
        outcomes = []
        while len(outcomes) < 80:
            problem = _family_problem(rng, mode, family)
            if problem is None:
                continue
            rep = classify_specialness(problem)
            assert rep.special_diagonal
            assert rep.quasi_generic == _bruteforce_quasi_generic(problem), problem
            outcomes.append(rep.quasi_generic)
        assert True in outcomes and False in outcomes

    @pytest.mark.parametrize(
        "cap, message",
        [
            (7, "cardinality 1 needs 8 selections, cap is 7"),
            (26, "cardinality 2 needs 27 selections, cap is 26"),
        ],
    )
    def test_cap_error_before_inner_genericity(self, monkeypatch, cap, message):
        rng = random.Random(5)
        problem = None
        while problem is None:
            problem = _family_problem(rng, ADDITIVE, "l2")
        inner_checks = []

        def recording_is_generic(*args, **kwargs):
            inner_checks.append(args)
            return is_generic(*args, **kwargs)

        monkeypatch.setattr(special_module, "is_generic", recording_is_generic)
        with pytest.raises(RelationSearchCapError) as err:
            classify_specialness(problem, relation_cap=cap)
        assert str(err.value) == message
        assert inner_checks == []
        classify_specialness(problem, relation_cap=27)
        assert inner_checks


class TestDiagonalCompleteness:
    def test_search_never_misses_admissible_diagonal_certificates(self):
        """Cross-check: the unique all-ones inner candidate per factorization
        is admitted exactly when divisibility + inner goodness + identity
        hold; the search must agree."""
        rng = random.Random(41)
        checked = 0
        while checked < 40:
            n = rng.randint(2, 8)
            count = rng.randint(2, 4)
            shapes = random_shape_tuple(rng, n, count)
            rep = rigidity_report(shapes)
            if rep.kappa != 2:
                continue
            # additive assignment: zeros everywhere is consistent only when
            # each class has one label; use small balanced integers instead
            classes = []
            feasible = True
            for s in shapes:
                k = s.label_count
                if k == 1:
                    classes.append(ClassSpec(s, [gr(0)]))
                    continue
                vals = [gr(i + 1) for i in range(k - 1)]
                weighted = sum(
                    (i + 1) * s.multiplicity(i) for i in range(k - 1)
                )
                if weighted % s.multiplicity(k - 1):
                    feasible = False
                    break
                vals.append(gr(-weighted // s.multiplicity(k - 1)))
                if len(set(vals)) != k:
                    feasible = False
                    break
                classes.append(ClassSpec(s, vals))
            if not feasible:
                continue
            problem = TupleProblem(ADDITIVE, n, classes)
            if not check_consistency(problem):
                continue
            certs = find_special_certificates(problem)
            found_diagonal = {(c.l, c.n1) for c in certs if c.diagonal}
            expected_diagonal = set()
            for n1 in range(2, n + 1):
                if n % n1:
                    continue
                l = n // n1
                if any(
                    m % n1 for s in shapes for m in s.multiplicities()
                ):
                    continue
                inner_shapes = tuple(
                    JnfShape.of(*([1] * (m // n1) for m in s.multiplicities()))
                    for s in shapes
                )
                if is_good(inner_shapes).good:
                    expected_diagonal.add((l, n1))
            assert found_diagonal == expected_diagonal, (problem, certs)
            checked += 1

    def test_n_fold_union_of_ones_always_dominated(self):
        rng = random.Random(43)
        for _ in range(200):
            total = rng.randint(1, 6)
            copies = rng.randint(1, 4)
            outer_parts = rng.choice(
                list(__import__("deligne_simpson").partitions_of(total * copies))
            )
            outer = Partition(outer_parts)
            union = _n_fold_union(Partition([1] * total), copies)
            assert outer.dominates(union)
