from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deligne_simpson import (
    ClassSpec,
    JnfShape,
    Partition,
    d_of,
    is_subordinate,
    partitions_of,
    r_of,
    rank_sequence,
)
from deligne_simpson.jnf_core import JnfError
from deligne_simpson.linalg import Matrix, commutator_operator, rank

from conftest import gr, random_shape, shape


def test_partition_normalizes_and_validates():
    assert Partition([1, 3, 0, 2]).parts == (3, 2, 1)
    with pytest.raises(JnfError):
        Partition([])
    with pytest.raises(JnfError):
        Partition([0, 0])
    with pytest.raises(JnfError):
        Partition([-1, 2])


class TestConjugatePartition:
    def test_single_row(self):
        assert Partition([4]).conjugate() == Partition([1, 1, 1, 1])

    def test_self_conjugate(self):
        assert Partition([2, 1]).conjugate() == Partition([2, 1])

    def test_staircase(self):
        assert Partition([4, 3, 1]).conjugate() == Partition([3, 2, 2, 1])

    def test_involution_exhaustive_up_to_12(self):
        for n in range(1, 13):
            for parts in partitions_of(n):
                p = Partition(parts)
                assert p.conjugate().conjugate() == p


class TestRankSequence:
    def test_n11_mixed(self):
        s = shape([2, 1], [4, 3, 1])
        seq = rank_sequence(s, 1)
        assert seq.values == (8, 6, 4, 3)
        assert seq.stable == 3

    def test_scalar(self):
        seq = rank_sequence(shape([1, 1, 1, 1]), 0)
        assert seq.values == (0,)
        assert seq.stable == 0

    def test_single_nilpotent_block(self):
        seq = rank_sequence(shape([4]), 0)
        assert seq.values == (3, 2, 1, 0)

    def test_unknown_label(self):
        with pytest.raises(JnfError):
            rank_sequence(shape([2]), 1)

    def test_monotone_and_stabilizes(self):
        rng = random.Random(7)
        for _ in range(200):
            s = random_shape(rng, rng.randint(1, 10))
            for label in range(s.label_count):
                seq = rank_sequence(s, label)
                values = seq.values
                assert all(a >= b for a, b in zip(values, values[1:]))
                assert values[-1] == seq.stable == s.n - s.multiplicity(label)
                assert all(v >= seq.stable for v in values)


class TestInvariants:
    def test_r_of(self):
        assert r_of(shape([2, 1], [4, 3, 1])) == 8
        assert r_of(shape([4])) == 3
        assert r_of(shape([1, 1, 1, 1])) == 0

    def test_d_of(self):
        assert d_of(shape([4])) == 12
        assert d_of(shape([1, 1], [2])) == 10
        assert d_of(shape([1, 1])) == 0

    def test_partition_invariants_exhaustive_up_to_12(self):
        # reference: the size as a sum and the commutant dimension as the
        # sum of squared conjugate parts
        for total in range(1, 13):
            for parts in partitions_of(total):
                p = Partition(parts)
                assert p.size == sum(parts) == total
                assert p.centralizer_dimension == sum(c * c for c in p.conjugate())

    def test_shape_invariants_match_the_formulas(self):
        rng = random.Random("shape-invariants")
        for _ in range(500):
            n = rng.randint(1, 14)
            s = random_shape(rng, n, max_labels=5)
            blocks = s.blocks
            assert s.n == sum(sum(p.parts) for p in blocks) == n
            assert s.max_block_count == max(len(p) for p in blocks)
            commutant = sum(sum(c * c for c in p.conjugate()) for p in blocks)
            assert s.centralizer_dimension == commutant
            assert d_of(s) == n * n - commutant
            assert r_of(s) == n - max(len(p) for p in blocks)

    @pytest.mark.parametrize("name", ["parts", "size", "centralizer_dimension"])
    def test_partition_slots_are_read_only(self, name):
        p = Partition([2, 1])
        with pytest.raises(AttributeError):
            setattr(p, name, 5)
        assert (p.parts, p.size, p.centralizer_dimension) == ((2, 1), 3, 5)

    @pytest.mark.parametrize("name", ["blocks", "n", "max_block_count", "centralizer_dimension"])
    def test_shape_slots_are_read_only(self, name):
        s = shape([2, 1], [1])
        with pytest.raises(AttributeError):
            setattr(s, name, 7)
        assert (s.n, s.max_block_count, s.centralizer_dimension) == (4, 2, 6)

    def test_d_of_matches_commutant_solve_small(self):
        # exact independent route: orbit dimension = rank of X -> [G, X]
        # at an explicit Jordan matrix realizing the shape
        for s in (shape([3]), shape([2, 1]), shape([1, 1], [2]), shape([2], [1])):
            assert d_of(s) == rank(commutator_operator((_jordan_matrix(s),)))


def _jordan_matrix(s: JnfShape) -> Matrix:
    n = s.n
    rows = [[0] * n for _ in range(n)]
    pos = 0
    for label, part in enumerate(s.blocks):
        for b in part:
            for i in range(b):
                rows[pos + i][pos + i] = label
                if i + 1 < b:
                    rows[pos + i][pos + i + 1] = 1
            pos += b
    return Matrix(rows)


class TestSubordination:
    def test_diagonal_below_full_block(self):
        lower = ClassSpec(shape([1, 1, 1, 1]), [gr(0)])
        upper = ClassSpec(shape([4]), [gr(0)])
        res = is_subordinate(lower, upper)
        assert res.holds and res.proper
        assert not is_subordinate(upper, lower).holds

    def test_two_two_below_three_one(self):
        lower = ClassSpec(shape([2, 2]), [gr(5)])
        upper = ClassSpec(shape([3, 1]), [gr(5)])
        assert is_subordinate(lower, upper).holds
        assert not is_subordinate(upper, lower).holds

    def test_reflexive(self):
        c = ClassSpec(shape([2, 1], [1]), [gr(0), gr(1)])
        res = is_subordinate(c, c)
        assert res.holds and not res.proper

    def test_eigenvalue_mismatch_gives_reason(self):
        a = ClassSpec(shape([2]), [gr(0)])
        b = ClassSpec(shape([2]), [gr(1)])
        res = is_subordinate(a, b)
        assert not res.holds and res.reason

    def test_partial_order_on_random_triples(self):
        rng = random.Random(21)
        for _ in range(120):
            n = rng.randint(2, 8)
            mult_shape = random_shape(rng, n, max_labels=2)
            mults = mult_shape.multiplicities()
            values = [gr(i) for i in range(len(mults))]

            def rand_class():
                return ClassSpec(
                    JnfShape.of(
                        *(
                            random.Random(rng.random()).choice(list(partitions_of(m)))
                            for m in mults
                        )
                    ),
                    values,
                )

            a, b, c = rand_class(), rand_class(), rand_class()
            assert is_subordinate(a, a).holds
            if is_subordinate(a, b).holds and is_subordinate(b, a).holds:
                assert a == b
            if is_subordinate(a, b).holds and is_subordinate(b, c).holds:
                assert is_subordinate(a, c).holds

    def test_semisimple_class_is_minimal(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 10)
            s = random_shape(rng, n)
            values = [gr(i) for i in range(s.label_count)]
            diag = ClassSpec(
                JnfShape.of(*([1] * p.size for p in s.blocks)), values
            )
            assert is_subordinate(diag, ClassSpec(s, values)).holds

    def test_closure_order_shrinks_orbit_dimension(self):
        # c' in the closure of c forces d(c') <= d(c), equal only for c' = c
        rng = random.Random(37)
        for _ in range(150):
            n = rng.randint(2, 8)
            parts_a = random.Random(rng.random()).choice(list(partitions_of(n)))
            parts_b = random.Random(rng.random()).choice(list(partitions_of(n)))
            a = ClassSpec(JnfShape.of(parts_a), [gr(0)])
            b = ClassSpec(JnfShape.of(parts_b), [gr(0)])
            if is_subordinate(a, b).holds:
                assert d_of(a.shape) <= d_of(b.shape)
                if a != b:
                    assert d_of(a.shape) < d_of(b.shape)


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_conjugate_involution_hypothesis(parts):
    p = Partition(parts)
    assert p.conjugate().conjugate() == p
    assert p.conjugate().size == p.size


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_d_of_single_label_even(parts):
    # orbit dimensions are even
    s = JnfShape.of(parts)
    assert d_of(s) % 2 == 0


def test_class_spec_rejects_duplicates():
    with pytest.raises(JnfError):
        ClassSpec(shape([1], [1]), [gr(3), gr(3)])
