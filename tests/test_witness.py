from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from deligne_simpson import (
    ADDITIVE,
    MULTIPLICATIVE,
    ClassSpec,
    GaussianRational,
    Matrix,
    MatrixTuple,
    TupleProblem,
    WitnessError,
    WitnessPreconditionError,
    assemble_block_diagonal,
    class_membership,
    deform_step,
    euler_characteristic,
    is_irreducible,
    local_dimension,
    tangent_rank,
    verify_relation,
)
from deligne_simpson import linalg, witness
from deligne_simpson.cli import parse_witness, run_command, serialize_witness
from deligne_simpson.criteria import rigidity_report
from deligne_simpson.exactnum import format_rational
from deligne_simpson.linalg import commutator_operator, rank, sl_element, solve_first, vec
from deligne_simpson.witness import DeformationError, eigenvalue_as_gaussian

from conftest import SAMPLES

from conftest import gr, me, random_relation_tuple, shape


class TestVerifyRelation:
    def test_constructed_sum_zero(self, rigid_n2_witness):
        assert verify_relation(rigid_n2_witness)

    def test_identity_product(self):
        t = MatrixTuple(MULTIPLICATIVE, [Matrix.identity(2)] * 3)
        assert verify_relation(t)

    def test_perturbed_entry_fails(self, rigid_n2_witness):
        mats = list(rigid_n2_witness.matrices)
        mats[2] = mats[2] + Matrix([[0, 0], [0, 1]])
        assert not verify_relation(MatrixTuple(ADDITIVE, mats))

    def test_singular_rejected_in_multiplicative_mode(self):
        with pytest.raises(WitnessError):
            MatrixTuple(MULTIPLICATIVE, [Matrix([[1, 0], [0, 0]])])


class TestInvertibility:
    """A multiplicative matrix of rank n mod PRIME is invertible without an
    exact rank; a shortfall mod PRIME, or a denominator divisible by PRIME,
    leaves the matrix to the exact rank."""

    @staticmethod
    def _exact_ranks(monkeypatch, matrices) -> list:
        ranked = []

        def counting(m):
            ranked.append(m)
            return rank(m)

        monkeypatch.setattr(witness, "rank", counting)
        MatrixTuple(MULTIPLICATIVE, matrices)
        return ranked

    def test_full_rank_mod_prime_needs_no_exact_rank(self, monkeypatch):
        mats = [Matrix([[1, 2], [3, 4]]), Matrix([[gr(0, 1), gr(Fraction(1, 3))], [1, 0]])]
        assert self._exact_ranks(monkeypatch, mats) == []

    @pytest.mark.parametrize("singular", [
        [[1, 2], [2, 4]],
        [[0, 0], [0, 0]],
        [[gr(Fraction(1, linalg.PRIME)), 1], [1, linalg.PRIME]],
    ], ids=["rank-one", "zero", "prime-denominator"])
    def test_singular_matrix_is_refused_by_index(self, monkeypatch, singular):
        with pytest.raises(WitnessError) as err:
            self._exact_ranks(monkeypatch, [Matrix.identity(2), Matrix(singular), Matrix([[0, 0], [0, 0]])])
        assert str(err.value) == "matrix 1 is singular in multiplicative mode"

    def test_singular_mod_prime_takes_the_exact_path(self, monkeypatch):
        m = Matrix([[linalg.PRIME, 0], [0, 1]])
        assert self._exact_ranks(monkeypatch, [Matrix.identity(2), m]) == [m]

    def test_denominator_divisible_by_prime_takes_the_exact_path(self, monkeypatch):
        mats = [Matrix([[gr(Fraction(1, 2 * linalg.PRIME)), 0], [0, 1]]), Matrix([[0, 1], [1, 0]])]
        t = MatrixTuple(MULTIPLICATIVE, mats)
        assert t.residues is None
        assert self._exact_ranks(monkeypatch, mats) == mats


class TestClassMembership:
    def test_jordan_block_vs_full_shape(self):
        j2 = Matrix([[0, 1], [0, 0]])
        assert class_membership(j2, ClassSpec(shape([2]), [gr(0)]))

    def test_zero_matrix_not_regular(self):
        zero = Matrix.zeros(2, 2)
        assert not class_membership(zero, ClassSpec(shape([2]), [gr(0)]))
        assert class_membership(zero, ClassSpec(shape([1, 1]), [gr(0)]))

    def test_gaussian_eigenvalues(self):
        m = Matrix([[GaussianRational(0, 1), 0], [0, GaussianRational(0, -1)]])
        spec = ClassSpec(shape([1], [1]), [gr(0, 1), gr(0, -1)])
        assert class_membership(m, spec)

    def test_wrong_eigenvalue_fails(self):
        m = Matrix([[1, 0], [0, 2]])
        assert not class_membership(m, ClassSpec(shape([1], [1]), [gr(1), gr(3)]))

    def test_quarter_turn_multiplicative_values_embed(self):
        rot = Matrix([[0, -1], [1, 0]])
        spec = ClassSpec(shape([1], [1]), [me("1/4"), me("3/4")])
        assert class_membership(rot, spec)

    def test_non_embeddable_angle_rejected(self):
        with pytest.raises(WitnessError):
            eigenvalue_as_gaussian(me("1/3"))


class TestCentralizerAndSurjectivity:
    def test_rigid_pair_trivial(self, rigid_n2_witness):
        assert tangent_rank(rigid_n2_witness).centralizer_dimension == 1

    def test_scalar_tuple_full(self):
        t = MatrixTuple(ADDITIVE, [Matrix.identity(2), -Matrix.identity(2)])
        assert tangent_rank(t).centralizer_dimension == 4

    def test_repeated_block_at_least_two(self):
        blocks = MatrixTuple(ADDITIVE, [Matrix([[0]]), Matrix([[0]]), Matrix([[0]])])
        doubled = assemble_block_diagonal(blocks, 2).assembled
        assert tangent_rank(doubled).centralizer_dimension >= 2

    def test_surjectivity_examples(self):
        # each list is the first k - 1 matrices of a sum-zero tuple
        e = Matrix([[0, 1], [0, 0]])
        f = Matrix([[0, 0], [1, 0]])
        s = Matrix.identity(2)
        h = Matrix([[1, 0], [0, 2]])
        for leading, onto in (([e, f], True), ([s, s.scale(3)], False), ([h], False)):
            assert (rank(commutator_operator(leading)) == 3) == onto
            last = -sum(leading[1:], leading[0])
            tangent = tangent_rank(MatrixTuple(ADDITIVE, leading + [last]))
            assert tangent.surjective_without_last == onto

    def test_leading_map_is_read_without_the_last_columns(self):
        # off the relation the full map can be onto while the first k - 1
        # matrices' map is not
        h = Matrix([[1, 0], [0, 2]])
        tangent = tangent_rank(MatrixTuple(ADDITIVE, [h, Matrix([[0, 1], [0, 0]])]))
        assert tangent.centralizer_dimension == 1
        assert rank(commutator_operator([h])) == 2
        assert tangent.surjective_without_last is False

    def test_single_matrix_has_no_leading_map(self):
        assert tangent_rank(MatrixTuple(ADDITIVE, [Matrix.zeros(2, 2)])).surjective_without_last is None

    def test_duality_on_random_relation_tuples(self):
        rng = random.Random(61)
        nontrivial = trivial = 0
        for trial in range(60):
            n = rng.randint(2, 5)
            count = rng.randint(2, 4)
            mode = ADDITIVE if trial % 2 else MULTIPLICATIVE
            if trial % 5 == 0:
                t = MatrixTuple(
                    ADDITIVE, [Matrix.identity(n).scale(k) for k in (1, 1, -2)]
                )
            else:
                t = random_relation_tuple(rng, n, count, mode=mode)
            tangent = tangent_rank(t)
            centr = tangent.centralizer_dimension
            # the map of the first k - 1 matrices, eliminated on its own
            surj = rank(commutator_operator(t.matrices[:-1])) == t.n * t.n - 1
            assert tangent.surjective_without_last == surj, t
            assert (centr == 1) == surj, t
            if centr == 1:
                trivial += 1
            else:
                nontrivial += 1
        assert trivial > 0 and nontrivial > 0


class TestIrreducibility:
    def test_rigid_pair_irreducible(self, rigid_n2_witness):
        rep = is_irreducible(rigid_n2_witness)
        assert rep.irreducible and rep.algebra_dimension == 4

    def test_upper_triangular_reducible(self):
        t = MatrixTuple(
            ADDITIVE,
            [Matrix([[1, 2], [0, 3]]), Matrix([[0, 1], [0, 1]]), Matrix([[-1, -3], [0, -4]])],
        )
        rep = is_irreducible(t)
        assert not rep.irreducible and rep.algebra_dimension < 4

    def test_size_one_always_irreducible(self):
        assert is_irreducible(MatrixTuple(ADDITIVE, [Matrix([[7]])])).irreducible

    def test_irreducible_implies_trivial_centralizer(self, rigid_n2_witness, rigid_n3_witness):
        for t in (rigid_n2_witness, rigid_n3_witness):
            if is_irreducible(t).irreducible:
                assert tangent_rank(t).centralizer_dimension == 1


class TestLocalDimension:
    def test_rigid_n2(self, rigid_n2_witness, rigid_n2_problem):
        assert local_dimension(rigid_n2_witness, rigid_n2_problem) == 3

    def test_rigid_n3(self, rigid_n3_witness, rigid_n3_classes):
        assert local_dimension(rigid_n3_witness, TupleProblem(ADDITIVE, 3, rigid_n3_classes)) == 8

    def test_scalar_tuple_zero(self):
        t = MatrixTuple(ADDITIVE, [Matrix.zeros(2, 2)] * 3)
        classes = [ClassSpec(shape([1, 1]), [gr(0)])] * 3
        assert local_dimension(t, TupleProblem(ADDITIVE, 2, classes)) == 0

    def test_matches_expected_dimension_at_trivial_centralizer(
        self, rigid_n2_witness, rigid_n2_problem
    ):
        assert tangent_rank(rigid_n2_witness).centralizer_dimension == 1
        assert local_dimension(rigid_n2_witness, rigid_n2_problem) == rigidity_report(
            rigid_n2_problem.shapes
        ).expected_dimension

    def test_precondition_failures_raise(self, rigid_n2_witness, rigid_n2_problem):
        broken = MatrixTuple(ADDITIVE, list(rigid_n2_witness.matrices[:2]) + [Matrix.zeros(2, 2)])
        with pytest.raises(WitnessPreconditionError):
            local_dimension(broken, rigid_n2_problem)


class TestEulerCharacteristic:
    def test_identity_tuple(self):
        t = MatrixTuple(MULTIPLICATIVE, [Matrix.identity(2)] * 3)
        assert euler_characteristic(t) == 8

    def test_tuple_realizing_n4_classes(self):
        # per-matrix commutant dimensions 4, 6, 8 give 32 - (12+10+8) = 2
        j4 = Matrix([[2, 1, 0, 0], [0, 2, 1, 0], [0, 0, 2, 1], [0, 0, 0, 2]])
        mixed = Matrix([[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 5, 1], [0, 0, 0, 5]])
        semi = Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4]])
        t = MatrixTuple(ADDITIVE, [j4, mixed, semi])
        assert euler_characteristic(t) == 2

    def test_equals_kappa_on_verified_witnesses(
        self, rigid_n2_witness, rigid_n2_problem, rigid_n3_witness, rigid_n3_classes
    ):
        assert euler_characteristic(rigid_n2_witness) == rigidity_report(
            rigid_n2_problem.shapes
        ).kappa
        shapes = tuple(c.shape for c in rigid_n3_classes)
        assert euler_characteristic(rigid_n3_witness) == rigidity_report(shapes).kappa

    def test_rotation_pair_kappa_four(self):
        rot = Matrix([[0, -1], [1, 0]])
        t = MatrixTuple(MULTIPLICATIVE, [rot, Matrix([[0, 1], [-1, 0]]), Matrix.identity(2)])
        assert verify_relation(t)
        shapes = (shape([1], [1]), shape([1], [1]), shape([1, 1]))
        assert euler_characteristic(t) == rigidity_report(shapes).kappa == 4


class TestAssembly:
    def test_double_rigid_pair(self, rigid_n2_witness):
        res = assemble_block_diagonal(rigid_n2_witness, 2)
        assert res.assembled.n == 4
        assert verify_relation(res.assembled)
        assert tangent_rank(res.assembled).centralizer_dimension >= 2
        for m in res.assembled.matrices:
            assert m * res.certificate == res.certificate * m

    def test_single_copy_identity_operation(self, rigid_n2_witness):
        res = assemble_block_diagonal(rigid_n2_witness, 1)
        assert res.assembled.matrices == rigid_n2_witness.matrices

    def test_scalar_blocks(self):
        blocks = MatrixTuple(ADDITIVE, [Matrix([[0]]), Matrix([[0]]), Matrix([[0]])])
        res = assemble_block_diagonal(blocks, 2)
        assert all(m.is_zero() for m in res.assembled.matrices)
        for m in res.assembled.matrices:
            assert m * res.certificate == res.certificate * m

    def test_relation_required(self):
        bad = MatrixTuple(ADDITIVE, [Matrix.identity(2)])
        with pytest.raises(WitnessError):
            assemble_block_diagonal(bad, 2)

    def test_triple_copies_certificate_position(self, rigid_n2_witness):
        res = assemble_block_diagonal(rigid_n2_witness, 3)
        cert = res.certificate
        # identity block sits in block position (1, copies)
        assert cert[0, 4] == GaussianRational(1) and cert[1, 5] == GaussianRational(1)
        assert tangent_rank(res.assembled).centralizer_dimension >= 2


DIRECTIONS_N2 = (
    Matrix([[1, 1], [0, 0]]),
    Matrix([[0, 0], [1, -2]]),
    Matrix([[0, 0], [0, 1]]),
)


class TestDeformStep:
    def test_zero_directions_leave_base(self, rigid_n2_witness):
        zero = Matrix.zeros(2, 2)
        res = deform_step(rigid_n2_witness, (zero, zero, zero), Fraction(1, 100))
        assert res.residual == 0
        assert res.deformed.matrices == rigid_n2_witness.matrices

    def test_zero_epsilon_leaves_base(self, rigid_n2_witness):
        res = deform_step(rigid_n2_witness, DIRECTIONS_N2, Fraction(0))
        assert res.residual == 0
        assert res.deformed.matrices == rigid_n2_witness.matrices

    def test_quadratic_residual_with_bound(self, rigid_n2_witness):
        eps = Fraction(1, 1024)
        res = deform_step(rigid_n2_witness, DIRECTIONS_N2, eps)
        assert 0 < res.residual <= res.bound
        assert float(res.residual) < 1e-5

    def test_halving_epsilon_quarters_residual(self, rigid_n2_witness):
        res1 = deform_step(rigid_n2_witness, DIRECTIONS_N2, Fraction(1, 64))
        res2 = deform_step(rigid_n2_witness, DIRECTIONS_N2, Fraction(1, 128))
        ratio = res1.residual / res2.residual
        assert ratio >= Fraction(39, 10)

    def test_deformed_class_tracks_first_order_targets(self, rigid_n2_witness):
        # conjugation is exact, so the deformed matrix lies exactly in the
        # class of base + eps * direction
        eps = Fraction(1, 8)
        res = deform_step(rigid_n2_witness, DIRECTIONS_N2, eps)
        first = res.deformed.matrices[0]
        spec = ClassSpec(shape([1], [1]), [gr(eps), gr(0)])
        assert class_membership(first, spec)

    def test_trace_constraint_enforced(self, rigid_n2_witness):
        bad = (Matrix.identity(2), Matrix.zeros(2, 2), Matrix.zeros(2, 2))
        with pytest.raises(DeformationError, match="direction constraint"):
            deform_step(rigid_n2_witness, bad, Fraction(1, 10))

    def test_multiplicative_constraint_enforced(self):
        # sum of tr(M_j^-1 N_j) = tr(M_1^-1) = 2
        base, _, _ = _pinned_deform_cases()["multiplicative_n2"]
        bad = (Matrix.identity(2), Matrix.zeros(2, 2), Matrix.zeros(2, 2))
        with pytest.raises(DeformationError, match="direction constraint"):
            deform_step(base, bad, Fraction(1, 10))

    @pytest.mark.parametrize("mode", [ADDITIVE, MULTIPLICATIVE])
    def test_base_breaking_its_relation_rejected(self, mode):
        base, directions, eps = _broken_relation_case(mode)
        assert tangent_rank(base).centralizer_dimension == 1
        with pytest.raises(DeformationError, match="defining relation"):
            deform_step(base, directions, eps)

    @pytest.mark.parametrize("mode", [ADDITIVE, MULTIPLICATIVE])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_single_matrix(self, mode, n):
        # k = 1: the map of the first k - 1 matrices maps nothing, rank 0,
        # which is n^2 - 1 only at n = 1
        base = _relation_tuple(random.Random(n), mode, n, 1)
        zero = Matrix.zeros(n, n)
        if n > 1:
            with pytest.raises(DeformationError, match="non-trivial centralizer"):
                deform_step(base, (zero,), Fraction(1, 10))
            return
        res = deform_step(base, (zero,), Fraction(1, 10))
        assert res.deformed == base and res.x_matrices == (zero,) and res.residual == 0
        with pytest.raises(DeformationError, match="direction constraint"):
            deform_step(base, (Matrix([[1]]),), Fraction(1, 10))

    def test_nontrivial_centralizer_rejected(self):
        t = MatrixTuple(ADDITIVE, [Matrix.zeros(2, 2)] * 3)
        zero = Matrix.zeros(2, 2)
        with pytest.raises(DeformationError):
            deform_step(t, (zero, zero, zero), Fraction(1, 10))

    def test_multiplicative_mode_quadratic(self):
        rot = Matrix([[0, -1], [1, 0]])
        e = Matrix([[0, 1], [0, 0]])
        base = MatrixTuple(
            MULTIPLICATIVE,
            [Matrix.identity(2) + e, rot, Matrix([[0, 1], [-1, 1]])],
        )
        assert verify_relation(base)
        assert tangent_rank(base).centralizer_dimension == 1
        # directions with sum tr(M_j^-1 N_j) = 0
        d1 = Matrix([[1, 0], [0, 0]])
        d2 = Matrix([[0, 0], [1, 0]])
        d3 = Matrix([[0, 0], [2, 0]])
        total = GaussianRational(0)
        for m, d in zip(base.matrices, (d1, d2, d3)):
            total = total + linalg.left_divide(m, d).trace()
        assert total == GaussianRational(0)
        res1 = deform_step(base, (d1, d2, d3), Fraction(1, 256))
        res2 = deform_step(base, (d1, d2, d3), Fraction(1, 512))
        assert res1.residual > 0
        assert res1.residual / res2.residual >= Fraction(39, 10)
        assert res1.bound is None or res1.residual <= res1.bound


DEFORM_PINS = Path(__file__).resolve().parent / "data" / "deform_pins.json"


def _pinned_deform_cases():
    """Name -> (base, directions, epsilon): additive and multiplicative bases with
    trivial centralizer at n = 2 and 3, directions meeting the first-order
    constraint."""
    add2 = MatrixTuple(
        ADDITIVE,
        [Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]]), Matrix([[0, -1], [-1, 0]])],
    )
    mul2 = MatrixTuple(
        MULTIPLICATIVE,
        [Matrix([[1, 1], [0, 1]]), Matrix([[0, -1], [1, 0]]), Matrix([[0, 1], [-1, 1]])],
    )
    add3 = MatrixTuple(
        ADDITIVE,
        [
            Matrix([[1, 0, 0], [0, 4, 0], [0, 0, 6]]),
            Matrix([[1, 0, 0], [1, 0, 0], [1, 0, 0]]),
            Matrix([[-2, 0, 0], [-1, -4, 0], [-1, 0, -6]]),
        ],
    )
    mul3 = MatrixTuple(
        MULTIPLICATIVE,
        [
            Matrix([[1, 0, 2], [1, 1, 3], [1, -2, 1]]),
            Matrix([[1, 0, 2], [1, 1, 1], [0, 1, 0]]),
            Matrix([[3, -2, -2], [-3, 2, 1], [2, -1, 0]]),
        ],
    )
    return {
        "additive_n2": (add2, DIRECTIONS_N2, Fraction(1, 64)),
        "multiplicative_n2": (
            mul2,
            (Matrix([[1, 0], [0, 0]]), Matrix([[0, 0], [1, 0]]), Matrix([[0, 0], [2, 0]])),
            Fraction(1, 256),
        ),
        "additive_n3": (
            add3,
            (
                Matrix([[1, 2, 0], [0, -1, 1], [1, 0, 0]]),
                Matrix([[0, 1, 1], [2, 0, 0], [0, 1, 1]]),
                Matrix([[0, 0, -1], [1, 1, 0], [0, 0, -2]]),
            ),
            Fraction(1, 128),
        ),
        # sum of tr(M_j^-1 N_j) = 0
        "multiplicative_n3": (
            mul3,
            (
                Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
                Matrix([[1, 0, 0], [0, -1, 0], [0, 1, 0]]),
                Matrix([[-3, 2, 3], [4, -2, -1], [-2, 1, 1]]),
            ),
            Fraction(1, 128),
        ),
    }


def _broken_relation_case(mode):
    """The n = 2 pinned case of `mode` with its base's last matrix
    changed: the centralizer stays trivial, the relation fails."""
    base, directions, eps = _pinned_deform_cases()[f"{mode}_n2"]
    last = {ADDITIVE: Matrix([[1, -1], [-1, 0]]), MULTIPLICATIVE: Matrix([[0, 1], [-1, 2]])}
    return MatrixTuple(mode, base.matrices[:-1] + (last[mode],)), directions, eps


def _render_deform(res) -> dict:
    def mat(m):
        return [[str(x) for x in row] for row in m.rows]

    return {
        "x_matrices": [mat(x) for x in res.x_matrices],
        "deformed": [mat(m) for m in res.deformed.matrices],
        "residual": format_rational(res.residual),
        "bound": None if res.bound is None else format_rational(res.bound),
    }


class TestDeformPinned:
    """Exact first-order solutions, deformed tuples, residuals and bounds,
    pinned in `tests/data/deform_pins.json`."""

    @pytest.mark.parametrize("case", sorted(_pinned_deform_cases()))
    def test_deform_step_is_pinned(self, case):
        pins = json.loads(DEFORM_PINS.read_text())
        assert _render_deform(deform_step(*_pinned_deform_cases()[case])) == pins[case]

    def test_every_pin_has_a_case(self):
        assert sorted(json.loads(DEFORM_PINS.read_text())) == sorted(_pinned_deform_cases())


def _relation_tuple(rng, mode, n, k) -> MatrixTuple:
    """A seeded tuple satisfying its relation; at k = 1 the only ones, 0 or I."""
    if k == 1:
        return MatrixTuple(mode, [Matrix.zeros(n, n) if mode == ADDITIVE else Matrix.identity(n)])
    return random_relation_tuple(rng, n, k, mode, span=2)


def _direct_sum(a: MatrixTuple, b: MatrixTuple) -> MatrixTuple:
    n = a.n + b.n

    def block(x, y):
        rows = [[GaussianRational(0)] * n for _ in range(n)]
        for i, row in enumerate(x.rows):
            rows[i][: a.n] = row
        for i, row in enumerate(y.rows):
            rows[a.n + i][a.n :] = row
        return Matrix(rows)

    return MatrixTuple(a.mode, [block(x, y) for x, y in zip(a.matrices, b.matrices)])


def _first_block_cases():
    """(tuple, right-hand side) in both modes for n = 1..5 and k = 1..5:
    a seeded relation tuple, the direct sum of two (block-diagonal,
    centralizer dimension at least 2) and a relation tuple repeated along
    the diagonal (deficient; at n = 3 three 1 x 1 blocks, all scalar); each
    with a right-hand side in the map's image and a random one."""
    rng = random.Random(20261021)
    cases = []
    for mode in (ADDITIVE, MULTIPLICATIVE):
        for n in range(1, 6):
            for k in range(1, 6):
                tuples = [_relation_tuple(rng, mode, n, k)]
                if n > 1:
                    cut = rng.randint(1, n - 1)
                    tuples.append(_direct_sum(_relation_tuple(rng, mode, cut, k),
                                              _relation_tuple(rng, mode, n - cut, k)))
                for copies in (c for c in (2, 3) if n % c == 0):
                    block = _relation_tuple(rng, mode, n // copies, k)
                    tuples.append(assemble_block_diagonal(block, copies).assembled)
                for t in tuples:
                    image = commutator_operator(t.matrices, mode.outer_factors(t.matrices))
                    coeffs = [[rng.randint(-2, 2)] for _ in range(image.ncols)]
                    cases.append((t, [row[0] for row in (image * Matrix(coeffs)).rows]))
                    cases.append((t, [GaussianRational(rng.randint(-2, 2)) for _ in range(n * n)]))
    return cases


FIRST_BLOCK_CASES = _first_block_cases()


def _first_blocks_and_whole_map(t: MatrixTuple, rhs):
    """solve_first of the map of the first k - 1 matrices (rank 0 and the
    empty solution when k = 1) and of the whole map, with outer factors."""
    outer = t.mode.outer_factors(t.matrices)
    whole = solve_first(commutator_operator(t.matrices, outer), rhs)
    if t.count == 1:
        return ([] if not any(rhs) else None, 0), whole
    return solve_first(commutator_operator(t.matrices[:-1], outer and outer[:-1]), rhs), whole


class TestFirstBlocksSuffice:
    """With the relation, the map of the first k - 1 matrices has the
    whole map's image, so `deform_step` solves only it and sets X_k = 0.
    The whole map's `solve_first` is the oracle."""

    def test_cases_cover_deficiency_and_inconsistency(self):
        ranks = [_first_blocks_and_whole_map(t, rhs)[1] for t, rhs in FIRST_BLOCK_CASES]
        full = [t.n * t.n - 1 for t, _ in FIRST_BLOCK_CASES]
        deficient = sum(r < f for (_, r), f in zip(ranks, full))
        assert deficient > 60 and len(ranks) - deficient > 30
        assert sum(x is None for x, _ in ranks) > 30

    @pytest.mark.parametrize("index", range(len(FIRST_BLOCK_CASES)))
    def test_same_rank_and_solution_with_x_k_zero(self, index):
        t, rhs = FIRST_BLOCK_CASES[index]
        assert verify_relation(t)
        (x_sub, r_sub), (x_whole, r_whole) = _first_blocks_and_whole_map(t, rhs)
        assert r_sub == r_whole
        assert (x_sub is None) == (x_whole is None)
        if x_whole is None:
            return
        n, size = t.n, t.n * t.n - 1
        xs = [sl_element(n, x_whole[j * size : (j + 1) * size]) for j in range(t.count)]
        assert xs[-1].is_zero()
        assert xs[:-1] == [sl_element(n, x_sub[j * size : (j + 1) * size]) for j in range(t.count - 1)]


def _l1_norm(m: Matrix) -> Fraction:
    return max(sum((abs(x.re) + abs(x.im) for x in row), Fraction(0)) for row in m.rows)


def _gauss_jordan_inverse(m: Matrix) -> Matrix:
    """The inverse by Gauss-Jordan on [M | I] with GaussianRational
    operators, or None when M is singular."""
    n = m.nrows
    rows = [list(row) + [GaussianRational(int(i == j)) for j in range(n)] for i, row in enumerate(m.rows)]
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return Matrix([row[n:] for row in rows])


def _reference_deform(base: MatrixTuple, directions, eps: Fraction):
    """(X_j, deformed matrices, residual, bound) the way `deform_step` was
    first written: the whole map solved, every matrix conjugated by an
    inverse and two products, and norms summed as Fractions entry by entry."""
    n, k = base.n, base.count
    outer = base.mode.outer_factors(base.matrices)
    drift = Matrix.zeros(n, n)
    for j, d in enumerate(directions):
        drift = drift + (d if outer is None else outer[j][0] * d * outer[j][1])
    coords, r = solve_first(commutator_operator(base.matrices, outer), [-x for x in vec(drift)])
    assert r == n * n - 1 and coords is not None
    size = n * n - 1
    xs = [sl_element(n, coords[j * size : (j + 1) * size]) for j in range(k)]
    deformed = []
    for m, d, x in zip(base.matrices, directions, xs):
        conj = Matrix.identity(n) + x.scale(eps)
        deformed.append(_gauss_jordan_inverse(conj) * (m + d.scale(eps)) * conj)
    residual = _l1_norm(base.mode.residual(deformed))
    a = abs(eps)
    steps = [
        (m, d, x, _l1_norm(m), _l1_norm(d), _l1_norm(x))
        for m, d, x in zip(base.matrices, directions, xs)
    ]
    if any(a * nx >= 1 for *_, nx in steps):
        return xs, deformed, residual, None
    rhos = [2 * nx * (nd + nx * na) / (1 - a * nx) for _, _, _, na, nd, nx in steps]
    if base.mode == ADDITIVE:
        return xs, deformed, residual, a * a * sum(rhos, Fraction(0))
    norms = [na for _, _, _, na, _, _ in steps]
    fs = [_l1_norm(d + (m * x - x * m)) for m, d, x, *_ in steps]
    full = math.prod(na + a * f + a * a * rho for na, f, rho in zip(norms, fs, rhos))
    linear = sum(f * math.prod(norms[:j] + norms[j + 1 :]) for j, f in enumerate(fs))
    return xs, deformed, residual, full - math.prod(norms) - a * linear


def _reference_deform_cases():
    """The pinned cases, and seeded relation tuples with trivial
    centralizer in both modes at n = 2..4, k = 3 and 4, with directions
    meeting the first-order constraint (N_k shifted by a multiple of I,
    resp. of M_k, since tr(L_k M_k R_k) = tr(I) = n) and two step sizes."""
    cases = list(_pinned_deform_cases().values())
    rng = random.Random(25)
    for mode in (ADDITIVE, MULTIPLICATIVE):
        for n in (2, 3, 4):
            for k in (3, 4):
                t = random_relation_tuple(rng, n, k, mode, span=2)
                while tangent_rank(t).centralizer_dimension != 1:
                    t = random_relation_tuple(rng, n, k, mode, span=2)
                dirs = [Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]) for _ in range(k)]
                outer = mode.outer_factors(t.matrices)
                drift = dirs if outer is None else [l * d * r for d, (l, r) in zip(dirs, outer)]
                total = sum((d.trace() for d in drift), GaussianRational(0))
                shift = Matrix.identity(n) if outer is None else t.matrices[-1]
                dirs[-1] = dirs[-1] - shift.scale(total / n)
                for eps in (Fraction(1, 64), Fraction(3, 7)):
                    cases.append((t, tuple(dirs), eps))
    return cases


class TestReferenceDeform:
    """`deform_step` against the reference kept here, on every output."""

    @pytest.mark.parametrize("index", range(len(_reference_deform_cases())))
    def test_deform_step_equals_reference(self, index):
        base, directions, eps = _reference_deform_cases()[index]
        xs, deformed, residual, bound = _reference_deform(base, directions, eps)
        res = deform_step(base, directions, eps)
        assert list(res.x_matrices) == xs
        assert list(res.deformed.matrices) == deformed
        assert res.residual == residual
        assert res.bound == bound


# (name, n): the rigid samples, and rigid_n2 repeated twice along the
# diagonal, whose centralizer has dimension 4, so its rank mod PRIME falls short
SAMPLE_WITNESSES = [("rigid_n2", 2), ("rigid_n3", 3), ("rigid_n2x2", 4)]
DEFICIENT = {"rigid_n2x2"}


class TestOneTangentElimination:
    """`deform_step` eliminates the n^2-row tangent map of its first k - 1
    matrices once, exactly, never the whole map, and conjugates each of
    those matrices by one n-row elimination of [C | T C]; it builds no
    inverse.  `dsp verify` and `dsp dim --witness` eliminate theirs once,
    mod PRIME, and once more by the exact kernel only where the rank mod
    PRIME falls short of n^2 - 1."""

    @staticmethod
    def _eliminations(monkeypatch, call) -> list[tuple[int, int]]:
        """The (rows, width) of each exact elimination `call` runs: one
        elimination is one pivot dict, and its rows are those added to it."""
        eliminations = {}
        add_row = linalg._add_row

        def counting(pivots, row):
            entry = eliminations.setdefault(id(pivots), [pivots, 0, len(row)])
            entry[1] += 1
            return add_row(pivots, row)

        monkeypatch.setattr(linalg, "_add_row", counting)
        call()
        return [(r, c) for _, r, c in eliminations.values()]

    @classmethod
    def _tangent_eliminations(cls, monkeypatch, n, width, call) -> int:
        return sum(r == n * n and c >= width for r, c in cls._eliminations(monkeypatch, call))

    @classmethod
    def _both_kernels(cls, monkeypatch, n, k, call) -> tuple[list[bool], int]:
        """Whether each elimination mod PRIME of the map of the first k - 1
        matrices reached n^2 - 1, and the count of exact eliminations of
        the whole map (k(n^2 - 1) columns)."""
        reached = []
        residue_rank = witness._residue_tangent_rank

        def counting(residues, bound):
            r = residue_rank(residues, bound)
            if len(residues) == k - 1:
                reached.append(r == n * n - 1)
            return r

        monkeypatch.setattr(witness, "_residue_tangent_rank", counting)
        return reached, cls._tangent_eliminations(monkeypatch, n, k * (n * n - 1), call)

    @staticmethod
    def _documents(name, tmp_path) -> tuple[str, str]:
        """Problem and witness paths of a rigid sample, or of rigid_n2 with
        every matrix repeated twice along the diagonal (rigid_n2x2)."""
        sample = name.removesuffix("x2")
        problem, wit = SAMPLES / f"{sample}_problem.json", SAMPLES / f"{sample}_witness.json"
        if sample == name:
            return str(problem), str(wit)
        doc = json.loads(problem.read_text())
        doc["n"] *= 2
        for c in doc["classes"]:
            for e in c["eigenvalues"]:
                e["multiplicity"] *= 2
                e["blocks"] *= 2
        assembled = assemble_block_diagonal(parse_witness(json.loads(wit.read_text())), 2).assembled
        (tmp_path / "p.json").write_text(json.dumps(doc))
        (tmp_path / "w.json").write_text(json.dumps(serialize_witness(assembled)))
        return str(tmp_path / "p.json"), str(tmp_path / "w.json")

    @pytest.mark.parametrize("case", sorted(_pinned_deform_cases()))
    def test_deform_step(self, monkeypatch, case):
        base, directions, eps = _pinned_deform_cases()[case]
        n, k = base.n, base.count
        divided = []

        def counting_left_divide(c, b):
            divided.append(c)
            return linalg.left_divide(c, b)

        monkeypatch.setattr(witness, "left_divide", counting_left_divide)
        res = None

        def call():
            nonlocal res
            res = deform_step(base, directions, eps)

        eliminations = self._eliminations(monkeypatch, call)
        # the solve: the (k - 1)(n^2 - 1) map's columns and the right-hand side
        assert [e for e in eliminations if e[0] == n * n] == [(n * n, (k - 1) * (n * n - 1) + 1)]
        # one [C | T C] per j < k, C = I + eps X_j
        assert [e for e in eliminations if e[0] != n * n] == [(n, 2 * n)] * (k - 1)
        assert divided == [Matrix.identity(n) + x.scale(eps) for x in res.x_matrices[:-1]]
        assert res.deformed.matrices[-1] == base.matrices[-1] + directions[-1].scale(eps)
        assert not hasattr(linalg, "inverse") and not hasattr(witness, "inverse")

    @pytest.mark.parametrize("name,n", SAMPLE_WITNESSES)
    def test_verify(self, monkeypatch, tmp_path, name, n):
        problem, wit = self._documents(name, tmp_path)
        fallback = int(name in DEFICIENT)
        reached, exact = self._both_kernels(monkeypatch, n, 3, lambda: run_command(["verify", problem, wit]))
        assert reached == [not fallback]
        assert exact == fallback

    @pytest.mark.parametrize("name,n", SAMPLE_WITNESSES)
    def test_dim_witness(self, monkeypatch, tmp_path, name, n):
        problem, wit = self._documents(name, tmp_path)
        fallback = int(name in DEFICIENT)
        argv = ["dim", problem, "--witness", wit]
        reached, exact = self._both_kernels(monkeypatch, n, 3, lambda: run_command(argv))
        assert reached == [not fallback]
        assert exact == fallback
        # nor does any other n^2-row elimination run, whatever its width
        assert self._tangent_eliminations(monkeypatch, n, 0, lambda: run_command(argv)) == fallback
