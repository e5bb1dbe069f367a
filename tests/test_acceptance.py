"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import reduce
from itertools import product as iter_product
from math import gcd

from deligne_simpson import (
    ADDITIVE,
    MULTIPLICATIVE,
    SOLVABLE,
    UNSOLVABLE,
    JnfShape,
    Matrix,
    MatrixTuple,
    TupleProblem,
    assemble_block_diagonal,
    classify,
    classify_specialness,
    d_of,
    deform_step,
    euler_characteristic,
    find_special_certificates,
    generate_generic,
    is_generic,
    is_good,
    local_dimension,
    tangent_rank,
)
from deligne_simpson.criteria import rigidity_report
from deligne_simpson.jnf_core import partitions_of
from deligne_simpson.linalg import commutator_operator, rank

from conftest import random_relation_tuple, random_shape_tuple, shape


def _report(number: int, name: str, ok: bool, elapsed: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} ({elapsed:.2f}s) {name}")
    assert ok, f"criterion {number} failed: {name}"


def test_criterion_1_paper_example_regression(
    n4_special_problem,
    n9_problem,
    nilpotent_n2_problem,
    unipotent_n2_problem,
    double_blocks_generic,
    double_blocks_nongeneric,
):
    checks = []

    def timed(label, fn):
        t0 = time.monotonic()
        ok = fn()
        dt = time.monotonic() - t0
        checks.append((label, ok, dt))
        return ok

    timed("quartic eigenvalue generic", lambda: is_generic(double_blocks_generic).generic)

    def nongeneric_with_m2():
        res = is_generic(double_blocks_nongeneric)
        return (not res.generic) and res.witness.m == 2 and res.witness.verify(
            double_blocks_nongeneric
        )

    timed("half-turn eigenvalue non-generic, witness m=2", nongeneric_with_m2)

    def n4_good_and_2special():
        if not is_good(n4_special_problem.shapes).good:
            return False
        certs = find_special_certificates(n4_special_problem)
        return any(c.l == 2 and not c.diagonal for c in certs)

    timed("n=4 triple good and 2-special (non-diagonal)", n4_good_and_2special)

    def n9_good_not_special():
        return (
            is_good(n9_problem.shapes).good
            and find_special_certificates(n9_problem) == ()
        )

    timed("n=9 triple good with empty certificate list", n9_good_not_special)

    def nilpotent_unipotent_classify():
        for problem in (nilpotent_n2_problem, unipotent_n2_problem):
            rep = classify_specialness(problem, include_quasi_generic=False)
            if not (rep.special and rep.special_diagonal):
                return False
            if not any(c.l == 1 for c in rep.certificates):
                return False
            verdict = classify(problem)
            if verdict.weak_dsp != UNSOLVABLE:
                return False
        return True

    timed(
        "nilpotent/unipotent triples 1-special, diagonal, weak unsolvable",
        nilpotent_unipotent_classify,
    )

    ok = all(c[1] for c in checks) and all(c[2] < 1.0 for c in checks)
    for label, good, dt in checks:
        print(f"    [{'ok' if good else 'FAIL'} {dt:.3f}s] {label}")
    _report(1, "example regression (exact, each < 1 s)", ok, sum(c[2] for c in checks))


def test_criterion_2_kappa_invariance_under_reduction():
    t0 = time.monotonic()
    rng = random.Random(101)
    collected = 0
    multi_level = 0
    ok = True
    while collected < 500:
        n = rng.randint(2, 10)
        count = rng.randint(2, 5)
        shapes = random_shape_tuple(rng, n, count)
        rep = rigidity_report(shapes)
        if not (rep.alpha and rep.beta):
            continue
        res = is_good(shapes)
        kappas = {s.report.kappa for s in res.trace.steps}
        if len(kappas) != 1:
            ok = False
            break
        if len(res.trace.steps) > 1:
            multi_level += 1
        collected += 1
    elapsed = time.monotonic() - t0
    ok = ok and collected == 500 and multi_level >= 50 and elapsed < 30.0
    print(f"    tuples={collected} multi_level={multi_level} time={elapsed:.2f}s")
    _report(2, "kappa invariant at every reduction level (500 tuples)", ok, elapsed)


def _all_shapes_of_size(n: int):
    def compositions(total):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first,) + rest

    for comp in compositions(n):
        for combo in iter_product(*(list(partitions_of(c)) for c in comp)):
            yield JnfShape.of(*combo)


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


def test_criterion_3_d_oracle_equivalence():
    t0 = time.monotonic()
    count = 0
    ok = True
    for n in range(1, 7):
        for s in _all_shapes_of_size(n):
            count += 1
            # independent oracle: orbit dimension = rank of X -> [G, X]
            # (n^2 minus the exact null-space dimension of the commutation
            # system) at an explicit Jordan realization
            if d_of(s) != rank(commutator_operator((_jordan_matrix(s),))):
                ok = False
                break
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    print(f"    shapes={count} time={elapsed:.2f}s")
    _report(3, "d formula equals commutant null-space oracle, all n <= 6", ok, elapsed)


def test_criterion_4_centralizer_surjectivity_duality():
    t0 = time.monotonic()
    rng = random.Random(103)
    ok = True
    trivial = nontrivial = 0
    for trial in range(200):
        n = rng.randint(2, 6)
        count = rng.randint(2, 4)
        if trial % 7 == 0:
            # degenerate: repeated blocks force a non-trivial centralizer
            inner = random_relation_tuple(rng, max(1, n // 2), count)
            t = assemble_block_diagonal(inner, 2).assembled
        elif trial % 7 == 1:
            t = MatrixTuple(
                ADDITIVE, [Matrix.identity(n).scale(k) for k in (2, -1, -1)]
            )
        else:
            mode = ADDITIVE if trial % 2 else MULTIPLICATIVE
            t = random_relation_tuple(rng, n, count, mode=mode)
        tangent = tangent_rank(t)
        centr = tangent.centralizer_dimension
        # the map of the first k - 1 matrices, eliminated on its own
        surj = rank(commutator_operator(t.matrices[:-1])) == t.n * t.n - 1
        if tangent.surjective_without_last != surj or (centr == 1) != surj:
            ok = False
            break
        if centr == 1:
            trivial += 1
        else:
            nontrivial += 1
    elapsed = time.monotonic() - t0
    ok = ok and trivial > 0 and nontrivial > 0
    print(f"    trivial={trivial} nontrivial={nontrivial} time={elapsed:.2f}s")
    _report(4, "centralizer trivial iff commutator map surjective (200 tuples)", ok, elapsed)


def test_criterion_5_dimension_formula(
    rigid_n2_witness, rigid_n2_classes, rigid_n3_witness, rigid_n3_classes
):
    t0 = time.monotonic()
    ok = True
    for wit, classes in (
        (rigid_n2_witness, rigid_n2_classes),
        (rigid_n3_witness, rigid_n3_classes),
    ):
        shapes = tuple(c.shape for c in classes)
        kappa = rigidity_report(shapes).kappa
        if kappa != 2 or tangent_rank(wit).centralizer_dimension != 1:
            ok = False
            break
        n = wit.n
        if local_dimension(wit, TupleProblem(wit.mode, n, classes)) != n * n + 1 - kappa:
            ok = False
            break
    elapsed = time.monotonic() - t0
    _report(5, "local dimension = n^2 + 1 - kappa at rigid solutions", ok, elapsed)


def test_criterion_6_euler_characteristic_cross_check(
    rigid_n2_witness,
    rigid_n2_classes,
    rigid_n3_witness,
    rigid_n3_classes,
):
    t0 = time.monotonic()
    suite = [
        (rigid_n2_witness, tuple(c.shape for c in rigid_n2_classes)),
        (rigid_n3_witness, tuple(c.shape for c in rigid_n3_classes)),
    ]
    # multiplicative witness: quarter rotation pair with identity
    rot = Matrix([[0, -1], [1, 0]])
    rot_inv = Matrix([[0, 1], [-1, 0]])
    suite.append(
        (
            MatrixTuple(MULTIPLICATIVE, [rot, rot_inv, Matrix.identity(2)]),
            (shape([1], [1]), shape([1], [1]), shape([1, 1])),
        )
    )
    # assembled block-diagonal witness
    doubled = assemble_block_diagonal(rigid_n2_witness, 2).assembled
    suite.append(
        (
            doubled,
            (shape([2, 2]), shape([2, 2]), shape([1, 1], [1, 1])),
        )
    )
    ok = True
    from deligne_simpson import verify_relation

    for wit, shapes in suite:
        if not verify_relation(wit):
            ok = False
            break
        if euler_characteristic(wit) != rigidity_report(shapes).kappa:
            ok = False
            break
    elapsed = time.monotonic() - t0
    print(f"    witnesses={len(suite)} time={elapsed:.2f}s")
    _report(6, "Euler characteristic equals kappa on every verified witness", ok, elapsed)


def test_criterion_7_deformation_order(rigid_n2_witness):
    t0 = time.monotonic()
    directions = (
        Matrix([[1, 1], [0, 0]]),
        Matrix([[0, 0], [1, -2]]),
        Matrix([[0, 0], [0, 1]]),
    )
    ok = True
    threshold = Fraction(39, 10)
    for k in range(4, 11):
        eps = Fraction(1, 2**k)
        res_full = deform_step(rigid_n2_witness, directions, eps)
        res_half = deform_step(rigid_n2_witness, directions, eps / 2)
        if res_full.residual == 0 or res_half.residual == 0:
            ok = False
            break
        ratio = res_full.residual / res_half.residual
        # float tolerance 1e-12 on the stated 3.9 threshold
        if float(ratio) < 3.9 - 1e-12:
            ok = False
            break
        if not (ratio >= threshold):
            ok = False
            break
        if res_full.bound is not None and res_full.residual > res_full.bound:
            ok = False
            break
    elapsed = time.monotonic() - t0
    _report(7, "deformation residual quarters when epsilon halves (2^-4..2^-10)", ok, elapsed)


def test_criterion_8_block_diagonal_non_triviality(rigid_n2_witness):
    t0 = time.monotonic()
    ok = True
    cases = [
        (rigid_n2_witness, 2),
        (rigid_n2_witness, 3),
        (
            MatrixTuple(ADDITIVE, [Matrix([[0]]), Matrix([[0]]), Matrix([[0]])]),
            2,
        ),
        (
            MatrixTuple(
                MULTIPLICATIVE,
                [Matrix([[0, -1], [1, 0]]), Matrix([[0, 1], [-1, 0]])],
            ),
            2,
        ),
    ]
    for block_tuple, copies in cases:
        res = assemble_block_diagonal(block_tuple, copies)
        if tangent_rank(res.assembled).centralizer_dimension < 2:
            ok = False
            break
        for m in res.assembled.matrices:
            if m * res.certificate != res.certificate * m:
                ok = False
                break
    elapsed = time.monotonic() - t0
    _report(8, "assembled tuples have centralizer >= 2 with exact certificate", ok, elapsed)


def test_criterion_9_solver_soundness_on_generated_generic():
    t0 = time.monotonic()
    rng = random.Random(107)
    ok = True
    checked = 0
    solvable_count = 0
    while checked < 100:
        n = rng.randint(2, 8)
        count = rng.randint(2, 4)
        shapes = random_shape_tuple(rng, n, count)
        mults = [m for s in shapes for m in s.multiplicities()]
        mode = ADDITIVE if reduce(gcd, mults) == 1 else MULTIPLICATIVE
        problem = generate_generic(shapes, mode, seed=checked)
        verdict = classify(problem)
        good = is_good(shapes).good
        if (verdict.dsp == SOLVABLE) != good:
            ok = False
            break
        if verdict.dsp == SOLVABLE and verdict.weak_dsp == UNSOLVABLE:
            ok = False
            break
        if verdict.dsp == SOLVABLE:
            solvable_count += 1
        checked += 1
    elapsed = time.monotonic() - t0
    ok = ok and checked == 100 and 0 < solvable_count < 100
    print(f"    instances={checked} solvable={solvable_count} time={elapsed:.2f}s")
    _report(9, "generated-generic verdicts match goodness exactly (100 tuples)", ok, elapsed)
