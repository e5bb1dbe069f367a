from __future__ import annotations

import ast
import json
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product as iter_product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deligne_simpson import (
    ADDITIVE,
    MULTIPLICATIVE,
    ClassSpec,
    GenericAssignmentError,
    JnfShape,
    MultiplicativeEigenvalue,
    ProblemError,
    RelationSearchCapError,
    TupleProblem,
    check_consistency,
    generate_generic,
    is_generic,
)
from deligne_simpson import eigenvalues
from deligne_simpson.eigenvalues import (
    _SIEVE_WIDTH,
    DEFAULT_RELATION_CAP,
    MULT_ONE,
    NonGenericityRelation,
    _assemble_assignment,
    _balanced_split,
    _certify_generic,
    _class_options,
    _combined_value,
    _fold_classes,
    _primes_from,
    _selection_counts,
    _value_keys,
    find_first_relation,
    relation_counts,
)
from deligne_simpson.cli import run_command
from deligne_simpson.jnf_core import JnfError
from deligne_simpson.linalg import Matrix
from deligne_simpson.witness import MatrixTuple, WitnessError

from conftest import bruteforce_relations, gr, me, random_shape_tuple, selection_vectors, shape


class TestConsistency:
    def test_additive_pairwise_cancellation(self):
        classes = [ClassSpec(shape([1], [1]), [gr(a), gr(-a)]) for a in (1, 2, 3)]
        assert check_consistency(TupleProblem(ADDITIVE, 2, classes))

    def test_multiplicative_fourth_root(self, double_blocks_generic):
        assert check_consistency(double_blocks_generic)

    def test_additive_sum_three_fails(self):
        classes = [ClassSpec(shape([1]), [gr(1)]) for _ in range(3)]
        assert not check_consistency(TupleProblem(ADDITIVE, 1, classes))

    def test_duplicate_eigenvalue_rejected(self):
        with pytest.raises(JnfError):
            ClassSpec(shape([1], [1]), [gr(2), gr(2)])

    def test_multiplicity_mismatch_rejected(self):
        with pytest.raises(ProblemError):
            TupleProblem(ADDITIVE, 3, [ClassSpec(shape([2]), [gr(0)])])

    def test_mode_value_mismatch_rejected(self):
        with pytest.raises(ProblemError):
            TupleProblem(MULTIPLICATIVE, 2, [ClassSpec(shape([2]), [gr(0)])] * 3)


class TestModeObjects:
    """ADDITIVE and MULTIPLICATIVE are mode objects that stand in for their
    document strings everywhere."""

    @pytest.mark.parametrize("mode", [ADDITIVE, MULTIPLICATIVE])
    def test_equal_hashed_and_encoded_as_the_string(self, mode):
        text = str(mode)
        assert type(text) is str and text in ("additive", "multiplicative")
        assert mode == text and not mode != text and hash(mode) == hash(text)
        assert {text: 1}[mode] == 1
        assert json.dumps({"mode": mode}) == json.dumps({"mode": text})
        assert repr(mode) == repr(text) and f"{mode}" == text

    @pytest.mark.parametrize("mode", [ADDITIVE, MULTIPLICATIVE])
    def test_constructors_store_the_mode_object(self, mode):
        text = str(mode)
        shapes = (shape([1], [1]),) * 3
        problem = generate_generic(shapes, text)
        assert problem.mode is mode
        assert TupleProblem(text, 2, problem.classes).mode is mode
        tup = MatrixTuple(text, [Matrix([[1, 0], [0, 1]])] * 2)
        assert tup.mode is mode

    def test_relation_equal_across_string_and_object(self):
        counts = ((1, 0), (0, 1))
        by_text = NonGenericityRelation(mode="additive", m=1, counts=counts)
        by_object = NonGenericityRelation(mode=ADDITIVE, m=1, counts=counts)
        assert by_text == by_object and hash(by_text) == hash(by_object)

    BAD_MODES = [None, 1, True, [], {}, "", "Additive"]

    @pytest.mark.parametrize("mode", BAD_MODES, ids=repr)
    def test_unknown_modes_raise_the_package_errors(self, mode):
        classes = [ClassSpec(shape([1]), [gr(0)])] * 2
        with pytest.raises(ProblemError):
            TupleProblem(mode, 1, classes)
        with pytest.raises(WitnessError):
            MatrixTuple(mode, [Matrix([[0]])] * 2)
        with pytest.raises(ProblemError):
            generate_generic((shape([1]),) * 2, mode)

    @pytest.mark.parametrize("mode", BAD_MODES, ids=repr)
    def test_documents_with_unknown_modes_exit_2(self, tmp_path, mode):
        problem = tmp_path / "p.json"
        witness = tmp_path / "w.json"
        problem.write_text(json.dumps({"mode": mode, "n": 1, "classes": [
            {"eigenvalues": [{"value": {"re": "0"}, "multiplicity": 1, "blocks": [1]}]}
        ] * 2}))
        witness.write_text(json.dumps({"mode": mode, "n": 1, "matrices": [[[{"re": "0"}]]] * 2}))
        code, report = run_command(["classify", str(problem)])
        assert code == 2 and report["error"].startswith("mode: ")
        good = tmp_path / "good.json"
        doc = json.loads(problem.read_text())
        good.write_text(json.dumps(dict(doc, mode="additive")))
        # both document kinds read their header alike: one text per refusal
        code, witness_report = run_command(["verify", str(good), str(witness)])
        assert code == 2 and witness_report["error"] == report["error"]


_SOURCES = sorted(
    (Path(__file__).resolve().parent.parent / "src" / "deligne_simpson").glob("*.py")
)
_MODE_NAMES = {"ADDITIVE", "MULTIPLICATIVE", "additive", "multiplicative"}
_MODE_CLASSES = {"_Mode", "_Additive", "_Multiplicative"}


def _mode_branches(source: str) -> list[str]:
    """Each comparison with a mode operand outside the mode classes, and
    each isinstance test against MultiplicativeEigenvalue outside
    eigenvalue_as_gaussian, as "line: code"."""
    found = []

    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                yield sub.value

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope | {node.name}
        if isinstance(node, ast.Compare) and not scope & _MODE_CLASSES:
            if any(set(names(x)) & _MODE_NAMES for x in (node.left, *node.comparators)):
                found.append(f"{node.lineno}: {ast.unparse(node)}")
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and "eigenvalue_as_gaussian" not in scope
            and "MultiplicativeEigenvalue" in set(names(node.args[-1]))
        ):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), frozenset())
    return found


class TestOneModeHome:
    """The mode objects are the only place that tells the modes apart."""

    @pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
    def test_no_mode_branch_outside_the_mode_objects(self, path):
        assert _mode_branches(path.read_text()) == []

    @pytest.mark.parametrize("branch", [
        "if mode == ADDITIVE:\n    pass",
        "x = problem.mode != eigenvalues.MULTIPLICATIVE",
        "ok = mode in ('additive', 'multiplicative')",
        "if t.mode is MULTIPLICATIVE:\n    pass",
        "def f(v):\n    return isinstance(v, (GaussianRational, MultiplicativeEigenvalue))",
    ])
    def test_the_guard_finds_a_branch_put_back(self, branch):
        source = (_SOURCES[0].parent / "witness.py").read_text() + "\n" + branch + "\n"
        assert len(_mode_branches(source)) == 1

    def test_the_guard_spares_the_mode_classes_and_the_embedding(self):
        source = (
            "class _Additive(_Mode):\n    def f(self, m):\n        return m == ADDITIVE\n"
            "def eigenvalue_as_gaussian(v):\n    return isinstance(v, MultiplicativeEigenvalue)\n"
        )
        assert _mode_branches(source) == []


# Definitions that no engine path calls, kept because tests use them as
# references or README documents them.
_KEPT_UNCALLED = {
    "eigenvalues.NonGenericityRelation.verify": "tests check every found witness with it",
    "jnf_core.Partition.conjugate": "README lists conjugates; tests pin them",
    "jnf_core.JnfShape.of": "README's library example builds shapes with it",
    "linalg.sl_basis": "perfbench times it as a tangent phase; tests build oracles on it",
}


def _references(node) -> Counter:
    """How often each name is used under `node`, as a variable, an
    attribute or an import."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.rpartition(".")[2]] += 1
    return found


def _unreferenced(sources: dict[str, str]) -> list[str]:
    """Each non-dunder module function, class and method whose name is used
    nowhere in `sources` (file name -> text) outside its own definition, as
    "module.qualified_name".  An export from __init__ is an import there,
    so it counts as a use.  The scan matches names only: a homonym such as
    Matrix.is_zero would hide a GaussianRational.is_zero put back."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    everywhere = sum((_references(t) for t in trees.values()), Counter())
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                members = [m for m in node.body if isinstance(m, (ast.FunctionDef, ast.ClassDef))]
                defs = [(node.name, node)] + [(f"{node.name}.{m.name}", m) for m in members]
            elif isinstance(node, ast.FunctionDef):
                defs = [(node.name, node)]
            else:
                continue
            for qualified, d in defs:
                dunder = d.name.startswith("__") and d.name.endswith("__")
                if not dunder and everywhere[d.name] == _references(d)[d.name]:
                    found.append(f"{Path(name).stem}.{qualified}")
    return found


class TestNoTestOnlyCode:
    """Every definition in the package is used by the package, exported
    from it, or named in _KEPT_UNCALLED with its reason."""

    def test_every_definition_is_used_or_exported(self):
        sources = {p.name: p.read_text() for p in _SOURCES}
        assert sorted(_unreferenced(sources)) == sorted(_KEPT_UNCALLED)

    @pytest.mark.parametrize("file, old, new, name", [
        ("eigenvalues.py", "# -- generation", (
            "def reduced_multiplicity_product(problem, divisor):\n"
            "    counts = [[mu // divisor for mu in c.shape.multiplicities()] for c in problem.classes]\n"
            "    return _combined_value(problem.mode, problem.classes, counts)\n\n\n"
            "# -- generation"
        ), "eigenvalues.reduced_multiplicity_product"),
        ("criteria.py", "    terminal: str\n", (
            "    terminal: str\n\n"
            "    @property\n"
            "    def kappas(self):\n"
            "        return tuple(s.report.kappa for s in self.steps)\n"
        ), "criteria.PsiTrace.kappas"),
    ], ids=["function", "method"])
    def test_the_guard_finds_a_test_only_helper_put_back(self, file, old, new, name):
        sources = {p.name: p.read_text() for p in _SOURCES}
        assert sources[file].count(old) == 1
        sources[file] = sources[file].replace(old, new)
        assert sorted(_unreferenced(sources)) == sorted([*_KEPT_UNCALLED, name])


class TestGenericity:
    def test_fourth_root_generic(self, double_blocks_generic):
        assert is_generic(double_blocks_generic).generic

    def test_minus_one_nongeneric_with_m2_witness(self, double_blocks_nongeneric):
        res = is_generic(double_blocks_nongeneric)
        assert not res.generic
        assert res.witness.m == 2
        assert res.witness.verify(double_blocks_nongeneric)

    def test_additive_chain_m1_witness(self):
        classes = [ClassSpec(shape([1], [1]), [gr(a), gr(-a)]) for a in (1, 2, 3)]
        problem = TupleProblem(ADDITIVE, 2, classes)
        res = is_generic(problem)
        assert not res.generic
        assert res.witness.m == 1
        assert res.witness.verify(problem)

    def test_inconsistent_instance_rejected(self):
        classes = [ClassSpec(shape([1]), [gr(1)]) for _ in range(3)]
        with pytest.raises(ProblemError):
            is_generic(TupleProblem(ADDITIVE, 1, classes))

    def test_against_bruteforce_enumeration(self):
        rng = random.Random(23)
        pool = sorted({Fraction(p, q) for p in range(-6, 7) for q in (1, 2, 3)})
        for _ in range(60):
            n = rng.randint(2, 6)
            count = rng.randint(2, 4)
            shapes = random_shape_tuple(rng, n, count)
            values = [
                [gr(v) for v in rng.sample(pool, s.label_count)] for s in shapes
            ]
            # force consistency by shifting one slot of the last class
            classes = [ClassSpec(s, v) for s, v in zip(shapes, values)]
            problem_raw = TupleProblem(ADDITIVE, n, classes)
            total = gr(0)
            for c in problem_raw.classes:
                for i, v in enumerate(c.values):
                    total = total + v * c.shape.multiplicity(i)
            last = classes[-1]
            mult_last = last.shape.multiplicity(0)
            corrected = [last.values[0] - total / mult_last] + list(last.values[1:])
            if len(set(corrected)) != len(corrected):
                continue
            classes[-1] = ClassSpec(last.shape, corrected)
            problem = TupleProblem(ADDITIVE, n, classes)
            fast = find_first_relation(problem)
            brute = _bruteforce_relation(problem)
            assert (fast is None) == (brute is None), (problem, fast, brute)
            if fast is not None:
                assert fast.verify(problem)

    def test_witness_counts_respect_multiplicities(self, double_blocks_nongeneric):
        res = is_generic(double_blocks_nongeneric)
        for spec, counts in zip(double_blocks_nongeneric.classes, res.witness.counts):
            assert sum(counts) == res.witness.m
            assert all(
                0 <= c <= spec.shape.multiplicity(i) for i, c in enumerate(counts)
            )

    def test_against_bruteforce_multiplicative(self):
        rng = random.Random(29)
        angle_pool = sorted({Fraction(p, q) for q in (2, 3, 4, 5) for p in range(q)})
        for _ in range(40):
            n = rng.randint(2, 6)
            count = rng.randint(2, 4)
            shapes = random_shape_tuple(rng, n, count)
            classes = []
            total_angle = Fraction(0)
            feasible = True
            for idx, s in enumerate(shapes):
                angles = rng.sample(angle_pool, s.label_count)
                if idx == len(shapes) - 1:
                    # absorb the consistency constraint in the last slot
                    partial = sum(
                        a * s.multiplicity(i) for i, a in enumerate(angles[:-1])
                    )
                    mu = s.multiplicity(s.label_count - 1)
                    target = (-(total_angle + partial)) / mu
                    angles[-1] = target % 1
                    if angles[-1] in angles[:-1]:
                        feasible = False
                        break
                total_angle += sum(a * s.multiplicity(i) for i, a in enumerate(angles))
                classes.append(ClassSpec(s, [me(a) for a in angles]))
            if not feasible:
                continue
            problem = TupleProblem(MULTIPLICATIVE, n, classes)
            if not check_consistency(problem):
                continue
            fast = find_first_relation(problem)
            brute = _bruteforce_relation_multiplicative(problem)
            assert (fast is None) == (brute is None), (problem, fast, brute)
            if fast is not None:
                assert fast.verify(problem)


# values drawn from small pools so that relations of several cardinalities
# occur; the magnitudes share the primes 2 and 3
_ADDITIVE_POOL = [
    gr(Fraction(a, q), Fraction(b, r))
    for a in range(-2, 3) for q in (1, 2) for b in (-1, 0, 1) for r in (1, 3)
]
_ANGLE_POOL = sorted({Fraction(p, q) for q in (1, 2, 3, 4) for p in range(q)})
_MAGNITUDE_POOL = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(4, 3), Fraction(6), Fraction(9, 4)]


def _inverse_of_combined(mode, terms):
    """Inverse of the sum (product) of value * count over (value, count),
    built from the parts: the code under test, `mode.combine`, is no oracle
    (and takes non-negative counts only, as int ** -1 is a float)."""
    if mode == ADDITIVE:
        total = gr(0)
        for v, k in terms:
            total = total + v * k
        return -total
    angle = sum((v.angle * k for v, k in terms), Fraction(0))
    magnitude = math.prod((v.magnitude**k for v, k in terms), start=Fraction(1))
    return MultiplicativeEigenvalue(-angle, 1 / magnitude)


def _random_consistent_problem(rng, mode, n, count, plant=0):
    """Random pool values; one slot of multiplicity 1 absorbs the total
    condition.  With plant = m0 > 0 another slot, chosen once in a random
    selection of m0 per class, completes a relation at m0.  None when no
    such slots exist or the values collide."""
    shapes = random_shape_tuple(rng, n, count)
    slots = [(j, i) for j, s in enumerate(shapes) for i in range(s.label_count)]
    counts = dict.fromkeys(slots, 0)
    if plant:
        for j, s in enumerate(shapes):
            t = rng.choice(selection_vectors(s.multiplicities(), plant))
            counts.update(((j, i), c) for i, c in enumerate(t))
    absorbers = [(j, i) for j, i in slots if shapes[j].multiplicity(i) == 1 and not counts[j, i]]
    planted = [slot for slot in slots if counts[slot] == 1]
    if not absorbers or (plant and not planted):
        return None
    # a few values and their inverses per problem, so that relations occur
    if mode == ADDITIVE:
        pool = rng.sample(_ADDITIVE_POOL, rng.randint(1, 6))
        pool += [-v for v in pool]
    else:
        pool = [me(rng.choice(_ANGLE_POOL), rng.choice(_MAGNITUDE_POOL)) for _ in range(rng.randint(1, 6))]
        pool += [MultiplicativeEigenvalue(-v.angle, 1 / v.magnitude) for v in pool]
    values = {slot: rng.choice(pool) for slot in slots}
    if plant:
        p = rng.choice(planted)
        values[p] = _inverse_of_combined(
            mode, [(values[slot], counts[slot]) for slot in slots if slot != p]
        )
    a = rng.choice(absorbers)
    values[a] = _inverse_of_combined(
        mode, [(values[j, i], shapes[j].multiplicity(i)) for j, i in slots if (j, i) != a]
    )
    try:
        classes = [
            ClassSpec(s, [values[j, i] for i in range(s.label_count)])
            for j, s in enumerate(shapes)
        ]
    except JnfError:
        return None
    problem = TupleProblem(mode, n, classes)
    assert check_consistency(problem)
    return problem


def _permuted(rng, problem):
    """The same problem with its classes, and the labels of each class, in
    a random order."""
    classes = []
    for c in rng.sample(problem.classes, len(problem.classes)):
        order = rng.sample(range(c.shape.label_count), c.shape.label_count)
        shape_ = JnfShape(c.shape.blocks[i] for i in order)
        classes.append(ClassSpec(shape_, [c.values[i] for i in order]))
    return TupleProblem(problem.mode, problem.n, classes)


class TestIntegerKeysAgainstBruteForce:
    """The search folds exact integer keys; brute force combines the values
    themselves.  Imaginary parts and magnitudes with shared primes exercise
    every digit of the key."""

    @pytest.mark.parametrize("mode", [ADDITIVE, MULTIPLICATIVE])
    def test_minimal_cardinality_matches(self, mode):
        rng = random.Random(f"keys/{mode}")
        brute_force = (
            _bruteforce_relation if mode == ADDITIVE else _bruteforce_relation_multiplicative
        )
        seen_m = set()
        for n in range(2, 9):
            checked = 0
            while checked < 16:
                plant = rng.randint(1, n // 2) if checked % 2 else 0
                count = 2 if n > 6 else rng.randint(2, 3)
                problem = _random_consistent_problem(rng, mode, n, count, plant)
                if problem is None:
                    continue
                checked += 1
                fast = find_first_relation(problem)
                brute = brute_force(problem)
                assert (fast is None) == (brute is None), (problem, fast, brute)
                if fast is None:
                    continue
                assert fast.m == brute[0]
                assert fast.m <= (plant or n)
                assert fast.m <= n // 2
                assert fast.verify(problem)
                seen_m.add(fast.m)
                # permuting classes or labels keeps the verdict and m
                for _ in range(2):
                    res = is_generic(_permuted(rng, problem))
                    assert not res.generic and res.witness.m == fast.m
        assert {1, 2, 3} <= seen_m

    def test_permutation_keeps_generic_verdict(self):
        rng = random.Random(41)
        for mode in (ADDITIVE, MULTIPLICATIVE):
            for n in (5, 6, 7, 8):
                shapes = random_shape_tuple(rng, n, 3)
                mults = [m for s in shapes for m in s.multiplicities()]
                if mode == ADDITIVE and math.gcd(*mults) > 1:
                    continue
                problem = generate_generic(shapes, mode, seed=n)
                for _ in range(3):
                    assert is_generic(_permuted(rng, problem)).generic

    def test_shared_prime_magnitudes(self):
        # 2 * (1/6) * (9/4) * (4/3) = 1 cancels only prime by prime
        classes = [
            ClassSpec(shape([1], [1]), [me(0, q), me(0, 1 / q)])
            for q in (Fraction(2), Fraction(6), Fraction(9, 4), Fraction(4, 3))
        ]
        problem = TupleProblem(MULTIPLICATIVE, 2, classes)
        witness = find_first_relation(problem)
        assert witness.m == 1 and witness.verify(problem)
        assert _bruteforce_relation_multiplicative(problem)[0] == 1
        # without the last class no product of one value per class is 1
        problem = TupleProblem(MULTIPLICATIVE, 2, classes[:3])
        assert find_first_relation(problem) is None
        assert _bruteforce_relation_multiplicative(problem) is None


class TestRelationCounts:
    """The counting fold runs the plan of `find_first_relation`; brute force
    counts every relation at every m < n."""

    @pytest.mark.parametrize("mode", [ADDITIVE, MULTIPLICATIVE])
    def test_counts_match_bruteforce(self, mode):
        rng = random.Random(f"counts/{mode}")
        with_relations = several_at_one_m = 0
        for n in range(2, 9):
            checked = 0
            while checked < 30:
                plant = rng.randint(1, n // 2) if checked % 2 else 0
                count = 2 if n > 6 else rng.randint(2, 3)
                problem = _random_consistent_problem(rng, mode, n, count, plant)
                if problem is None:
                    continue
                checked += 1
                brute = dict.fromkeys(range(1, n), 0)
                for m, _ in bruteforce_relations(problem):
                    brute[m] += 1
                counts = relation_counts(problem)
                assert list(counts) == list(range(1, n // 2 + 1))
                for m in range(1, n):
                    assert brute[m] == brute[n - m], (problem, brute)
                for m, k in counts.items():
                    assert k == brute[m], (problem, counts, brute)
                with_relations += any(counts.values())
                several_at_one_m += max(counts.values(), default=0) > 1
        assert with_relations and several_at_one_m

    def test_cap_error_same_as_first_relation_search(self):
        shapes = (JnfShape.of(*([1] for _ in range(6))),) * 3
        problem = generate_generic(shapes, ADDITIVE, seed=0)
        for cap in (215, 20**3 - 1):
            with pytest.raises(RelationSearchCapError) as first:
                find_first_relation(problem, cap=cap)
            with pytest.raises(RelationSearchCapError) as counted:
                relation_counts(problem, cap=cap)
            assert str(counted.value) == str(first.value)
        assert relation_counts(problem, cap=20**3) == {1: 0, 2: 0, 3: 0}


class TestRelationCap:
    """The search stops at m = n // 2; the cap must still fail at the same
    cardinality, with the same message, as a search over every m < n."""

    def _distinct_labels(self, n):
        shapes = (JnfShape.of(*([1] for _ in range(n))),) * 3
        return generate_generic(shapes, ADDITIVE, seed=0)

    def test_cap_fails_at_first_cardinality(self):
        problem = self._distinct_labels(6)
        with pytest.raises(RelationSearchCapError) as err:
            find_first_relation(problem, cap=215)
        assert str(err.value) == "cardinality 1 needs 216 selections, cap is 215"

    @pytest.mark.parametrize("n, largest", [(6, 20**3), (7, 35**3)])
    def test_cap_fails_only_at_largest_count(self, n, largest):
        # the selection count peaks at m = n // 2 (and n - n // 2)
        problem = self._distinct_labels(n)
        with pytest.raises(RelationSearchCapError) as err:
            find_first_relation(problem, cap=largest - 1)
        assert str(err.value) == (
            f"cardinality {n // 2} needs {largest} selections, cap is {largest - 1}"
        )
        assert find_first_relation(problem, cap=largest) is None

    def test_selection_counts_match_enumeration(self):
        # one pass gives every m's count; enumeration is the reference
        rng = random.Random("selection-counts")
        for _ in range(300):
            mults = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 5)))
            top = rng.randint(0, sum(mults) + 2)
            counts = _selection_counts(mults, top)
            assert counts == [len(selection_vectors(mults, m)) for m in range(top + 1)]


def _dict_fold_search(problem, cap=DEFAULT_RELATION_CAP):
    """The relation search with first-seen tables at every m, as it ran
    before existence was decided on key sets: the oracle for the witness,
    the verdict and the cap error of `find_first_relation`."""
    keys, half, wrap = _value_keys(problem)
    for m in range(1, problem.n // 2 + 1):
        per_class = [_selection_counts(c.shape.multiplicities(), m)[m] for c in problem.classes]
        total = math.prod(per_class)
        if total > cap:
            raise RelationSearchCapError(
                f"cardinality {m} needs {total} selections, cap is {cap}"
            )
        split = _balanced_split(per_class)
        options = [
            _class_options(c.shape.multiplicities(), k, m, 1 if j < split else -1, half, wrap)
            for j, (c, k) in enumerate(zip(problem.classes, keys))
        ]
        left = _fold_classes(options[:split], half, wrap)
        right = _fold_classes(options[split:], half, wrap)
        common = left.keys() & right.keys()
        if common:
            key = next(k for k in left if k in common)
            return NonGenericityRelation(mode=problem.mode, m=m, counts=left[key] + right[key])
    return None


def _search_outcome(search, problem, cap):
    try:
        return search(problem, cap)
    except RelationSearchCapError as exc:
        return f"cap error: {exc}"


def _angle_wraps(problem, relation):
    """Whether the selected angles of a multiplicative relation sum to a
    positive integer, not to 0."""
    return problem.mode == MULTIPLICATIVE and 0 < sum(
        v.angle * k
        for c, t in zip(problem.classes, relation.counts)
        for v, k in zip(c.values, t)
    )


class TestExistenceSearchAgainstDictFold:
    """`find_first_relation` decides existence on key sets and rebuilds the
    first-seen tables only at the m that hits; the dict fold at every m is
    the oracle, so the return value must be identical, not merely valid."""

    def test_planted_and_generated_problems(self):
        rng = random.Random("existence-search")
        checked = relations = capped = wraps = 0
        seen_m = set()
        while checked < 2400:
            mode = (ADDITIVE, MULTIPLICATIVE)[checked % 2]
            n = rng.randint(2, 10)
            count = rng.randint(1, 4) if n < 8 else rng.randint(1, 3)
            if checked % 6 == 5:
                shapes = random_shape_tuple(rng, n, max(count, 2))
                mults = [mu for s in shapes for mu in s.multiplicities()]
                if mode == ADDITIVE and math.gcd(*mults) > 1:
                    continue
                problem = generate_generic(shapes, mode, seed=rng.randint(0, 9))
            else:
                plant = rng.randint(0, n - 1)
                problem = _random_consistent_problem(rng, mode, n, count, plant)
                if problem is None:
                    continue
            checked += 1
            largest = max(
                math.prod(_selection_counts(c.shape.multiplicities(), m)[m] for c in problem.classes)
                for m in range(1, n // 2 + 1)
            )
            cap = rng.choice([DEFAULT_RELATION_CAP, largest, rng.randint(1, largest)])
            fast = _search_outcome(find_first_relation, problem, cap)
            assert fast == _search_outcome(_dict_fold_search, problem, cap), (problem, cap)
            if isinstance(fast, str):
                capped += 1
            elif fast is not None:
                relations += 1
                seen_m.add(fast.m)
                wraps += _angle_wraps(problem, fast)
        assert relations > 600 and capped > 100 and wraps > 50
        assert seen_m == {1, 2, 3, 4, 5}

    def test_single_class_problem(self):
        # one class: the right table is the empty selection, key 0
        values = [gr(1), gr(-1), gr(2), gr(-2)]
        problem = TupleProblem(ADDITIVE, 4, [ClassSpec(shape([1], [1], [1], [1]), values)])
        assert find_first_relation(problem) == _dict_fold_search(problem)
        assert find_first_relation(problem).m == 2

    def test_tables_are_built_only_at_the_m_that_hits(self, monkeypatch):
        calls = []

        def spy(class_options, half, wrap):
            calls.append({sum(t) for options in class_options for t, _ in options})
            return _fold_classes(class_options, half, wrap)

        monkeypatch.setattr(eigenvalues, "_fold_classes", spy)
        rng = random.Random("spy")
        generic = nongeneric = 0
        while generic < 20 or nongeneric < 20:
            n = rng.randint(4, 9)
            problem = _random_consistent_problem(
                rng, (ADDITIVE, MULTIPLICATIVE)[n % 2], n, rng.randint(2, 3), rng.randint(0, n // 2)
            )
            if problem is None:
                continue
            calls.clear()
            witness = find_first_relation(problem)
            if witness is None:
                generic += 1
                assert calls == []
            else:
                nongeneric += 1
                assert calls == [{witness.m}, {witness.m}]


class TestCombinedValue:
    def test_multiplicative_matches_the_per_term_product(self):
        rng = random.Random("combined-value")
        angles = sorted({Fraction(p, q) for q in (1, 2, 3, 5, 7) for p in range(q)})
        for _ in range(300):
            n = rng.randint(1, 9)
            shapes = random_shape_tuple(rng, n, rng.randint(1, 4))
            classes = [
                ClassSpec(s, [me(a, rng.choice(_MAGNITUDE_POOL))
                              for a in rng.sample(angles, s.label_count)])
                for s in shapes
            ]
            counts = [
                [rng.randint(0, 2 * mu) if rng.random() < 0.8 else 0 for mu in s.multiplicities()]
                for s in shapes
            ]
            pairs = [(v, k) for c, t in zip(classes, counts) for v, k in zip(c.values, t)]
            angle = sum((v.angle * k for v, k in pairs), Fraction(0))
            magnitude = math.prod((v.magnitude**k for v, k in pairs), start=Fraction(1))
            assert _combined_value(MULTIPLICATIVE, classes, counts) == me(angle, magnitude)

    def test_angles_wrap_past_one(self):
        classes = [ClassSpec(shape([1], [2]), [me("3/4", 2), me("5/6", "1/2")])]
        value = _combined_value(MULTIPLICATIVE, classes, [[3, 2]])
        assert value == me(Fraction(9, 4) + Fraction(10, 6), 2)
        assert value.angle == Fraction(11, 12) and value.magnitude == 2
        assert _combined_value(MULTIPLICATIVE, classes, [[0, 0]]) == MULT_ONE


def _bruteforce_relation(problem):
    """Independent direct-product enumeration, no meet-in-the-middle."""
    for m in range(1, problem.n):
        vector_sets = [
            selection_vectors(c.shape.multiplicities(), m) for c in problem.classes
        ]
        for combo in iter_product(*vector_sets):
            total = gr(0)
            for spec, counts in zip(problem.classes, combo):
                for v, c in zip(spec.values, counts):
                    total = total + v * c
            if not total:
                return (m, combo)
    return None


def _bruteforce_relation_multiplicative(problem):
    for m in range(1, problem.n):
        vector_sets = [
            selection_vectors(c.shape.multiplicities(), m) for c in problem.classes
        ]
        for combo in iter_product(*vector_sets):
            angle = Fraction(0)
            mag = Fraction(1)
            for spec, counts in zip(problem.classes, combo):
                for v, c in zip(spec.values, counts):
                    angle += v.angle * c
                    mag *= v.magnitude**c
            if angle % 1 == 0 and mag == 1:
                return (m, combo)
    return None


class TestMultiplicativeArithmetic:
    @given(
        st.fractions(min_value=0, max_value=1).filter(lambda f: f < 1),
        st.fractions(min_value=0, max_value=1).filter(lambda f: f < 1),
        st.fractions(min_value=0, max_value=1).filter(lambda f: f < 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_associative_commutative(self, a, b, c):
        x, y, z = (MultiplicativeEigenvalue(v) for v in (a, b, c))
        combine = MULTIPLICATIVE.combine
        xy, yz = combine([(x, 1), (y, 1)]), combine([(y, 1), (z, 1)])
        assert combine([(xy, 1), (z, 1)]) == combine([(x, 1), (yz, 1)])
        assert xy == combine([(y, 1), (x, 1)])

    @given(st.fractions(min_value=0, max_value=1).filter(lambda f: f < 1),
           st.fractions(min_value=Fraction(1, 50), max_value=50))
    @settings(max_examples=100, deadline=None)
    def test_identity_detection_exact(self, angle, mag):
        v = MultiplicativeEigenvalue(angle, mag)
        assert (v == MULT_ONE) == (angle == 0 and mag == 1)
        inverse = MultiplicativeEigenvalue(-v.angle, 1 / v.magnitude)
        assert MULTIPLICATIVE.combine([(v, 1), (inverse, 1)]) == MULT_ONE

    def test_power_and_angle_wrap(self):
        v = me("2/3")
        assert MULTIPLICATIVE.combine([(v, 3)]) == MULT_ONE
        assert MULTIPLICATIVE.combine([(v, 2)]) == me("1/3")
        assert MULTIPLICATIVE.combine([(me("3/4", 2), 2)]) == me("1/2", 4)

    def test_magnitude_must_be_positive(self):
        with pytest.raises(ProblemError):
            MultiplicativeEigenvalue(Fraction(0), Fraction(-1))

    def test_normalized_fields(self):
        # Fractions in range are kept; anything else becomes a Fraction in [0, 1)
        angle, magnitude = Fraction(2, 3), Fraction(5, 7)
        v = MultiplicativeEigenvalue(angle, magnitude)
        assert v.angle is angle and v.magnitude is magnitude
        for raw, wrapped in ((Fraction(5, 3), Fraction(2, 3)), (Fraction(-1, 4), Fraction(3, 4)),
                             (1, Fraction(0)), (-2, Fraction(0)), (Fraction(0), Fraction(0))):
            w = MultiplicativeEigenvalue(raw, 3)
            assert type(w.angle) is Fraction and w.angle == wrapped
            assert type(w.magnitude) is Fraction and w.magnitude == 3


class TestGenerateGeneric:
    def test_three_two_by_two_additive(self):
        shapes = (shape([1], [1]),) * 3
        problem = generate_generic(shapes, ADDITIVE, seed=0)
        assert check_consistency(problem)
        assert is_generic(problem).generic

    @pytest.mark.parametrize("mode", [ADDITIVE, MULTIPLICATIVE])
    def test_negative_seed_is_refused(self, mode):
        with pytest.raises(ProblemError, match="seed"):
            generate_generic((shape([1], [1]),) * 3, mode, seed=-1)

    def test_seed_past_the_prime_walk_is_refused_before_walking(self, monkeypatch):
        # 4 slots: attempt 31 of seed s reads primes up to (s + 32) * 4 - 1
        shapes = (shape([1], [1]),) * 2
        walked = []
        primes_from = eigenvalues._primes_from

        def counting(start):
            walked.append(start)
            return primes_from(start)

        monkeypatch.setattr(eigenvalues, "_primes_from", counting)
        monkeypatch.setattr(eigenvalues, "MAX_PRIME_WALK", 4 * 42 - 1)
        assert check_consistency(generate_generic(shapes, ADDITIVE, seed=10))
        assert len(walked) == 1
        with pytest.raises(ProblemError, match="seed 11 would walk up to 171 primes, more than 167"):
            generate_generic(shapes, ADDITIVE, seed=11)
        assert len(walked) == 1

    def test_all_even_multiplicities_impossible(self):
        shapes = (shape([2]), shape([1, 1]), shape([2]))
        with pytest.raises(GenericAssignmentError):
            generate_generic(shapes, ADDITIVE)

    def test_size_one_pair_vacuous(self):
        problem = generate_generic((shape([1]), shape([1])), ADDITIVE, seed=2)
        assert check_consistency(problem)
        assert is_generic(problem).generic

    def test_multiplicative_common_divisor_still_generic(self):
        problem = generate_generic((shape([2, 2]),) * 4, MULTIPLICATIVE, seed=1)
        assert check_consistency(problem)
        assert is_generic(problem).generic

    def test_random_shapes_generate_and_verify(self):
        rng = random.Random(31)
        built = 0
        while built < 25:
            n = rng.randint(2, 8)
            shapes = random_shape_tuple(rng, n, rng.randint(2, 4))
            mode = rng.choice([ADDITIVE, MULTIPLICATIVE])
            if mode == ADDITIVE:
                from math import gcd
                from functools import reduce

                mults = [m for s in shapes for m in s.multiplicities()]
                if reduce(gcd, mults) > 1:
                    continue
            problem = generate_generic(shapes, mode, seed=built)
            assert check_consistency(problem)
            assert is_generic(problem).generic
            built += 1

    def test_deterministic_given_seed(self):
        shapes = (shape([2], [1]), shape([1, 1, 1]), shape([3]))
        a = generate_generic(shapes, ADDITIVE, seed=9)
        b = generate_generic(shapes, ADDITIVE, seed=9)
        assert a == b


def _eager_generate(shapes, mode, seed, attempts=32):
    """generate_generic as it was with every prime of every attempt built
    up front."""
    n = shapes[0].n
    slots = [
        (j, l, s.multiplicity(l)) for j, s in enumerate(shapes) for l in range(s.label_count)
    ]
    stream = _primes_from(n * n + 1)
    pool = [next(stream) for _ in range(len(slots) * (attempts + seed + 2))]
    for attempt in range(attempts):
        offset = (seed + attempt) * len(slots)
        qs = pool[offset : offset + max(0, len(slots) - 1)]
        try:
            problem = _assemble_assignment(shapes, mode, slots, qs)
        except (ProblemError, JnfError):
            continue
        if is_generic(problem).generic:
            return problem
    raise GenericAssignmentError("no generic assignment")


def _primes_above(bound, count):
    out, q = [], bound + 1
    while len(out) < count:
        if q > 1 and all(q % d for d in range(2, int(q**0.5) + 1)):
            out.append(q)
        q += 1
    return out


class TestLazyPrimePool:
    SHAPES = [
        (shape([1], [1]),) * 3,
        (shape([2], [1]), shape([1, 1, 1]), shape([3])),
        (shape([1], [2, 1]), shape([1], [1], [1, 1]), shape([2, 1], [1]), shape([4])),
    ]

    @pytest.mark.parametrize("index", range(3))
    @pytest.mark.parametrize("mode", [ADDITIVE, MULTIPLICATIVE])
    def test_matches_eager_construction(self, index, mode):
        shapes = self.SHAPES[index]
        for seed in range(10):
            assert generate_generic(shapes, mode, seed=seed) == _eager_generate(
                shapes, mode, seed
            )

    @pytest.mark.parametrize("mode", [ADDITIVE, MULTIPLICATIVE])
    def test_first_attempt_uses_primes_at_seed_offset(self, mode):
        shapes = self.SHAPES[2]
        n = shapes[0].n
        slots = sum(s.label_count for s in shapes)
        for seed in range(10):
            problem = generate_generic(shapes, mode, seed=seed)
            values = [v for c in problem.classes for v in c.values][:-1]
            parts = [v.re if mode == ADDITIVE else v.angle for v in values]
            expected = _primes_above(n * n, (seed + 1) * slots)[seed * slots :][: slots - 1]
            assert parts == [Fraction(1, q) for q in expected]


class TestPrimeSieve:
    @pytest.mark.parametrize("start", [0, 1, 2])
    def test_small_starts_match_trial_division(self, start):
        primes = _primes_from(start)
        assert [next(primes) for _ in range(3000)] == _primes_above(start - 1, 3000)

    def test_starts_above_n_squared_match_trial_division(self):
        for n in range(2, 41):
            primes = _primes_from(n * n + 1)
            assert [next(primes) for _ in range(100)] == _primes_above(n * n, 100)

    def test_crossing_a_window_boundary(self):
        start = 123 * _SIEVE_WIDTH - 3
        primes = _primes_from(start)
        # about 590 primes per window here: the run crosses two boundaries
        assert [next(primes) for _ in range(1500)] == _primes_above(start - 1, 1500)

    def test_large_start_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        primes = _primes_from(10**12)
        expected, q = [], 10**12 - 1
        for _ in range(20):
            q = sympy.nextprime(q)
            expected.append(q)
        assert [next(primes) for _ in range(20)] == expected


def _prime_form(shapes, mode, qs, k=0):
    """Slot s < last holds 1/q_s (the value, resp. the angle) and the last
    value is (k - sum_s mu_s / q_s) / mu_last, so the problem is consistent
    (additively for k = 0) whatever the q_s."""
    mults = [mu for s in shapes for mu in s.multiplicities()]
    head = sum(Fraction(mu, q) for mu, q in zip(mults, qs))
    parts = [Fraction(1, q) for q in qs] + [(k - head) / mults[-1]]
    values = iter([gr(x) if mode == ADDITIVE else me(x) for x in parts])
    classes = [ClassSpec(s, [next(values) for _ in range(s.label_count)]) for s in shapes]
    return TupleProblem(mode, shapes[0].n, classes)


def _semisimple_family(n):
    """Four classes, each with (n - 2) / 2 labels of multiplicity 2 and two
    simple labels."""
    return (shape(*([[1, 1]] * ((n - 2) // 2) + [[1], [1]])),) * 4


class TestGenerationCertificate:
    """`generate_generic` proves its output generic by `_certify_generic`
    instead of searching it; the exhaustive search is the oracle here."""

    def test_generated_assignments_pass_the_exhaustive_search(self):
        rng = random.Random(14)
        built = 0
        while built < 2000:
            n = rng.randint(2, 9)
            shapes = random_shape_tuple(rng, n, rng.randint(2, 4))
            mode = (ADDITIVE, MULTIPLICATIVE)[built % 2]
            mults = [mu for s in shapes for mu in s.multiplicities()]
            if mode == ADDITIVE and math.gcd(*mults) > 1:
                continue
            problem = generate_generic(shapes, mode, seed=rng.randint(0, 9))
            assert check_consistency(problem)
            assert is_generic(problem).generic
            built += 1

    # name -> (mode, shapes, denominators of every slot but the last, k);
    # each breaks one hypothesis of the certificate and has a relation
    REFUSED = {
        "denominator not above n^2": (
            MULTIPLICATIVE, (shape([2], [3]), shape([5])), (3, 2), 3,
        ),
        "repeated denominators": (
            ADDITIVE, (shape([1], [1]), shape([1], [1]), shape([1, 1])), (5, 7, 5, 7), 0,
        ),
        "one repeated denominator in every class": (
            MULTIPLICATIVE, (shape([1], [1]),) * 5, (5, 7, 5, 11, 5, 13, 5, 17, 5), 3,
        ),
        "k shares a divisor with mu_last": (
            MULTIPLICATIVE, (shape([2]), shape([1, 1])), (5,), 2,
        ),
        "multiplicities share a divisor": (
            ADDITIVE, (shape([2]), shape([1, 1])), (5,), 0,
        ),
    }

    @pytest.mark.parametrize("name", sorted(REFUSED))
    def test_broken_hypothesis_is_refused(self, name):
        mode, shapes, qs, k = self.REFUSED[name]
        problem = _prime_form(shapes, mode, qs, k)
        assert check_consistency(problem)
        assert not is_generic(problem).generic
        with pytest.raises(GenericAssignmentError):
            _certify_generic(problem)

    @pytest.mark.parametrize("mode", [ADDITIVE, MULTIPLICATIVE])
    def test_slot_value_not_one_over_q_is_refused(self, mode):
        shapes = (shape([1], [1]),) * 3
        problem = generate_generic(shapes, mode)
        classes = list(problem.classes)
        v = classes[0].values[0]
        changed = gr(2 * v.re) if mode == ADDITIVE else me(v.angle, 2)
        classes[0] = ClassSpec(classes[0].shape, (changed,) + classes[0].values[1:])
        with pytest.raises(GenericAssignmentError):
            _certify_generic(TupleProblem(mode, problem.n, classes))

    @pytest.mark.parametrize("n", [12, 14, 16])
    @pytest.mark.parametrize("mode", [ADDITIVE, MULTIPLICATIVE])
    def test_semisimple_family_generates_past_the_search_cap(self, n, mode):
        problem = generate_generic(_semisimple_family(n), mode)
        assert check_consistency(problem)
        _certify_generic(problem)
        assert problem.shapes == _semisimple_family(n)

    def test_cap_no_longer_stops_generation(self):
        problem = generate_generic(_semisimple_family(12), ADDITIVE)
        with pytest.raises(RelationSearchCapError):
            is_generic(problem)


class TestReducibleNeedsNonGeneric:
    def test_block_triangular_witnesses_have_nongeneric_classes(self):
        # upper-triangular 2x2 additive tuples with zero row sums: the
        # diagonal entries expose an m=1 relation
        from deligne_simpson import MatrixTuple, class_membership, verify_relation
        from deligne_simpson.linalg import Matrix

        cases = [
            ((1, 2), (2, -5), (-3, 3)),
            ((0, 1), (1, 0), (-1, -1)),
        ]
        for diag1, diag2, diag3 in cases:
            mats = [
                Matrix([[a, 1], [0, b]]) for a, b in (diag1, diag2, diag3)
            ]
            t = MatrixTuple(ADDITIVE, [mats[0], mats[1], -(mats[0] + mats[1])])
            assert verify_relation(t)
            classes = []
            ok = True
            for m in t.matrices:
                a, b = m[0, 0], m[1, 1]
                if a == b:
                    ok = False
                    break
                classes.append(ClassSpec(shape([1], [1]), [a, b]))
            if not ok:
                continue
            assert all(class_membership(m, c) for m, c in zip(t.matrices, classes))
            problem = TupleProblem(ADDITIVE, 2, classes)
            assert not is_generic(problem).generic
