"""Verdict engine: combine the screens into a classified answer.

The rule chain, in order: size one is always solvable; for generic
eigenvalues solvability is equivalent to goodness of the shape tuple (and
the trivial-centralizer variant coincides, since reducible tuples need a
non-genericity relation); at rigidity index 2 a non-good tuple rules out
both problems; a special tuple rules out irreducible solutions; a
special-diagonal tuple also rules out trivial-centralizer solutions.
Anything the theory does not decide stays "unknown".
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .criteria import GoodnessResult, RigidityReport, is_good, rigidity_report
from .eigenvalues import (
    GenericityResult,
    ProblemError,
    RelationSearchCapError,
    TupleProblem,
    DEFAULT_RELATION_CAP,
    _require_consistency,
    find_first_relation,
)
from .jnf_core import ClassSpec, is_subordinate
from .special import SpecialnessReport, classify_specialness
from .witness import check_witness

SOLVABLE = "solvable"
UNSOLVABLE = "unsolvable"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Rule:
    name: str
    statement: str
    detail: str = ""


RULE_SIZE_ONE = Rule(
    "size-one",
    "Size-one problems are solvable by definition once the eigenvalue "
    "consistency condition holds.",
)
RULE_GENERIC = Rule(
    "generic-eigenvalues",
    "For generic eigenvalues the problem is solvable exactly when the shape "
    "tuple is good; reducible tuples require a non-genericity relation, so "
    "the trivial-centralizer verdict coincides.",
)
RULE_GOOD_NECESSARY = Rule(
    "goodness-necessary-at-rigidity-two",
    "At rigidity index 2 a good shape tuple is necessary for a "
    "trivial-centralizer solution; failing goodness rules out both problems.",
)
RULE_SPECIAL = Rule(
    "special-obstruction",
    "A special tuple admits block-diagonal solutions inside strictly "
    "subordinate classes; at rigidity index 2 irreducible and reducible "
    "solutions cannot coexist, so no irreducible solution exists.",
)
RULE_SPECIAL_DIAGONAL = Rule(
    "special-diagonal-obstruction",
    "For special-diagonal tuples no solution with trivial centralizer exists.",
)
RULE_SUBORDINATE_WITNESS = Rule(
    "subordinate-solution-obstruction",
    "An explicit solution in subordinate classes, strictly lower for at "
    "least one puncture, rules out irreducible solutions at rigidity index 2.",
)


@dataclass(frozen=True)
class Verdict:
    dsp: str
    weak_dsp: str
    justification: tuple[Rule, ...]
    rigidity: RigidityReport
    good: GoodnessResult
    genericity: GenericityResult | None
    genericity_note: str | None
    specialness: SpecialnessReport | None


def classify(
    problem: TupleProblem,
    relation_cap: int = DEFAULT_RELATION_CAP,
    exhaustive_ties: bool = False,
) -> Verdict:
    """Classify solvability of both problem variants with justifications."""
    _require_consistency(problem)
    report = rigidity_report(problem.shapes)
    goodres = is_good(problem.shapes, exhaustive_ties=exhaustive_ties)

    genericity: GenericityResult | None
    note: str | None = None
    try:
        # consistency is checked above, so the search alone decides
        witness = find_first_relation(problem, cap=relation_cap)
        genericity = GenericityResult(generic=witness is None, witness=witness)
    except RelationSearchCapError as exc:
        genericity = None
        note = f"genericity undetermined: {exc}"

    dsp = weak = UNKNOWN
    rules: list[Rule] = []
    specialness: SpecialnessReport | None = None

    if problem.n == 1:
        dsp = weak = SOLVABLE
        rules.append(RULE_SIZE_ONE)
    elif genericity is not None and genericity.generic:
        verdict = SOLVABLE if goodres.good else UNSOLVABLE
        dsp = weak = verdict
        rules.append(
            Rule(
                RULE_GENERIC.name,
                RULE_GENERIC.statement,
                f"shape tuple is {'good' if goodres.good else 'not good'} "
                f"(chain terminal: {goodres.trace.terminal})",
            )
        )
    elif report.kappa == 2:
        if not goodres.good:
            dsp = weak = UNSOLVABLE
            rules.append(
                Rule(
                    RULE_GOOD_NECESSARY.name,
                    RULE_GOOD_NECESSARY.statement,
                    f"chain terminal: {goodres.trace.terminal}",
                )
            )
        else:
            specialness = classify_specialness(
                problem, include_quasi_generic=False, relation_cap=relation_cap
            )
            if specialness.special:
                cert = specialness.certificates[0]
                dsp = UNSOLVABLE
                rules.append(
                    Rule(
                        RULE_SPECIAL.name,
                        RULE_SPECIAL.statement,
                        f"certificate: l={cert.l}, n1={cert.n1}, "
                        f"diagonal={cert.diagonal}",
                    )
                )
            if specialness.special_diagonal:
                weak = UNSOLVABLE
                rules.append(RULE_SPECIAL_DIAGONAL)

    if dsp == SOLVABLE and weak == UNKNOWN:
        weak = SOLVABLE
    if dsp == SOLVABLE and weak == UNSOLVABLE:
        raise ProblemError("internal: solvable DSP with unsolvable weak DSP")

    return Verdict(
        dsp=dsp,
        weak_dsp=weak,
        justification=tuple(rules),
        rigidity=report,
        good=goodres,
        genericity=genericity,
        genericity_note=note,
        specialness=specialness,
    )


def apply_subordinate_witness(
    problem: TupleProblem,
    witness_tuple,
    witness_classes: tuple[ClassSpec, ...],
    base_verdict: Verdict,
) -> Verdict:
    """Strengthen `base_verdict`, the problem's `classify` verdict, with an
    explicit subordinate solution.

    Checks: rigidity index 2; each witness class subordinate to the problem
    class with at least one strictly lower; the witness satisfies the
    defining relation and realizes exactly the witness classes.  On success
    the irreducible problem is unsolvable.
    """
    report = base_verdict.rigidity
    if report.kappa != 2:
        raise ProblemError(
            f"subordinate-solution rule needs rigidity index 2, got {report.kappa}"
        )
    witness_classes = tuple(witness_classes)
    if len(witness_classes) != problem.class_count:
        raise ProblemError("one witness class per problem class is required")
    any_proper = False
    for j, (wc, pc) in enumerate(zip(witness_classes, problem.classes)):
        check = is_subordinate(wc, pc)
        if not check.holds:
            raise ProblemError(
                f"witness class {j} is not subordinate to the problem class: "
                f"{check.reason}"
            )
        if check.proper:
            any_proper = True
    if not any_proper:
        raise ProblemError(
            "witness classes all equal the problem classes; no obstruction follows"
        )
    relation, memberships = check_witness(
        witness_tuple, TupleProblem(problem.mode, problem.n, witness_classes)
    )
    if not relation:
        raise ProblemError("witness tuple does not satisfy the defining relation")
    if not all(memberships):
        j = memberships.index(False)
        raise ProblemError(f"witness matrix {j} is not in witness class {j}")

    if base_verdict.weak_dsp == SOLVABLE:
        raise ProblemError(
            "internal: subordinate witness contradicts a solvable weak verdict"
        )
    return replace(
        base_verdict,
        dsp=UNSOLVABLE,
        justification=base_verdict.justification + (RULE_SUBORDINATE_WITNESS,),
    )
