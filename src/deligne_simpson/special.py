"""Search for repeated-block subordinate decompositions at rigidity index 2.

A tuple of classes of size n = l * n1 (n1 > 1) is l-special when every
class has a subordinate class that is the n1-fold direct sum of a size-l
inner class, the inner shape tuple is good, and (in multiplicative mode)
the inner eigenvalues multiply to one; additively the inner sum is zero
automatically.  Special-diagonal requires semisimple inner classes, and
quasi-generic additionally asks for generic inner eigenvalues with only
the forced outer relations present.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

from .criteria import is_good, rigidity_report
from .eigenvalues import (
    DEFAULT_RELATION_CAP,
    TupleProblem,
    check_consistency,
    is_generic,
    relation_counts,
)
from .jnf_core import ClassSpec, JnfShape, Partition, is_subordinate, partitions_of


class SpecialSearchError(ValueError):
    pass


@dataclass(frozen=True)
class SpecialCertificate:
    """Witness of l-specialness for one factorization n = l * n1."""

    l: int
    n1: int
    inner_classes: tuple[ClassSpec, ...]
    subordinate_classes: tuple[ClassSpec, ...]
    diagonal: bool
    inner_kappa: int
    inner_problem: TupleProblem


@dataclass(frozen=True)
class SpecialnessReport:
    special: bool
    special_diagonal: bool
    quasi_generic: bool | None
    certificates: tuple[SpecialCertificate, ...]


def _require_kappa_two(problem: TupleProblem) -> None:
    report = rigidity_report(problem.shapes)
    if report.kappa != 2:
        raise SpecialSearchError(
            f"specialness is defined at rigidity index 2, got {report.kappa}"
        )


def _n_fold_union(partition: Partition, copies: int) -> Partition:
    return Partition(partition.parts * copies)


def _inner_candidates_for_class(spec: ClassSpec, n1: int):
    """Per label: partitions p of mult/n1 whose n1-fold union is dominated
    by the outer partition.  Returns None when some label admits none."""
    per_label: list[list[Partition]] = []
    for label in range(spec.shape.label_count):
        outer = spec.shape.blocks[label]
        mult = outer.size
        if mult % n1:
            return None
        inner_mult = mult // n1
        found = [
            Partition(parts)
            for parts in partitions_of(inner_mult)
            if outer.dominates(_n_fold_union(Partition(parts), n1))
        ]
        if not found:
            return None
        per_label.append(found)
    return per_label


def find_special_certificates(problem: TupleProblem) -> tuple[SpecialCertificate, ...]:
    """All certificates across all factorizations n = l * n1, n1 >= 2.

    The per-eigenvalue inner partitions are enumerated completely, filtered
    by the closure (dominance) condition, then joint choices are filtered by
    inner goodness and the inner identity condition.  Every certificate's
    subordinate class is re-verified through the closure order rather than
    trusted from construction.
    """
    _require_kappa_two(problem)
    n = problem.n
    certificates: list[SpecialCertificate] = []
    for l in range(1, n // 2 + 1):
        if n % l:
            continue
        n1 = n // l
        if n1 < 2:
            continue
        per_class = []
        feasible = True
        for spec in problem.classes:
            cands = _inner_candidates_for_class(spec, n1)
            if cands is None:
                feasible = False
                break
            per_class.append([list(choice) for choice in iter_product(*cands)])
        if not feasible:
            continue
        for joint in iter_product(*per_class):
            cert = _build_certificate(problem, l, n1, joint)
            if cert is not None:
                certificates.append(cert)
    return tuple(certificates)


def _build_certificate(problem, l, n1, joint) -> SpecialCertificate | None:
    inner_shapes = tuple(JnfShape(parts) for parts in joint)
    goodness = is_good(inner_shapes)
    if not goodness.good:
        return None
    inner_classes = tuple(
        ClassSpec(shape, spec.values)
        for shape, spec in zip(inner_shapes, problem.classes)
    )
    inner_problem = TupleProblem(problem.mode, l, inner_classes)
    if not check_consistency(inner_problem):
        # only multiplicatively: the additive inner sum is the outer sum
        # divided by n1, zero for a consistent problem
        return None

    subordinate_classes = []
    for spec, shape in zip(problem.classes, inner_shapes):
        union_shape = JnfShape(
            _n_fold_union(p, n1) for p in shape.blocks
        )
        sub = ClassSpec(union_shape, spec.values)
        check = is_subordinate(sub, spec)
        if not check.holds:
            raise SpecialSearchError(
                f"internal: constructed class not subordinate ({check.reason})"
            )
        subordinate_classes.append(sub)

    inner_kappa = rigidity_report(inner_shapes).kappa
    if inner_kappa != 2:
        raise SpecialSearchError(
            f"internal: inner tuple has rigidity index {inner_kappa}, expected 2"
        )
    diagonal = all(
        all(p.largest == 1 for p in shape.blocks) for shape in inner_shapes
    )
    return SpecialCertificate(
        l=l,
        n1=n1,
        inner_classes=inner_classes,
        subordinate_classes=tuple(subordinate_classes),
        diagonal=diagonal,
        inner_kappa=inner_kappa,
        inner_problem=inner_problem,
    )


def classify_specialness(
    problem: TupleProblem,
    include_quasi_generic: bool = True,
    relation_cap: int = DEFAULT_RELATION_CAP,
) -> SpecialnessReport:
    """Specialness flags for a rigidity-index-2 instance.

    quasi_generic holds when some diagonal certificate has generic inner
    eigenvalues and every outer non-genericity relation is a forced multiple
    s * (inner multiplicities), 1 <= s < n1, of that certificate.  Forced
    multiples are always relations, one at each cardinality m = s * l, and
    complements map relations and forced multiples to their own kind, so
    this holds exactly when the relation count at every m <= n // 2 is 1
    where l divides m and 0 elsewhere.  Pass include_quasi_generic=False to
    skip the relation count.
    """
    certificates = find_special_certificates(problem)
    special = bool(certificates)
    special_diagonal = any(c.diagonal for c in certificates)
    quasi_generic: bool | None = None
    if include_quasi_generic:
        quasi_generic = False
        if special_diagonal:
            counts = relation_counts(problem, cap=relation_cap)
            for cert in certificates:
                if not cert.diagonal:
                    continue
                if not is_generic(cert.inner_problem, cap=relation_cap).generic:
                    continue
                if all(k == (1 if m % cert.l == 0 else 0) for m, k in counts.items()):
                    quasi_generic = True
                    break
    return SpecialnessReport(
        special=special,
        special_diagonal=special_diagonal,
        quasi_generic=quasi_generic,
        certificates=certificates,
    )
