"""Combinatorial solvability screens on tuples of Jordan shapes.

Three inequalities drive everything: alpha (the class dimensions sum to at
least 2n^2 - 2), beta (every deleted-one-class sum of r-invariants reaches
n), and omega (the full r-sum reaches 2n).  When alpha and beta hold but
omega fails, a size-decreasing reduction applies: pick, in each class, an
eigenvalue with the maximal number of Jordan blocks and shrink its smallest
blocks by one.  A shape tuple is "good" when the reduction chain ends at
size one or at a level satisfying omega; goodness is what the verdict
engine feeds on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .jnf_core import JnfShape, Partition, d_of, r_of


class CriteriaError(ValueError):
    pass


class TieVerdictError(CriteriaError):
    """Exhaustive tie exploration produced disagreeing goodness verdicts."""


TERMINAL_N_EQUALS_1 = "reached_n_equals_1"
TERMINAL_OMEGA = "reached_omega"
TERMINAL_ALPHA_FAILED = "alpha_failed"
TERMINAL_BETA_FAILED = "beta_failed"


@dataclass(frozen=True)
class RigidityReport:
    n: int
    class_count: int
    d_values: tuple[int, ...]
    r_values: tuple[int, ...]
    sum_d: int
    sum_r: int
    kappa: int
    alpha: bool
    beta: bool
    beta_failures: tuple[int, ...]
    omega: bool

    @property
    def expected_dimension(self) -> int:
        """n^2 + 1 - kappa: dimension of the trivial-centralizer solution
        variety whenever it is non-empty."""
        return self.n * self.n + 1 - self.kappa


def rigidity_report(shapes: tuple[JnfShape, ...]) -> RigidityReport:
    """Rigidity index kappa = 2n^2 - sum(d_j) plus the alpha/beta/omega flags."""
    shapes = tuple(shapes)
    if not shapes:
        raise CriteriaError("need at least one shape")
    n = shapes[0].n
    for i, s in enumerate(shapes):
        if s.n != n:
            raise CriteriaError(f"size mismatch: shape {i} has size {s.n}, expected {n}")
    d_values = tuple(d_of(s) for s in shapes)
    r_values = tuple(r_of(s) for s in shapes)
    sum_d, sum_r = sum(d_values), sum(r_values)
    beta_failures = tuple(
        j for j in range(len(shapes)) if sum_r - r_values[j] < n
    )
    return RigidityReport(
        n=n,
        class_count=len(shapes),
        d_values=d_values,
        r_values=r_values,
        sum_d=sum_d,
        sum_r=sum_r,
        kappa=2 * n * n - sum_d,
        alpha=sum_d >= 2 * n * n - 2,
        beta=not beta_failures,
        beta_failures=beta_failures,
        omega=sum_r >= 2 * n,
    )


def max_block_labels(shape: JnfShape) -> tuple[int, ...]:
    """Labels whose block count attains the maximum for the shape."""
    top = shape.max_block_count
    return tuple(i for i in range(shape.label_count) if shape.block_count(i) == top)


def _shrink(
    shapes: tuple[JnfShape, ...], chosen_labels: tuple[int, ...], n1: int
) -> tuple[JnfShape, ...]:
    """The reduction step proper, on a level already known to be reducible
    to size n1: shrink the n - n1 smallest blocks of each chosen label.

    The other labels keep their Partition objects.  Decrementing a suffix
    of descending parts leaves them descending; blocks of size 1 vanish,
    and so does the label when all its blocks do."""
    drop = shapes[0].n - n1
    reduced = []
    for s, lab in zip(shapes, chosen_labels):
        parts = s.blocks[lab].parts
        cut = len(parts) - drop
        if cut < 0:
            raise CriteriaError(
                f"internal: {len(parts)} blocks cannot absorb {drop} decrements"
            )
        shrunk = parts[:cut] + tuple(p - 1 for p in parts[cut:] if p > 1)
        new_blocks = list(s.blocks)
        if shrunk:
            new_blocks[lab] = Partition(shrunk)
        else:
            del new_blocks[lab]
        reduced_shape = JnfShape(new_blocks)
        if reduced_shape.n != n1:
            raise CriteriaError("internal: reduced shape has wrong size")
        reduced.append(reduced_shape)
    return tuple(reduced)


@dataclass(frozen=True)
class PsiStep:
    """One visited level: the tuple at size n, its report, and (when the
    chain continues) the chosen labels and the target size."""

    n: int
    shapes: tuple[JnfShape, ...]
    report: RigidityReport
    chosen_labels: tuple[int, ...] | None
    n1: int | None


@dataclass(frozen=True)
class PsiTrace:
    steps: tuple[PsiStep, ...]
    terminal: str


@dataclass(frozen=True)
class GoodnessResult:
    good: bool
    trace: PsiTrace
    branches_explored: int = 1

    def __bool__(self):
        return self.good


def _level_status(shapes: tuple[JnfShape, ...]):
    """Classify a level: (terminal, good) or (None, n1) when reducible."""
    report = rigidity_report(shapes)
    n = report.n
    if n == 1:
        return report, TERMINAL_N_EQUALS_1, True, None
    if report.omega:
        # omega forces alpha and beta (each d_j >= n * r_j), so stopping
        # here cannot hide a failed necessary condition.
        if not (report.alpha and report.beta):
            raise CriteriaError("internal: omega held while alpha or beta failed")
        return report, TERMINAL_OMEGA, True, None
    if not report.alpha:
        return report, TERMINAL_ALPHA_FAILED, False, None
    if not report.beta:
        return report, TERMINAL_BETA_FAILED, False, None
    # beta gives n1 = sum r - n >= r_j >= 0 for every j, and n1 = 0 would
    # force every r_j = 0, so sum r = 0 < n, against beta: n1 >= 1
    return report, None, None, report.sum_r - n


def is_good(
    shapes: tuple[JnfShape, ...],
    exhaustive_ties: bool = False,
) -> GoodnessResult:
    """Run the reduction chain and report goodness with the full trace.

    Default mode resolves block-count ties by the canonically first label.
    With `exhaustive_ties` every tie branch is explored; the boolean verdict
    must agree across branches, otherwise TieVerdictError is raised.
    """
    shapes = tuple(shapes)
    steps: list[PsiStep] = []
    current = shapes
    while True:
        report, terminal, good, n1 = _level_status(current)
        if terminal is not None:
            steps.append(PsiStep(current[0].n, current, report, None, None))
            trace = PsiTrace(steps=tuple(steps), terminal=terminal)
            break
        chosen = tuple(max_block_labels(s)[0] for s in current)
        steps.append(PsiStep(current[0].n, current, report, chosen, n1))
        current = _shrink(current, chosen, n1)

    branches = 1
    if exhaustive_ties:
        branches = _explore_branches(shapes, good)
    return GoodnessResult(good=good, trace=trace, branches_explored=branches)


def _explore_branches(shapes: tuple[JnfShape, ...], expected: bool) -> int:
    """Walk every tie branch, memoizing per tuple; count distinct tuples."""
    from itertools import product

    memo: dict[tuple[JnfShape, ...], bool] = {}

    def verdict(current: tuple[JnfShape, ...]) -> bool:
        if current in memo:
            return memo[current]
        _, terminal, good, n1 = _level_status(current)
        if terminal is not None:
            memo[current] = good
            return good
        results = set()
        for choice in product(*(max_block_labels(s) for s in current)):
            results.add(verdict(_shrink(current, choice, n1)))
        if len(results) != 1:
            raise TieVerdictError(
                f"tie branches disagree on goodness at tuple {current}"
            )
        memo[current] = results.pop()
        return memo[current]

    final = verdict(shapes)
    if final != expected:
        raise TieVerdictError(
            "canonical tie-break verdict differs from exhaustive exploration"
        )
    return len(memo)
