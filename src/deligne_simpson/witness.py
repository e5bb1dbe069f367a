"""Verification of explicit matrix tuples over Gaussian rationals.

Covers the defining relation (sum zero / product one), class membership by
exact rank tests, centralizer dimension, the commutator-map surjectivity
criterion, irreducibility via generated-algebra dimension, local dimension
of the solution variety, the Euler-characteristic cross-check, block
diagonal assembly with an explicit centralizing certificate, and the
first-order deformation step with an exact residual bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactnum import GR_ONE, GR_ZERO, GaussianRational
from .eigenvalues import MultiplicativeEigenvalue, TupleProblem, _mode_of
from .jnf_core import ClassSpec, d_of, rank_sequence
from .linalg import (
    Matrix,
    SingularMatrixError,
    algebra_dimension,
    commutator_operator,
    is_invertible,
    left_divide,
    rank,
    sl_element,
    solve_first,
    tangent_ranks,
    vec,
)


class WitnessError(ValueError):
    pass


class WitnessPreconditionError(WitnessError):
    pass


class DeformationError(WitnessError):
    pass


class WitnessMismatchError(WitnessError):
    """A witness of another mode, size or number of matrices than its problem."""


class MatrixTuple:
    """Mode-tagged tuple of equally sized square matrices.

    Multiplicative tuples must consist of invertible matrices; this is
    checked eagerly at construction.
    """

    __slots__ = ("mode", "matrices")

    def __init__(self, mode: str, matrices: Sequence[Matrix]):
        matrices = tuple(matrices)
        known = _mode_of(mode)
        if known is None:
            raise WitnessError(f"unknown mode {mode!r}")
        if not matrices:
            raise WitnessError("a tuple needs at least one matrix")
        n = matrices[0].nrows
        for j, m in enumerate(matrices):
            if not isinstance(m, Matrix):
                raise WitnessError(f"entry {j} is not a Matrix")
            if not m.is_square or m.nrows != n:
                raise WitnessError(f"matrix {j} is not {n}x{n}")
        object.__setattr__(self, "matrices", matrices)
        if known.invertible:
            for j, m in enumerate(matrices):
                if not is_invertible(m):
                    raise WitnessError(f"matrix {j} is singular in multiplicative mode")
        object.__setattr__(self, "mode", known)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixTuple is immutable")

    @property
    def n(self) -> int:
        return self.matrices[0].nrows

    @property
    def count(self) -> int:
        return len(self.matrices)

    def __eq__(self, other):
        return (
            isinstance(other, MatrixTuple)
            and self.mode == other.mode
            and self.matrices == other.matrices
        )

    def __repr__(self):
        return f"MatrixTuple({self.mode}, {self.count} matrices of size {self.n})"


def verify_relation(t: MatrixTuple) -> bool:
    """Exact check of sum = 0 (additive) or product = identity."""
    return t.mode.residual(t.matrices).is_zero()


def eigenvalue_as_gaussian(value) -> GaussianRational:
    """Embed an eigenvalue into Q(i) when possible.

    Angle/magnitude values embed exactly when the angle is a multiple of
    1/4; anything else cannot be an entry of a Gaussian-rational matrix
    computation and is rejected.
    """
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, MultiplicativeEigenvalue):
        quarter = value.angle * 4
        if quarter.denominator != 1:
            raise WitnessError(
                f"eigenvalue angle {value.angle} is not a multiple of 1/4; "
                "it has no Gaussian-rational embedding to test against"
            )
        unit = [GR_ONE, GaussianRational(0, 1), -GR_ONE, GaussianRational(0, -1)][
            quarter.numerator % 4
        ]
        return unit * value.magnitude
    raise WitnessError(f"cannot interpret eigenvalue {value!r}")


def class_membership(matrix: Matrix, spec: ClassSpec) -> bool:
    """Does the matrix realize exactly the declared class?

    For each declared eigenvalue the ranks of the shifted powers must match
    the shape's rank sequence up to the largest declared block.  Declared
    multiplicities summing to the full size make this complete: any hidden
    Jordan structure would push some rank above its target.
    """
    if not matrix.is_square or matrix.nrows != spec.n:
        raise WitnessError(
            f"matrix is {matrix.nrows}x{matrix.ncols}, class has size {spec.n}"
        )
    for label, value in enumerate(spec.values):
        lam = eigenvalue_as_gaussian(value)
        expected = rank_sequence(spec.shape, label)
        shifted = matrix.minus_scalar(lam)
        power = shifted
        for k in range(1, len(expected.values) + 1):
            if rank(power) != expected.values[k - 1]:
                return False
            if k < len(expected.values):
                power = power * shifted
    return True


@dataclass(frozen=True)
class TangentRank:
    rank: int
    centralizer_dimension: int
    surjective_without_last: bool | None


def tangent_rank(t: MatrixTuple) -> TangentRank:
    """The rank of the tangent map (X_1..X_k) -> sum of [M_j, X_j].

    The centralizer {X : XM_j = M_jX for all j} is the trace-form orthogonal
    complement of the map's image, so its dimension is n^2 minus the rank;
    1 means trivial.  The columns of matrix j are the (n^2 - 1) trace-zero
    inputs of X_j, so the first (k - 1)(n^2 - 1) columns are the map of the
    first k - 1 matrices alone, and the pivots among them count its rank.
    That sub-map is onto the trace-zero matrices (commutators land there)
    exactly when its rank is n^2 - 1; None for a single matrix.
    `linalg.tangent_ranks` gives both ranks.
    """
    n2 = t.n * t.n
    whole, leading = tangent_ranks(t.matrices, max(t.count - 1, 1))
    return TangentRank(whole, n2 - whole, None if t.count == 1 else leading == n2 - 1)


@dataclass(frozen=True)
class IrreducibilityReport:
    irreducible: bool
    algebra_dimension: int

    def __bool__(self):
        return self.irreducible


def is_irreducible(t: MatrixTuple, relation: bool | None = None) -> IrreducibilityReport:
    """Burnside test: the unital algebra generated by the tuple has full
    dimension n^2 exactly when no common proper invariant subspace exists.

    When the relation holds the last matrix lies in the algebra of the
    others, A_k = -(A_1 + .. + A_(k-1)) or M_k = P^-1 for P = M_1 .. M_(k-1),
    a polynomial in P by Cayley-Hamilton, so the closure leaves it out; when
    the relation fails every matrix is kept.  `relation` is
    `verify_relation(t)` when the caller has decided it already."""
    if relation is None:
        relation = verify_relation(t)
    keep = t.count - 1 if t.count > 1 and relation else t.count
    dim = algebra_dimension(t.matrices[:keep])
    return IrreducibilityReport(irreducible=dim == t.n * t.n, algebra_dimension=dim)


def check_witness(t: MatrixTuple, problem: TupleProblem) -> tuple[bool, list[bool]]:
    """The defining relation and each matrix's membership in its class, or
    WitnessMismatchError.  `problem` may be any object with a TupleProblem's
    `mode`, `n` and `classes`, e.g. to hold multiplicative classes with
    Gaussian values such as 1+i."""
    if t.mode != problem.mode or t.n != problem.n or t.count != len(problem.classes):
        raise WitnessMismatchError("witness mode/size/class count does not match the problem")
    return verify_relation(t), [
        class_membership(m, c) for m, c in zip(t.matrices, problem.classes)
    ]


def local_dimension(t: MatrixTuple, problem: TupleProblem) -> int:
    """Dimension of the solution variety at the given point.

    Computed as sum of class dimensions minus the rank of the summed
    tangent map (Y_1..Y_k) -> sum of [M_j, Y_j]; at points with trivial
    centralizer that rank is n^2 - 1 and the value reduces to n^2 + 1 - kappa.
    """
    relation, memberships = check_witness(t, problem)
    if not relation:
        raise WitnessPreconditionError("tuple does not satisfy its defining relation")
    if not all(memberships):
        raise WitnessPreconditionError(
            f"matrix {memberships.index(False)} is not in its declared class"
        )
    return sum(d_of(c.shape) for c in problem.classes) - tangent_rank(t).rank


def euler_characteristic(t: MatrixTuple) -> int:
    """2n^2 minus the per-matrix class dimensions, each computed from the
    matrix itself as the rank of X -> [M_j, X]; equals the rigidity index
    of the tuple's classes."""
    return 2 * t.n * t.n - sum(tangent_ranks((m,), 1)[0] for m in t.matrices)


@dataclass(frozen=True)
class AssemblyResult:
    assembled: MatrixTuple
    certificate: Matrix


def assemble_block_diagonal(block_tuple: MatrixTuple, copies: int) -> AssemblyResult:
    """Repeat each matrix `copies` times along the diagonal.

    The certificate is the block matrix with an identity block in block
    position (1, copies) and zeros elsewhere; it commutes with every
    assembled matrix, exhibiting a non-scalar centralizer element whenever
    copies >= 2.
    """
    if copies < 1:
        raise WitnessError(f"copies must be >= 1, got {copies}")
    if not verify_relation(block_tuple):
        raise WitnessError("block tuple does not satisfy its defining relation")
    l = block_tuple.n
    n = l * copies
    assembled = []
    for m in block_tuple.matrices:
        rows = [[GR_ZERO] * n for _ in range(n)]
        for b in range(copies):
            for i in range(l):
                for j in range(l):
                    rows[b * l + i][b * l + j] = m[i, j]
        assembled.append(Matrix(rows))
    cert_rows = [[GR_ZERO] * n for _ in range(n)]
    for i in range(l):
        cert_rows[i][(copies - 1) * l + i] = GR_ONE
    certificate = Matrix(cert_rows)
    tup = MatrixTuple(block_tuple.mode, assembled)
    for m in tup.matrices:
        if m * certificate != certificate * m:
            raise WitnessError("internal: certificate fails to commute")
    return AssemblyResult(assembled=tup, certificate=certificate)


@dataclass(frozen=True)
class DeformationResult:
    deformed: MatrixTuple
    x_matrices: tuple[Matrix, ...]
    residual: Fraction
    bound: Fraction | None


def deform_step(
    base: MatrixTuple, directions: Sequence[Matrix], epsilon: Fraction
) -> DeformationResult:
    """First-order deformation of a trivial-centralizer base tuple that
    satisfies its relation: solve the matching system and conjugate.

    `directions` are the per-matrix drift matrices N_j; they must satisfy
    tr(sum of L_j N_j R_j) = 0, where L_j and R_j are the products of the
    base matrices before and after M_j in multiplicative mode and
    identities in additive mode.  At a relation point R_j L_j = M_j^-1, so
    this is the first-order determinant condition sum of tr(M_j^-1 N_j) = 0
    multiplicatively and tr(sum of N_j) = 0 additively.

    Find trace-zero X_j with sum of L_j [M_j, X_j] R_j = -sum of L_j N_j R_j,
    then return (I + eps X_j)^-1 (M_j + eps N_j) (I + eps X_j).  The defining
    relation then fails only at second order; the exact residual is
    reported together with a proven residual <= bound (= K eps^2) whenever
    eps ||X_j|| < 1.

    Only the first k - 1 blocks are solved for; X_k = 0, so M_k + eps N_k
    is returned as it is.  Once the relation holds, the map of the first
    k - 1 matrices has the same image as the whole map:
      - additively, [M_k, X] = -sum over j < k of [M_j, X];
      - multiplicatively, block j's image is Ad_(L_j) of the image of
        Ad_(M_j) - 1, whose trace-form complement is the centralizer of
        P_j P_(j-1)^-1 with P_j = M_1 .. M_j; these elements for j < k
        generate the same group as all k of them, because P_k = I makes
        P_k P_(k-1)^-1 = P_(k-1)^-1.
    So both maps have the same rank and the same lex-first pivot columns,
    none of them in block k, and the solution with every free variable
    zero is the sub-solution extended by X_k = 0.  One elimination of
    the sub-map decides both the centralizer (its rank is n^2 - 1 exactly
    when the centralizer is trivial, outer factors or not, because its
    image is the complement of the centralizer) and the solution.  For
    k = 1 the sub-map maps no matrices and has rank 0.

    Each other matrix is conjugated by one elimination of [C | T C], with
    C = I + eps X_j and T = M_j + eps N_j, which leaves C^-1 T C.
    """
    n = base.n
    eps = Fraction(epsilon)
    directions = tuple(directions)
    if len(directions) != base.count:
        raise DeformationError("one direction per base matrix is required")
    for d in directions:
        if not d.is_square or d.nrows != n:
            raise DeformationError("direction size mismatch")
    if not verify_relation(base):
        raise DeformationError("base tuple does not satisfy its defining relation")

    # the (L_j, R_j) pairs, or None for identities
    outer = base.mode.outer_factors(base.matrices)
    drift = Matrix.zeros(n, n)
    for j, d in enumerate(directions):
        drift = drift + (d if outer is None else outer[j][0] * d * outer[j][1])
    leading = base.matrices[:-1]
    if leading:
        coords, map_rank = solve_first(
            commutator_operator(leading, outer and outer[:-1]), vec(-drift)
        )
    else:
        coords, map_rank = [], 0
    if map_rank != n * n - 1:
        raise DeformationError("base tuple has a non-trivial centralizer")
    if drift.trace() != GR_ZERO:
        raise DeformationError("direction constraint tr(sum L_j N_j R_j) = 0 fails")
    if coords is None:
        raise DeformationError("first-order system is unsolvable")
    x_matrices = [sl_element(n, coords, j) for j in range(len(leading))]
    x_matrices.append(Matrix.zeros(n, n))

    deformed = []
    for m, d, x in zip(leading, directions, x_matrices):
        conj = Matrix.identity(n) + x.scale(eps)
        try:
            deformed.append(left_divide(conj, (m + d.scale(eps)) * conj))
        except SingularMatrixError as exc:
            raise DeformationError("epsilon too large: I + eps X is singular") from exc
    deformed.append(base.matrices[-1] + directions[-1].scale(eps))

    residual = base.mode.residual(deformed).norm_rowsum()
    bound = _residual_bound(base, directions, x_matrices, eps)
    try:
        deformed_tuple = MatrixTuple(base.mode, deformed)
    except WitnessError as exc:
        raise DeformationError(f"deformed tuple invalid: {exc}") from exc
    return DeformationResult(
        deformed=deformed_tuple,
        x_matrices=tuple(x_matrices),
        residual=residual,
        bound=bound,
    )


def _residual_bound(base, directions, x_matrices, eps: Fraction) -> Fraction | None:
    """Exact K eps^2 style bound on the relation residual, valid while
    eps ||X_j|| < 1 for every j.  The mode combines (M_j, N_j, X_j, ||M_j||,
    rho_j): eps^2 sum rho_j, resp. prod (||M_j|| + eps f_j + eps^2 rho_j)
    beyond its first order, f_j = ||N_j + [M_j, X_j]||."""
    abs_eps = abs(eps)
    steps = [
        (m, d, x, m.norm_rowsum(), d.norm_rowsum(), x.norm_rowsum())
        for m, d, x in zip(base.matrices, directions, x_matrices)
    ]
    if any(abs_eps * nx >= 1 for *_, nx in steps):
        return None
    return base.mode.bound(abs_eps, [
        (m, d, x, na, 2 * nx * (nd + nx * na) / (1 - abs_eps * nx))
        for m, d, x, na, nd, nx in steps
    ])
