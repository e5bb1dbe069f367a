"""Exact decision and verification tools for tuples of matrices with
prescribed conjugacy classes whose sum is zero or whose product is the
identity."""

from .criteria import (
    GoodnessResult,
    PsiTrace,
    RigidityReport,
    TieVerdictError,
    is_good,
    max_block_labels,
    rigidity_report,
)
from .eigenvalues import (
    ADDITIVE,
    MULTIPLICATIVE,
    GenericAssignmentError,
    GenericityResult,
    MultiplicativeEigenvalue,
    NonGenericityRelation,
    ProblemError,
    RelationSearchCapError,
    TupleProblem,
    check_consistency,
    generate_generic,
    is_generic,
)
from .exactnum import GaussianRational, format_rational, parse_rational
from .jnf_core import (
    ClassSpec,
    JnfShape,
    Partition,
    RankSequence,
    SubordinationResult,
    d_of,
    is_subordinate,
    partitions_of,
    r_of,
    rank_sequence,
)
from .linalg import Matrix
from .solver import (
    SOLVABLE,
    UNKNOWN,
    UNSOLVABLE,
    Verdict,
    apply_subordinate_witness,
    classify,
)
from .special import (
    SpecialCertificate,
    SpecialnessReport,
    SpecialSearchError,
    classify_specialness,
    find_special_certificates,
)
from .witness import (
    AssemblyResult,
    DeformationResult,
    MatrixTuple,
    TangentRank,
    WitnessError,
    WitnessPreconditionError,
    assemble_block_diagonal,
    check_witness,
    class_membership,
    deform_step,
    euler_characteristic,
    is_irreducible,
    local_dimension,
    tangent_rank,
    verify_relation,
)

__version__ = "0.1.0"
