"""framedual: a finite-dimensional workbench for frame duality under
projective unitary representations of finite groups.

The package builds groups and unit-circle 2-cocycles, regular and Gabor
projective representations and their subrepresentations, classifies orbits
as frames / Riesz sequences through the spectrum of the frame operator,
computes commutants and generated von Neumann algebras, and machine-checks
the duality between a representation and a commuting partner on the other
side of the commutant.
"""

from .duality import (
    CommutingPairCheck,
    DualPairReport,
    DualityVerdict,
    PairCertificate,
    SweepReport,
    certify_dual_pair,
    duality_sweep,
    is_commuting_pair,
    make_gabor_pair,
    make_regular_pair,
    make_regular_subpair,
    pair_certificate,
    verify_duality,
)
from .errors import (
    CompletionExhaustedError,
    ConstructionFailureError,
    FrameDualError,
    InvalidPairError,
    InvalidParameterError,
    NoWitnessError,
    NotInvariantError,
    NotProjectiveError,
    ParameterizationError,
    RouteDisagreementError,
    SearchExhaustedError,
)
from .frames import (
    BlockClassification,
    DilationResult,
    FrameClassification,
    analysis_op,
    bessel_parameterize,
    classify,
    classify_block,
    dilate_to_complete,
    frame_operator,
    gram_matrix,
    orthogonal_range_witness,
    parseval_normalize,
    pi_orthogonal,
    pi_weakly_equivalent,
)
from .gabor import GaborLattice, adjoint_lattice, gabor_rep, modulation, translation, zak_transform
from .groups import (
    FiniteGroup,
    Multiplier,
    MultiplierValidation,
    certify_multiplier,
    conjugate_multiplier,
    cyclic_group,
    direct_product,
    from_cayley_table,
    heisenberg_multiplier,
    trivial_multiplier,
    validate_multiplier,
)
from .linalg import Subspace, hermitian_eig, psd_power, rank_and_range, subspace_equal, subspace_perp
from .reps import (
    IsotypicDecomposition,
    ProjectiveRep,
    RepVerification,
    character_subrep,
    left_regular,
    monomial_rep,
    right_regular,
    subrepresentation,
    verify_rep,
)
from .vonneumann import OperatorSubspace, contains

__version__ = "0.1.0"
