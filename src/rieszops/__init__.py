"""Operators defined by Riesz-basis pairs at finite truncation.

Build a biorthogonal pair (phi_n, psi_n) from an invertible generator,
materialize the weighted operators H and S, the metric square roots, the
similarity transform h, and the generalized ladder operators, and verify
every identity relating them against closed-form oracles or residual checks.
"""

from .basis import (
    RieszBasisPair,
    expand,
    frame_inequality_check,
    from_generator,
    reconstruction_residual,
    verify_biorthogonality,
)
from .domains import DEFAULT_N_MAX, DomainVerdict, summability_verdict
from .factory import (
    OperatorBundle,
    build_bundle,
    check_adjoint_pair,
    check_eigen_action,
    check_intertwining,
    check_metric_pair,
    check_norm_bound,
    check_weighted_action,
    quasi_hermitian_symmetry,
    rank_one_sum,
)
from .ladder import (
    LadderPair,
    build_ladder,
    check_ladder_actions,
    check_ladder_adjoints,
    check_products,
    factorize_from_alpha,
)
from .linalg import DEFAULT_TOL, LinalgError, operator_norm
from .models import (
    ProjectionModel,
    ThreeLevelModel,
    projection_model,
    three_level,
    three_level_hat_spectrum,
    three_level_ladder_closed_forms,
)
from .report import CheckResult, VerificationReport
from .sequences import (
    SequenceSpec,
    affine,
    explicit,
    geometric,
    harmonic,
    parse_spec,
    poly,
    sqrt_poly,
)
from .similarity import (
    check_selfadjoint_h,
    check_similarity_consistency,
    check_transported_eigenbasis,
    onb_in_HS,
)
from .suites import (
    projection_report,
    random_report,
    sweep_projection,
    sweep_three_level,
    three_level_report,
)

__version__ = "0.1.0"
