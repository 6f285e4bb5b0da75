"""Grid-level Wick calculus for centered Gaussian processes."""

import logging

from .covariance import (
    BrownianMotion,
    FractionalBrownianMotion,
    GramContext,
    SumModel,
    TimeGrid,
    WeightedFbm,
    build_gram,
    sample_increments,
)
from .firstchaos import (
    SubspaceGeometry,
    TruncationOperator,
    jensen_counterexample,
    max_correlation,
    operator_norm,
)
from .chaos import (
    ChaosVector,
    SymmetricTensor,
    WickCombo,
    chaos_inner,
    evaluate_chaos_on_sample,
    random_chaos,
    s_transform,
    sym_insert_last,
    symmetrize_full,
    tensor_inner,
    wick_exponential_chaos,
    wick_truncation_tail_sq,
)
from .qce import (
    DomainDiagnostic,
    ShiftContext,
    contract_with_shift,
    domain_diagnostic,
    escape_direction,
    shifted_qce,
)
from .skorokhod import (
    ChaosField,
    SimpleIntegrand,
    cm_pathwise_integral,
    simple_to_chaos_field,
    skorokhod_chaos,
    skorokhod_simple,
    verify_s_transform_identity,
)
from .bsde import (
    BSDEProblem,
    BSDESolution,
    Example33Report,
    NonexistenceCertificate,
    example33_residual,
    integrating_factor,
    nonexistence_certificate,
    represent_Y,
    represent_solution,
    verify_solution_weak,
    wick_exponential_solution,
)
from .fraccalc import (
    AppendixReport,
    FuncOnGrid,
    appendix_reconstruction_check,
    calibrate_c_h,
    cm_truncate_fbm,
    cm_truncate_fbm_high,
    cosine_mesh,
    gauss_2f1,
    hh_step_norm,
    kstar,
    rl_integral,
    uniform_mesh,
)

__version__ = "0.1.0"

# the library logs nothing unless an application configures this logger
logging.getLogger(__name__).addHandler(logging.NullHandler())
