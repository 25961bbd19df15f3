"""mixsense: recovery of several unknown low-rank matrices from unlabeled
mixed Gaussian linear measurements.

Three stages: joint-subspace estimation from the measurement-weighted
design average, initialization through a compressed mixed linear
regression solved by the tensor method of moments, and per-component
refinement with scaled truncated gradient descent.
"""

from .core import (
    SvdResult,
    finite_quantile,
    rel_fro_error,
    subspace_distance,
    svd,
    truncated_gaussian_second_moment,
    unvec,
    vec,
)
from .errors import (
    ConfigError,
    DegenerateMomentError,
    DegenerateWhiteningError,
    InvalidInputError,
    MixsenseError,
    PipelineStageError,
    PreconditionerSingularError,
    RankCollapseError,
    RankDeficientInitError,
)
from .initialization import (
    FactorPair,
    InitializationResult,
    compress_samples,
    estimate_component_ranks,
    initialize_all,
    lift_and_factor,
)
from .mlr_tensor import (
    MlrEstimate,
    MomentSet,
    VecSamples,
    Whitening,
    moments,
    robust_tensor_power,
    solve_mlr,
    split_mask,
    third_moment_correction,
    unwhiten,
    whiten,
)
from .pipeline import (
    AlignmentResult,
    PipelineConfig,
    RecoveryReport,
    align_components,
    default_params,
    run_pipeline,
)
from .scaledtgd import (
    TgdConfig,
    TgdRun,
    TgdTrace,
    residuals,
    run_scaledtgd,
    scaledtgd_step,
    truncation_set,
)
from .spectral import SubspaceEstimate, data_matrix, estimate_rank, subspace_estimate
from .synth import (
    Component,
    Dataset,
    GroundTruth,
    check_assumption1,
    incoherence,
    make_ground_truth,
    random_orthonormal,
    sample_dataset,
)

__version__ = "0.1.0"
