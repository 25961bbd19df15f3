"""mixsense: recovery of several unknown low-rank matrices from unlabeled
mixed Gaussian linear measurements.

Three stages: joint-subspace estimation from the measurement-weighted
design average, initialization through a compressed mixed linear
regression solved by the tensor method of moments, and per-component
refinement with scaled truncated gradient descent.
"""

from .core import rel_fro_error, subspace_distance
from .errors import (
    ConfigError,
    InvalidInputError,
    MixsenseError,
    NumericalError,
    PipelineStageError,
)
from .pipeline import PipelineConfig, RecoveryReport, run_pipeline
from .spectral import data_matrix, subspace_estimate
from .synth import Dataset, GroundTruth, make_ground_truth, sample_dataset

__version__ = "0.1.0"
