"""Exception types shared across the package."""


class MixsenseError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(MixsenseError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateMomentError(MixsenseError):
    """Second-moment matrix is rank deficient below the requested number of
    components (too few samples, or duplicate components)."""


class RankCollapseError(MixsenseError):
    """Tensor decomposition found no component with nonzero weight."""


class RankDeficientInitError(MixsenseError):
    """Initialization target matrix does not support the requested rank."""


class PreconditionerSingularError(MixsenseError):
    """A factor Gram matrix became numerically singular during refinement,
    which signals the iterate has left the well-conditioned region.

    When raised from an iteration loop, `trace` carries the per-iteration
    records collected before the abort.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class PipelineStageError(MixsenseError):
    """Wraps an error raised inside a pipeline stage with a stage tag.

    `trace` is the wrapped error's partial trace when it carries one (a
    stage-3 singular abort does), and None otherwise.
    """

    def __init__(self, stage: str, message: str, trace=None):
        self.stage = stage
        self.trace = trace
        super().__init__(f"[{stage}] {message}")


class ConfigError(MixsenseError):
    """Experiment configuration file is malformed or inconsistent."""
