"""Exception types shared across the package."""


class MixsenseError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(MixsenseError, ValueError):
    """An argument violates a documented precondition."""


class NumericalError(MixsenseError):
    """A solver step met a degenerate quantity: a zero or rank-deficient
    moment, a tensor with no component left, a lifted matrix below its rank,
    or a singular factor Gram matrix. The message names which. A stage-3
    abort sets `trace` to the records collected before it; otherwise None.
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
