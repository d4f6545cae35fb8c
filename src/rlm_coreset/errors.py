"""Exception hierarchy for the rlm_coreset package."""


class RlmError(Exception):
    """Base class for all package-specific errors."""


class ZeroObjectiveError(RlmError):
    """The full objective is zero, so the relative error H is undefined."""


class InvalidParameterError(RlmError):
    """A numeric parameter is outside its valid range."""


class EmptyDatasetError(RlmError):
    """An operation requires at least one data point."""


class StreamTooShortError(RlmError):
    """The input stream produced no points."""


class DegenerateInstanceError(RlmError):
    """Adversarial instance parameters produce an empty or full cluster."""


class NoChunkFoundError(RlmError):
    """No coreset-free window of the required length exists on the circle."""


class ParseError(RlmError):
    """A dataset file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class LabelError(RlmError):
    """A label does not follow the {0,1} or {-1,+1} convention."""


class NonBinaryLabelsError(RlmError):
    """A CSV label column contains more than two distinct values."""


class SchemaMismatchError(RlmError):
    """A JSON document lacks the expected schema tag or keys, or does not fit
    the instance it is used with."""


class NonFiniteError(RlmError):
    """Objective or gradient became non-finite during training."""
