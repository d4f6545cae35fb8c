"""Exception hierarchy for the rlm_coreset package, and its exit-code rule.

Every class carries the exit code the command line returns for it, and
subclasses inherit their parent's: 2 for input the program cannot read or
use, 3 for a value outside its range, a degenerate instance or a coreset
built for another n, and 4 for a numeric failure.
"""

EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4

# the stderr prefix of each exit code's one-line message
PREFIXES = {EXIT_INPUT: "input error", EXIT_DOMAIN: "error", EXIT_NUMERIC: "numeric failure"}


class RlmError(Exception):
    """Base class for all package-specific errors."""
    exit_code = EXIT_DOMAIN


class ZeroObjectiveError(RlmError):
    """The full objective is zero, so the relative error H is undefined."""


class InvalidParameterError(RlmError, ValueError):
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
    exit_code = EXIT_INPUT

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class LabelError(RlmError):
    """A label does not follow the {0,1} or {-1,+1} convention."""
    exit_code = EXIT_INPUT


class NonBinaryLabelsError(RlmError):
    """A CSV label column contains more than two distinct values."""
    exit_code = EXIT_INPUT


class SchemaMismatchError(RlmError):
    """A JSON document lacks the expected schema tag or keys, or does not fit
    the instance it is used with."""
    exit_code = EXIT_INPUT


class NonFiniteError(RlmError):
    """Objective or gradient became non-finite during training."""
    exit_code = EXIT_NUMERIC
