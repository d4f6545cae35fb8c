"""Uniform-sampling coresets for regularized loss minimization."""

from .errors import (
    DegenerateInstanceError,
    EmptyDatasetError,
    InvalidParameterError,
    LabelError,
    NoChunkFoundError,
    NonBinaryLabelsError,
    NonFiniteError,
    ParseError,
    RlmError,
    SchemaMismatchError,
    StreamTooShortError,
    ZeroObjectiveError,
)
from .model import (
    Hypothesis,
    LossKind,
    RegularizerKind,
    RlmInstance,
    WeightedCoreset,
    approximation_error,
    check_weight_sum,
    coreset_objective,
    full_objective,
    loss_eval,
    reg_eval,
    softplus,
)
from .sampling import (
    RNG_ALGORITHM,
    ReservoirSampler,
    SampleMode,
    stream_sample,
    uniform_sample,
)
from .sensitivity import (
    ScalingConstants,
    SensitivityProfile,
    check_scaling,
    sample_size,
    scaling_constants,
    sensitivity_upper_bound,
    total_sensitivity_default,
)

__version__ = "0.1.0"
