"""Sliding-window recursive least squares with segmented forgetting profiles.

The estimator maintains the inverse of a window-weighted information matrix
through small signed low-rank corrections, one batch per incoming sample.
Segmenting the forgetting profile (fast head, drop, slow tail) keeps the
estimator rapid while the long tail keeps the information matrix well
conditioned.
"""

from .errors import (
    CalendarError,
    DegenerateColumnError,
    DimensionError,
    DropConditionError,
    GapError,
    IndexGapError,
    InsufficientDataError,
    IntermediateSingularityError,
    NotPositiveDefiniteError,
    NyquistError,
    ParseError,
    RangeError,
    SegrlsError,
    SingularUpdateError,
    WindowError,
    WindowTooSmallError,
)
from .estimator import ForecastBand, HorizonPoint, RlsEstimator, Sample
from .harmonic import (
    HarmonicModel,
    make_harmonic_model,
    predict,
    predict_first_harmonic,
    regressor_at,
    regressor_matrix,
)
from .profile import (
    ExponentialProfile,
    SegmentedProfile,
    UpdateTemplate,
    drop_ratio,
    make_segmented,
    update_template,
    weights,
)
from .reference import (
    SyntheticSpec,
    compare_trajectory,
    direct_weighted_ls,
    monte_carlo_bias,
    synth_generate,
)

__version__ = "0.1.0"

__all__ = [
    "CalendarError",
    "DegenerateColumnError",
    "DimensionError",
    "DropConditionError",
    "ExponentialProfile",
    "ForecastBand",
    "GapError",
    "HarmonicModel",
    "HorizonPoint",
    "IndexGapError",
    "InsufficientDataError",
    "IntermediateSingularityError",
    "NotPositiveDefiniteError",
    "NyquistError",
    "ParseError",
    "RangeError",
    "RlsEstimator",
    "Sample",
    "SegmentedProfile",
    "SegrlsError",
    "SingularUpdateError",
    "SyntheticSpec",
    "UpdateTemplate",
    "WindowError",
    "WindowTooSmallError",
    "compare_trajectory",
    "direct_weighted_ls",
    "drop_ratio",
    "make_harmonic_model",
    "make_segmented",
    "monte_carlo_bias",
    "predict",
    "predict_first_harmonic",
    "regressor_at",
    "regressor_matrix",
    "synth_generate",
    "update_template",
    "weights",
]
