"""Sliding-window recursive least squares with segmented forgetting profiles.

The estimator maintains the inverse of a window-weighted information matrix
through small signed low-rank corrections, one batch per incoming sample.
Segmenting the forgetting profile (fast head, drop, slow tail) keeps the
estimator rapid while the long tail keeps the information matrix well
conditioned.
"""

from .errors import (
    CalendarError,
    GapError,
    NotPositiveDefiniteError,
    ParseError,
    RangeError,
    SegrlsError,
    SingularUpdateError,
)
from .estimator import ForecastBand, RlsEstimator, Sample
from .harmonic import HarmonicModel, make_harmonic_model, regressor_matrix
from .profile import (
    ExponentialProfile,
    SegmentedProfile,
    UpdateTemplate,
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
    "ExponentialProfile",
    "ForecastBand",
    "GapError",
    "HarmonicModel",
    "NotPositiveDefiniteError",
    "ParseError",
    "RangeError",
    "RlsEstimator",
    "Sample",
    "SegmentedProfile",
    "SegrlsError",
    "SingularUpdateError",
    "SyntheticSpec",
    "UpdateTemplate",
    "compare_trajectory",
    "direct_weighted_ls",
    "make_harmonic_model",
    "monte_carlo_bias",
    "regressor_matrix",
    "synth_generate",
    "update_template",
    "weights",
]
