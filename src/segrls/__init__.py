"""Sliding-window recursive least squares with segmented forgetting profiles.

The estimator maintains the inverse of a window-weighted information matrix
through small signed low-rank corrections, one batch per incoming sample.
Segmenting the forgetting profile (fast head, drop, slow tail) keeps the
estimator rapid while the long tail keeps the information matrix well
conditioned.
"""

import importlib.util
import sys

from .errors import (
    CalendarError,
    GapError,
    NotPositiveDefiniteError,
    ParseError,
    RangeError,
    SegrlsError,
    SingularUpdateError,
)
from .estimator import ForecastBand, RlsEstimator
from .harmonic import HarmonicModel, regressor_matrix
from .profile import (
    ExponentialProfile,
    SegmentedProfile,
    UpdateTemplate,
    update_template,
    weights,
)


def _register_lazily(name):
    """``segrls.<name>``, in ``sys.modules`` now; its code runs on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    importlib.util.LazyLoader(spec.loader).exec_module(module)
    return module


reference, verify = map(_register_lazily, ("reference", "verify"))  # only verify, synth use them

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
    "SegmentedProfile",
    "SegrlsError",
    "SingularUpdateError",
    "SyntheticSpec",
    "UpdateTemplate",
    "compare_trajectory",
    "direct_weighted_ls",
    "monte_carlo_bias",
    "regressor_matrix",
    "synth_generate",
    "update_template",
    "weights",
]


def __getattr__(name):
    if name not in __all__:         # the rest of __all__ is reference's, loaded on first use
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(reference, name)
