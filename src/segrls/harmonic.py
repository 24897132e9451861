"""Harmonic regression model: frequency grid and regressor rows.

The regressor at time index k is [1, cos(q_0 k), sin(q_0 k), ...,
cos(q_h k), sin(q_h k)] with q_i = 2*pi*(i+1)/T, so a parameter vector is
ordered [dc, a_0, b_0, ..., a_h, b_h].  ``regressor_matrix`` is the only
place the package takes these cosines and sines.  Angles are computed
directly from k (no incremental rotation), so a row built again, alone or in
a block, is the same to the bit.  The estimator forms the predictions
phi_k^T theta (``run`` and ``forecast``) from these rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError, _check_count


@dataclass(frozen=True)
class HarmonicModel:
    """Fundamental period ``period`` (samples per cycle) plus ``harmonics``
    higher-order multiples; dimension n = 2*(harmonics+1) + 1."""

    period: float
    harmonics: int

    def __post_init__(self):
        if not 0.0 < self.period < math.inf:
            raise RangeError(f"period must be positive and finite, got {self.period!r}")
        _check_count(self.harmonics, 0, f"harmonics must be >= 0, got {self.harmonics!r}")
        top = 2.0 * math.pi * (self.harmonics + 1) / self.period
        if top >= math.pi:
            raise RangeError(
                f"top frequency {top:.6g} reaches the Nyquist limit pi; "
                f"reduce harmonics or increase the period"
            )

    @property
    def frequencies(self) -> np.ndarray:
        """The grid q_0..q_h, built on each use: a model holds no array, so a
        caller can check ``dim`` before a grid too large to allocate is built."""
        return 2.0 * math.pi * np.arange(1, self.harmonics + 2) / self.period

    @property
    def dim(self) -> int:
        return 2 * (self.harmonics + 1) + 1


def make_harmonic_model(period: float, harmonics: int) -> HarmonicModel:
    return HarmonicModel(period=period, harmonics=harmonics)


def regressor_matrix(model: HarmonicModel, indices) -> np.ndarray:
    """Rows of regressors for an array of time indices (len(indices) x dim).

    Raises RangeError naming the first index that is not finite.
    """
    idx = np.asarray(indices, dtype=float).ravel()
    finite = np.isfinite(idx)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise RangeError(f"time index {float(idx[bad])!r} at position {bad} is not finite")
    angles = idx[:, None] * model.frequencies[None, :]
    phi = np.empty((idx.size, model.dim))
    phi[:, 0] = 1.0
    phi[:, 1::2] = np.cos(angles)
    phi[:, 2::2] = np.sin(angles)
    return phi
