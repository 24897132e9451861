"""Sliding-window recursive least squares with low-rank gain updates.

The estimator is initialized by a batch solve over the first window and then
advanced one sample at a time.  Each step applies the profile's update
template as a single signed low-rank correction: the gain matrix (inverse of
the weighted information matrix) and the parameter vector are updated together
by ``linalg.batch_inverse_update``, whose only solve is a LAPACK inverse of
the small r x r capacitance matrix, never by refactoring the full matrix.
A ring holds the rows and values of the last (largest lag + 1) samples, so a
step builds one regressor row, phi_k, and keeps it for the fitted values at k.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import linalg
from .errors import (
    IndexGapError,
    InsufficientDataError,
    RangeError,
    SingularUpdateError,
    WindowTooSmallError,
)
from .harmonic import (
    HarmonicModel,
    predict_first_harmonic,
    regressor_at,
    regressor_matrix,
)
from .profile import ForgettingProfile, update_template, weights


class Sample(NamedTuple):
    """One measurement at integer time index k."""

    k: int
    y: float


class HorizonPoint(NamedTuple):
    k: int
    mean: float
    lower: float
    upper: float


class ForecastBand(NamedTuple):
    """First-harmonic forecast with a symmetric three-sigma band."""

    points: tuple[HorizonPoint, ...]
    sigma: float


def information_matrix(profile, model, k: int, count: int, y=None):
    """Directly weighted normal equations over the ``count`` indices ending at k.

    Returns A = sum_j f(j) phi_{k-j} phi_{k-j}^T.  Given the window values
    ``y`` (oldest first), returns (A, b, phi) with b = sum_j f(j) phi_{k-j}
    y_{k-j} and phi the window's regressor rows, oldest first.
    """
    phi = regressor_matrix(model, np.arange(k - count + 1, k + 1))
    wphi = phi * weights(profile, count)[::-1, None]  # oldest row first
    a = linalg.symmetrize(wphi.T @ phi)
    if y is None:
        return a
    return a, wphi.T @ np.asarray(y, dtype=float), phi


def _first_harmonic(theta, phi):
    """dc + fundamental part of phi^T theta per row, in predict_first_harmonic order."""
    return theta[0] + theta[1] * phi[..., 1] + theta[2] * phi[..., 2]


def _check_finite(k: int, y: float) -> None:
    if not math.isfinite(y):
        raise RangeError(f"non-finite value {y!r} at index {k}")


def _check_consecutive(samples: Sequence[Sample]) -> None:
    for prev, cur in zip(samples, samples[1:]):
        if cur.k != prev.k + 1:
            raise IndexGapError(
                f"sample indices must be consecutive; got {prev.k} then {cur.k}"
            )


class RlsEstimator:
    """Windowed RLS engine; single-owner, advance with step() in index order."""

    def __init__(self, profile, model, *, diagonal_loading=0.0):
        if not 0.0 <= diagonal_loading < math.inf:
            raise RangeError("diagonal loading must be finite and >= 0")
        self.profile: ForgettingProfile = profile
        self.model: HarmonicModel = model
        self.template = update_template(profile)
        self.diagonal_loading = float(diagonal_loading)
        self.loading_applied = False
        self.gamma: np.ndarray | None = None
        self.theta: np.ndarray | None = None
        self.k: int = 0
        self.window: int = 0
        self._first_index: int = 0
        self._residuals: deque[float] = deque()
        # template unpacked once; columns are scale_i * phi_{k - lag_i}
        self._lags = np.array(self.template.lags, dtype=int)
        self._scales = np.array(self.template.scales)
        self._signs = np.array(self.template.signs, dtype=float)
        # ring of regressor rows and values; sample k sits in slot k % size
        self._rows = np.zeros((int(self._lags.max()) + 1, model.dim))
        self._values = np.zeros(len(self._rows))
        self._phi: np.ndarray | None = None

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def init(
        cls,
        profile: ForgettingProfile,
        model: HarmonicModel,
        samples: Iterable[Sample],
        *,
        diagonal_loading: float = 0.0,
    ) -> "RlsEstimator":
        """Batch-initialize over the first window.

        ``samples`` must hold exactly w consecutive samples for the windowed
        profiles; the infinite-memory profile initializes over however many
        samples are given (at least the model dimension).  Raises
        WindowTooSmallError when the window cannot identify the model and
        NotPositiveDefiniteError when the initial information matrix is not
        SPD (insufficient excitation); a positive ``diagonal_loading`` adds
        eps*I to the initial matrix instead, and the choice is recorded on
        ``loading_applied``.  A non-finite value raises RangeError.
        """
        est = cls(profile, model, diagonal_loading=diagonal_loading)
        samples = [Sample(int(s[0]), float(s[1])) for s in samples]
        for sample in samples:
            _check_finite(*sample)
        unbounded = profile.w is None
        window = len(samples) if unbounded else profile.w
        if window < model.dim:
            raise WindowTooSmallError(
                f"window {window} is smaller than the model dimension {model.dim}"
            )
        if not unbounded and len(samples) != window:
            raise ValueError(
                f"initialization needs exactly w={window} samples, got {len(samples)}"
            )
        _check_consecutive(samples)

        est.window = window
        est.k = samples[-1].k
        est._first_index = samples[0].k
        y = np.array([s.y for s in samples])

        a, b, phi = information_matrix(profile, model, est.k, window, y)
        if est.diagonal_loading > 0.0:
            a = a + est.diagonal_loading * np.eye(model.dim)
            est.loading_applied = True
        est.gamma = linalg.spd_inverse(a)
        est.theta = est.gamma @ b

        size = len(est._values)
        slots = np.arange(est._first_index, est.k + 1)[-size:] % size
        est._rows[slots], est._values[slots] = phi[-size:], y[-size:]
        est._phi = phi[-1]
        est._residuals = deque((y - _first_harmonic(est.theta, phi)).tolist(), window)
        return est

    # ------------------------------------------------------------------
    # streaming

    def step(self, sample: Sample) -> None:
        """Consume the next sample (index state.k + 1) and update theta, gamma.

        A_k = decay * A_{k-1} + Q D Q^T, so the kernel receives gamma / decay
        as B^{-1}.  A non-finite y raises RangeError; nothing is changed when
        the step raises.
        """
        if self.gamma is None:
            raise RuntimeError("estimator is not initialized; call init() first")
        k = int(sample[0])
        y = float(sample[1])
        if k != self.k + 1:
            raise IndexGapError(f"expected sample index {self.k + 1}, got {k}")
        _check_finite(k, y)

        phi = regressor_at(self.model, k)
        # the slot of sample k held sample k - size, which no lag reaches
        size = len(self._values)
        slot = k % size
        saved = self._rows[slot].copy(), self._values[slot]
        self._rows[slot], self._values[slot] = phi, y
        lagged = (k - self._lags) % size
        q = self._rows[lagged].T * self._scales
        y_aug = self._scales * self._values[lagged]
        try:
            gamma, theta = linalg.batch_inverse_update(
                self.gamma / self.profile.decay, q, self._signs, self.theta, y_aug
            )
        except SingularUpdateError as err:
            self._rows[slot], self._values[slot] = saved
            raise SingularUpdateError(
                f"update solve failed at index {k}: {err}", index=k
            ) from err

        self.gamma, self.theta, self.k, self._phi = gamma, theta, k, phi
        self._residuals.append(y - float(_first_harmonic(theta, phi)))

    # ------------------------------------------------------------------
    # residuals and diagnostics

    def fitted(self) -> tuple[float, float]:
        """(phi_k^T theta, its dc + first-harmonic part) at the current index k."""
        phi, theta = self._phi, self.theta
        return float(phi @ theta), float(_first_harmonic(theta, phi))

    def residual(self, sample: Sample) -> float:
        """y - phi^T theta with the current parameters.

        Called before stepping past the sample it is the one-step-ahead
        prediction residual; after, the approximation residual.
        """
        k = int(sample[0])
        phi = self._phi if k == self.k else regressor_at(self.model, k)
        return float(sample[1]) - float(phi @ self.theta)

    def moving_variance(self) -> float:
        """Mean squared first-harmonic residual over the buffered window."""
        if len(self._residuals) < 2:
            raise InsufficientDataError(
                "moving variance needs at least two buffered residuals"
            )
        r = np.asarray(self._residuals)
        return float(np.mean(r * r))

    def forecast(self, horizon: int) -> ForecastBand:
        """First-harmonic forecast for 1..horizon steps ahead with +/-3 sigma bounds.

        Sigma is the windowed residual estimate frozen at forecast time; the
        band does not widen with the horizon.
        """
        if horizon < 1:
            raise RangeError("horizon must be >= 1")
        sigma = math.sqrt(self.moving_variance())
        points = []
        for tau in range(1, horizon + 1):
            mean = predict_first_harmonic(self.model, self.theta, self.k + tau)
            points.append(
                HorizonPoint(self.k + tau, mean, mean - 3.0 * sigma, mean + 3.0 * sigma)
            )
        return ForecastBand(points=tuple(points), sigma=sigma)

    def info_matrix(self) -> np.ndarray:
        """Weighted regressor outer-product sum A_k, assembled from scratch.

        Diagnostic reconstruction from the weight law and the sample indices;
        does not touch the recursively maintained gain matrix.
        """
        span = self.k - self._first_index + 1
        count = span if self.profile.w is None else min(span, self.window)
        return information_matrix(self.profile, self.model, self.k, count)
