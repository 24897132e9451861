"""Sliding-window recursive least squares with low-rank gain updates.

The estimator is initialized by a batch solve over the first window and then
advanced one sample at a time.  Each step applies the profile's update
template as a single signed low-rank correction: the gain matrix (inverse of
the weighted information matrix) and the parameter vector are updated together
by ``linalg.batch_inverse_update``, whose only solve is a LAPACK inverse of
the small r x r capacitance matrix, never by refactoring the full matrix.
"""

from __future__ import annotations

import math
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
    predict,
    predict_first_harmonic,
    regressor_matrix,
)
from .profile import (
    ExponentialProfile,
    ForgettingProfile,
    update_template,
    weights,
)


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
    ``y`` (oldest first), returns (A, b) with b = sum_j f(j) phi_{k-j} y_{k-j}.
    """
    phi = regressor_matrix(model, np.arange(k - count + 1, k + 1))
    wphi = phi * weights(profile, count)[::-1, None]  # oldest row first
    a = linalg.symmetrize(wphi.T @ phi)
    if y is None:
        return a
    return a, wphi.T @ np.asarray(y, dtype=float)


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
        if diagonal_loading < 0.0:
            raise RangeError("diagonal loading must be >= 0")
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
        self._y: list[float] = []
        self._residuals: list[float] = []
        # template unpacked once; columns are scale_i * phi_{k - lag_i}
        self._lags = np.array(self.template.lags, dtype=int)
        self._scales = np.array(self.template.scales)
        self._signs = np.array(self.template.signs, dtype=float)

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
        unbounded = isinstance(profile, ExponentialProfile) and profile.unbounded
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
        est._y = [s.y for s in samples]

        a, b = information_matrix(profile, model, est.k, window, est._y)
        if est.diagonal_loading > 0.0:
            a = a + est.diagonal_loading * np.eye(model.dim)
            est.loading_applied = True
        est.gamma = linalg.spd_inverse(a)
        est.theta = est.gamma @ b

        for sample in samples:
            est._record_residual(sample.k, sample.y)
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

        q = regressor_matrix(self.model, k - self._lags).T * self._scales[None, :]
        # lag 0 is the incoming sample; _y[-lag] is sample k - lag
        y_aug = self._scales * np.array(
            [self._y[-lag] if lag else y for lag in self._lags]
        )
        try:
            gamma, theta = linalg.batch_inverse_update(
                self.gamma / self.profile.decay, q, self._signs, self.theta, y_aug
            )
        except SingularUpdateError as err:
            raise SingularUpdateError(
                f"update solve failed at index {k}: {err}", index=k
            ) from err

        self.gamma, self.theta, self.k = gamma, theta, k
        self._y.append(y)
        if len(self._y) > self.window:
            del self._y[: len(self._y) - self.window]
        self._record_residual(k, y)

    def _record_residual(self, k: int, y: float) -> None:
        r = y - predict_first_harmonic(self.model, self.theta, k)
        self._residuals.append(r)
        if len(self._residuals) > self.window:
            del self._residuals[: len(self._residuals) - self.window]

    # ------------------------------------------------------------------
    # residuals and diagnostics

    def residual(self, sample: Sample) -> float:
        """y - phi^T theta with the current parameters.

        Called before stepping past the sample it is the one-step-ahead
        prediction residual; after, the approximation residual.
        """
        return float(sample[1]) - predict(self.model, self.theta, int(sample[0]))

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
        count = span if self._unbounded_window() else min(span, self.window)
        return information_matrix(self.profile, self.model, self.k, count)

    def _unbounded_window(self) -> bool:
        return isinstance(self.profile, ExponentialProfile) and self.profile.unbounded

    @property
    def residual_window(self) -> tuple[float, ...]:
        return tuple(self._residuals)
