"""Sliding-window recursive least squares with low-rank gain updates.

The estimator is initialized by a batch solve over the first window and then
advanced one sample at a time, by ``step``, or over a value array by ``run``.
Each step applies the profile's update template as a single signed low-rank
correction: the gain matrix (inverse of the weighted information matrix) and
the parameter vector are updated together by ``linalg._woodbury``, the core
of ``linalg.batch_inverse_update``, whose only solve is the inverse of the
small r x r capacitance matrix (LAPACK's, or the division 1/u that gives its
bits when r = 1), never by refactoring the full matrix.  The
public kernel checks its arguments on every call; the core does not.  The
profile's own checks make ``update_template`` valid, so the estimator only
unpacks it, once, at construction, and builds D = diag(signs) there.

Regressor rows are built in blocks: one ``regressor_matrix`` call gives the
rows of the next ROW_BLOCK steps, and a block also keeps the rows and values
of the L samples before it (L the template's largest lag), which the step's
lagged columns and the windowed ``info_matrix`` read.

A step commits the fitted pair at its index with theta and the gain;
``run``, a loop of ``step`` calls, copies it, and ``run([])`` reads the
current index's pair alone.

The gain never depends on the values, only on the profile, the model and the
sample indices.  So one estimator can carry B value series at once: when
``init`` gets a (count, B) value array, theta is (n, B), each step takes B
values, and the fitted values, moving variance and forecast are per-column
arrays.  Each column follows the scalar recursion through the same
gain, up to the summation order of the matrix products.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import RangeError, SingularUpdateError, _check_count
from .harmonic import HarmonicModel, regressor_matrix
from .profile import ForgettingProfile, update_template, weights

# Steps served by one regressor_matrix call; a block holds L + ROW_BLOCK rows.
ROW_BLOCK = 256


# perfbench's oracle gates build their samples with it; the library reads (k, y) by position
class Sample(NamedTuple):
    """One measurement at integer time index k.

    ``y`` is a float, or a (B,) array holding B series' values at k when
    the estimator carries a batch of B series.
    """

    k: int
    y: float | np.ndarray


class ForecastBand(NamedTuple):
    """First-harmonic mean and +/-3 sigma bounds, (h[, B]) arrays with one row per step ahead."""

    mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    sigma: float | np.ndarray


def information_matrix(profile, model, k: int, count: int) -> np.ndarray:
    """A = sum_j f(j) phi_{k-j} phi_{k-j}^T over the ``count`` indices ending at k."""
    _check_count(k, -math.inf, f"k must be an integer, got {k!r}")
    _check_count(count, 1, f"count must be >= 1, got {count!r}")
    return _weighted_gram(profile, regressor_matrix(model, np.arange(k - count + 1, k + 1)))[0]


def _weighted_gram(profile, phi):
    """(A, weighted rows) for a window's regressor rows phi, oldest row first.

    The one assembly of the weighted normal equations: batch init and the
    direct oracle form b = (weighted rows)^T y from the rows it returns.
    ``phi`` is (w, n), or (s, w, n) for a stack of s windows of w rows each;
    every window of a stack gets the products a window alone would.
    """
    wphi = phi * weights(profile, phi.shape[-2])[::-1, None]
    return linalg.symmetrize(wphi.swapaxes(-1, -2) @ phi), wphi


def _first_harmonic(theta, phi):
    """dc + fundamental part of phi^T theta, summed as dc, then cosine, then sine.

    The one copy of this formula: the fitted values, the residual buffer and
    the forecast all call it, so their bytes agree.

    ``phi`` is indexed by regressor entry first: one row (n,), or the
    transposed rows (n, count[, 1]) to get one value per row and column.
    """
    return theta[0] + theta[1] * phi[1] + theta[2] * phi[2]


def _by_entry(rows, theta):
    """Regressor rows (count, n) transposed to (n, count), or (n, count, 1) for a batch theta."""
    return rows.T if theta.ndim == 1 else rows.T[..., None]


def _real(values) -> np.ndarray:
    """``values`` as a float array; a ValueError unless they are booleans, integers or floats.

    Strings, bytes, complex and object values are refused, not converted.
    """
    y = np.asarray(values)
    if y.dtype.kind not in "biuf":
        raise ValueError(f"values must be real numbers, got dtype {y.dtype}")
    return y.astype(float, copy=False)


def _value_array(values) -> np.ndarray:
    """``values`` as a float (count,) or (count, B) array; a ValueError for any
    other shape, or for values that are not real numbers."""
    y = _real(values)
    if y.ndim not in (1, 2):
        raise ValueError(f"values must be a (count,) or (count, B) array, got shape {y.shape}")
    return y


def _non_finite(k, y) -> RangeError:
    """The RangeError for sample k's value y, a float or a (B,) array, that is not finite."""
    if np.ndim(y) == 0:
        return RangeError(f"non-finite value {float(y)!r} at index {k}")
    col = int(np.argmin(np.isfinite(y)))
    return RangeError(f"non-finite value {float(y[col])!r} in column {col} at index {k}")


def residual_stats(residuals: np.ndarray) -> tuple[float, float, float]:
    """RMSE, mean and standard deviation of a residual array."""
    rmse = math.sqrt(float(np.mean(residuals**2)))
    return rmse, float(np.mean(residuals)), float(np.std(residuals))


def _plain(x):
    """A scalar result as a float; a batch's per-column array as it is."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


class RlsEstimator:
    """Windowed RLS engine; single-owner, advanced with step() or run() in index order.

    ``init`` is the only way to build one: it sets every attribute, once,
    from the batch solve over the first window.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("build an RlsEstimator with RlsEstimator.init(profile, model, values)")

    @classmethod
    def init(
        cls,
        profile: ForgettingProfile,
        model: HarmonicModel,
        values,
        *,
        diagonal_loading: float = 0.0,
    ) -> "RlsEstimator":
        """Batch-initialize over the first window, indices 1..len(values).

        ``values`` holds the window's values, index k at ``values[k - 1]``:
        a (count,) array, or a (count, B) array to start a batch of B series
        that share one gain.  The windowed profiles need exactly w values;
        the infinite-memory profile initializes over however many are given
        (at least the model dimension).  Raises RangeError when the window
        is shorter than the model dimension and NotPositiveDefiniteError when
        the initial information matrix is not SPD (insufficient excitation);
        a positive ``diagonal_loading`` adds eps*I to the initial matrix
        instead.  A non-finite value raises the RangeError ``step`` would, a
        value that is not a real number (a string, bytes, a complex or an
        object) ValueError.
        """
        if not 0.0 <= diagonal_loading < math.inf:
            raise RangeError("diagonal loading must be finite and >= 0")
        y = _value_array(values).copy()
        bad = np.argwhere(~np.isfinite(y))
        if len(bad):
            # the first non-finite row raises step's error for its index
            raise _non_finite(int(bad[0, 0]) + 1, y[bad[0, 0]])
        unbounded = profile.w is None
        window = len(y) if unbounded else profile.w
        if window < model.dim:
            raise RangeError(f"window {window} is smaller than the model dimension {model.dim}")
        if not unbounded and len(y) != window:
            raise ValueError(
                f"initialization needs exactly w={window} samples, got {len(y)}"
            )

        phi = regressor_matrix(model, np.arange(1, window + 1))
        a, wphi = _weighted_gram(profile, phi)
        loaded = a + diagonal_loading * np.eye(model.dim) if diagonal_loading > 0.0 else a

        est = cls.__new__(cls)
        est.profile, est.model = profile, model
        template = update_template(profile)
        lags = template.lags
        est.gamma = linalg.spd_inverse(loaded)
        est.theta = est.gamma @ (wphi.T @ y)
        est.k = window
        # template unpacked once; columns are scale_i * phi_{k - lag_i}; the
        # scales are shaped (r,) or (r, 1) to scale (r,) or (r, B) values
        est._scales = np.array(template.scales).reshape(-1, *[1] * (y.ndim - 1))
        est._d = np.diag(np.array(template.signs, dtype=float))
        # the block of regressor rows and values: index k sits at position
        # k - est._first_row.  It holds the L indices before the step that
        # started it and the ROW_BLOCK from it on.  The first block holds the
        # window's last L rows and values, (L, B) for a batch, and serves no
        # step: the first step starts the next one.
        est._lead = lead = max(lags)
        est._rows, est._values = phi[window - lead:], y[window - lead:]
        est._first_row = window + 1 - lead
        # the block positions of the lagged samples of the j-th step of a
        # block, and that step's correction columns, transposed: (r, n) each
        est._slots = lead + np.arange(ROW_BLOCK)[:, None] - np.array(lags)
        est._columns = np.zeros((0, len(lags), model.dim))
        # the infinite profile's unloaded A at index _info_k, for info_matrix
        est._info, est._info_k = a, window
        est._yhat, est._yhat1 = phi[-1].dot(est.theta), _first_harmonic(est.theta, phi[-1])
        # first-harmonic residuals of the last `window` samples: sample k sits
        # in slot (k - 1) % window
        est._residuals = y - _first_harmonic(est.theta, _by_entry(phi, est.theta))
        return est

    def _value(self, k: int, value):
        """Sample k's value: a float, or a (B,) array for a batch.

        Refuses a value of the wrong shape or one that is not a real number
        (ValueError), and a non-finite one (RangeError).
        """
        scalar = self._values.ndim == 1
        if scalar and isinstance(value, (float, int)):
            y = float(value)        # a Python number, or a float64 read from a value array
        else:
            y = _real(value)
            if y.shape != self._values.shape[1:]:
                expected = "one value" if scalar else f"{self._values.shape[1]} values"
                raise ValueError(f"expected {expected} at index {k}, got shape {y.shape}")
            if scalar:
                y = float(y)
        if not (math.isfinite(y) if scalar else np.isfinite(y).all()):
            raise _non_finite(k, y)
        return y

    # ------------------------------------------------------------------
    # streaming

    def step(self, sample: Sample) -> None:
        """Consume the next sample (index state.k + 1) and update theta, gamma.

        A_k = lam * A_{k-1} + Q D Q^T, so the kernel receives gamma / lam
        as B^{-1}.  A batch estimator takes B values per sample, a scalar one
        a number; a value of another shape, or one that is not a real number,
        raises ValueError, a non-finite one RangeError.  An index other than
        k + 1 raises RangeError.  When the step raises, nothing that a
        later step or read-out uses has changed: it may only have started the
        next row block, and written y at k's block position, past the current
        index.
        """
        k = self.k + 1
        if sample[0] != k:
            raise RangeError(f"expected sample index {k}, got {sample[0]}")
        y = self._value(k, sample[1])

        i = k - self._first_row
        if i == len(self._rows):
            self._next_block()
            i = self._lead
        # position i is past the committed index, so writing y there before
        # the update changes nothing a failed step must leave as it was
        self._values[i] = y
        j = i - self._lead
        q = self._columns[j].T
        y_aug = self._scales * self._values[self._slots[j]]     # (r,) or (r, B)
        try:
            gamma, theta = linalg._woodbury(
                self.gamma / self.profile.lam, q, self._d, self.theta, y_aug
            )
        except SingularUpdateError as err:
            raise SingularUpdateError(f"update solve failed at index {k}: {err}") from err

        phi = self._rows[i]
        yhat, yhat1 = phi.dot(theta), _first_harmonic(theta, phi)
        self.gamma, self.theta, self.k, self._yhat, self._yhat1 = gamma, theta, k, yhat, yhat1
        self._residuals[(k - 1) % len(self._residuals)] = y - yhat1

    def run(self, values, cond_every: int = 0):
        """Step over the values of the indices after k; the fitted values from k on.

        ``values`` holds real numbers, or is a (count, B) array of them for a
        batch; each value is one ``step``.  Returns (yhat, yhat1, cond), each
        with row 0 for the current index and row i after the i-th step: yhat
        is phi_k^T theta and yhat1 its dc + first-harmonic part, the pair the
        step to the row's index formed (or init, for the window's last
        index), as (count + 1[, B]) arrays; the residual at k is y_k - yhat.
        cond is a list holding cond(``info_matrix()``) on each row i with
        i % cond_every == 0 and None on every other row, and on every row when
        cond_every is 0.
        """
        _check_count(cond_every, 0, f"cond_every must be an integer >= 0, got {cond_every!r}")
        values = _value_array(values)
        yhat = np.empty((len(values) + 1, *self._values.shape[1:]))
        yhat1 = np.empty_like(yhat)
        cond = [None] * len(yhat)
        for i in range(len(yhat)):
            if i:
                self.step((self.k + 1, values[i - 1]))
            yhat[i], yhat1[i] = self._yhat, self._yhat1
            if cond_every and i % cond_every == 0:
                cond[i] = linalg.condition_number(self.info_matrix())
        return yhat, yhat1, cond

    def _next_block(self) -> None:
        """Start the block at the index after this one's end.

        The new block holds this one's last L rows and values, then the rows
        of the next ROW_BLOCK indices, from one regressor_matrix call, and the
        correction columns of the steps to those indices.
        """
        end = self._first_row + len(self._rows)
        keep = len(self._rows) - self._lead
        rows = regressor_matrix(self.model, np.arange(end, end + ROW_BLOCK))
        self._rows = np.concatenate((self._rows[keep:], rows))
        self._columns = columns = self._rows[self._slots]     # a gathered copy
        columns *= self._scales.reshape(-1, 1)
        values = np.empty((len(self._rows), *self._values.shape[1:]))
        values[: self._lead] = self._values[keep:]
        self._values = values
        self._first_row = end - self._lead

    # ------------------------------------------------------------------
    # residuals and diagnostics

    def moving_variance(self) -> float:
        """Mean squared first-harmonic residual over the buffered window."""
        # oldest first: the slot after sample k's holds the oldest buffered residual
        oldest = self.k % len(self._residuals)
        r = np.roll(self._residuals, -oldest, axis=0)
        return _plain(np.mean(r * r, axis=0))

    def forecast(self, horizon: int) -> ForecastBand:
        """First-harmonic forecast for 1..horizon steps ahead with +/-3 sigma bounds.

        Row i is index k + 1 + i.  Sigma is the windowed residual estimate
        frozen at forecast time; the band does not widen with the horizon.
        """
        _check_count(horizon, 1, "horizon must be >= 1")
        sigma = _plain(np.sqrt(self.moving_variance()))
        rows = regressor_matrix(self.model, np.arange(self.k + 1, self.k + horizon + 1))
        mean = _first_harmonic(self.theta, _by_entry(rows, self.theta))
        return ForecastBand(mean, mean - 3.0 * sigma, mean + 3.0 * sigma, sigma)

    def info_matrix(self) -> np.ndarray:
        """Weighted regressor outer-product sum A_k, a new array on each call.

        Assembled from the weight law and the regressor rows, never from the
        gain.  A windowed profile's row block holds the window's rows.  The
        infinite profile keeps A_k0 from the last call (or init's, unloaded)
        and returns lambda^(k - k0) A_k0 plus the weighted gram of rows k0+1..k.
        """
        if self.profile.w is None:
            k0 = self._info_k
            if k0 < self.k:
                rows = regressor_matrix(self.model, np.arange(k0 + 1, self.k + 1))
                self._info = (self.profile.lam ** (self.k - k0) * self._info
                              + _weighted_gram(self.profile, rows)[0])
                self._info_k = self.k
            return self._info.copy()
        end = self.k + 1 - self._first_row
        return _weighted_gram(self.profile, self._rows[end - self.profile.w : end])[0]
