"""Brute-force reference paths and synthetic data for verification.

The oracles here differ from the estimator in algorithm, not library: every
weighted sum is assembled from scratch instead of updated recursively, and
the round-off reference inverts in long double by Gauss-Jordan, so agreement
with the recursive estimator is meaningful.  Both oracles run in stacks: the
windowed profiles' direct solves ``_WINDOW_GROUP`` windows at a time, and the
long-double inverses ``_GJ_GROUP`` matrices at a time; every member of a stack
gets the arithmetic it would get alone.  The Monte-Carlo bias estimate is
not an oracle but a use of the estimator: its trials differ only in their
values, so they run as the columns of batch estimators (a (count, B) value
array given to ``RlsEstimator.init``) that share one gain trajectory.

A series is a float array whose index k is ``values[k - 1]``; only
``direct_weighted_ls`` takes samples, (k, y) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import linalg
from .errors import NotPositiveDefiniteError, RangeError, SingularUpdateError, _check_count
from .estimator import ROW_BLOCK, RlsEstimator, _real, _value_array, _weighted_gram
from .harmonic import HarmonicModel, regressor_matrix
from .profile import ForgettingProfile

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _stream_base(seed: int, stream: int) -> np.ndarray:
    raw = np.array([int(seed) % 2**64, stream % 2**64], dtype=np.uint64)
    return _mix64(raw[:1] + _GOLDEN * raw[1:])


def random_uniforms(seed: int, count: int, stream: int = 0) -> np.ndarray:
    """Deterministic uniforms in [0, 1) from a counter-based 64-bit hash."""
    ctr = np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN
    bits = _mix64(ctr + _stream_base(seed, stream))
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53


def random_normals(seed: int, count: int, stream: int = 0) -> np.ndarray:
    """Standard normals via the Box-Muller transform of counter-based uniforms."""
    pairs = (count + 1) // 2
    u = random_uniforms(seed, 2 * pairs, stream=stream)
    u1 = u[:pairs] + 2.0**-53            # (0, 1]: keeps the log finite
    u2 = u[pairs:]
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * math.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:count]


def derive_seed(seed: int, index: int) -> int:
    """Deterministic per-trial sub-seed from a base seed."""
    return int(_stream_base(seed, index + 1)[0])


# ----------------------------------------------------------------------
# synthetic series


@dataclass(frozen=True)
class SyntheticSpec:
    """Harmonic signal plus white Gaussian noise; reproducible per seed.

    A ``theta_star`` that is not real numbers raises the estimator's ValueError.
    """

    model: HarmonicModel
    theta_star: np.ndarray
    noise_sigma: float
    seed: int
    length: int

    def __post_init__(self):
        theta = _real(self.theta_star).ravel().copy()   # not a view of the caller's array
        if theta.size != self.model.dim:
            raise RangeError(
                f"theta_star has length {theta.size}, model dimension is {self.model.dim}"
            )
        if not np.all(np.isfinite(theta)):
            raise RangeError("theta_star must be finite")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise RangeError("noise sigma must be finite and >= 0")
        _check_count(self.seed, -math.inf, f"seed must be an integer, got {self.seed!r}")
        _check_count(self.length, 1, "length must be >= 1")
        object.__setattr__(self, "theta_star", theta)


def synth_generate(spec: SyntheticSpec) -> np.ndarray:
    """(length,) values y_k = phi_k^T theta_star + sigma * g_k, index k at [k - 1].

    Raises RangeError when a value overflows the float range.
    """
    return _synth_values(spec, [spec.seed])[:, 0]


def _synth_values(spec: SyntheticSpec, seeds: Sequence[int]) -> np.ndarray:
    """(length, len(seeds)) values of spec's series, one column per noise seed."""
    values = np.empty((spec.length, len(seeds)))
    # ROW_BLOCK rows at a time: one block's memory, and the whole product's bits.
    # numpy forms a one-row product as a dot, with other bits, so a one-row last
    # block starts four rows early: each row keeps its place in BLAS's 4-row groups.
    bounds = [*range(0, spec.length, ROW_BLOCK), spec.length]
    if len(bounds) > 2 and spec.length % ROW_BLOCK == 1:
        bounds[-2] -= 4
    with np.errstate(over="ignore", invalid="ignore"):
        clean = np.concatenate([regressor_matrix(spec.model, np.arange(a + 1, b + 1))
                                @ spec.theta_star for a, b in zip(bounds, bounds[1:])])
        for col, seed in enumerate(seeds):
            if spec.noise_sigma > 0.0:
                values[:, col] = clean + spec.noise_sigma * random_normals(seed, spec.length)
            else:
                values[:, col] = clean
    if not np.all(np.isfinite(values)):
        raise RangeError("synthetic series overflows the float range")
    return values


# ----------------------------------------------------------------------
# direct weighted least squares (the explicit-sum semantics)


def direct_weighted_ls(
    profile: ForgettingProfile,
    model: HarmonicModel,
    samples: Sequence[tuple[int, float]],
    k: int,
):
    """Explicitly assembled weighted normal equations at index k.

    Returns (A_k, theta_k) with A_k = sum_j f(j) phi phi^T over the window
    (or the whole available history for the unbounded profile).  No
    recursion anywhere.  The samples are (k, y) pairs, read by position,
    and consecutive: the window's hold its indices in order, each value one
    real number.  Raises ValueError for an empty ``samples``, a k outside
    their index range, a window sample out of place, and a value that is an
    array or not a real number.
    """
    _check_count(k, -math.inf, f"k must be an integer, got {k!r}")
    if len(samples) == 0:
        raise ValueError(f"index {k} outside the sample range: no samples")
    first = samples[0][0]
    if not first <= k <= samples[-1][0]:
        raise ValueError(f"index {k} outside the sample range {first}..{samples[-1][0]}")
    available = k - first + 1
    count = available if profile.w is None else min(available, profile.w)

    window = samples[available - count : available]
    # a sample short of the window stands as None, so a short window is refused too
    for want, sample in zip(range(k - count + 1, k + 1), [*window, None]):
        if sample is None or sample[0] != want:
            got = "no sample" if sample is None else f"index {sample[0]}"
            raise ValueError(f"expected index {want} in the window of index {k}, got {got}")
        if type(sample[1]) is not float and np.ndim(sample[1]):
            raise ValueError(f"expected one value at index {want}, got shape {np.shape(sample[1])}")
    values = _real([sample[1] for sample in window])
    indices = np.arange(k - count + 1, k + 1, dtype=float)
    return _direct_solve(profile, regressor_matrix(model, indices), values, k)


def _direct_solve(profile: ForgettingProfile, rows: np.ndarray, values: np.ndarray, k):
    """(A, theta) of the weighted normal equations over index k's window, oldest row first.

    ``rows`` (w, n) and ``values`` (w[, B]) hold one window.  Or ``rows``
    (s, w, n) and ``values`` (s, w, B) hold a stack of s windows, ``k`` is
    their s indices, and A and theta are (s, n, n) and (s, n, B).  Each
    window of a stack gets the bits it gets alone, a (w, 1) value column
    those of a (w,) value array.
    """
    a, wphi = _weighted_gram(profile, rows)
    b = wphi.swapaxes(-1, -2) @ values
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as err:
        if a.ndim == 3:  # the first window that fails alone raises, naming its index
            for window, window_values, index in zip(rows, values, k):
                _direct_solve(profile, window, window_values, index)
        raise NotPositiveDefiniteError(
            f"information matrix at index {k} is not positive definite"
        ) from err
    return a, np.linalg.solve(a, b)


# ----------------------------------------------------------------------
# recursion vs direct trajectory comparison


# windows per stacked direct solve: eight amortize numpy's per-call cost;
# a Fig-2 stack's weighted rows take 0.9 MB
_WINDOW_GROUP = 8


def _direct_trajectory(profile: ForgettingProfile, rows: np.ndarray, values: np.ndarray,
                       first: int):
    """(theta, A^{-1}) of the direct solve at each index from ``first`` to len(values).

    ``rows`` and ``values`` are the series' regressor rows and values, index k
    at position k - 1.  A windowed profile's windows are sliding-window views
    of them, solved ``_WINDOW_GROUP`` at a time when the first of them is
    taken; the unbounded profile's windows grow by a row each step, so each
    is solved alone.
    """
    end = len(values)
    if profile.w is None:
        for k in range(first, end + 1):
            a, theta = _direct_solve(profile, rows[:k], values[:k], k)
            yield theta, np.linalg.inv(a)
        return
    w = profile.w
    # window j (index j + w) holds positions j..j + w - 1: (windows, w, n) and (windows, w, B)
    row_windows = sliding_window_view(rows, w, axis=0).swapaxes(-1, -2)
    value_windows = sliding_window_view(values.reshape(end, -1), w, axis=0).swapaxes(-1, -2)
    for start in range(first, end + 1, _WINDOW_GROUP):
        ks = range(start, min(start + _WINDOW_GROUP, end + 1))
        stack = slice(ks[0] - w, ks[-1] - w + 1)
        # a stack's later windows may hold values not yet checked finite; a
        # caller that checks each value before taking its solve never sees those
        with np.errstate(invalid="ignore"):
            a, theta = _direct_solve(profile, row_windows[stack], value_windows[stack], ks)
        gamma = np.linalg.inv(a)
        for i in range(len(ks)):
            yield theta[i].reshape(-1, *values.shape[1:]), gamma[i]


def compare_trajectory(
    profile: ForgettingProfile,
    model: HarmonicModel,
    values: np.ndarray,
    *,
    init_count: int | None = None,
) -> tuple[float, float]:
    """Run the recursion and the direct solve side by side over a series.

    ``values`` holds the series, index k at ``values[k - 1]``.
    ``init_count`` sets the batch-initialization length for the unbounded
    profile (windowed profiles always initialize over w samples).  Returns
    the largest relative deviations (theta_dev_max, gamma_dev_max) of the
    recursion's theta and gain from the direct solve's, over every step.
    """
    values = _value_array(values)
    window = profile.w
    if window is None:
        if init_count is None:
            raise ValueError("init_count is required for the unbounded profile")
        _check_count(init_count, 1, f"init_count must be an integer >= 1, got {init_count!r}")
        window = init_count
    if len(values) < window + 1:
        raise ValueError("need at least one step beyond the initial window")

    est = RlsEstimator.init(profile, model, values[:window])
    theta_dev_max = 0.0
    gamma_dev_max = 0.0
    # every window's rows are slices of one series-wide regressor matrix
    rows = regressor_matrix(model, np.arange(1, len(values) + 1))
    direct = _direct_trajectory(profile, rows, values, window + 1)

    for k in range(window + 1, len(values) + 1):
        # the step refuses a non-finite value before any solve reads it
        est.step((k, values[k - 1]))
        theta_direct, gamma_direct = next(direct)
        theta_dev_max = max(theta_dev_max, float(
            np.linalg.norm(est.theta - theta_direct) / np.linalg.norm(theta_direct)))
        gamma_dev_max = max(gamma_dev_max, float(
            np.linalg.norm(est.gamma - gamma_direct) / np.linalg.norm(gamma_direct)))

    return theta_dev_max, gamma_dev_max


# ----------------------------------------------------------------------
# Monte-Carlo unbiasedness


# trials per batch estimator: a group's (window, trials) arrays set the peak
# memory of the bias estimate; 25 keeps it below accumulation_experiment's
_MC_GROUP = 25


def monte_carlo_bias(
    profile: ForgettingProfile,
    spec: SyntheticSpec,
    trials: int,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(bias, standard_error): componentwise mean(theta_k) - theta_star over
    independent realizations, and the standard error of that mean.

    Trial t is spec's series with seed ``derive_seed(spec.seed, t)``; each
    initializes over the profile's window, so the unbounded profile is
    refused with a ValueError.  The gain does not depend on the values, so
    the trials run as the columns of batch estimators, ``_MC_GROUP`` at a time.
    """
    _check_count(trials, 100, "at least 100 trials are required for the bias estimate")
    _check_count(k, -math.inf, f"k must be an integer, got {k!r}")
    window = profile.w
    if window is None:
        raise ValueError("the bias estimate needs a windowed profile, not the unbounded one")
    if not window < k <= spec.length:
        raise ValueError(f"index k={k} must lie in ({window}, {spec.length}]")

    estimates = np.empty((trials, spec.model.dim))
    for first in range(0, trials, _MC_GROUP):
        seeds = [derive_seed(spec.seed, t) for t in range(first, min(first + _MC_GROUP, trials))]
        values = _synth_values(spec, seeds)[:k]
        est = RlsEstimator.init(profile, spec.model, values[:window])
        est.run(values[window:])
        estimates[first : first + len(seeds)] = est.theta.T

    mean = estimates.mean(axis=0)
    se = estimates.std(axis=0, ddof=1) / math.sqrt(trials)
    return mean - spec.theta_star, se


# ----------------------------------------------------------------------
# round-off accumulation: one-pass batch vs chained rank-one updates


# trials per stacked long-double inverse: a stack amortizes numpy's per-call
# cost; at 8 an A8 stack's arrays take about 0.6 MB, below verify's peak elsewhere
_GJ_GROUP = 8


def _random_orthogonal(n: int, seed: int) -> np.ndarray:
    g = random_normals(seed, n * n).reshape(n, n)
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r))


def random_spd_with_cond(n: int, cond: float, seed: int) -> np.ndarray:
    """SPD matrix with log-spaced eigenvalues spanning the target condition number."""
    if cond < 1.0:
        raise RangeError("condition target must be >= 1")
    eigs = np.logspace(-math.log10(cond), 0.0, n) if cond > 1.0 else np.ones(n)
    q = _random_orthogonal(n, seed)
    return linalg.symmetrize((q * eigs) @ q.T)


def gauss_jordan_inverse(a: np.ndarray) -> np.ndarray:
    """Extended-precision (longdouble) dense inverse with partial pivoting.

    ``a`` is one (n, n) matrix or an (m, n, n) stack; each matrix of a stack
    is pivoted on its own, with the same per-element arithmetic, so each
    slice of the result equals the inverse of that slice alone.
    Reference-only: used to measure the float64 update paths against a
    direct inverse whose own error sits orders of magnitude below theirs.

    The elimination runs on [A | I] with I's columns in pivot order: column
    n + c holds the identity column that pivot c's row swap brings to row c.
    So pivot c swaps its rows over columns c..n + c - 1 and updates columns
    c + 1..n + c alone: the columns before c are done, column c is not read
    again, and the columns after n + c hold identity columns that the
    full-width elimination leaves as they are.  Every element that changes
    gets the multiply-subtract the full-width elimination gives it, so the
    inverse has its bits; the column order is undone once at the end.
    """
    a = np.asarray(a, dtype=np.longdouble)
    stack = a.reshape(-1, *a.shape[-2:])
    m, n = stack.shape[:2]
    eye = np.broadcast_to(np.eye(n, dtype=np.longdouble), stack.shape)
    aug = np.concatenate([stack, eye], axis=2)
    # order[:, c]: the identity column at row c, until pivot c moves it to column n + c
    order = np.tile(np.arange(n), (m, 1))
    members = np.arange(m)
    buf = np.empty((m, n, n), dtype=np.longdouble)
    for col in range(n):
        piv = col + np.argmax(np.abs(aug[:, col:, col]), axis=1)
        if (aug[members, piv, col] == 0).any():
            raise ZeroDivisionError(f"singular matrix at column {col}")
        live = slice(col, n + col)
        swapped = aug[members, piv, live]
        aug[members, piv, live] = aug[:, col, live]
        aug[:, col, live] = swapped
        swapped = order[members, piv]
        order[members, piv] = order[:, col]
        order[:, col] = swapped
        # column col only supplies the multipliers: no later pivot reads it
        span = slice(col + 1, n + col + 1)
        pivot_row = aug[:, col, span] / aug[:, col, col, None]
        # every row less its multiple of the pivot row; the pivot row is then put back
        np.multiply(aug[:, :, col, None], pivot_row[:, None, :], out=buf)
        aug[:, :, span] -= buf
        aug[:, col, span] = pivot_row
    inverse = np.take_along_axis(aug[:, :, n:], np.argsort(order, axis=1)[:, None, :], axis=2)
    return inverse.reshape(a.shape)


def _window_transition_batch(n: int, steps: int, b_inv: np.ndarray, seed: int):
    """Signed columns shaped like sliding-window transitions.

    Each pair removes a column whose quadratic form sits just inside the
    invertibility boundary (an old sample leaving a weakly excited window)
    and then adds a correlated replacement.  The removal comes first, so the
    chained path must pass near the intermediate singularity that the
    single-pass batch update never forms.  Generic i.i.d. columns do not
    separate the two paths: their errors tie statistically.
    """
    pairs = steps // 2
    g = random_normals(seed, n * (2 * pairs + 1), stream=1).reshape(n, -1)
    deltas = 10.0 ** (-2.0 - 4.0 * random_uniforms(seed, pairs, stream=2))
    cols = np.empty((n, steps))
    signs = np.empty(steps)
    for j in range(pairs):
        u = g[:, 2 * j] / np.linalg.norm(g[:, 2 * j])
        quad = float(u @ b_inv @ u)
        removal = u * math.sqrt((1.0 - deltas[j]) / quad)
        noise = g[:, 2 * j + 1] / np.linalg.norm(g[:, 2 * j + 1])
        cols[:, 2 * j] = removal
        signs[2 * j] = -1.0
        cols[:, 2 * j + 1] = removal + 0.05 * np.linalg.norm(removal) * noise
        signs[2 * j + 1] = +1.0
    if steps % 2:
        cols[:, -1] = g[:, -1] / math.sqrt(n)
        signs[-1] = +1.0
    return cols, signs


def _median(values: np.ndarray) -> float:
    """``np.median(values)``'s bits without the ``numpy.ma`` import of its nan check."""
    s = np.sort(values)                 # a nan sorts last
    return float(s[-1] if math.isnan(s[-1]) else s[(len(s) - 1) // 2:len(s) // 2 + 1].mean())


def accumulation_experiment(
    n: int,
    steps: int,
    cond_target: float,
    trials: int,
    *,
    seed: int = 0,
) -> tuple[float, float, int]:
    """Round-off of the one-pass batch update vs the chained rank-one path.

    Each trial draws an SPD matrix B near the target condition number and a
    window-transition column batch, applies both update paths to the same
    correctly rounded B^{-1}, and measures each against an extended-precision
    direct inverse of B + Q D Q^T.  Intermediate singularities in the chain
    (its SingularUpdateError) are counted, not raised; the affected trial
    records an infinite chain error.  A refused batch update is raised.
    Returns (median_batch, median_chain, singular_incidents): the median
    relative errors of the two paths and the count of chain singularities.
    """
    for name, count in (("n", n), ("steps", steps), ("trials", trials)):
        _check_count(count, 1, f"{name} must be an integer >= 1, got {count!r}")
    errors = np.full((2, trials), math.inf)     # row 0 the batch path's, row 1 the chain's
    incidents = 0

    for first in range(0, trials, _GJ_GROUP):
        group = range(first, min(first + _GJ_GROUP, trials))
        seeds = [derive_seed(seed, t) for t in group]
        b_ld = np.stack([
            np.asarray(random_spd_with_cond(n, cond_target, s), dtype=np.longdouble)
            for s in seeds
        ])
        b_invs = [linalg.symmetrize(np.asarray(inv, dtype=float))
                  for inv in gauss_jordan_inverse(b_ld)]
        batches = [_window_transition_batch(n, steps, b_inv, s)
                   for b_inv, s in zip(b_invs, seeds)]
        a_ld = np.stack([
            b + (np.asarray(cols, dtype=np.longdouble) * signs)
            @ np.asarray(cols, dtype=np.longdouble).T
            for b, (cols, signs) in zip(b_ld, batches)
        ])
        references = gauss_jordan_inverse(a_ld)

        for t, b_inv, (cols, signs), reference in zip(group, b_invs, batches, references):
            paths = [linalg.batch_inverse_update(b_inv, cols, signs)]
            try:
                paths.append(linalg.chain_sherman_morrison(b_inv, cols, signs))
            except SingularUpdateError:
                incidents += 1                  # the chain's error stays infinite
            # relative Frobenius errors, the long-double squares summed as floats
            scale = math.sqrt(float(np.sum((reference * reference).astype(float))))
            for row, got in enumerate(paths):
                errors[row, t] = (
                    math.sqrt(float(np.sum(((got - reference) ** 2).astype(float)))) / scale)

    return _median(errors[0]), _median(errors[1]), incidents
