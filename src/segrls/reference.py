"""Brute-force reference paths and synthetic data for verification.

The oracles here differ from the estimator in algorithm, not library: every
weighted sum is assembled from scratch instead of updated recursively, and
the round-off reference inverts in long double by Gauss-Jordan, so agreement
with the recursive estimator is meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .errors import (
    IntermediateSingularityError,
    NotPositiveDefiniteError,
    RangeError,
)
from .estimator import RlsEstimator, Sample
from .harmonic import HarmonicModel, regressor_matrix
from .profile import ExponentialProfile, ForgettingProfile, weights

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _stream_base(seed: int, stream: int) -> np.ndarray:
    raw = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
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
    """Harmonic signal plus white Gaussian noise; reproducible per seed."""

    model: HarmonicModel
    theta_star: np.ndarray
    noise_sigma: float
    seed: int
    length: int

    def __post_init__(self):
        theta = np.asarray(self.theta_star, dtype=float).ravel()
        if theta.size != self.model.dim:
            raise RangeError(
                f"theta_star has length {theta.size}, model dimension is {self.model.dim}"
            )
        if self.noise_sigma < 0.0:
            raise RangeError("noise sigma must be >= 0")
        if self.length < 1:
            raise RangeError("length must be >= 1")
        object.__setattr__(self, "theta_star", theta)


def synth_generate(spec: SyntheticSpec) -> list[Sample]:
    """y_k = phi_k^T theta_star + sigma * g_k for k = 1..length."""
    indices = np.arange(1, spec.length + 1)
    clean = regressor_matrix(spec.model, indices) @ spec.theta_star
    if spec.noise_sigma > 0.0:
        clean = clean + spec.noise_sigma * random_normals(spec.seed, spec.length)
    return [Sample(int(k), float(y)) for k, y in zip(indices, clean)]


# ----------------------------------------------------------------------
# direct weighted least squares (the explicit-sum semantics)


def direct_weighted_ls(
    profile: ForgettingProfile,
    model: HarmonicModel,
    samples: Sequence[Sample],
    k: int,
):
    """Explicitly assembled weighted normal equations at index k.

    Returns (A_k, theta_k) with A_k = sum_j f(j) phi phi^T over the window
    (or the whole available history for the unbounded profile).  No
    recursion anywhere.
    """
    first = samples[0].k
    if not first <= k <= samples[-1].k:
        raise ValueError(f"index {k} outside the sample range {first}..{samples[-1].k}")
    available = k - first + 1
    count = available if profile.w is None else min(available, profile.w)

    window = samples[available - count : available]
    indices = np.array([s.k for s in window], dtype=float)
    values = np.array([s.y for s in window], dtype=float)
    phi = regressor_matrix(model, indices)
    wphi = phi * weights(profile, count)[::-1, None]
    a = wphi.T @ phi
    a = (a + a.T) * 0.5
    b = wphi.T @ values
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefiniteError(
            f"information matrix at index {k} is not positive definite"
        ) from err
    theta = np.linalg.solve(a, b)
    return a, theta


# ----------------------------------------------------------------------
# recursion vs direct trajectory comparison


@dataclass
class TrajectoryReport:
    theta_dev_max: float
    gamma_dev_max: float
    steps: int


def compare_trajectory(
    profile: ForgettingProfile,
    model: HarmonicModel,
    samples: Sequence[Sample],
    *,
    init_count: int | None = None,
) -> TrajectoryReport:
    """Run the recursion and the direct solve side by side over a series.

    ``init_count`` sets the batch-initialization length for the unbounded
    profile (windowed profiles always initialize over w samples).
    """
    samples = list(samples)
    unbounded = isinstance(profile, ExponentialProfile) and profile.unbounded
    if unbounded:
        if init_count is None:
            raise ValueError("init_count is required for the unbounded profile")
        window = init_count
    else:
        window = profile.w
    if len(samples) < window + 1:
        raise ValueError("need at least one step beyond the initial window")

    est = RlsEstimator.init(profile, model, samples[:window])
    theta_dev_max = 0.0
    gamma_dev_max = 0.0

    for sample in samples[window:]:
        est.step(sample)
        a_direct, theta_direct = direct_weighted_ls(profile, model, samples, est.k)
        gamma_direct = np.linalg.inv(a_direct)
        theta_dev = float(
            np.linalg.norm(est.theta - theta_direct) / np.linalg.norm(theta_direct)
        )
        gamma_dev = float(
            np.linalg.norm(est.gamma - gamma_direct) / np.linalg.norm(gamma_direct)
        )
        theta_dev_max = max(theta_dev_max, theta_dev)
        gamma_dev_max = max(gamma_dev_max, gamma_dev)

    return TrajectoryReport(
        theta_dev_max=theta_dev_max,
        gamma_dev_max=gamma_dev_max,
        steps=len(samples) - window,
    )


# ----------------------------------------------------------------------
# Monte-Carlo unbiasedness


@dataclass
class BiasReport:
    bias: np.ndarray
    standard_error: np.ndarray
    trials: int
    at_index: int

    def within(self, n_sigmas: float) -> bool:
        return bool(np.all(np.abs(self.bias) <= n_sigmas * self.standard_error))


def monte_carlo_bias(
    profile: ForgettingProfile,
    spec: SyntheticSpec,
    trials: int,
    k: int,
    *,
    init_count: int | None = None,
) -> BiasReport:
    """Componentwise mean(theta_k) - theta_star over independent realizations."""
    if trials < 100:
        raise RangeError("at least 100 trials are required for the bias estimate")
    unbounded = isinstance(profile, ExponentialProfile) and profile.unbounded
    window = (init_count if unbounded else profile.w)
    if window is None:
        raise ValueError("init_count is required for the unbounded profile")
    if not window < k <= spec.length:
        raise ValueError(f"index k={k} must lie in ({window}, {spec.length}]")

    estimates = np.empty((trials, spec.model.dim))
    for t in range(trials):
        trial_spec = SyntheticSpec(
            model=spec.model,
            theta_star=spec.theta_star,
            noise_sigma=spec.noise_sigma,
            seed=derive_seed(spec.seed, t),
            length=spec.length,
        )
        series = synth_generate(trial_spec)
        est = RlsEstimator.init(profile, spec.model, series[:window])
        for sample in series[window:k]:
            est.step(sample)
        estimates[t] = est.theta

    mean = estimates.mean(axis=0)
    se = estimates.std(axis=0, ddof=1) / math.sqrt(trials)
    return BiasReport(
        bias=mean - spec.theta_star, standard_error=se, trials=trials, at_index=k
    )


# ----------------------------------------------------------------------
# round-off accumulation: one-pass batch vs chained rank-one updates


@dataclass
class AccumulationReport:
    batch_errors: np.ndarray
    chain_errors: np.ndarray
    median_batch: float
    median_chain: float
    singular_incidents: int
    trials: int


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

    Reference-only: used to measure the float64 update paths against a
    direct inverse whose own error sits orders of magnitude below theirs.
    """
    a = np.asarray(a, dtype=np.longdouble)
    n = a.shape[0]
    aug = np.hstack([a, np.eye(n, dtype=np.longdouble)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if aug[piv, col] == 0:
            raise ZeroDivisionError(f"singular matrix at column {col}")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col] = aug[col] / aug[col, col]
        rows = np.arange(n) != col
        aug[rows] -= np.outer(aug[rows, col], aug[col])
    return aug[:, n:]


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


def accumulation_experiment(
    n: int,
    steps: int,
    cond_target: float,
    trials: int,
    *,
    seed: int = 0,
) -> AccumulationReport:
    """Round-off of the one-pass batch update vs the chained rank-one path.

    Each trial draws an SPD matrix B near the target condition number and a
    window-transition column batch, applies both update paths to the same
    correctly rounded B^{-1}, and measures each against an extended-precision
    direct inverse of B + Q D Q^T.  Intermediate singularities in the chain
    are counted, not raised; the affected trial records an infinite chain
    error.
    """
    batch_errors = np.empty(trials)
    chain_errors = np.empty(trials)
    incidents = 0

    for t in range(trials):
        trial_seed = derive_seed(seed, t)
        b = random_spd_with_cond(n, cond_target, trial_seed)
        b_ld = np.asarray(b, dtype=np.longdouble)
        b_inv = linalg.symmetrize(np.asarray(gauss_jordan_inverse(b_ld), dtype=float))
        cols, signs = _window_transition_batch(n, steps, b_inv, trial_seed)

        a_ld = b_ld + (np.asarray(cols, dtype=np.longdouble) * signs) @ np.asarray(
            cols, dtype=np.longdouble
        ).T
        reference = gauss_jordan_inverse(a_ld)
        scale = math.sqrt(float(np.sum((reference * reference).astype(float))))

        got = linalg.batch_inverse_update(b_inv, cols, signs)
        batch_errors[t] = (
            math.sqrt(float(np.sum(((got - reference) ** 2).astype(float)))) / scale
        )
        try:
            got_chain = linalg.chain_sherman_morrison(b_inv, cols, signs)
            chain_errors[t] = (
                math.sqrt(float(np.sum(((got_chain - reference) ** 2).astype(float))))
                / scale
            )
        except IntermediateSingularityError:
            incidents += 1
            chain_errors[t] = math.inf

    return AccumulationReport(
        batch_errors=batch_errors,
        chain_errors=chain_errors,
        median_batch=float(np.median(batch_errors)),
        median_chain=float(np.median(chain_errors)),
        singular_incidents=incidents,
        trials=trials,
    )
