"""Verification suites: each acceptance criterion as a callable check.

The synthetic criteria are fully self-contained; the two data-driven checks
(fit-quality ordering and forecast coverage) take a daily value array, index
k at ``values[k - 1]``, so they can run against the observatory series or
any daily file.

Every criterion ends in ``_result``, the one place that measures a check's
elapsed time and applies its time budget (``budget_s``, given at each call):
a check that ran past its budget fails even when its condition holds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
import numpy as np

from . import linalg
from .estimator import RlsEstimator, information_matrix
from .harmonic import HarmonicModel, make_harmonic_model
from .profile import (
    ExponentialProfile,
    SegmentedProfile,
    update_template,
    weights,
)
from .reference import (
    SyntheticSpec,
    accumulation_experiment,
    compare_trajectory,
    derive_seed,
    monte_carlo_bias,
    random_normals,
    random_uniforms,
    synth_generate,
)

DEFAULT_SEED = 20250801

# Fig-2 style setup: annual cycle of daily data, sixteen higher harmonics.
STANDARD_PERIOD = 365.25
STANDARD_HARMONICS = 16
FIG2_BETA, FIG2_LAMBDA, FIG2_M, FIG2_P, FIG2_W = 0.89, 0.99, 250, 1, 400
FIG1_BETA, FIG1_LAMBDA, FIG1_M, FIG1_P, FIG1_W = 0.92, 0.96, 60, 1, 400

NOISE_SIGMA = 2.0
SERIES_LENGTH = 1000  # 400-sample window + 600 verification steps

A3_TRIALS = 200          # random Woodbury systems checked against direct inversion
A5_STEPS = 100           # noiseless steps past the initial window
A10_HOLDOUT_DAYS = 365   # held-out span at the end of the series
A10_HORIZON = 30         # forecast lead, in days


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.name}] {status} ({self.elapsed:.1f}s) {self.detail}"


def _result(name, start, passed, detail, budget_s=math.inf) -> CriterionResult:
    """The result of a check begun at ``start``; past ``budget_s`` seconds it fails."""
    elapsed = time.perf_counter() - start
    return CriterionResult(name, passed and elapsed <= budget_s, detail, elapsed)


def standard_model() -> HarmonicModel:
    return make_harmonic_model(STANDARD_PERIOD, STANDARD_HARMONICS)


def standard_theta(model: HarmonicModel) -> np.ndarray:
    """Deterministic temperature-like parameter vector: strong annual cycle,
    higher harmonics decaying as 1/(i+1)."""
    theta = np.zeros(model.dim)
    theta[0] = 6.0
    theta[1] = -9.0
    theta[2] = -2.5
    for i in range(1, model.harmonics + 1):
        theta[1 + 2 * i] = 3.0 / (i + 1)
        theta[2 + 2 * i] = -2.0 / (i + 1)
    return theta


def fig2_profile() -> SegmentedProfile:
    return SegmentedProfile(FIG2_BETA, FIG2_LAMBDA, FIG2_M, FIG2_P, FIG2_W)


def _standard_series(seed: int, noise_sigma: float = NOISE_SIGMA) -> np.ndarray:
    model = standard_model()
    spec = SyntheticSpec(
        model=model,
        theta_star=standard_theta(model),
        noise_sigma=noise_sigma,
        seed=seed,
        length=SERIES_LENGTH,
    )
    return synth_generate(spec)


# ----------------------------------------------------------------------
# A1 / A2: oracle equivalence of the recursion


def criterion_a1(seed: int = DEFAULT_SEED) -> CriterionResult:
    start = time.perf_counter()
    model = standard_model()
    series = _standard_series(seed)
    report = compare_trajectory(fig2_profile(), model, series)
    return _result("A1", start, report.theta_dev_max <= 1e-6 and report.gamma_dev_max <= 1e-6,
                   f"segmented: max theta dev {report.theta_dev_max:.2e}, "
                   f"max gamma dev {report.gamma_dev_max:.2e} over {len(series) - FIG2_W} steps "
                   f"(tol 1e-6)", budget_s=60.0)


def criterion_a2(seed: int = DEFAULT_SEED) -> CriterionResult:
    start = time.perf_counter()
    model = standard_model()
    series = _standard_series(seed)
    rep_fin = compare_trajectory(ExponentialProfile(FIG2_LAMBDA, FIG2_W), model, series)
    rep_inf = compare_trajectory(
        ExponentialProfile(FIG2_LAMBDA), model, series, init_count=FIG2_W
    )
    worst_theta = max(rep_fin.theta_dev_max, rep_inf.theta_dev_max)
    worst_gamma = max(rep_fin.gamma_dev_max, rep_inf.gamma_dev_max)
    return _result("A2", start, worst_theta <= 1e-6 and worst_gamma <= 1e-6,
                   f"rank-2 and rank-1 profiles: max theta dev {worst_theta:.2e}, "
                   f"max gamma dev {worst_gamma:.2e} (tol 1e-6)", budget_s=60.0)


# ----------------------------------------------------------------------
# A3: batch Woodbury update vs direct inversion


def criterion_a3(seed: int = DEFAULT_SEED) -> CriterionResult:
    start = time.perf_counter()
    worst = 0.0
    for t in range(A3_TRIALS):
        trial_seed = derive_seed(seed, t)
        u = random_uniforms(trial_seed, 2, stream=1)
        n = 3 + int(u[0] * 48)
        r = 1 + int(u[1] * 8)
        g = random_normals(trial_seed, n * n, stream=2).reshape(n, n)
        b = g @ g.T + n * np.eye(n)
        b_inv = np.linalg.inv(b)
        for attempt in range(64):
            cols = random_normals(
                derive_seed(trial_seed, attempt), n * r, stream=3
            ).reshape(n, r)
            signs = np.where(
                random_uniforms(derive_seed(trial_seed, attempt), r, stream=4) < 0.5,
                -1.0,
                1.0,
            )
            a = b + (cols * signs) @ cols.T
            if np.linalg.cond(a) < 1e8:
                break
        direct = np.linalg.inv(a)
        got = linalg.batch_inverse_update(b_inv, cols, signs)
        worst = max(worst, np.linalg.norm(got - direct) / np.linalg.norm(direct))

    # add-then-remove-identical-column must return the input
    g = random_normals(seed, 12 * 12, stream=5).reshape(12, 12)
    b_inv = np.linalg.inv(g @ g.T + 12 * np.eye(12))
    x = random_normals(seed, 12, stream=6)
    got = linalg.batch_inverse_update(b_inv, np.column_stack([x, x]), [1.0, -1.0])
    cancel = np.linalg.norm(got - b_inv) / np.linalg.norm(b_inv)

    return _result("A3", start, worst <= 1e-9 and cancel <= 1e-12,
                   f"{A3_TRIALS} trials: worst rel error {worst:.2e} (tol 1e-9), "
                   f"add/remove cancellation {cancel:.2e} (tol 1e-12)", budget_s=10.0)


# ----------------------------------------------------------------------
# A4: telescoping tail and template shape


def criterion_a4() -> CriterionResult:
    start = time.perf_counter()
    prof = fig2_profile()
    tail = weights(prof, prof.w)[prof.p + 1 :]
    worst = float(np.max(np.abs(tail[1:] - prof.lam * tail[:-1]) / tail[1:]))
    template = update_template(prof)
    shape_ok = template.rank == prof.p + 3 and template.signs == (1, -1, -1, -1)
    return _result("A4", start, worst <= 1e-12 and shape_ok,
                   f"telescoping max rel {worst:.2e} (tol 1e-12); rank {template.rank} "
                   f"signs {list(template.signs)}")


# ----------------------------------------------------------------------
# A5: noiseless recovery and fixed point


def criterion_a5(seed: int = DEFAULT_SEED) -> CriterionResult:
    start = time.perf_counter()
    model = standard_model()
    theta_star = standard_theta(model)
    series = _standard_series(seed, noise_sigma=0.0)[: FIG2_W + A5_STEPS]
    norm = np.linalg.norm(theta_star)
    worst = 0.0
    # every profile starts from the first FIG2_W values: the window, or the infinite's init
    for prof in (
        fig2_profile(),
        ExponentialProfile(FIG2_LAMBDA, FIG2_W),
        ExponentialProfile(FIG2_LAMBDA),
    ):
        est = RlsEstimator.init(prof, model, series[:FIG2_W])
        worst = max(worst, np.linalg.norm(est.theta - theta_star) / norm)
        for k in range(FIG2_W + 1, len(series) + 1):
            est.step((k, series[k - 1]))
            worst = max(worst, np.linalg.norm(est.theta - theta_star) / norm)
    return _result("A5", start, worst <= 1e-8,
                   f"noiseless recovery, three profiles: worst rel dev {worst:.2e} (tol 1e-8)")


# ----------------------------------------------------------------------
# A7: condition-number ordering of the information matrix


def criterion_a7() -> CriterionResult:
    """cond(A) under the pure-fast, segmented and pure-slow Fig-1 laws, same span."""
    start = time.perf_counter()
    model = standard_model()
    cond_fast, cond_seg, cond_slow = (
        linalg.condition_number(information_matrix(prof, model, FIG1_W, FIG1_W))
        for prof in (
            ExponentialProfile(FIG1_BETA, FIG1_W),
            SegmentedProfile(FIG1_BETA, FIG1_LAMBDA, FIG1_M, FIG1_P, FIG1_W),
            ExponentialProfile(FIG1_LAMBDA, FIG1_W),
        )
    )
    return _result("A7", start, cond_fast > cond_seg > cond_slow,
                   f"cond ordering fast {cond_fast:.3e} > segmented {cond_seg:.3e} "
                   f"> slow {cond_slow:.3e}")


# ----------------------------------------------------------------------
# A8: round-off accumulation, batch vs chained updates


def criterion_a8(seed: int = DEFAULT_SEED, trials: int = 100) -> CriterionResult:
    start = time.perf_counter()
    report = accumulation_experiment(35, 8, 1e8, trials, seed=seed)
    return _result("A8", start, report.median_batch <= report.median_chain,
                   f"median error batch {report.median_batch:.2e} <= chain "
                   f"{report.median_chain:.2e} over {trials} trials "
                   f"({report.singular_incidents} chain singularities)", budget_s=30.0)


# ----------------------------------------------------------------------
# A9: Monte-Carlo unbiasedness


def criterion_a9(seed: int = DEFAULT_SEED, trials: int = 200) -> CriterionResult:
    start = time.perf_counter()
    model = standard_model()
    k = FIG2_W + 30
    spec = SyntheticSpec(
        model=model,
        theta_star=standard_theta(model),
        noise_sigma=NOISE_SIGMA,
        seed=seed,
        length=k,
    )
    report = monte_carlo_bias(fig2_profile(), spec, trials, k)
    bias, se = report.bias, report.standard_error
    ratio = float(np.max(np.abs(bias) / se))
    return _result("A9", start, bool(np.all(np.abs(bias) <= 4.0 * se)),
                   f"{trials} trials at k={k}: worst |bias|/SE {ratio:.2f} (limit 4)",
                   budget_s=300.0)


# ----------------------------------------------------------------------
# A6 / A10: data-driven fit quality and forecast coverage


def criterion_a6(values: np.ndarray) -> CriterionResult:
    """Segmented Fig-2 profile must beat the rank-2 exponential baseline."""
    start = time.perf_counter()
    if len(values) < 3000:
        raise ValueError("criterion needs a span of at least 3000 days")
    model = standard_model()
    rest = values[FIG2_W:]

    def residuals(profile):
        """y - phi^T theta after each step past the window."""
        yhat, _, _ = RlsEstimator.init(profile, model, values[:FIG2_W]).run(rest)
        return rest - yhat[1:]

    res_seg = residuals(fig2_profile())
    res_exp = residuals(ExponentialProfile(FIG2_LAMBDA, FIG2_W))
    rmse_seg = math.sqrt(float(np.mean(res_seg**2)))
    rmse_exp = math.sqrt(float(np.mean(res_exp**2)))
    std_seg = float(np.std(res_seg))
    std_exp = float(np.std(res_exp))
    return _result("A6", start, rmse_seg < rmse_exp and std_seg < std_exp,
                   f"RMSE segmented {rmse_seg:.4f} vs exponential {rmse_exp:.4f} "
                   f"(ratio {rmse_seg / rmse_exp:.3f}); "
                   f"residual std {std_seg:.4f} vs {std_exp:.4f}", budget_s=300.0)


def criterion_a10(values: np.ndarray) -> CriterionResult:
    """30-day-ahead first-harmonic band must cover >= 0.90 of a held-out year."""
    start = time.perf_counter()
    model = standard_model()
    cutoff = len(values) - A10_HOLDOUT_DAYS
    if cutoff <= FIG2_W + A10_HORIZON:
        raise ValueError("series too short for the held-out span")
    est = RlsEstimator.init(fig2_profile(), model, values[:FIG2_W])
    hits = 0
    total = 0
    for k in range(FIG2_W + 1, len(values) + 1):
        est.step((k, values[k - 1]))
        target = k + A10_HORIZON
        if cutoff < target <= len(values):
            band = est.forecast(A10_HORIZON)
            total += 1
            hits += int(band.lower[-1] <= values[target - 1] <= band.upper[-1])
    coverage = hits / total if total else float("nan")
    return _result("A10", start, total > 0 and coverage >= 0.90,
                   f"coverage {coverage:.3f} over {total} forecasts (threshold 0.90, "
                   f"an operationalization of the qualitative claim)")


# ----------------------------------------------------------------------


def run_synthetic_suite(trials: int = 200, seed: int = DEFAULT_SEED):
    """All self-contained criteria, in order."""
    return [
        criterion_a1(seed),
        criterion_a2(seed),
        criterion_a3(seed),
        criterion_a4(),
        criterion_a5(seed),
        criterion_a7(),
        criterion_a8(seed, trials=max(100, trials // 2)),
        criterion_a9(seed, trials=trials),
    ]
