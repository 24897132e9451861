"""Verification suites: each acceptance criterion as a callable check.

The synthetic criteria are fully self-contained; the two data-driven checks
(fit-quality ordering and forecast coverage) take a prepared sample sequence
so they can run against the observatory series or any daily file.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .estimator import RlsEstimator, Sample, information_matrix
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


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.name}] {status} ({self.elapsed:.1f}s) {self.detail}"


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


def _standard_series(seed: int, noise_sigma: float = NOISE_SIGMA) -> list[Sample]:
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
    elapsed = time.perf_counter() - start
    passed = (
        report.theta_dev_max <= 1e-6
        and report.gamma_dev_max <= 1e-6
        and elapsed <= 60.0
    )
    return CriterionResult(
        "A1",
        passed,
        f"segmented: max theta dev {report.theta_dev_max:.2e}, "
        f"max gamma dev {report.gamma_dev_max:.2e} over {report.steps} steps "
        f"(tol 1e-6)",
        elapsed,
    )


def criterion_a2(seed: int = DEFAULT_SEED) -> CriterionResult:
    start = time.perf_counter()
    model = standard_model()
    series = _standard_series(seed)
    rep_fin = compare_trajectory(ExponentialProfile(FIG2_LAMBDA, FIG2_W), model, series)
    rep_inf = compare_trajectory(
        ExponentialProfile(FIG2_LAMBDA), model, series, init_count=FIG2_W
    )
    elapsed = time.perf_counter() - start
    worst_theta = max(rep_fin.theta_dev_max, rep_inf.theta_dev_max)
    worst_gamma = max(rep_fin.gamma_dev_max, rep_inf.gamma_dev_max)
    passed = worst_theta <= 1e-6 and worst_gamma <= 1e-6 and elapsed <= 60.0
    return CriterionResult(
        "A2",
        passed,
        f"rank-2 and rank-1 profiles: max theta dev {worst_theta:.2e}, "
        f"max gamma dev {worst_gamma:.2e} (tol 1e-6)",
        elapsed,
    )


# ----------------------------------------------------------------------
# A3: batch Woodbury update vs direct inversion


def criterion_a3(seed: int = DEFAULT_SEED, trials: int = 200) -> CriterionResult:
    start = time.perf_counter()
    worst = 0.0
    for t in range(trials):
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

    elapsed = time.perf_counter() - start
    passed = worst <= 1e-9 and cancel <= 1e-12 and elapsed <= 10.0
    return CriterionResult(
        "A3",
        passed,
        f"{trials} trials: worst rel error {worst:.2e} (tol 1e-9), "
        f"add/remove cancellation {cancel:.2e} (tol 1e-12)",
        elapsed,
    )


# ----------------------------------------------------------------------
# A4: telescoping tail and template shape


def criterion_a4() -> CriterionResult:
    start = time.perf_counter()
    prof = fig2_profile()
    tail = weights(prof, prof.w)[prof.p + 1 :]
    worst = float(np.max(np.abs(tail[1:] - prof.lam * tail[:-1]) / tail[1:]))
    template = update_template(prof)
    shape_ok = template.rank == prof.p + 3 and template.signs == (1, -1, -1, -1)
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-12 and shape_ok
    return CriterionResult(
        "A4",
        passed,
        f"telescoping max rel {worst:.2e} (tol 1e-12); rank {template.rank} "
        f"signs {list(template.signs)}",
        elapsed,
    )


# ----------------------------------------------------------------------
# A5: noiseless recovery and fixed point


def criterion_a5(seed: int = DEFAULT_SEED, steps: int = 100) -> CriterionResult:
    start = time.perf_counter()
    model = standard_model()
    theta_star = standard_theta(model)
    series = _standard_series(seed, noise_sigma=0.0)[: FIG2_W + steps]
    norm = np.linalg.norm(theta_star)
    worst = 0.0
    for prof, init_count in (
        (fig2_profile(), None),
        (ExponentialProfile(FIG2_LAMBDA, FIG2_W), None),
        (ExponentialProfile(FIG2_LAMBDA), FIG2_W),
    ):
        window = init_count or prof.w
        est = RlsEstimator.init(prof, model, series[:window])
        worst = max(worst, np.linalg.norm(est.theta - theta_star) / norm)
        for sample in series[window:]:
            est.step(sample)
            worst = max(worst, np.linalg.norm(est.theta - theta_star) / norm)
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-8
    return CriterionResult(
        "A5",
        passed,
        f"noiseless recovery, three profiles: worst rel dev {worst:.2e} (tol 1e-8)",
        elapsed,
    )


# ----------------------------------------------------------------------
# A7: condition-number ordering of the information matrix


def condition_ordering(beta: float, lam: float, m: int, p: int, w: int):
    """cond(A) under the pure-fast, segmented and pure-slow laws, same span."""
    model = standard_model()
    seg = SegmentedProfile(beta, lam, m, p, w)
    fast = ExponentialProfile(beta, w)
    slow = ExponentialProfile(lam, w)
    return tuple(
        linalg.condition_number(information_matrix(prof, model, w, w))
        for prof in (fast, seg, slow)
    )


def criterion_a7() -> CriterionResult:
    start = time.perf_counter()
    cond_fast, cond_seg, cond_slow = condition_ordering(
        FIG1_BETA, FIG1_LAMBDA, FIG1_M, FIG1_P, FIG1_W
    )
    elapsed = time.perf_counter() - start
    passed = cond_fast > cond_seg > cond_slow
    return CriterionResult(
        "A7",
        passed,
        f"cond ordering fast {cond_fast:.3e} > segmented {cond_seg:.3e} "
        f"> slow {cond_slow:.3e}",
        elapsed,
    )


# ----------------------------------------------------------------------
# A8: round-off accumulation, batch vs chained updates


def criterion_a8(seed: int = DEFAULT_SEED, trials: int = 100) -> CriterionResult:
    start = time.perf_counter()
    report = accumulation_experiment(35, 8, 1e8, trials, seed=seed)
    elapsed = time.perf_counter() - start
    passed = report.median_batch <= report.median_chain and elapsed <= 30.0
    return CriterionResult(
        "A8",
        passed,
        f"median error batch {report.median_batch:.2e} <= chain "
        f"{report.median_chain:.2e} over {trials} trials "
        f"({report.singular_incidents} chain singularities)",
        elapsed,
    )


# ----------------------------------------------------------------------
# A9: Monte-Carlo unbiasedness


def criterion_a9(seed: int = DEFAULT_SEED, trials: int = 200) -> CriterionResult:
    start = time.perf_counter()
    model = standard_model()
    spec = SyntheticSpec(
        model=model,
        theta_star=standard_theta(model),
        noise_sigma=NOISE_SIGMA,
        seed=seed,
        length=FIG2_W + 30,
    )
    report = monte_carlo_bias(fig2_profile(), spec, trials, FIG2_W + 30)
    elapsed = time.perf_counter() - start
    ratio = float(np.max(np.abs(report.bias) / report.standard_error))
    passed = report.within(4.0) and elapsed <= 300.0
    return CriterionResult(
        "A9",
        passed,
        f"{trials} trials at k={report.at_index}: worst |bias|/SE {ratio:.2f} (limit 4)",
        elapsed,
    )


# ----------------------------------------------------------------------
# A6 / A10: data-driven fit quality and forecast coverage


def fit_residuals(profile, model: HarmonicModel, samples: Sequence[Sample], window: int):
    est = RlsEstimator.init(profile, model, samples[:window])
    residuals = []
    for sample in samples[window:]:
        est.step(sample)
        residuals.append(est.residual(sample))
    return est, np.asarray(residuals)


def criterion_a6(samples: Sequence[Sample], label: str = "A6") -> CriterionResult:
    """Segmented Fig-2 profile must beat the rank-2 exponential baseline."""
    start = time.perf_counter()
    if len(samples) < 3000:
        raise ValueError("criterion needs a span of at least 3000 days")
    model = standard_model()
    _, res_seg = fit_residuals(fig2_profile(), model, samples, FIG2_W)
    _, res_exp = fit_residuals(
        ExponentialProfile(FIG2_LAMBDA, FIG2_W), model, samples, FIG2_W
    )
    rmse_seg = math.sqrt(float(np.mean(res_seg**2)))
    rmse_exp = math.sqrt(float(np.mean(res_exp**2)))
    std_seg = float(np.std(res_seg))
    std_exp = float(np.std(res_exp))
    elapsed = time.perf_counter() - start
    passed = rmse_seg < rmse_exp and std_seg < std_exp and elapsed <= 300.0
    return CriterionResult(
        label,
        passed,
        f"RMSE segmented {rmse_seg:.4f} vs exponential {rmse_exp:.4f} "
        f"(ratio {rmse_seg / rmse_exp:.3f}); residual std {std_seg:.4f} vs {std_exp:.4f}",
        elapsed,
    )


def criterion_a10(
    samples: Sequence[Sample],
    holdout_days: int = 365,
    horizon: int = 30,
    label: str = "A10",
) -> CriterionResult:
    """30-day-ahead first-harmonic band must cover >= 0.90 of a held-out year."""
    start = time.perf_counter()
    model = standard_model()
    cutoff = len(samples) - holdout_days
    if cutoff <= FIG2_W + horizon:
        raise ValueError("series too short for the held-out span")
    est = RlsEstimator.init(fig2_profile(), model, samples[:FIG2_W])
    by_index = {s.k: s.y for s in samples}
    first_target = samples[cutoff].k
    hits = 0
    total = 0
    for sample in samples[FIG2_W:]:
        est.step(sample)
        target = est.k + horizon
        if target >= first_target and target in by_index:
            point = est.forecast(horizon).points[-1]
            total += 1
            hits += int(point.lower <= by_index[target] <= point.upper)
    coverage = hits / total if total else float("nan")
    elapsed = time.perf_counter() - start
    passed = total > 0 and coverage >= 0.90
    return CriterionResult(
        label,
        passed,
        f"coverage {coverage:.3f} over {total} forecasts (threshold 0.90, "
        f"an operationalization of the qualitative claim)",
        elapsed,
    )


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
