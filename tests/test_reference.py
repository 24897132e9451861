import math

import numpy as np
import pytest

from segrls.errors import NotPositiveDefiniteError, RangeError
from segrls.estimator import Sample
from segrls.harmonic import make_harmonic_model, regressor_at
from segrls.profile import ExponentialProfile, SegmentedProfile
from segrls.reference import (
    SyntheticSpec,
    accumulation_experiment,
    compare_trajectory,
    derive_seed,
    direct_weighted_ls,
    gauss_jordan_inverse,
    monte_carlo_bias,
    random_normals,
    random_uniforms,
    synth_generate,
)

MODEL = make_harmonic_model(40.0, 2)  # n = 7
THETA_STAR = np.array([2.0, 4.0, -1.0, 0.5, 0.3, -0.2, 0.1])
PROFILE = SegmentedProfile(beta=0.85, lam=0.97, m=30, p=1, w=50)


def spec(sigma, seed=11, length=160, theta=THETA_STAR):
    return SyntheticSpec(
        model=MODEL, theta_star=theta, noise_sigma=sigma, seed=seed, length=length
    )


class TestGenerators:
    def test_uniforms_in_unit_interval(self):
        u = random_uniforms(3, 10_000)
        assert 0.0 <= u.min() and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.01

    def test_normals_moments(self):
        z = random_normals(3, 200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_streams_are_deterministic_and_distinct(self):
        assert np.array_equal(random_normals(7, 64), random_normals(7, 64))
        assert not np.array_equal(random_normals(7, 64), random_normals(8, 64))
        assert not np.array_equal(
            random_normals(7, 64, stream=0), random_normals(7, 64, stream=1)
        )

    def test_derive_seed_deterministic(self):
        assert derive_seed(5, 3) == derive_seed(5, 3)
        assert derive_seed(5, 3) != derive_seed(5, 4)

    def test_gauss_jordan_inverse(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        got = np.asarray(gauss_jordan_inverse(a), dtype=float)
        assert np.allclose(got @ a, np.eye(6), atol=1e-12)


class TestSynthGenerate:
    def test_noiseless_is_exact_signal(self):
        series = synth_generate(spec(0.0))
        for sample in series[:20]:
            clean = float(regressor_at(MODEL, sample.k) @ THETA_STAR)
            assert sample.y == pytest.approx(clean, abs=1e-14)

    def test_unit_variance_noise(self):
        series = synth_generate(spec(1.0, length=10_000, theta=np.zeros(MODEL.dim)))
        values = np.array([s.y for s in series])
        assert np.var(values) == pytest.approx(1.0, rel=0.05)

    def test_same_seed_identical(self):
        a = synth_generate(spec(2.0, seed=9))
        b = synth_generate(spec(2.0, seed=9))
        assert a == b

    def test_spec_validation(self):
        with pytest.raises(RangeError):
            SyntheticSpec(MODEL, np.zeros(3), 1.0, 0, 10)
        with pytest.raises(RangeError):
            spec(-1.0)
        with pytest.raises(RangeError):
            spec(1.0, length=0)


class TestDirectWeightedLs:
    def test_noiseless_recovers_truth(self):
        series = synth_generate(spec(0.0))
        _, theta = direct_weighted_ls(PROFILE, MODEL, series, 100)
        assert np.linalg.norm(theta - THETA_STAR) <= 1e-8 * np.linalg.norm(THETA_STAR)

    def test_accumulation_order_insensitive(self):
        from segrls.profile import weights

        series = synth_generate(spec(1.0))
        k = 90
        a, theta = direct_weighted_ls(PROFILE, MODEL, series, k)
        # reassemble the normal equations in shuffled order
        rng = np.random.default_rng(0)
        order = rng.permutation(PROFILE.w)
        f = weights(PROFILE, PROFILE.w)
        a_shuffled = np.zeros_like(a)
        b_shuffled = np.zeros(MODEL.dim)
        for j in order:
            phi = regressor_at(MODEL, k - j)
            a_shuffled += f[j] * np.outer(phi, phi)
            b_shuffled += f[j] * phi * series[k - 1 - j].y
        theta_shuffled = np.linalg.solve(a_shuffled, b_shuffled)
        assert np.linalg.norm(theta - theta_shuffled) <= 1e-10 * np.linalg.norm(theta)

    def test_square_window_interpolates(self):
        # w = n over one complete period: regressors orthogonal, the square
        # system interpolates, so theta recovers the generating coefficients
        model = make_harmonic_model(7.0, 2)  # n = 7
        prof = ExponentialProfile(1.0 - 1e-12, 7)
        theta_star = np.array([1.0, -2.0, 0.5, 0.25, 3.0, -1.5, 0.75])
        series = synth_generate(
            SyntheticSpec(model=model, theta_star=theta_star, noise_sigma=0.0,
                          seed=2, length=7)
        )
        _, theta = direct_weighted_ls(prof, model, series, 7)
        assert np.linalg.norm(theta - theta_star) <= 1e-9 * np.linalg.norm(theta_star)

    def test_rank_deficient_rejected(self):
        model = make_harmonic_model(365.25, 16)
        prof = ExponentialProfile(0.99, model.dim)
        series = [Sample(k, 0.5) for k in range(1, model.dim + 1)]
        with pytest.raises(NotPositiveDefiniteError):
            direct_weighted_ls(prof, model, series, model.dim)

    def test_out_of_range_index(self):
        series = synth_generate(spec(0.0))
        with pytest.raises(ValueError):
            direct_weighted_ls(PROFILE, MODEL, series, 10_000)


class TestCompareTrajectory:
    def test_zero_noise_deviations_negligible(self):
        series = synth_generate(spec(0.0, length=80))
        report = compare_trajectory(PROFILE, MODEL, series)
        assert report.steps == 30
        assert report.theta_dev_max <= 1e-10
        assert report.gamma_dev_max <= 1e-10

    def test_unbounded_needs_init_count(self):
        series = synth_generate(spec(1.0, length=70))
        with pytest.raises(ValueError):
            compare_trajectory(ExponentialProfile(0.97), MODEL, series)


class TestMonteCarloBias:
    def test_noiseless_bias_is_solver_noise(self):
        report = monte_carlo_bias(PROFILE, spec(0.0, length=60), 100, 55)
        assert np.max(np.abs(report.bias)) <= 1e-9

    def test_minimum_trial_count_enforced(self):
        with pytest.raises(RangeError):
            monte_carlo_bias(PROFILE, spec(1.0, length=60), 99, 55)

    def test_standard_error_shrinks_with_sqrt_trials(self):
        se_100 = monte_carlo_bias(PROFILE, spec(1.0, length=60), 100, 55).standard_error
        se_400 = monte_carlo_bias(PROFILE, spec(1.0, length=60), 400, 55).standard_error
        ratio = float(np.mean(se_100) / np.mean(se_400))
        assert ratio == pytest.approx(2.0, rel=0.25)

    def test_seeded_bias_within_confidence(self):
        report = monte_carlo_bias(PROFILE, spec(1.0, length=60), 120, 55)
        assert report.within(4.0)


class TestAccumulationExperiment:
    def test_well_conditioned_single_column_paths_agree(self):
        report = accumulation_experiment(6, 1, 1.0, 5, seed=3)
        assert report.median_batch <= 1e-14
        assert report.median_chain <= 1e-14
        assert report.singular_incidents == 0

    def test_ill_conditioned_batch_beats_chain(self):
        report = accumulation_experiment(12, 6, 1e8, 20, seed=1)
        assert report.median_batch <= report.median_chain

    def test_condition_target_validated(self):
        with pytest.raises(RangeError):
            accumulation_experiment(6, 2, 0.5, 3)
