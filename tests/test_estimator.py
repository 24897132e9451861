import math

import numpy as np
import pytest

from segrls import linalg
from segrls.errors import (
    IndexGapError,
    InsufficientDataError,
    NotPositiveDefiniteError,
    RangeError,
    SingularUpdateError,
    WindowTooSmallError,
)
from segrls.estimator import RlsEstimator, Sample
from segrls.harmonic import make_harmonic_model, predict_first_harmonic
from segrls.profile import ExponentialProfile, SegmentedProfile
from segrls.reference import SyntheticSpec, direct_weighted_ls, synth_generate

MODEL = make_harmonic_model(40.0, 2)  # n = 7
THETA_STAR = np.array([2.0, 4.0, -1.0, 0.5, 0.3, -0.2, 0.1])
PROFILE = SegmentedProfile(beta=0.85, lam=0.97, m=30, p=1, w=50)


def make_series(sigma, seed=11, length=160):
    spec = SyntheticSpec(
        model=MODEL, theta_star=THETA_STAR, noise_sigma=sigma, seed=seed, length=length
    )
    return synth_generate(spec)


def init_on(series, profile=PROFILE, **kwargs):
    return RlsEstimator.init(profile, MODEL, series[: profile.w], **kwargs)


class TestInit:
    def test_noiseless_recovery(self):
        est = init_on(make_series(0.0))
        assert np.linalg.norm(est.theta - THETA_STAR) <= 1e-8 * np.linalg.norm(THETA_STAR)

    def test_window_smaller_than_dimension(self):
        series = make_series(0.0)[:6]
        with pytest.raises(WindowTooSmallError):
            RlsEstimator.init(ExponentialProfile(0.99, 6), MODEL, series)

    def test_exact_sample_count_required(self):
        with pytest.raises(ValueError):
            RlsEstimator.init(PROFILE, MODEL, make_series(0.0)[: PROFILE.w - 1])

    def test_non_finite_value_rejected(self):
        series = make_series(0.0)[: PROFILE.w]
        series[10] = Sample(series[10].k, math.inf)
        with pytest.raises(RangeError):
            RlsEstimator.init(PROFILE, MODEL, series)

    def test_consecutive_indices_required(self):
        series = make_series(0.0)[: PROFILE.w]
        series[10] = Sample(series[10].k + 5, series[10].y)
        with pytest.raises(IndexGapError):
            RlsEstimator.init(PROFILE, MODEL, series)

    def test_deficient_excitation_raises(self):
        # 35 parameters over 35 consecutive days: the low harmonics of the
        # annual cycle are numerically collinear on so short a window
        model = make_harmonic_model(365.25, 16)
        profile = ExponentialProfile(0.99, model.dim)
        series = [Sample(k, math.sin(0.1 * k)) for k in range(1, model.dim + 1)]
        with pytest.raises(NotPositiveDefiniteError):
            RlsEstimator.init(profile, model, series)

    def test_diagonal_loading_recovers(self):
        model = make_harmonic_model(365.25, 16)
        profile = ExponentialProfile(0.99, model.dim)
        series = [Sample(k, math.sin(0.1 * k)) for k in range(1, model.dim + 1)]
        est = RlsEstimator.init(profile, model, series, diagonal_loading=1e-6)
        assert est.loading_applied
        plain = init_on(make_series(0.0))
        assert not plain.loading_applied

    def test_unbounded_profile_uses_given_length(self):
        series = make_series(0.0)[:80]
        est = RlsEstimator.init(ExponentialProfile(0.97), MODEL, series)
        assert est.window == 80
        assert est.k == 80


class TestStep:
    def test_index_gap_rejected(self):
        series = make_series(0.0)
        est = init_on(series)
        with pytest.raises(IndexGapError):
            est.step(Sample(est.k + 2, 0.0))
        with pytest.raises(IndexGapError):
            est.step(Sample(est.k, 0.0))

    def test_uninitialized_estimator_rejected(self):
        est = RlsEstimator(PROFILE, MODEL)
        with pytest.raises(RuntimeError):
            est.step(Sample(1, 0.0))

    def test_noiseless_fixed_point(self):
        series = make_series(0.0)
        est = init_on(series)
        norm = np.linalg.norm(THETA_STAR)
        for sample in series[PROFILE.w :]:
            est.step(sample)
            assert np.linalg.norm(est.theta - THETA_STAR) <= 1e-8 * norm

    @pytest.mark.parametrize(
        "profile,init_count",
        [
            (PROFILE, None),
            (ExponentialProfile(0.97, 50), None),
            (ExponentialProfile(0.97), 50),
        ],
        ids=["segmented", "exponential", "infinite"],
    )
    def test_matches_direct_weighted_ls(self, profile, init_count):
        series = make_series(1.0)
        window = init_count or profile.w
        est = RlsEstimator.init(profile, MODEL, series[:window])
        for sample in series[window:]:
            est.step(sample)
            _, theta_direct = direct_weighted_ls(profile, MODEL, series, est.k)
            dev = np.linalg.norm(est.theta - theta_direct) / np.linalg.norm(theta_direct)
            assert dev <= 1e-6

    def test_gain_matches_inverted_information_matrix(self):
        series = make_series(1.0)
        est = init_on(series)
        for sample in series[PROFILE.w :]:
            est.step(sample)
        a = est.info_matrix()
        gamma_direct = np.linalg.inv(a)
        dev = np.linalg.norm(est.gamma - gamma_direct) / np.linalg.norm(gamma_direct)
        assert dev <= 1e-6

    def test_gain_stays_bitwise_symmetric(self):
        series = make_series(1.0)
        est = init_on(series)
        for sample in series[PROFILE.w : PROFILE.w + 20]:
            est.step(sample)
            assert np.array_equal(est.gamma, est.gamma.T)

    def test_raw_gain_update_nearly_symmetric(self):
        # asymmetry ahead of the defensive re-symmetrization stays at round-off
        from segrls.harmonic import regressor_matrix

        series = make_series(1.0)
        est = init_on(series)
        for sample in series[PROFILE.w : PROFILE.w + 10]:
            est.step(sample)
        k = est.k + 1
        lags = np.array(est.template.lags)
        scales = np.array(est.template.scales)
        signs = np.array(est.template.signs, dtype=float)
        q = regressor_matrix(MODEL, k - lags).T * scales
        g = est.gamma @ q
        s = q.T @ g
        s[np.diag_indices_from(s)] += PROFILE.lam * signs
        raw = (est.gamma - g @ np.linalg.solve(s, g.T)) / PROFILE.lam
        asym = np.max(np.abs(raw - raw.T)) / np.max(np.abs(raw))
        assert asym <= 1e-12

    def test_singular_update_leaves_state_unchanged(self):
        from segrls.harmonic import regressor_matrix

        series = make_series(1.0)
        est = init_on(series)
        for sample in series[PROFILE.w : PROFILE.w + 5]:
            est.step(sample)
        k = est.k + 1
        lags = np.array(est.template.lags)
        scales = np.array(est.template.scales)
        signs = np.array(est.template.signs, dtype=float)
        p = np.linalg.pinv(regressor_matrix(MODEL, k - lags).T * scales)
        # gamma / lam = -P^T D P makes U = D - (P Q)^T D (P Q) vanish
        est.gamma = -PROFILE.lam * p.T @ np.diag(signs) @ p
        before = (est.k, est.theta.copy(), est.gamma.copy(), list(est._y))
        with pytest.raises(SingularUpdateError) as err:
            est.step(series[k - 1])
        assert err.value.index == k
        assert est.k == before[0]
        assert np.array_equal(est.theta, before[1])
        assert np.array_equal(est.gamma, before[2])
        assert est._y == before[3]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_leaves_state_unchanged(self, bad):
        series = make_series(1.0)
        est = init_on(series)
        est.step(series[PROFILE.w])
        before = (est.k, est.theta.copy(), est.gamma.copy(), list(est._y))
        with pytest.raises(RangeError):
            est.step(Sample(est.k + 1, bad))
        assert est.k == before[0]
        assert np.array_equal(est.theta, before[1])
        assert np.array_equal(est.gamma, before[2])
        assert est._y == before[3]


class TestResiduals:
    def test_noiseless_converged_fit(self):
        series = make_series(0.0)
        est = init_on(series)
        for sample in series[PROFILE.w :]:
            est.step(sample)
            assert abs(est.residual(sample)) <= 1e-8

    def test_zero_theta_returns_measurement(self):
        series = make_series(1.0)
        est = init_on(series)
        est.theta = np.zeros(MODEL.dim)
        sample = series[PROFILE.w]
        assert est.residual(sample) == sample.y

    def test_one_step_ahead_uses_current_parameters(self):
        series = make_series(1.0)
        est = init_on(series)
        incoming = series[PROFILE.w]
        ahead = est.residual(incoming)
        est.step(incoming)
        post = est.residual(incoming)
        assert ahead != post  # parameters moved on the update

    def test_noisy_residual_std_tracks_noise_level(self):
        # long-memory fit: shrinkage is mild, residual spread ~ sigma
        sigma = 1.5
        profile = ExponentialProfile(0.99, 200)
        series = make_series(sigma, seed=29, length=420)
        est = RlsEstimator.init(profile, MODEL, series[:200])
        residuals = []
        for sample in series[200:]:
            est.step(sample)
            residuals.append(est.residual(sample))
        assert np.std(residuals) == pytest.approx(sigma, rel=0.15)


class TestMovingVariance:
    def test_zero_residuals(self):
        # dc + first harmonic only, no noise: first-harmonic residuals vanish
        theta = np.zeros(MODEL.dim)
        theta[:3] = [2.0, 1.5, -0.5]
        spec = SyntheticSpec(
            model=MODEL, theta_star=theta, noise_sigma=0.0, seed=1, length=60
        )
        est = init_on(synth_generate(spec))
        assert est.moving_variance() <= 1e-16

    def test_alternating_residuals(self):
        est = init_on(make_series(0.0))
        est._residuals = [2.5, -2.5, 2.5, -2.5]
        assert est.moving_variance() == pytest.approx(2.5**2)

    def test_insufficient_data(self):
        est = init_on(make_series(0.0))
        est._residuals = [1.0]
        with pytest.raises(InsufficientDataError):
            est.moving_variance()

    def test_tracks_excluded_harmonic_power_plus_noise(self):
        # first-harmonic residuals carry the higher harmonics and the noise
        sigma = 1.0
        profile = ExponentialProfile(0.99, 200)
        series = make_series(sigma, seed=41, length=420)
        est = RlsEstimator.init(profile, MODEL, series[:200])
        for sample in series[200:]:
            est.step(sample)
        expected = float(np.sum(THETA_STAR[3:] ** 2)) / 2.0 + sigma**2
        assert est.moving_variance() == pytest.approx(expected, rel=0.20)


class TestForecast:
    def test_dc_only_with_unit_sigma(self):
        est = init_on(make_series(0.0))
        est.theta = np.zeros(MODEL.dim)
        est.theta[0] = 5.0
        est._residuals = [1.0, -1.0]
        band = est.forecast(4)
        assert band.sigma == pytest.approx(1.0)
        for point in band.points:
            assert (point.mean, point.lower, point.upper) == (5.0, 2.0, 8.0)

    def test_horizon_indices_consecutive(self):
        series = make_series(1.0)
        est = init_on(series)
        band = est.forecast(30)
        assert [p.k for p in band.points] == list(range(est.k + 1, est.k + 31))

    def test_pure_first_harmonic_noiseless_band_is_tight(self):
        theta = np.zeros(MODEL.dim)
        theta[:3] = [1.0, 4.0, -2.0]
        spec = SyntheticSpec(
            model=MODEL, theta_star=theta, noise_sigma=0.0, seed=1, length=120
        )
        series = synth_generate(spec)
        est = init_on(series)
        for sample in series[PROFILE.w :]:
            est.step(sample)
        band = est.forecast(10)
        for point in band.points:
            truth = predict_first_harmonic(MODEL, theta, point.k)
            assert point.mean == pytest.approx(truth, abs=1e-7)
            assert point.upper - point.lower <= 1e-6

    def test_bad_horizon(self):
        est = init_on(make_series(0.0))
        with pytest.raises(RangeError):
            est.forecast(0)


class TestInfoMatrix:
    def test_matches_gain_right_after_init(self):
        est = init_on(make_series(1.0))
        direct = linalg.spd_inverse(est.info_matrix())
        assert np.linalg.norm(direct - est.gamma) <= 1e-10 * np.linalg.norm(est.gamma)

    def test_gain_times_info_is_identity_after_steps(self):
        series = make_series(1.0)
        est = init_on(series)
        for sample in series[PROFILE.w :]:
            est.step(sample)
        product = est.gamma @ est.info_matrix()
        assert np.max(np.abs(product - np.eye(MODEL.dim))) <= 1e-6

    def test_near_unit_weights_orthogonal_regressors_diagonal(self):
        # period dividing the window makes the regressors orthogonal over it;
        # with lambda -> 1 the weighting is uniform and A is nearly diagonal
        model = make_harmonic_model(8.0, 0)
        profile = ExponentialProfile(1.0 - 1e-12, 8)
        series = [Sample(k, 0.0) for k in range(1, 9)]
        est = RlsEstimator.init(profile, model, series, diagonal_loading=0.0)
        a = est.info_matrix()
        off = a - np.diag(np.diagonal(a))
        assert np.max(np.abs(off)) <= 1e-9 * np.max(np.abs(np.diagonal(a)))

    def test_unbounded_profile_accumulates_history(self):
        series = make_series(1.0)[:90]
        est = RlsEstimator.init(ExponentialProfile(0.97), MODEL, series[:60])
        for sample in series[60:]:
            est.step(sample)
        a = est.info_matrix()
        gamma_direct = np.linalg.inv(a)
        assert np.linalg.norm(est.gamma - gamma_direct) <= 1e-6 * np.linalg.norm(
            gamma_direct
        )


class TestProfileEffects:
    """How segmentation shapes the information matrix on the daily harmonic setup."""

    def setup_method(self):
        from segrls.verify import information_matrix, standard_model

        self.model = standard_model()
        self.w = 400
        self.info = lambda prof: information_matrix(prof, self.model, self.w, self.w)

    def test_condition_ordering_between_pure_laws(self):
        # fast-only forgetting ill-conditions the matrix, the slow tail cures
        # it, and the segmented profile sits strictly between the two
        seg = SegmentedProfile(0.89, 0.99, 250, 1, self.w)
        cond = lambda a: linalg.condition_number(a)
        cond_fast = cond(self.info(ExponentialProfile(0.89, self.w)))
        cond_seg = cond(self.info(seg))
        cond_slow = cond(self.info(ExponentialProfile(0.99, self.w)))
        assert cond_fast > cond_seg > cond_slow

    def test_segmentation_reduces_estimate_variance_proxy(self):
        # trace of the gain matrix sums the per-parameter variance proxies
        seg = SegmentedProfile(0.89, 0.99, 250, 1, self.w)
        trace_seg = np.trace(linalg.spd_inverse(self.info(seg)))
        trace_fast = np.trace(linalg.spd_inverse(self.info(ExponentialProfile(0.89, self.w))))
        assert trace_seg < trace_fast
