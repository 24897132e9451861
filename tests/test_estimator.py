import math
import re

import numpy as np
import pytest

from segrls import linalg
from segrls.errors import NotPositiveDefiniteError, RangeError, SingularUpdateError
from segrls.estimator import (
    ROW_BLOCK,
    RlsEstimator,
    Sample,
    _first_harmonic,
    information_matrix,
)
from segrls.harmonic import STANDARD_MODEL, make_harmonic_model, regressor_matrix
from segrls.profile import (
    FIG2,
    ExponentialProfile,
    SegmentedProfile,
    update_template,
    weights,
)
from segrls.reference import (
    SyntheticSpec,
    accumulation_experiment,
    compare_trajectory,
    direct_weighted_ls,
    monte_carlo_bias,
    synth_generate,
)
from segrls.verify import standard_theta

MODEL = make_harmonic_model(40.0, 2)  # n = 7
THETA_STAR = np.array([2.0, 4.0, -1.0, 0.5, 0.3, -0.2, 0.1])
PROFILE = SegmentedProfile(beta=0.85, lam=0.97, m=30, p=1, w=50)
SPEC = SyntheticSpec(model=MODEL, theta_star=THETA_STAR, noise_sigma=1.0, seed=3, length=90)


def make_series(sigma, seed=11, length=160):
    spec = SyntheticSpec(
        model=MODEL, theta_star=THETA_STAR, noise_sigma=sigma, seed=seed, length=length
    )
    return synth_generate(spec)


def init_on(series, profile=PROFILE, **kwargs):
    return RlsEstimator.init(profile, MODEL, series[: profile.w], **kwargs)


def state_of(est):
    """Copies of everything a step may change and a later step or report reads.

    That is k, theta, gamma, the fitted pair, the residual buffer, and the
    block's rows and values of the last L indices up to k (L the largest
    lag).  Block positions past k hold nothing yet: a step writes its value
    there before the update, and the next step to that index writes it again.
    """
    end = est.k + 1 - est._first_row
    window = slice(end - est._lead, end)
    return (est.k, est.theta.copy(), est.gamma.copy(), np.array(current_pair(est)),
            est._rows[window].copy(), est._values[window].copy(), np.array(est._residuals))


def assert_state_equal(est, before):
    after = state_of(est)
    assert after[0] == before[0]
    for got, want in zip(after[1:], before[1:]):
        assert np.array_equal(got, want)


def current_pair(est):
    """(yhat, yhat1) at the current index: row 0 of ``run([])``."""
    yhat, yhat1, _ = est.run([])
    return yhat[0], yhat1[0]


def make_next_update_singular(est):
    """Set gamma so that the capacitance matrix of the step to est.k + 1 vanishes."""
    k = est.k + 1
    template = update_template(est.profile)
    lags = np.array(template.lags)
    scales = np.array(template.scales)
    signs = np.array(template.signs, dtype=float)
    p = np.linalg.pinv(regressor_matrix(est.model, k - lags).T * scales)
    # gamma / lam = -P^T D P makes U = D - (P Q)^T D (P Q) vanish
    est.gamma = -est.profile.lam * p.T @ np.diag(signs) @ p


def first_harmonic_at(theta, k):
    """dc + fundamental part of the prediction at k, in the estimator's order."""
    angle = MODEL.frequencies[0] * k
    return float(theta[0] + theta[1] * math.cos(angle) + theta[2] * math.sin(angle))


def batch_values(*seeds, length=160):
    """(length, B) values: the series of make_series(1.0, seed) for each seed, as columns."""
    return np.array([make_series(1.0, seed=seed, length=length) for seed in seeds]).T


def samples_of(values):
    """Samples k = 1.. of a value array, index k holding values[k - 1]."""
    return [Sample(k, float(y)) for k, y in enumerate(values, start=1)]


def assert_init_raises_the_step_error(values, i, text):
    """init over ``values`` raises ``text``, the RangeError step gives for values[i] at index i + 1."""
    with pytest.raises(RangeError) as at_init:
        RlsEstimator.init(PROFILE, MODEL, values)
    est = RlsEstimator.init(ExponentialProfile(0.97), MODEL, values[:i])
    with pytest.raises(RangeError) as at_step:
        est.step((i + 1, values[i]))
    assert str(at_init.value) == str(at_step.value) == text


class TestInit:
    def test_noiseless_recovery(self):
        est = init_on(make_series(0.0))
        assert np.linalg.norm(est.theta - THETA_STAR) <= 1e-8 * np.linalg.norm(THETA_STAR)

    def test_window_smaller_than_dimension(self):
        series = make_series(0.0)[:6]
        with pytest.raises(RangeError, match=r"^window 6 is smaller than the model dimension 7$"):
            RlsEstimator.init(ExponentialProfile(0.99, 6), MODEL, series)

    def test_exact_sample_count_required(self):
        with pytest.raises(ValueError):
            RlsEstimator.init(PROFILE, MODEL, make_series(0.0)[: PROFILE.w - 1])

    def test_non_finite_value_rejected(self):
        # position i is index i + 1: init names the first bad value as step would
        values = make_series(1.0)[: PROFILE.w]
        values[20], values[25] = math.inf, math.nan
        assert_init_raises_the_step_error(values, 20, "non-finite value inf at index 21")

    @pytest.mark.parametrize("shape", [(), (PROFILE.w, 2, 1)], ids=["0d", "3d"])
    def test_values_must_be_one_or_two_dimensional(self, shape):
        with pytest.raises(ValueError, match="values must be"):
            RlsEstimator.init(PROFILE, MODEL, np.ones(shape))

    def test_deficient_excitation_raises(self):
        # 35 parameters over 35 consecutive days: the low harmonics of the
        # annual cycle are numerically collinear on so short a window
        model = make_harmonic_model(365.25, 16)
        profile = ExponentialProfile(0.99, model.dim)
        series = [math.sin(0.1 * k) for k in range(1, model.dim + 1)]
        with pytest.raises(NotPositiveDefiniteError):
            RlsEstimator.init(profile, model, series)

    def test_diagonal_loading_recovers(self):
        model = make_harmonic_model(365.25, 16)
        profile = ExponentialProfile(0.99, model.dim)
        series = [math.sin(0.1 * k) for k in range(1, model.dim + 1)]
        # the window test_deficient_excitation_raises refuses initializes with loading
        est = RlsEstimator.init(profile, model, series, diagonal_loading=1e-6)
        loaded = information_matrix(profile, model, model.dim, model.dim) + 1e-6 * np.eye(model.dim)
        assert np.allclose(est.gamma @ loaded, np.eye(model.dim), atol=1e-6)
        assert np.isfinite(est.theta).all()

    @pytest.mark.parametrize("loading", [-1.0, math.nan, math.inf])
    def test_bad_diagonal_loading_rejected(self, loading):
        with pytest.raises(RangeError):
            init_on(make_series(0.0), diagonal_loading=loading)

    def test_numpy_integer_profile_runs_as_python_integers(self):
        numpy_ints = SegmentedProfile(0.85, 0.97, np.int64(30), np.int32(1), np.int64(50))
        series = make_series(1.0)
        runs = [init_on(series, profile).run(series[50:], cond_every=25)
                for profile in (PROFILE, numpy_ints)]
        for got, want in zip(*runs):
            assert np.array_equal(got, want)

    def test_unbounded_profile_uses_given_length(self):
        series = make_series(0.0)[:80]
        est = RlsEstimator.init(ExponentialProfile(0.97), MODEL, series)
        assert len(est._residuals) == 80        # the residual buffer spans the init length
        assert est.k == 80

    def test_the_constructor_builds_nothing(self):
        with pytest.raises(TypeError, match=r"RlsEstimator\.init\(profile, model, values\)"):
            RlsEstimator(PROFILE, MODEL)

    @pytest.mark.parametrize(
        "profile, count",
        [(PROFILE, PROFILE.w), (ExponentialProfile(0.97, 50), 50), (ExponentialProfile(0.97), 20)],
        ids=["segmented", "exponential", "infinite"],
    )
    @pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batch3"])
    def test_read_outs_work_right_after_init(self, profile, count, batch):
        values = batch_values(1, 2, 3)[:count] if batch else make_series(1.0)[:count]
        est = RlsEstimator.init(profile, MODEL, values)
        shape = values.shape[1:]
        rows = regressor_matrix(MODEL, np.arange(1, count + 1))
        yhat, yhat1 = current_pair(est)
        assert np.array_equal(yhat, rows[-1] @ est.theta)
        assert np.array_equal(yhat1, _first_harmonic(est.theta, rows[-1]))
        residuals = values - np.array([_first_harmonic(est.theta, row) for row in rows])
        assert est.moving_variance() == pytest.approx(np.mean(residuals**2, axis=0), rel=1e-12)
        band = est.forecast(1)
        assert band.mean.shape == (1, *shape)
        assert np.shape(band.sigma) == shape
        info = information_matrix(profile, MODEL, count, count)
        assert np.allclose(est.info_matrix(), info, rtol=1e-12, atol=0.0)


class TestStep:
    def test_index_gap_rejected(self):
        series = make_series(0.0)
        est = init_on(series)
        with pytest.raises(RangeError, match=r"^expected sample index 51, got 52$"):
            est.step(Sample(est.k + 2, 0.0))
        with pytest.raises(RangeError, match=r"^expected sample index 51, got 50$"):
            est.step(Sample(est.k, 0.0))

    def test_non_integer_index_is_a_gap(self):
        est = init_on(make_series(1.0))
        before = state_of(est)
        with pytest.raises(RangeError, match=r"^expected sample index 51, got 51\.5$"):
            est.step((est.k + 1.5, 0.0))
        assert_state_equal(est, before)
        # an index equal to the next one steps, and k stays a Python integer
        est.step((51.0, 0.0))
        est.step((np.int64(52), 0.0))
        assert type(est.k) is int and est.k == 52

    @pytest.mark.parametrize(
        "value", [[1.0, 2.0], np.array([1.0]), np.ones((2, 2))], ids=["list", "one", "2x2"]
    )
    def test_value_of_a_wrong_shape_names_its_index(self, value):
        est = init_on(make_series(1.0))
        before = state_of(est)
        text = f"expected one value at index 51, got shape {np.shape(value)}"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            est.step((est.k + 1, value))
        assert_state_equal(est, before)

    def test_run_over_batch_values_names_the_first_index(self):
        est = init_on(make_series(1.0))
        before = state_of(est)
        with pytest.raises(ValueError, match=r"^expected one value at index 51, got shape \(2,\)$"):
            est.run(np.ones((5, 2)))
        assert_state_equal(est, before)

    def test_noiseless_fixed_point(self):
        series = make_series(0.0)
        est = init_on(series)
        norm = np.linalg.norm(THETA_STAR)
        for sample in enumerate(series[PROFILE.w :], PROFILE.w + 1):
            est.step(sample)
            assert np.linalg.norm(est.theta - THETA_STAR) <= 1e-8 * norm

    @pytest.mark.parametrize(
        "profile,init_count",
        [
            (PROFILE, None),
            (SegmentedProfile(beta=0.85, lam=0.97, m=30, p=3, w=50), None),
            (ExponentialProfile(0.97, 50), None),
            (ExponentialProfile(0.97), 50),
        ],
        ids=["segmented", "segmented-p3", "exponential", "infinite"],
    )
    def test_matches_direct_weighted_ls(self, profile, init_count):
        # step three times past the largest lag + 1
        window = init_count or profile.w
        reach = max(update_template(profile).lags) + 1
        series = make_series(1.0, length=max(160, window + 3 * reach + 1))
        samples = samples_of(series)
        est = RlsEstimator.init(profile, MODEL, series[:window])
        for sample in samples[window:]:
            est.step(sample)
            _, theta_direct = direct_weighted_ls(profile, MODEL, samples, est.k)
            dev = np.linalg.norm(est.theta - theta_direct) / np.linalg.norm(theta_direct)
            assert dev <= 1e-6

    def test_gain_matches_inverted_information_matrix(self):
        series = make_series(1.0)
        est = init_on(series)
        for sample in enumerate(series[PROFILE.w :], PROFILE.w + 1):
            est.step(sample)
        a = est.info_matrix()
        gamma_direct = np.linalg.inv(a)
        dev = np.linalg.norm(est.gamma - gamma_direct) / np.linalg.norm(gamma_direct)
        assert dev <= 1e-6

    def test_gain_stays_bitwise_symmetric(self):
        series = make_series(1.0)
        est = init_on(series)
        for sample in enumerate(series[PROFILE.w : PROFILE.w + 20], PROFILE.w + 1):
            est.step(sample)
            assert np.array_equal(est.gamma, est.gamma.T)

    def test_raw_gain_update_nearly_symmetric(self):
        # asymmetry ahead of the defensive re-symmetrization stays at round-off
        series = make_series(1.0)
        est = init_on(series)
        for sample in enumerate(series[PROFILE.w : PROFILE.w + 10], PROFILE.w + 1):
            est.step(sample)
        k = est.k + 1
        template = update_template(est.profile)
        lags = np.array(template.lags)
        scales = np.array(template.scales)
        signs = np.array(template.signs, dtype=float)
        q = regressor_matrix(MODEL, k - lags).T * scales
        g = est.gamma @ q
        s = q.T @ g
        s[np.diag_indices_from(s)] += PROFILE.lam * signs
        raw = (est.gamma - g @ np.linalg.solve(s, g.T)) / PROFILE.lam
        asym = np.max(np.abs(raw - raw.T)) / np.max(np.abs(raw))
        assert asym <= 1e-12

    def test_singular_update_leaves_state_unchanged(self):
        series = make_series(1.0)
        est = init_on(series)
        for sample in enumerate(series[PROFILE.w : PROFILE.w + 5], PROFILE.w + 1):
            est.step(sample)
        k = est.k + 1
        make_next_update_singular(est)
        before = state_of(est)
        with pytest.raises(SingularUpdateError, match=f"^update solve failed at index {k}: "):
            est.step((k, series[k - 1]))
        assert_state_equal(est, before)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_leaves_state_unchanged(self, bad):
        series = make_series(1.0)
        est = init_on(series)
        est.step((PROFILE.w + 1, series[PROFILE.w]))
        before = state_of(est)
        with pytest.raises(RangeError):
            est.step(Sample(est.k + 1, bad))
        assert_state_equal(est, before)


class TestBatch:
    """B value series in one estimator against B scalar estimators on the same indices."""

    @pytest.mark.parametrize(
        "profile",
        [FIG2, ExponentialProfile(0.99, 400), ExponentialProfile(0.99)],
        ids=["segmented", "exponential", "infinite"],
    )
    def test_columns_follow_scalar_estimators(self, profile):
        # Fig-2 model and window; the steps run through five row blocks
        model, window, batch = STANDARD_MODEL, 400, 5
        steps = 3 * (max(update_template(FIG2).lags) + 1)
        series = [
            synth_generate(SyntheticSpec(model, standard_theta(model), 2.0, seed, window + steps))
            for seed in range(batch)
        ]
        values = np.array(series).T
        est = RlsEstimator.init(profile, model, values[:window])
        singles = [RlsEstimator.init(profile, model, one[:window]) for one in series]

        def check():
            for col, single in enumerate(singles):
                assert np.array_equal(est.gamma, single.gamma)
                dev = np.linalg.norm(est.theta[:, col] - single.theta)
                assert dev <= 1e-12 * np.linalg.norm(single.theta), (est.k, col)

        check()
        for k in range(window + 1, window + steps + 1):
            est.step((k, values[k - 1]))
            for single, one in zip(singles, series):
                single.step((k, one[k - 1]))
            check()

        def columns(read):
            return np.array([read(single, one) for single, one in zip(singles, series)])

        def close(got, want):
            assert got.shape == (batch,)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

        close(current_pair(est)[0], columns(lambda s, one: current_pair(s)[0]))
        close(current_pair(est)[1], columns(lambda s, one: current_pair(s)[1]))
        close(est.moving_variance(), columns(lambda s, one: s.moving_variance()))
        band = est.forecast(3)
        close(band.sigma, columns(lambda s, one: s.forecast(3).sigma))
        for field in ("mean", "lower", "upper"):
            assert getattr(band, field).shape == (3, batch)
            for h in range(3):
                close(getattr(band, field)[h],
                      columns(lambda s, one: getattr(s.forecast(3), field)[h]))
        # the scalar read-outs stay plain floats; a scalar band is (h,) arrays
        single = singles[0]
        assert type(single.moving_variance()) is float
        assert type(single.forecast(1).sigma) is float
        assert single.forecast(1).mean.shape == (1,)

    def test_non_finite_value_in_one_column_leaves_state_unchanged(self):
        values = batch_values(1, 2, 3)
        est = RlsEstimator.init(PROFILE, MODEL, values[: PROFILE.w])
        est.step((PROFILE.w + 1, values[PROFILE.w]))
        before = state_of(est)
        bad = values[est.k].copy()
        bad[1] = math.nan
        with pytest.raises(RangeError, match=f"column 1 at index {est.k + 1}$"):
            est.step(Sample(est.k + 1, bad))
        assert_state_equal(est, before)

    def test_non_finite_value_at_init_names_its_index(self):
        values = batch_values(1, 2, 3)[: PROFILE.w]
        values[9, 1], values[30, 0] = math.inf, math.nan
        assert_init_raises_the_step_error(values, 9, "non-finite value inf in column 1 at index 10")

    def test_value_count_must_match_the_batch(self):
        values = batch_values(1, 2)
        est = RlsEstimator.init(PROFILE, MODEL, values[: PROFILE.w])
        before = state_of(est)
        with pytest.raises(ValueError, match=f"expected 2 values at index {est.k + 1}"):
            est.step(Sample(est.k + 1, values[est.k, :1]))
        assert_state_equal(est, before)

    def test_singular_update_leaves_state_unchanged(self):
        values = batch_values(1, 2, 3)
        est = RlsEstimator.init(PROFILE, MODEL, values[: PROFILE.w])
        for sample in enumerate(values[PROFILE.w : PROFILE.w + 5], PROFILE.w + 1):
            est.step(sample)
        k = est.k + 1
        make_next_update_singular(est)
        before = state_of(est)
        with pytest.raises(SingularUpdateError, match=f"^update solve failed at index {k}: "):
            est.step((k, values[k - 1]))
        assert_state_equal(est, before)


class TestStepAgainstPublicKernel:
    """A step is the update core on Gamma / decay and columns of single rows, bit for bit;
    its gain is also the public batch_inverse_update's."""

    @pytest.mark.parametrize(
        "profile, count",
        [(PROFILE, PROFILE.w), (ExponentialProfile(0.97, 50), 50), (ExponentialProfile(0.97), 20)],
        ids=["segmented", "exponential", "infinite"],
    )
    @pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batch3"])
    def test_gain_and_theta_equal_the_public_kernel(self, profile, count, batch):
        steps = 3 * ROW_BLOCK + 10                      # four row blocks
        length = count + steps
        if batch:
            values = batch_values(1, 2, 3, length=length)
        else:
            values = make_series(1.0, length=length)
        est = RlsEstimator.init(profile, MODEL, values[:count])
        lags, scales, signs = update_template(profile)
        scales = np.array(scales)
        gamma, theta = est.gamma, est.theta
        for k in range(count + 1, length + 1):
            q = np.array([regressor_matrix(MODEL, [k - lag])[0] for lag in lags]).T * scales
            y_aug = (scales * values[[k - 1 - lag for lag in lags]].T).T
            public = linalg.batch_inverse_update(gamma / profile.lam, q, signs)
            gamma, theta = linalg._woodbury(
                gamma / profile.lam, q, np.diag(signs), theta, y_aug
            )
            assert np.array_equal(public, gamma), k
            est.step((k, values[k - 1]))
            assert np.array_equal(est.gamma, gamma), k
            assert np.array_equal(est.theta, theta), k


def series_of(batch, length):
    """make_series(1.0), or three such series as a (length, 3) batch."""
    return batch_values(1, 2, 3, length=length) if batch else make_series(1.0, length=length)


class TestRun:
    """run is the step loop reading the prediction at each step's index, bit for bit."""

    @staticmethod
    def assert_rows_are_the_step_loop(rows, loop, values, cond_every):
        """run's (yhat, yhat1, cond) over ``values``: what ``loop`` reads after each step."""
        yhat, yhat1, cond = rows
        assert yhat.shape == yhat1.shape == (len(values) + 1, *values.shape[1:])
        assert len(cond) == len(yhat)
        for i in range(len(yhat)):
            if i:
                loop.step((loop.k + 1, values[i - 1]))
            phi = regressor_matrix(loop.model, [loop.k])[0]
            full, first = phi.dot(loop.theta), _first_harmonic(loop.theta, phi)
            assert np.array_equal(yhat[i], full) and np.array_equal(yhat1[i], first), i
            if cond_every and i % cond_every == 0:
                assert cond[i] == linalg.condition_number(loop.info_matrix()), i
            else:
                assert cond[i] is None, i

    @staticmethod
    def assert_twins(est, loop):
        assert_state_equal(est, state_of(loop))
        assert np.array_equal(est.moving_variance(), loop.moving_variance())

    @pytest.mark.parametrize(
        "profile, count",
        [(PROFILE, PROFILE.w), (ExponentialProfile(0.97, 50), 50), (ExponentialProfile(0.97), 20)],
        ids=["segmented", "exponential", "infinite"],
    )
    @pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batch3"])
    @pytest.mark.parametrize("cond_every", [0, 7])
    def test_rows_and_state_equal_the_step_loop(self, profile, count, batch, cond_every):
        length = count + ROW_BLOCK + 40                 # two row blocks
        values = series_of(batch, length)
        est = RlsEstimator.init(profile, MODEL, values[:count])
        loop = RlsEstimator.init(profile, MODEL, values[:count])

        rows = est.run(values[count:], cond_every)
        self.assert_rows_are_the_step_loop(rows, loop, values[count:], cond_every)
        assert est.k == loop.k == length
        self.assert_twins(est, loop)

    @pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batch3"])
    def test_a_run_from_mid_block_over_four_row_blocks(self, batch):
        singles = 37
        length = PROFILE.w + singles + 3 * ROW_BLOCK + 20
        values = series_of(batch, length)
        est, loop = init_on(values), init_on(values)
        for sample in enumerate(values[PROFILE.w : PROFILE.w + singles], PROFILE.w + 1):
            est.step(sample)
            loop.step(sample)
        # the next step is neither the first nor the last of its row block
        assert est._lead + 1 < est.k + 1 - est._first_row < len(est._rows) - 1

        rows = est.run(values[est.k :], 5)
        self.assert_rows_are_the_step_loop(rows, loop, values[loop.k :], 5)
        assert est.k == loop.k == length
        self.assert_twins(est, loop)

    @pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batch3"])
    def test_a_non_finite_value_mid_block_stops_where_the_step_loop_does(self, batch):
        length = PROFILE.w + ROW_BLOCK + 200
        values = series_of(batch, length)
        bad = PROFILE.w + ROW_BLOCK + 100               # mid-block for run and for the rows
        values[bad - 1] = np.inf if batch else np.nan
        est, loop = init_on(values), init_on(values)

        with pytest.raises(RangeError) as err:
            est.run(values[PROFILE.w :], 7)
        for sample in enumerate(values[PROFILE.w : bad - 1], PROFILE.w + 1):
            loop.step(sample)
        assert est.k == loop.k == bad - 1
        self.assert_twins(est, loop)
        with pytest.raises(RangeError) as want:
            loop.step((bad, values[bad - 1]))
        assert str(err.value) == str(want.value)
        assert str(err.value).endswith(f"at index {bad}")

    @pytest.mark.parametrize(
        "profile, count", [(PROFILE, PROFILE.w), (ExponentialProfile(0.97), 20)],
        ids=["segmented", "infinite"],
    )
    def test_a_batch_of_no_series_runs(self, profile, count):
        values = make_series(1.0, length=count + 5)
        est = RlsEstimator.init(profile, MODEL, np.zeros((count, 0)))
        yhat, yhat1, cond = est.run(np.zeros((5, 0)), cond_every=2)
        assert yhat.shape == yhat1.shape == (6, 0)
        assert len(cond) == 6 and cond[1] is None and cond[2] is not None
        # the gain does not depend on the values: a scalar estimator's, bit for bit
        scalar = RlsEstimator.init(profile, MODEL, values[:count])
        scalar.run(values[count:])
        assert est.k == scalar.k and np.array_equal(est.gamma, scalar.gamma)

    def test_no_values_gives_the_current_row(self):
        est = init_on(make_series(1.0))
        yhat, yhat1, cond = est.run(np.zeros(0), cond_every=5)
        full = float(regressor_matrix(MODEL, [est.k])[0] @ est.theta)
        assert (yhat.tolist(), yhat1.tolist()) == ([full], [first_harmonic_at(est.theta, est.k)])
        assert cond == [linalg.condition_number(est.info_matrix())]
        assert est.k == PROFILE.w


class TestBlockBoundary:
    """A failed first step of a row block leaves the state as it was; the next step is unaffected."""

    def advance(self, steps):
        """An estimator and an untouched twin, both stepped ``steps`` times past init."""
        series = make_series(1.0, length=PROFILE.w + ROW_BLOCK + 10)
        est, twin = init_on(series), init_on(series)
        for sample in enumerate(series[PROFILE.w : PROFILE.w + steps], PROFILE.w + 1):
            est.step(sample)
            twin.step(sample)
        # the next step starts a row block
        assert est.k + 1 - est._first_row == len(est._rows)
        return series, est, twin

    def assert_twins_agree(self, series, est, twin):
        for sample in enumerate(series[est.k : est.k + 3], est.k + 1):
            est.step(sample)
            twin.step(sample)
            assert est.k == twin.k
            assert np.array_equal(est.gamma, twin.gamma)
            assert np.array_equal(est.theta, twin.theta)
            assert current_pair(est) == current_pair(twin)
            assert np.array_equal(est._residuals, twin._residuals)

    @pytest.mark.parametrize("steps", [0, ROW_BLOCK], ids=["first-block", "second-block"])
    def test_singular_update_leaves_state_unchanged(self, steps):
        series, est, twin = self.advance(steps)
        k = est.k + 1
        gamma = est.gamma
        make_next_update_singular(est)
        before = state_of(est)
        with pytest.raises(SingularUpdateError, match=f"^update solve failed at index {k}: "):
            est.step((k, series[k - 1]))
        assert_state_equal(est, before)
        est.gamma = gamma
        self.assert_twins_agree(series, est, twin)

    @pytest.mark.parametrize("steps", [0, ROW_BLOCK], ids=["first-block", "second-block"])
    def test_non_finite_value_leaves_state_unchanged(self, steps):
        series, est, twin = self.advance(steps)
        before = state_of(est)
        with pytest.raises(RangeError):
            est.step(Sample(est.k + 1, math.nan))
        assert_state_equal(est, before)
        self.assert_twins_agree(series, est, twin)

    def test_nan_capacitance_estimate_raises(self):
        series, est, _ = self.advance(ROW_BLOCK)
        est.gamma = est.gamma.copy()
        est.gamma[0, 0] = math.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(SingularUpdateError,
                               match=f"^update solve failed at index {est.k + 1}: .*estimate nan"):
                est.step((est.k + 1, series[est.k]))


class TestResiduals:
    def test_noiseless_converged_fit(self):
        series = make_series(0.0)
        est = init_on(series)
        for k, y in enumerate(series[PROFILE.w :], PROFILE.w + 1):
            est.step((k, y))
            assert abs(y - current_pair(est)[0]) <= 1e-8

    def test_fitted_values_equal_predictions_bitwise(self):
        # the pair the step stored is a fresh regressor row's prediction at k
        series = make_series(1.0)
        est = init_on(series)
        for k, y in enumerate(series[PROFILE.w - 1 : PROFILE.w + 60], PROFILE.w):
            if k > est.k:
                est.step((k, y))
            full = float(regressor_matrix(MODEL, [k])[0] @ est.theta)
            assert current_pair(est) == (full, first_harmonic_at(est.theta, k))

    def test_first_harmonic_plus_higher_harmonics_is_the_full_fit(self):
        series = make_series(1.0)
        est = init_on(series)
        for sample in enumerate(series[PROFILE.w : PROFILE.w + 40], PROFILE.w + 1):
            est.step(sample)
            full, first = current_pair(est)
            higher = sum(
                est.theta[1 + 2 * i] * math.cos(MODEL.frequencies[i] * est.k)
                + est.theta[2 + 2 * i] * math.sin(MODEL.frequencies[i] * est.k)
                for i in range(1, MODEL.harmonics + 1)
            )
            assert full == pytest.approx(first + higher, abs=1e-12)

    def test_noisy_residual_std_tracks_noise_level(self):
        # long-memory fit: shrinkage is mild, residual spread ~ sigma
        sigma = 1.5
        profile = ExponentialProfile(0.99, 200)
        series = make_series(sigma, seed=29, length=420)
        est = RlsEstimator.init(profile, MODEL, series[:200])
        values = series[200:]
        residuals = values - est.run(values)[0][1:]
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

    def test_mean_is_taken_oldest_first(self):
        # the buffered residuals are summed in sample order, as a plain window
        # would be, from init's residuals on, after every step
        series = make_series(1.0, length=PROFILE.w * 2 + 7)
        est = init_on(series)
        residuals = [y - first_harmonic_at(est.theta, k) for k, y in enumerate(series[: est.k], 1)]
        assert est.moving_variance() == float(np.mean(np.square(residuals)))
        for k, y in enumerate(series[PROFILE.w :], PROFILE.w + 1):
            est.step((k, y))
            residuals.append(y - current_pair(est)[1])
            assert est.moving_variance() == float(np.mean(np.square(residuals[-PROFILE.w :]))), k

    def test_tracks_excluded_harmonic_power_plus_noise(self):
        # first-harmonic residuals carry the higher harmonics and the noise
        sigma = 1.0
        profile = ExponentialProfile(0.99, 200)
        series = make_series(sigma, seed=41, length=420)
        est = RlsEstimator.init(profile, MODEL, series[:200])
        for sample in enumerate(series[200:], 201):
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
        assert band.mean.tolist() == [5.0] * 4
        assert band.lower.tolist() == [2.0] * 4
        assert band.upper.tolist() == [8.0] * 4

    def test_horizon_indices_consecutive(self):
        # row i of the band is index k + 1 + i
        series = make_series(1.0)
        est = init_on(series)
        band = est.forecast(30)
        assert band.mean.shape == (30,)
        assert band.mean.tolist() == [
            first_harmonic_at(est.theta, k) for k in range(est.k + 1, est.k + 31)
        ]

    def test_pure_first_harmonic_noiseless_band_is_tight(self):
        theta = np.zeros(MODEL.dim)
        theta[:3] = [1.0, 4.0, -2.0]
        spec = SyntheticSpec(
            model=MODEL, theta_star=theta, noise_sigma=0.0, seed=1, length=120
        )
        series = synth_generate(spec)
        est = init_on(series)
        for sample in enumerate(series[PROFILE.w :], PROFILE.w + 1):
            est.step(sample)
        band = est.forecast(10)
        truth = [first_harmonic_at(theta, k) for k in range(est.k + 1, est.k + 11)]
        np.testing.assert_allclose(band.mean, truth, rtol=0, atol=1e-7)
        assert np.all(band.upper - band.lower <= 1e-6)

    @pytest.mark.parametrize(
        "profile, count",
        [(PROFILE, PROFILE.w), (ExponentialProfile(0.97, 50), 50), (ExponentialProfile(0.97), 20)],
        ids=["segmented", "exponential", "infinite"],
    )
    @pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batch3"])
    def test_mean_is_the_first_harmonic_of_single_rows(self, profile, count, batch):
        # bit for bit: _first_harmonic on a regressor row built alone for each index
        length = count + 70
        if batch:
            values = batch_values(1, 2, 3, length=length)
        else:
            values = make_series(1.0, length=length)
        est = RlsEstimator.init(profile, MODEL, values[:count])
        est.run(values[count:])
        band = est.forecast(25)
        sigma = np.sqrt(est.moving_variance())
        assert band.mean.shape == (25, *values.shape[1:])
        for i, k in enumerate(range(est.k + 1, est.k + 26)):
            mean = _first_harmonic(est.theta, regressor_matrix(MODEL, [k])[0])
            assert np.array_equal(band.mean[i], mean), k
            assert np.array_equal(band.lower[i], mean - 3.0 * sigma), k
            assert np.array_equal(band.upper[i], mean + 3.0 * sigma), k

    def test_bad_horizon(self):
        est = init_on(make_series(0.0))
        with pytest.raises(RangeError):
            est.forecast(0)


class TestCounts:
    """Counts and indices outside the CLI: a Python or numpy integer in range, else RangeError."""

    @pytest.mark.parametrize("call, text", [
        (lambda est: make_harmonic_model(365.25, 1.5), "harmonics must be >= 0, got 1.5"),
        (lambda est: make_harmonic_model(365.25, -1), "harmonics must be >= 0, got -1"),
        (lambda est: SyntheticSpec(MODEL, THETA_STAR, 1.0, 0, 10.5), "length must be >= 1"),
        (lambda est: SyntheticSpec(MODEL, THETA_STAR, 1.0, 0, 0), "length must be >= 1"),
        (lambda est: est.forecast(2.5), "horizon must be >= 1"),
        (lambda est: est.forecast(0), "horizon must be >= 1"),
        (lambda est: est.run(np.zeros(9), cond_every=2.5),
         "cond_every must be an integer >= 0, got 2.5"),
        (lambda est: est.run(np.zeros(9), cond_every=-3),
         "cond_every must be an integer >= 0, got -3"),
        (lambda est: weights(PROFILE, 10.5), "count must be >= 0, got 10.5"),
        (lambda est: weights(PROFILE, -3), "count must be >= 0, got -3"),
        (lambda est: information_matrix(PROFILE, MODEL, 80, 30.5), "count must be >= 1, got 30.5"),
        (lambda est: information_matrix(PROFILE, MODEL, 80.5, 30), "k must be an integer, got 80.5"),
        (lambda est: information_matrix(PROFILE, MODEL, 80, 0), "count must be >= 1, got 0"),
        (lambda est: SyntheticSpec(MODEL, THETA_STAR, 1.0, 1.5, 10), "seed must be an integer, got 1.5"),
        (lambda est: direct_weighted_ls(PROFILE, MODEL, samples_of(np.zeros(60)), 55.5),
         "k must be an integer, got 55.5"),
        (lambda est: compare_trajectory(ExponentialProfile(0.97), MODEL, np.zeros(60), init_count=20.5),
         "init_count must be an integer >= 1, got 20.5"),
        (lambda est: monte_carlo_bias(PROFILE, SPEC, 100, 80.5), "k must be an integer, got 80.5"),
        (lambda est: monte_carlo_bias(PROFILE, SPEC, 100.5, 80),
         "at least 100 trials are required for the bias estimate"),
        (lambda est: accumulation_experiment(2.5, 4, 10.0, 2), "n must be an integer >= 1, got 2.5"),
        (lambda est: accumulation_experiment(3, 0, 10.0, 2), "steps must be an integer >= 1, got 0"),
        (lambda est: accumulation_experiment(3, 4, 10.0, 0), "trials must be an integer >= 1, got 0"),
    ], ids=["harmonics-float", "harmonics-negative", "length-float", "length-zero",
            "horizon-float", "horizon-zero", "cond-every-float", "cond-every-negative",
            "weights-float", "weights-negative", "info-count-float", "info-k-float",
            "info-count-zero", "seed-float", "direct-k-float", "trajectory-init-float",
            "bias-k-float", "bias-trials-float", "accumulation-n-float",
            "accumulation-steps-zero", "accumulation-trials-zero"])
    def test_refused(self, call, text):
        est = init_on(make_series(1.0))
        with pytest.raises(RangeError) as err:
            call(est)
        assert str(err.value) == text
        assert est.k == PROFILE.w

    def test_numpy_integers_accepted(self):
        assert make_harmonic_model(40.0, np.int64(2)) == MODEL
        spec = SyntheticSpec(MODEL, THETA_STAR, 1.0, 11, np.int32(160))
        series = synth_generate(spec)
        assert np.array_equal(series, make_series(1.0))
        est = init_on(series)
        assert np.array_equal(est.forecast(np.int64(3)).mean, est.forecast(3).mean)
        runs = [init_on(series).run(series[PROFILE.w:], cond_every)
                for cond_every in (7, np.int64(7))]
        for got, want in zip(*runs):
            assert np.array_equal(got, want)
        assert np.array_equal(weights(PROFILE, np.int64(60)), weights(PROFILE, 60))
        assert np.array_equal(information_matrix(PROFILE, MODEL, np.int64(80), np.int32(30)),
                              information_matrix(PROFILE, MODEL, 80, 30))


class TestInfoMatrix:
    def test_matches_gain_right_after_init(self):
        est = init_on(make_series(1.0))
        direct = linalg.spd_inverse(est.info_matrix())
        assert np.linalg.norm(direct - est.gamma) <= 1e-10 * np.linalg.norm(est.gamma)

    def test_gain_times_info_is_identity_after_steps(self):
        series = make_series(1.0)
        est = init_on(series)
        for sample in enumerate(series[PROFILE.w :], PROFILE.w + 1):
            est.step(sample)
        product = est.gamma @ est.info_matrix()
        assert np.max(np.abs(product - np.eye(MODEL.dim))) <= 1e-6

    def test_near_unit_weights_orthogonal_regressors_diagonal(self):
        # period dividing the window makes the regressors orthogonal over it;
        # with lambda -> 1 the weighting is uniform and A is nearly diagonal
        model = make_harmonic_model(8.0, 0)
        profile = ExponentialProfile(1.0 - 1e-12, 8)
        est = RlsEstimator.init(profile, model, np.zeros(8), diagonal_loading=0.0)
        a = est.info_matrix()
        off = a - np.diag(np.diagonal(a))
        assert np.max(np.abs(off)) <= 1e-9 * np.max(np.abs(np.diagonal(a)))

    @pytest.mark.parametrize(
        "profile", [PROFILE, ExponentialProfile(0.97, 50)], ids=["segmented", "exponential"]
    )
    def test_windowed_matrix_from_the_ring_equals_a_rebuild(self, profile):
        # the window's rows come from the row block, right after init and
        # across three block changes, bit for bit as a rebuild
        series = make_series(1.0, length=profile.w + 3 * ROW_BLOCK + 5)
        est = init_on(series, profile)
        for k, y in enumerate(series[profile.w - 1 :], profile.w):
            if k > est.k:
                est.step((k, y))
            rebuilt = information_matrix(profile, MODEL, est.k, profile.w)
            assert np.array_equal(est.info_matrix(), rebuilt)

    def test_unbounded_running_sum_tracks_a_rebuild(self):
        # bitwise right after init; then calls at uneven intervals and twice
        # at one index, each within 1e-13 of a rebuild
        profile = ExponentialProfile(0.97)
        series = make_series(1.0)
        est = RlsEstimator.init(profile, MODEL, series[:20])
        assert np.array_equal(est.info_matrix(), information_matrix(profile, MODEL, 20, 20))
        for k, y in enumerate(series[19:], 20):
            if k > est.k:
                est.step((k, y))
            for _ in range((k % 7 == 0) + (k % 3 == 0)):
                rebuilt = information_matrix(profile, MODEL, est.k, est.k)
                deviation = np.max(np.abs(est.info_matrix() - rebuilt))
                assert deviation <= 1e-13 * np.max(np.abs(rebuilt))

    def test_unbounded_state_keeps_its_size_and_hands_out_copies(self):
        profile = ExponentialProfile(0.97)
        series = make_series(1.0, length=20 + 5000)
        est = RlsEstimator.init(profile, MODEL, series[:20])
        nbytes = {}
        for k, y in enumerate(series[20:], 21):
            est.step((k, y))
            if k % 60 == 0:
                est.info_matrix()
            if k - 20 in (1000, 5000):
                nbytes[k - 20] = sum(value.nbytes for value in vars(est).values()
                                     if isinstance(value, np.ndarray))
        assert nbytes[1000] == nbytes[5000]
        # writing into a returned A changes neither the next call at this
        # index nor the one after a step
        a = est.info_matrix()
        want = a.copy()
        a[:] = 0.0
        assert np.array_equal(est.info_matrix(), want)
        est.info_matrix()[:] = 0.0
        est.step((est.k + 1, 0.5))
        rebuilt = information_matrix(profile, MODEL, est.k, est.k)
        assert np.max(np.abs(est.info_matrix() - rebuilt)) <= 1e-13 * np.max(np.abs(rebuilt))

    def test_unbounded_profile_accumulates_history(self):
        series = make_series(1.0)[:90]
        est = RlsEstimator.init(ExponentialProfile(0.97), MODEL, series[:60])
        for sample in enumerate(series[60:], 61):
            est.step(sample)
        a = est.info_matrix()
        gamma_direct = np.linalg.inv(a)
        assert np.linalg.norm(est.gamma - gamma_direct) <= 1e-6 * np.linalg.norm(
            gamma_direct
        )


def rotation(model, j):
    """R^j with phi_{k+j} = R^j phi_k: a 1 for dc, then a 2x2 rotation by q_i j per frequency."""
    phi = regressor_matrix(model, [j])[0]
    r = np.zeros((model.dim, model.dim))
    r[0, 0] = 1.0
    for i in range(1, model.dim, 2):
        c, s = phi[i], phi[i + 1]
        r[i : i + 2, i : i + 2] = [[c, -s], [s, c]]
    return r


@pytest.mark.parametrize(
    "model, profile",
    [
        (MODEL, PROFILE),
        (MODEL, ExponentialProfile(0.97, 50)),
        (STANDARD_MODEL, FIG2),
        (STANDARD_MODEL, ExponentialProfile(0.99, 400)),
    ],
    ids=["n7-segmented", "n7-exponential", "n35-fig2", "n35-exponential"],
)
class TestRotationSymmetry:
    """A full window's information matrix is the first one, rotated: A_k = R^(k-w) A_w R^-(k-w)."""

    def test_information_matrix_is_the_first_window_rotated(self, model, profile):
        w = profile.w
        a_w = information_matrix(profile, model, w, w)
        for k in (w, w + 1, 1000, 4000, 40000):
            r = rotation(model, k - w)
            rotated = r @ a_w @ r.T   # R is orthogonal: R^-1 = R^T
            a_k = information_matrix(profile, model, k, w)
            assert np.max(np.abs(a_k - rotated)) <= 1e-11 * np.max(np.abs(a_w)), k

    def test_condition_number_does_not_depend_on_k(self, model, profile):
        w = profile.w
        cond_w = linalg.condition_number(information_matrix(profile, model, w, w))
        for k in (w + 1, 1000, 4000, 40000):
            cond_k = linalg.condition_number(information_matrix(profile, model, k, w))
            assert abs(cond_k - cond_w) <= 1e-12 * cond_w, k


def filter_fit(profile, model, y):
    """(yhat, yhat1) at indices w..len(y) as fixed FIR filters of the values y.

    With Gamma_* the inverse of the information matrix of the window ending
    at index 0, A_k = R^k A_0 R^-k makes the fitted value at k the filter
    h(j) = f(j) phi_{-j}^T Gamma_* phi_0 of y_{k-j}.  R keeps the first three
    entries to themselves, so yhat1's filter uses phi_0 and Gamma_*'s columns cut
    to those entries.  No recursion, and no gain, anywhere.
    """
    w = profile.w
    gamma = np.linalg.inv(information_matrix(profile, model, 0, w))
    lagged = regressor_matrix(model, -np.arange(w))   # row j is phi_{-j}
    phi0 = regressor_matrix(model, [0])[0]
    f = weights(profile, w)
    h = f * (lagged @ (gamma @ phi0))
    h1 = f * (lagged @ (gamma[:3].T @ phi0[:3]))
    return np.convolve(y, h, "valid"), np.convolve(y, h1, "valid")


@pytest.mark.parametrize(
    "profile", [FIG2, ExponentialProfile(0.99, 400)], ids=["fig2", "exponential"]
)
def test_run_matches_the_fir_filter_on_every_row(profile):
    # every fitted value of a 4k-day series, not a sample of rows
    model = STANDARD_MODEL
    y = synth_generate(SyntheticSpec(model, standard_theta(model), 1.0, 5, 4000))
    est = RlsEstimator.init(profile, model, y[: profile.w])
    yhat, yhat1, _ = est.run(y[profile.w :])
    for got, want in zip((yhat, yhat1), filter_fit(profile, model, y)):
        assert got.shape == want.shape == (len(y) - profile.w + 1,)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


class TestProfileEffects:
    """How segmentation shapes the information matrix on the daily harmonic setup."""

    def setup_method(self):
        from segrls.verify import information_matrix

        self.model = STANDARD_MODEL
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
