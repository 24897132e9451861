import math
import re

import numpy as np
import pytest

from segrls import linalg, reference
from segrls.errors import NotPositiveDefiniteError, RangeError, SingularUpdateError
from segrls.estimator import ROW_BLOCK, RlsEstimator, Sample
from segrls.harmonic import make_harmonic_model, regressor_matrix
from segrls.profile import ExponentialProfile, SegmentedProfile
from segrls.reference import (
    SyntheticSpec,
    _direct_solve,
    _direct_trajectory,
    _median,
    _window_transition_batch,
    accumulation_experiment,
    compare_trajectory,
    derive_seed,
    direct_weighted_ls,
    gauss_jordan_inverse,
    monte_carlo_bias,
    random_normals,
    random_spd_with_cond,
    random_uniforms,
    synth_generate,
)
from segrls.verify import fig2_profile, standard_model, standard_theta

MODEL = make_harmonic_model(40.0, 2)  # n = 7
THETA_STAR = np.array([2.0, 4.0, -1.0, 0.5, 0.3, -0.2, 0.1])
PROFILE = SegmentedProfile(beta=0.85, lam=0.97, m=30, p=1, w=50)


def spec(sigma, seed=11, length=160, theta=THETA_STAR):
    return SyntheticSpec(
        model=MODEL, theta_star=theta, noise_sigma=sigma, seed=seed, length=length
    )


def samples_of(values):
    """Samples k = 1.. of a value array, index k holding values[k - 1]."""
    return [Sample(k, float(y)) for k, y in enumerate(values, start=1)]


def same_bits(x, y):
    """Equal values and equal signs, zeros included."""
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


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
        assert series.shape == (160,) and series.dtype == np.float64
        for k, y in enumerate(series[:20], 1):
            clean = float(regressor_matrix(MODEL, [k])[0] @ THETA_STAR)
            assert y == pytest.approx(clean, abs=1e-14)

    def test_unit_variance_noise(self):
        values = synth_generate(spec(1.0, length=10_000, theta=np.zeros(MODEL.dim)))
        assert np.var(values) == pytest.approx(1.0, rel=0.05)

    def test_same_seed_identical(self):
        a = synth_generate(spec(2.0, seed=9))
        b = synth_generate(spec(2.0, seed=9))
        assert np.array_equal(a, b)

    def test_spec_validation(self):
        with pytest.raises(RangeError):
            SyntheticSpec(MODEL, np.zeros(3), 1.0, 0, 10)
        with pytest.raises(RangeError):
            spec(-1.0)
        with pytest.raises(RangeError):
            spec(1.0, length=0)

    @pytest.mark.parametrize("sigma,theta_0", [(math.nan, 1.0), (math.inf, 1.0),
                                               (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_spec_rejected(self, sigma, theta_0):
        theta = THETA_STAR.copy()
        theta[0] = theta_0
        with pytest.raises(RangeError):
            spec(sigma, theta=theta)

    def test_spec_keeps_its_own_theta(self):
        theta = THETA_STAR.copy()
        made = spec(0.0, theta=theta)
        before = synth_generate(made)
        theta[0] += 100.0
        assert np.array_equal(made.theta_star, THETA_STAR)
        assert np.array_equal(synth_generate(made), before)

    @pytest.mark.parametrize("length", [1, 255, 256, 257, 258, 769, 5000])
    def test_signal_is_built_in_row_blocks_with_the_whole_products_bits(
            self, monkeypatch, length):
        model = standard_model()                        # n = 35
        theta = np.linspace(-3.0, 3.0, model.dim)
        asked = []

        def spy(model, indices):
            asked.append(len(indices))
            return regressor_matrix(model, indices)

        monkeypatch.setattr(reference, "regressor_matrix", spy)
        got = synth_generate(SyntheticSpec(model, theta, 0.0, 1, length))
        # ROW_BLOCK rows a block; a last block of one row starts four rows early
        full, last = divmod(length, ROW_BLOCK)
        blocks = [ROW_BLOCK] * full + [last] * (last > 0)
        if full and last == 1:
            blocks[-2:] = [ROW_BLOCK - 4, 5]
        assert asked == blocks
        assert same_bits(got, regressor_matrix(model, np.arange(1, length + 1)) @ theta)


class TestDirectWeightedLs:
    def test_noiseless_recovers_truth(self):
        series = samples_of(synth_generate(spec(0.0)))
        _, theta = direct_weighted_ls(PROFILE, MODEL, series, 100)
        assert np.linalg.norm(theta - THETA_STAR) <= 1e-8 * np.linalg.norm(THETA_STAR)

    def test_accumulation_order_insensitive(self):
        from segrls.profile import weights

        series = synth_generate(spec(1.0))
        k = 90
        a, theta = direct_weighted_ls(PROFILE, MODEL, samples_of(series), k)
        # reassemble the normal equations in shuffled order
        rng = np.random.default_rng(0)
        order = rng.permutation(PROFILE.w)
        f = weights(PROFILE, PROFILE.w)
        a_shuffled = np.zeros_like(a)
        b_shuffled = np.zeros(MODEL.dim)
        for j in order:
            phi = regressor_matrix(MODEL, [k - j])[0]
            a_shuffled += f[j] * np.outer(phi, phi)
            b_shuffled += f[j] * phi * series[k - 1 - j]
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
        _, theta = direct_weighted_ls(prof, model, samples_of(series), 7)
        assert np.linalg.norm(theta - theta_star) <= 1e-9 * np.linalg.norm(theta_star)

    def test_rank_deficient_rejected(self):
        model = make_harmonic_model(365.25, 16)
        prof = ExponentialProfile(0.99, model.dim)
        series = [Sample(k, 0.5) for k in range(1, model.dim + 1)]
        with pytest.raises(NotPositiveDefiniteError, match=f"at index {model.dim} "):
            direct_weighted_ls(prof, model, series, model.dim)

    def test_out_of_range_index(self):
        series = samples_of(synth_generate(spec(0.0)))
        with pytest.raises(ValueError):
            direct_weighted_ls(PROFILE, MODEL, series, 10_000)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="outside the sample range: no samples"):
            direct_weighted_ls(PROFILE, MODEL, [], 1)


MODEL5 = make_harmonic_model(40.0, 1)  # n = 5
SERIES5 = samples_of(synth_generate(SyntheticSpec(MODEL5, THETA_STAR[:5], 1.0, 11, 60)))


class TestDirectWeightedLsSamples:
    """The window is the samples of indices k - count + 1..k, in order, each one number."""

    @pytest.mark.parametrize("profile", [ExponentialProfile(0.97, 20), ExponentialProfile(0.97)],
                             ids=["windowed", "infinite"])
    @pytest.mark.parametrize("missing", [31, 45, 10], ids=["window-start", "window-middle", "before-window"])
    def test_a_missing_index_is_named(self, profile, missing):
        samples = [s for s in SERIES5 if s.k != missing]
        # the window of index 50 is 31..50, or 1..50 for the infinite profile
        want = max(31 if profile.w else 1, missing)
        with pytest.raises(ValueError, match=(
                rf"^expected index {want} in the window of index 50, got index {want + 1}$")):
            direct_weighted_ls(profile, MODEL5, samples, 50)

    def test_a_swap_is_named(self):
        samples = list(SERIES5)
        samples[39], samples[40] = samples[40], samples[39]     # indices 40 and 41
        with pytest.raises(ValueError, match=(
                r"^expected index 40 in the window of index 50, got index 41$")):
            direct_weighted_ls(ExponentialProfile(0.97, 20), MODEL5, samples, 50)

    def test_a_window_short_of_samples_is_refused(self):
        samples = SERIES5[:10] + [Sample(100, 1.0)]
        with pytest.raises(ValueError, match=(
                r"^expected index 31 in the window of index 50, got no sample$")):
            direct_weighted_ls(ExponentialProfile(0.97, 20), MODEL5, samples, 50)

    @pytest.mark.parametrize("k", [50, 60])
    def test_samples_outside_the_window_do_not_matter(self, k):
        profile = ExponentialProfile(0.97, 20)
        want = direct_weighted_ls(profile, MODEL5, SERIES5, k)
        # the first 30 samples gone, and an array value before the window
        samples = [Sample(30, np.ones(3))] + SERIES5[30:]
        got = direct_weighted_ls(profile, MODEL5, samples, k)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("value", [np.ones(3), np.ones(1), np.ones((1, 1))],
                             ids=["three", "one", "one-by-one"])
    def test_an_array_value_is_refused(self, value):
        samples = list(SERIES5)
        samples[44] = Sample(45, value)
        with pytest.raises(ValueError, match=(
                rf"^expected one value at index 45, got shape {re.escape(str(value.shape))}$")):
            direct_weighted_ls(ExponentialProfile(0.97, 20), MODEL5, samples, 50)

    def test_a_zero_dimensional_value_is_one_number(self):
        profile = ExponentialProfile(0.97, 20)
        want = direct_weighted_ls(profile, MODEL5, SERIES5, 50)
        samples = [Sample(s.k, np.array(s.y)) for s in SERIES5]
        got = direct_weighted_ls(profile, MODEL5, samples, 50)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


# the windowed profiles start at w samples, the infinite one at init_count = 50
ORACLE_PROFILES = [
    pytest.param(PROFILE, 50, id="segmented"),
    pytest.param(ExponentialProfile(0.97, 50), 50, id="exponential-windowed"),
    pytest.param(ExponentialProfile(0.97), 50, id="infinite"),
]


class TestCompareTrajectory:
    @pytest.mark.parametrize("profile, window", ORACLE_PROFILES)
    def test_window_slices_equal_direct_weighted_ls(self, profile, window):
        values = synth_generate(spec(1.0, length=240))
        samples = samples_of(values)
        rows = regressor_matrix(MODEL, np.arange(1, len(values) + 1))
        for k in range(window, len(values) + 1):
            start = 0 if profile.w is None else k - profile.w
            a, theta = _direct_solve(profile, rows[start:k], values[start:k], k)
            a_ref, theta_ref = direct_weighted_ls(profile, MODEL, samples, k)
            assert np.array_equal(a, a_ref) and np.array_equal(theta, theta_ref), k

    @pytest.mark.parametrize("profile, k", [
        pytest.param(fig2_profile(), 700, id="segmented"),
        pytest.param(ExponentialProfile(0.99), 700, id="infinite"),
    ])
    def test_sample_oracle_equals_the_array_solve_on_the_fig2_model(self, profile, k):
        # perfbench's gates build Sample(k, float(y)) from index 1 and call
        # direct_weighted_ls on this model: it must stay the array solve, bit for bit
        model = standard_model()
        values = synth_generate(SyntheticSpec(model, standard_theta(model), 2.0, 3, 900))
        samples = samples_of(values)
        start = 0 if profile.w is None else k - profile.w
        rows = regressor_matrix(model, np.arange(1, len(values) + 1))
        a, theta = _direct_solve(profile, rows[start:k], values[start:k], k)
        a_ref, theta_ref = direct_weighted_ls(profile, model, samples, k)
        assert np.array_equal(a, a_ref) and np.array_equal(theta, theta_ref)

    @pytest.mark.parametrize("profile, window", ORACLE_PROFILES)
    def test_deviations_equal_a_per_step_direct_solve(self, profile, window):
        series = synth_generate(spec(1.0, length=240))
        samples = samples_of(series)
        report = compare_trajectory(profile, MODEL, series, init_count=window)
        est = RlsEstimator.init(profile, MODEL, series[:window])
        theta_dev_max = gamma_dev_max = 0.0
        for sample in samples[window:]:
            est.step(sample)
            a, theta = direct_weighted_ls(profile, MODEL, samples, est.k)
            gamma = np.linalg.inv(a)
            theta_dev_max = max(theta_dev_max, float(
                np.linalg.norm(est.theta - theta) / np.linalg.norm(theta)))
            gamma_dev_max = max(gamma_dev_max, float(
                np.linalg.norm(est.gamma - gamma) / np.linalg.norm(gamma)))
        assert report.theta_dev_max == theta_dev_max
        assert report.gamma_dev_max == gamma_dev_max

    @pytest.mark.parametrize("profile, model, steps, width", [
        # 630 steps: 78 full stacks of windows and a part-filled one
        pytest.param(fig2_profile(), standard_model(), 630, (), id="fig2"),
        pytest.param(SegmentedProfile(0.85, 0.97, 5, 1, 10), make_harmonic_model(40.0, 3),
                     300, (), id="n9-w10-segmented"),
        pytest.param(ExponentialProfile(0.95, 10), make_harmonic_model(40.0, 3),
                     300, (3,), id="n9-w10-exponential-batch"),
    ])
    def test_stacked_windows_equal_the_per_window_solve(self, profile, model, steps, width):
        w = profile.w
        theta_star = np.linspace(1.0, 2.0, model.dim)
        values = np.stack([
            synth_generate(SyntheticSpec(model, theta_star, 2.0, seed, w + steps))
            for seed in range(1, 1 + (width or (1,))[0])
        ], axis=1).reshape(w + steps, *width)
        rows = regressor_matrix(model, np.arange(1, w + steps + 1))
        solves = list(_direct_trajectory(profile, rows, values, w + 1))
        assert len(solves) == steps
        for k, (theta, gamma) in enumerate(solves, w + 1):
            a_ref, theta_ref = _direct_solve(profile, rows[k - w:k], values[k - w:k], k)
            assert same_bits(theta, theta_ref), k
            assert same_bits(gamma, np.linalg.inv(a_ref)), k

    def test_a_stack_names_its_rank_deficient_window(self):
        profile, model = fig2_profile(), standard_model()
        rows = regressor_matrix(model, np.arange(1, 405))
        stack = np.stack([rows[j : j + 400] for j in range(4)])  # indices 401..404
        stack[2] = stack[2, :1]                                  # one row repeated: rank 1
        with pytest.raises(NotPositiveDefiniteError,
                           match="^information matrix at index 403 is not positive definite$"):
            _direct_solve(profile, stack, np.ones((4, 400, 1)), range(401, 405))

    def test_zero_noise_deviations_negligible(self):
        series = synth_generate(spec(0.0, length=80))
        report = compare_trajectory(PROFILE, MODEL, series)
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
        assert np.all(np.abs(report.bias) <= 4.0 * report.standard_error)

    def test_unbounded_profile_refused(self):
        with pytest.raises(ValueError, match="^the bias estimate needs a windowed profile, "
                                             "not the unbounded one$"):
            monte_carlo_bias(ExponentialProfile(0.97), spec(1.0, length=90), 100, 80)

    @pytest.mark.parametrize(
        "profile, window, trials",
        [  # 110 trials leave a part-filled last group
            pytest.param(PROFILE, 50, 110, id="segmented"),
            pytest.param(ExponentialProfile(0.97, 50), 50, 100, id="exponential-windowed"),
        ],
    )
    def test_shared_gain_equals_a_per_trial_loop(self, profile, window, trials):
        base, k = spec(1.0, length=90), 80
        report = monte_carlo_bias(profile, base, trials, k)
        estimates = []
        for t in range(trials):
            series = synth_generate(spec(1.0, seed=derive_seed(base.seed, t), length=90))
            est = RlsEstimator.init(profile, MODEL, series[:window])
            for sample in enumerate(series[window:k], window + 1):
                est.step(sample)
            estimates.append(est.theta)
        estimates = np.array(estimates)
        se = estimates.std(axis=0, ddof=1) / math.sqrt(trials)
        np.testing.assert_allclose(report.bias, estimates.mean(axis=0) - THETA_STAR,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(report.standard_error, se, rtol=1e-12, atol=0)


def row_by_row_gauss_jordan(a):
    """Long-double Gauss-Jordan on one matrix, one row update at a time."""
    aug = np.hstack([np.asarray(a, dtype=np.longdouble), np.eye(len(a), dtype=np.longdouble)])
    n = len(a)
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        aug[[col, piv]] = aug[[piv, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def mixed_stack():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 9, 9)) + 9 * np.eye(9)  # no row swaps
    a[2, 0, 0] = 0.0                                    # needs a swap at once
    a[4] = rng.standard_normal((9, 9))                  # swaps along the way
    return a


def a8_stack():
    """Eight matrices shaped like A8's: n = 35, condition number 1e8."""
    return np.stack([random_spd_with_cond(35, 1e8, derive_seed(7, t)) for t in range(8)])


def scalar_stack():
    return np.array([[[2.0]], [[-3.0]], [[1e-300]]])


# each stack, with a member to make singular
GJ_STACKS = [(mixed_stack, 3), (a8_stack, 5), (scalar_stack, 1)]


class TestStackedGaussJordan:
    def test_each_slice_equals_the_single_matrix_inverse(self):
        for stack, _ in GJ_STACKS:
            a = stack()
            got = gauss_jordan_inverse(a)
            assert got.shape == a.shape and got.dtype == np.longdouble
            for member, inverse in zip(a, got):
                assert same_bits(inverse, gauss_jordan_inverse(member)), stack.__name__
                assert same_bits(inverse, row_by_row_gauss_jordan(member)), stack.__name__

    def test_signed_zeros_follow_the_full_width_elimination(self):
        a = np.diag([-1.0, 2.0, -3.0])
        assert same_bits(gauss_jordan_inverse(a), row_by_row_gauss_jordan(a))

    def test_singular_member_raises(self):
        for stack, singular in GJ_STACKS:
            a = stack()
            a[singular, :, -1] = 0.0
            with pytest.raises(ZeroDivisionError):
                gauss_jordan_inverse(a)
            with pytest.raises(ZeroDivisionError):
                gauss_jordan_inverse(a[singular])


class TestAccumulationExperiment:
    def test_grouped_trials_equal_a_per_trial_loop(self):
        # ten trials: a full stack of inverses and a part-filled one
        n, steps, cond, trials, seed = 12, 6, 1e8, 10, 1
        report = accumulation_experiment(n, steps, cond, trials, seed=seed)
        batch, chain, incidents = [], [], 0
        for t in range(trials):
            trial_seed = derive_seed(seed, t)
            b = np.asarray(random_spd_with_cond(n, cond, trial_seed), dtype=np.longdouble)
            b_inv = linalg.symmetrize(np.asarray(gauss_jordan_inverse(b), dtype=float))
            cols, signs = _window_transition_batch(n, steps, b_inv, trial_seed)
            cols_ld = np.asarray(cols, dtype=np.longdouble)
            reference = gauss_jordan_inverse(b + (cols_ld * signs) @ cols_ld.T)
            scale = math.sqrt(float(np.sum((reference * reference).astype(float))))

            def error(got):
                return math.sqrt(float(np.sum(((got - reference) ** 2).astype(float)))) / scale

            batch.append(error(linalg.batch_inverse_update(b_inv, cols, signs)))
            try:
                chain.append(error(linalg.chain_sherman_morrison(b_inv, cols, signs)))
            except SingularUpdateError:
                incidents += 1
                chain.append(math.inf)
        assert report.singular_incidents == incidents
        # an even count: each median is the mean of the two middle errors
        assert report.median_batch == float(np.median(batch))
        assert report.median_chain == float(np.median(chain))

    def test_median_has_the_bits_of_np_median(self):
        # lengths 1-101; plain draws, then signed zeros and infinities, then nans too
        rng = np.random.default_rng(29)
        specials = np.array([0.0, -0.0, np.inf, -np.inf, 1e308, -1e308, np.nan])
        for length in range(1, 102):
            for kinds in (0, 6, 7):
                values = np.round(rng.standard_normal(length), int(rng.integers(0, 3)))
                mask = rng.random(length) < 0.2
                if kinds:
                    values[mask] = rng.choice(specials[:kinds], mask.sum())
                with np.errstate(all="ignore"):
                    want = np.float64(np.median(values)).tobytes()
                    assert np.float64(_median(values)).tobytes() == want, values


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

    def test_only_the_chain_refusal_is_counted(self, monkeypatch):
        def refuse(*args):
            raise SingularUpdateError("refused")

        monkeypatch.setattr(linalg, "chain_sherman_morrison", refuse)
        report = accumulation_experiment(6, 1, 1.0, 5, seed=3)
        assert report.singular_incidents == 5 and report.median_chain == math.inf
        assert report.median_batch <= 1e-14
        # the batch update sits outside the counted call: its refusal propagates
        monkeypatch.setattr(linalg, "batch_inverse_update", refuse)
        with pytest.raises(SingularUpdateError, match="^refused$"):
            accumulation_experiment(6, 1, 1.0, 5, seed=3)
