import math
from fractions import Fraction

import numpy as np
import pytest

from segrls.errors import RangeError
from segrls.profile import (
    ExponentialProfile,
    SegmentedProfile,
    update_template,
    weights,
)

FIG2 = dict(beta=0.89, lam=0.99, m=250, p=1, w=400)

# frozen with a 60-digit scalar oracle
W_FIG2_LAG2 = 0.080247931000559645      # 0.99**251
DROP_FIG2 = 0.090166214607370388        # 0.99**251 / 0.89
DROP_9296 = 0.090106762940978889        # 0.96**61 / 0.92
EXP_REMOVAL_SCALE = 0.13397967485796195  # 0.99**200


class TestConstruction:
    def test_fig2_parameters_valid(self):
        prof = SegmentedProfile(**FIG2)
        assert prof.w == 400 and prof.lam == 0.99

    def test_fig1_factors_valid(self):
        # lambda^(m+1) < 0.92 requires m >= 2 here
        prof = SegmentedProfile(0.92, 0.96, 60, 1, 400)
        assert 0.96**61 < 0.92
        assert prof.p == 1

    def test_equal_factors_rejected(self):
        with pytest.raises(RangeError,
                           match=r"^beta == lambda gives zero-scale fast-segment columns$"):
            SegmentedProfile(0.99, 0.99, 10, 1, 100)

    def test_zero_drop_column_rejected(self):
        # 0.5**2 == 0.25**1 exactly in binary floating point
        with pytest.raises(RangeError,
                           match=r"^lambda\^m == beta\^p gives a zero-scale drop column$"):
            SegmentedProfile(0.25, 0.5, 2, 1, 100)

    def test_no_drop_rejected(self):
        # lambda^(m+1) = 0.9801 >= beta^p = 0.5
        with pytest.raises(RangeError, match=r"^drop condition violated: "
                                             r"lambda\^\(m\+1\)=0\.9801 >= beta\^p=0\.5$"):
            SegmentedProfile(0.5, 0.99, 1, 1, 100)

    def test_fast_segment_must_fit_window(self):
        with pytest.raises(RangeError, match=r"^fast segment does not fit the window: "
                                             r"p\+1=6 >= w=6$"):
            SegmentedProfile(0.89, 0.99, 250, 5, 6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(FIG2, beta=1.2),
            dict(FIG2, beta=0.0),
            dict(FIG2, lam=1.0),
            dict(FIG2, m=0),
            dict(FIG2, p=0),
            dict(FIG2, w=0),
        ],
    )
    def test_out_of_range_parameters(self, kwargs):
        with pytest.raises(RangeError):
            SegmentedProfile(**kwargs)

    def test_exponential_factor_range(self):
        with pytest.raises(RangeError):
            ExponentialProfile(1.5, 100)
        with pytest.raises(RangeError):
            ExponentialProfile(0.9, 0)

    @pytest.mark.parametrize(
        "make, value",
        [
            (lambda v: SegmentedProfile(**dict(FIG2, m=v)), 10.5),
            (lambda v: SegmentedProfile(**dict(FIG2, p=v)), 1.0),
            (lambda v: SegmentedProfile(**dict(FIG2, w=v)), 40.5),
            (lambda v: SegmentedProfile(**dict(FIG2, w=v)), 400.0),
            (lambda v: SegmentedProfile(**dict(FIG2, w=v)), "400"),
            (lambda v: ExponentialProfile(0.9, v), 40.0),
            (lambda v: ExponentialProfile(0.9, v), np.float64(40.0)),
        ],
        ids=["segmented-m", "segmented-p", "segmented-w", "segmented-w-float",
             "segmented-w-text", "exponential-w", "exponential-w-numpy-float"],
    )
    def test_lag_counts_must_be_integers(self, make, value):
        # m, p and w count lags: a float, even a whole one, is refused at construction
        with pytest.raises(RangeError, match="must be a positive integer"):
            make(value)

    def test_numpy_integer_lag_counts_accepted(self):
        plain = SegmentedProfile(**FIG2)
        numpy_ints = SegmentedProfile(0.89, 0.99, np.int64(250), np.int32(1), np.int64(400))
        assert numpy_ints == plain
        assert update_template(numpy_ints) == update_template(plain)
        assert np.array_equal(weights(numpy_ints, 500), weights(plain, 500))
        exponential = ExponentialProfile(0.99, np.int16(400))
        assert update_template(exponential) == update_template(ExponentialProfile(0.99, 400))


class TestWeight:
    def test_fig2_values(self):
        f = weights(SegmentedProfile(**FIG2), 1001)
        assert f[0] == 1.0
        assert f[1] == 0.89
        assert f[2] == pytest.approx(W_FIG2_LAG2, rel=1e-14)
        assert f[400] == 0.0
        assert f[1000] == 0.0

    def test_exponential_values(self):
        f = weights(ExponentialProfile(0.99, 400), 401)
        assert f[3] == pytest.approx(0.970299, abs=1e-12)
        assert f[400] == 0.0
        unbounded = weights(ExponentialProfile(0.99), 401)
        assert unbounded[400] == pytest.approx(0.99**400, rel=1e-13)

    def test_negative_lag_rejected(self):
        with pytest.raises(RangeError, match=r"^count must be >= 0, got -1$"):
            weights(SegmentedProfile(**FIG2), -1)
        assert weights(SegmentedProfile(**FIG2), 0).shape == (0,)

    def test_monotone_segments(self):
        prof = SegmentedProfile(**FIG2)
        f = weights(prof, prof.w)
        assert np.all(np.diff(f[: prof.p + 1]) < 0)
        assert np.all(np.diff(f[prof.p + 1 :]) < 0)

    def test_drop_present(self):
        prof = SegmentedProfile(**FIG2)
        f = weights(prof, prof.w)
        assert f[prof.p + 1] < f[prof.p]

    @pytest.mark.parametrize(
        "prof",
        [SegmentedProfile(**FIG2), ExponentialProfile(0.99, 400)],
        ids=["fig2", "exponential"],
    )
    def test_within_two_ulp_of_exact_power(self, prof):
        # exact rational powers of the float factors, rounded once
        seg = isinstance(prof, SegmentedProfile)
        for j, got in enumerate(weights(prof, prof.w)):
            if seg and j <= prof.p:
                base, e = prof.beta, j
            elif seg:
                base, e = prof.lam, prof.m + j - prof.p
            else:
                base, e = prof.lam, j
            exact = float(Fraction(base) ** e)
            assert abs(got - exact) <= 2 * math.ulp(exact), (j, got, exact)


class TestTemplate:
    def test_fig2_template(self):
        template = update_template(SegmentedProfile(**FIG2))
        assert template.rank == 4
        assert template.lags == (0, 1, 2, 400)
        assert template.signs == (1, -1, -1, -1)
        scales = template.scales
        assert scales[0] == 1.0
        assert scales[1] == pytest.approx(math.sqrt(0.10), rel=1e-14)
        assert scales[2] == pytest.approx(math.sqrt((0.89 - 0.99**250) * 0.99), rel=1e-13)
        assert scales[3] == pytest.approx(math.sqrt(0.99**649), rel=1e-13)

    def test_rank_is_p_plus_3(self):
        for p in (1, 2, 5):
            template = update_template(SegmentedProfile(0.89, 0.99, 250, p, 400))
            assert template.rank == p + 3
            assert template.lags == tuple(range(p + 2)) + (400,)

    def test_finite_exponential_template(self):
        template = update_template(ExponentialProfile(0.99, 400))
        assert template.rank == 2
        assert template.lags == (0, 400)
        assert template.signs == (1, -1)
        assert template.scales[0] == 1.0
        assert template.scales[1] == pytest.approx(EXP_REMOVAL_SCALE, rel=1e-14)

    def test_infinite_exponential_template(self):
        template = update_template(ExponentialProfile(0.99))
        assert template.rank == 1
        assert list(zip(template.lags, template.scales, template.signs)) == [(0, 1.0, 1)]

    def test_positive_scales(self):
        for prof in (
            SegmentedProfile(**FIG2),
            SegmentedProfile(0.92, 0.96, 60, 1, 400),
            ExponentialProfile(0.5, 30),
        ):
            assert all(s > 0 for s in update_template(prof).scales)


def drop_ratio(prof):
    """f(p+1)/f(p) of the weight law: lambda^(m+1)/beta^p."""
    f = weights(prof, prof.p + 2)
    return f[prof.p + 1] / f[prof.p]


class TestDropRatio:
    def test_fig2(self):
        assert drop_ratio(SegmentedProfile(**FIG2)) == pytest.approx(DROP_FIG2, rel=1e-14)

    def test_fig1_factors(self):
        prof = SegmentedProfile(0.92, 0.96, 60, 1, 200)
        assert drop_ratio(prof) == pytest.approx(DROP_9296, rel=1e-14)

    def test_strictly_inside_unit_interval(self):
        for prof in (SegmentedProfile(**FIG2), SegmentedProfile(0.92, 0.96, 60, 1, 400)):
            assert 0.0 < drop_ratio(prof) < 1.0


@pytest.mark.parametrize(
    "prof",
    [
        SegmentedProfile(**FIG2),
        SegmentedProfile(0.92, 0.96, 60, 1, 400),
        SegmentedProfile(0.7, 0.9, 12, 3, 60),
    ],
    ids=["fig2", "fig1-style", "short"],
)
class TestTemplateAlgebra:
    def test_telescoping_tail(self, prof):
        # within the slow segment the scaled previous weight already equals
        # the next weight, so no correction columns are needed there
        f = weights(prof, prof.w)
        for j in range(prof.p + 1, prof.w - 1):
            assert abs(f[j + 1] - prof.lam * f[j]) <= 1e-12 * f[j + 1]

    def test_template_completeness(self, prof):
        template = update_template(prof)
        f = weights(prof, prof.w)
        signed_sq = {
            lag: sign * scale**2
            for lag, scale, sign in zip(template.lags, template.scales, template.signs)
        }
        assert signed_sq.pop(0) == 1.0  # lag 0 contributes f(0) = 1
        for lag in range(1, prof.w):
            correction = f[lag] - prof.lam * f[lag - 1]
            if lag in signed_sq:
                assert signed_sq.pop(lag) == pytest.approx(correction, rel=1e-12)
            else:
                # telescoping lag: zero in exact arithmetic, round-off here
                assert abs(correction) <= 1e-12 * f[lag]
        # the window-edge column removes lambda * f(w-1)
        assert signed_sq.pop(prof.w) == pytest.approx(
            -prof.lam * f[prof.w - 1], rel=1e-12
        )
        assert not signed_sq


def test_exponential_template_reproduces_weight_law():
    prof = ExponentialProfile(0.97, 50)
    f = weights(prof, prof.w)
    for j in range(prof.w - 1):
        assert f[j + 1] - prof.lam * f[j] == pytest.approx(0.0, abs=1e-15)
