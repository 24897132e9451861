import math

import numpy as np
import pytest

from segrls.errors import RangeError
from segrls.estimator import _first_harmonic
from segrls.harmonic import make_harmonic_model, regressor_matrix


class TestModel:
    def test_sixteen_harmonics_daily(self):
        model = make_harmonic_model(365.25, 16)
        assert model.dim == 35
        assert model.frequencies[0] == pytest.approx(2 * math.pi / 365.25, rel=1e-15)
        assert np.all(np.diff(model.frequencies) > 0)
        assert model.frequencies[-1] < math.pi

    def test_dc_plus_one_harmonic(self):
        assert make_harmonic_model(365.25, 0).dim == 3

    def test_nyquist_rejected(self):
        with pytest.raises(RangeError, match=r"^top frequency 4\.71239 reaches the Nyquist "
                                             r"limit pi; reduce harmonics or increase the period$"):
            make_harmonic_model(4.0, 2)  # q_2 = 2*pi*3/4 > pi

    def test_parameter_ranges(self):
        with pytest.raises(RangeError):
            make_harmonic_model(0.0, 3)
        with pytest.raises(RangeError):
            make_harmonic_model(365.25, -1)

    @pytest.mark.parametrize("period", [math.nan, math.inf])
    def test_non_finite_period_rejected(self, period):
        with pytest.raises(RangeError):
            make_harmonic_model(period, 3)


class TestRegressor:
    def test_at_zero(self):
        model = make_harmonic_model(365.25, 2)
        phi = regressor_matrix(model, [0])[0]
        assert phi[0] == 1.0
        assert np.allclose(phi[1::2], 1.0)  # cosines
        assert np.allclose(phi[2::2], 0.0)  # sines

    def test_quarter_period(self):
        model = make_harmonic_model(4.0, 0)  # q_0 = pi/2
        phi = regressor_matrix(model, [1])[0]
        assert phi[1] == pytest.approx(0.0, abs=1e-15)
        assert phi[2] == pytest.approx(1.0)

    def test_squared_norm(self):
        model = make_harmonic_model(365.25, 16)
        for k in (0, 1, 17, 365, 10_000):
            phi = regressor_matrix(model, [k])[0]
            assert float(phi @ phi) == pytest.approx(model.harmonics + 2, rel=1e-14)

    def test_deterministic_regeneration(self):
        model = make_harmonic_model(365.25, 16)
        first, again = regressor_matrix(model, [12345]), regressor_matrix(model, [12345])
        assert np.array_equal(first, again)

    def test_matrix_matches_rows(self):
        # each row of a block is the row a separate call builds for its index alone
        model = make_harmonic_model(50.0, 3)
        indices = [3, 7, 11, 0, 200_000]
        mat = regressor_matrix(model, indices)
        for row, k in zip(mat, indices):
            assert np.array_equal(row, regressor_matrix(model, [k])[0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_index_rejected_by_position(self, bad):
        model = make_harmonic_model(50.0, 3)
        with pytest.raises(RangeError, match=rf"time index {bad!r} at position 2 is not finite"):
            regressor_matrix(model, [3, 7, bad, math.inf])


class TestPredict:
    """The full prediction phi_k^T theta, as the estimator forms it from a row."""

    def setup_method(self):
        self.model = make_harmonic_model(365.25, 4)

    def predict(self, theta, k):
        return float(regressor_matrix(self.model, [k])[0] @ theta)

    def test_zero_theta(self):
        assert self.predict(np.zeros(self.model.dim), 17) == 0.0

    def test_dc_only(self):
        theta = np.zeros(self.model.dim)
        theta[0] = 5.0
        for k in (0, 3, 900):
            assert self.predict(theta, k) == 5.0

    def test_unit_first_cosine(self):
        theta = np.zeros(self.model.dim)
        theta[1] = 1.0
        q0 = self.model.frequencies[0]
        assert self.predict(theta, 7) == pytest.approx(math.cos(7 * q0))


class TestFirstHarmonic:
    """The estimator's dc + fundamental part of the prediction, on a regressor row."""

    def setup_method(self):
        self.model = make_harmonic_model(365.25, 4)

    def test_higher_harmonics_excluded(self):
        theta = np.zeros(self.model.dim)
        theta[3:] = 9.0
        phi = regressor_matrix(self.model, [123])[0]
        assert _first_harmonic(theta, phi) == pytest.approx(0.0, abs=1e-12)

    def test_dc_plus_first_cosine_at_zero(self):
        theta = np.zeros(self.model.dim)
        theta[:5] = [2.0, 3.0, 0.0, 9.0, 9.0]
        assert _first_harmonic(theta, regressor_matrix(self.model, [0])[0]) == pytest.approx(5.0)
