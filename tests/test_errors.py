"""The package's refusal classes and the texts its refusals carry.

Seven classes, one per kind of refusal: ``RangeError`` for parameters and
sample indices, ``ParseError``, ``CalendarError`` and ``GapError`` for data,
``NotPositiveDefiniteError`` and ``SingularUpdateError`` for numerical
breakdowns, all under ``SegrlsError``.
"""

import math

import numpy as np
import pytest

import segrls
from segrls import linalg
from segrls.cli import main
from segrls.errors import RangeError, SegrlsError, SingularUpdateError
from segrls.estimator import RlsEstimator
from segrls.harmonic import HarmonicModel
from segrls.profile import ExponentialProfile, SegmentedProfile

MODEL = HarmonicModel(40.0, 2)  # n = 7


def test_the_exception_names_are_the_seven_refusal_classes():
    exceptions = {name for name in segrls.__all__
                  if isinstance(getattr(segrls, name), type)
                  and issubclass(getattr(segrls, name), BaseException)}
    assert exceptions == {"SegrlsError", "RangeError", "ParseError", "CalendarError",
                          "GapError", "NotPositiveDefiniteError", "SingularUpdateError"}
    assert all(issubclass(getattr(segrls, name), SegrlsError) for name in exceptions)


def _step_off_index(k):
    est = RlsEstimator.init(ExponentialProfile(0.97, 50), MODEL, np.ones(50))
    est.step((k, 0.0))


def _chain_through_nan():
    q = np.array([[1.0, 0.5], [0.0, math.nan], [0.0, 0.25]])
    with np.errstate(all="ignore"):
        linalg.chain_sherman_morrison(np.eye(3), q, [1.0, -1.0])


@pytest.mark.parametrize("call, cls, text", [
    (lambda: SegmentedProfile(0.99, 0.99, 10, 1, 100), RangeError,
     r"^beta == lambda gives zero-scale fast-segment columns$"),
    (lambda: SegmentedProfile(0.25, 0.5, 2, 1, 100), RangeError,
     r"^lambda\^m == beta\^p gives a zero-scale drop column$"),
    (lambda: SegmentedProfile(0.5, 0.99, 1, 1, 100), RangeError,
     r"^drop condition violated: lambda\^\(m\+1\)=0\.9801 >= beta\^p=0\.5$"),
    (lambda: SegmentedProfile(0.89, 0.99, 250, 5, 6), RangeError,
     r"^fast segment does not fit the window: p\+1=6 >= w=6$"),
    (lambda: HarmonicModel(4.0, 2), RangeError,
     r"^top frequency 4\.71239 reaches the Nyquist limit pi; "
     r"reduce harmonics or increase the period$"),
    (lambda: RlsEstimator.init(ExponentialProfile(0.99, 6), MODEL, np.ones(6)), RangeError,
     r"^window 6 is smaller than the model dimension 7$"),
    (lambda: _step_off_index(51.5), RangeError, r"^expected sample index 51, got 51\.5$"),
    (_chain_through_nan, SingularUpdateError,
     r"^rank-one denominator nan below tolerance at column 1$"),
], ids=["equal-factors", "zero-drop-column", "no-drop", "fast-segment-window", "nyquist",
        "window-below-dimension", "index-gap", "chain-denominator"])
def test_a_former_single_class_site_raises_the_surviving_class_with_its_text(call, cls, text):
    with pytest.raises(cls, match=text) as err:
        call()
    assert type(err.value) is cls


@pytest.mark.parametrize("flags, text", [
    (["--beta", "0.99", "--lambda", "0.99"],
     "beta == lambda gives zero-scale fast-segment columns"),
    (["--beta", "0.25", "--lambda", "0.5", "--m", "2"],
     "lambda^m == beta^p gives a zero-scale drop column"),
    (["--beta", "0.5", "--m", "1"],
     "drop condition violated: lambda^(m+1)=0.9801 >= beta^p=0.5"),
    (["--p", "5", "--window", "6"],
     "fast segment does not fit the window: p+1=6 >= w=6; "
     "--window 6 is smaller than the model dimension 35"),
    (["--period", "4", "--harmonics", "2"],
     "top frequency 4.71239 reaches the Nyquist limit pi; "
     "reduce harmonics or increase the period"),
], ids=["equal-factors", "zero-drop-column", "no-drop", "fast-segment-window", "nyquist"])
def test_the_cli_refuses_a_profile_or_model_as_a_configuration_error(
        tmp_path, capsys, flags, text):
    code = main(["fit", "--input", str(tmp_path / "unread.csv"), *flags,
                 "--output", str(tmp_path / "out.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"configuration error: {text}\n"
    assert not (tmp_path / "out.csv").exists()
