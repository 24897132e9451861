"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line per
criterion.  The two data-driven criteria need the observatory daily series;
point STOCKHOLM_DATA at the local file to enable them (they are skipped, not
passed, when the file is absent).  Synthetic surrogate versions of those two
checks always run so the full pipeline is exercised either way.
"""

import math
import os
import time

import numpy as np
import pytest

from segrls import verify
from segrls.cli import main
from segrls.ingest import parse_stockholm, to_indexed
from segrls.reference import BiasReport, SyntheticSpec, synth_generate

SEED = verify.DEFAULT_SEED


def _check(result):
    print(result.line())
    assert result.passed, result.detail


def test_a1_oracle_equivalence_segmented():
    _check(verify.criterion_a1(SEED))


def test_a2_oracle_equivalence_exponential_profiles():
    _check(verify.criterion_a2(SEED))


def test_a3_woodbury_batch_update():
    _check(verify.criterion_a3(SEED))


def test_a4_telescoping_and_template_shape():
    _check(verify.criterion_a4())


def test_a5_noiseless_recovery_fixed_point():
    _check(verify.criterion_a5(SEED))


def test_a7_condition_number_ordering():
    _check(verify.criterion_a7())


def test_a8_error_accumulation_batch_vs_chain():
    _check(verify.criterion_a8(SEED, trials=100))


def test_a9_monte_carlo_unbiasedness():
    _check(verify.criterion_a9(SEED, trials=200))


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_a9_limits_the_bias_to_four_standard_errors_of_either_sign(monkeypatch, sign):
    se = np.full(verify.standard_model().dim, 0.1)
    bias = np.zeros_like(se)
    monkeypatch.setattr(verify, "monte_carlo_bias", lambda *args: BiasReport(bias, se))
    bias[3] = sign * 4.5 * se[3]
    result = verify.criterion_a9(SEED)
    assert not result.passed and "worst |bias|/SE 4.50 (limit 4)" in result.detail
    bias[3] = sign * 4.0 * se[3]
    assert verify.criterion_a9(SEED).passed


# ----------------------------------------------------------------------
# A6 / A10: observatory data when available, synthetic surrogate always


def _stockholm_samples():
    path = os.environ.get("STOCKHOLM_DATA")
    if not path:
        pytest.skip(
            "STOCKHOLM_DATA not set; the observatory series is not bundled "
            "(fetch it locally and export STOCKHOLM_DATA=/path/to/file)"
        )
    with open(path, "r", encoding="utf-8") as handle:
        records = parse_stockholm(handle.read())
    series = to_indexed(records, gap_policy="interpolate")
    return series.values


def _surrogate_samples(length):
    model = verify.standard_model()
    spec = SyntheticSpec(
        model=model,
        theta_star=verify.standard_theta(model),
        noise_sigma=3.0,
        seed=77,
        length=length,
    )
    return synth_generate(spec)


def test_a6_fit_quality_ordering_stockholm():
    samples = _stockholm_samples()
    _check(verify.criterion_a6(samples[-4000:]))


def test_a10_forecast_coverage_stockholm():
    samples = _stockholm_samples()
    _check(verify.criterion_a10(samples[-1600:]))


def test_a6_surrogate_fit_quality_ordering():
    _check(verify.criterion_a6(_surrogate_samples(3400)))


def test_a10_surrogate_forecast_coverage():
    _check(verify.criterion_a10(_surrogate_samples(1600)))


# ----------------------------------------------------------------------
# time budgets: applied in verify._result, one per criterion


def test_a_check_past_its_budget_fails_even_when_its_condition_holds():
    late = verify._result("A0", time.perf_counter() - 2.0, True, "ok", budget_s=1.0)
    assert not late.passed and late.elapsed >= 2.0
    assert late.line().startswith("[A0] FAIL (")
    in_time = verify._result("A0", time.perf_counter(), True, "ok", budget_s=1.0)
    assert in_time.passed and in_time.line().startswith("[A0] PASS (")


def test_a_check_without_a_budget_never_fails_on_time():
    slow = verify._result("A0", time.perf_counter() - 1e6, True, "ok")
    assert slow.passed and slow.line().startswith("[A0] PASS (")
    assert not verify._result("A0", time.perf_counter() - 1e6, False, "no").passed


def test_every_criterion_has_its_budget(monkeypatch):
    budgets = {}
    result = verify._result

    def spy(name, start, passed, detail, budget_s=math.inf):
        budgets[name] = budget_s
        return result(name, start, passed, detail, budget_s)

    monkeypatch.setattr(verify, "_result", spy)
    verify.run_synthetic_suite(trials=100)
    verify.criterion_a6(_surrogate_samples(3400))
    verify.criterion_a10(_surrogate_samples(1600))
    assert budgets == {
        "A1": 60.0, "A2": 60.0, "A3": 10.0, "A4": math.inf, "A5": math.inf,
        "A6": 300.0, "A7": math.inf, "A8": 30.0, "A9": 300.0, "A10": math.inf,
    }


# ----------------------------------------------------------------------
# A11: byte-identical CLI output


def test_a11_cli_determinism(tmp_path):
    synth_flags = ["synth", "--period", "365.25", "--harmonics", "16",
                   "--length", "700", "--sigma", "2", "--seed", "20240801",
                   "--theta", "6,-9,-2.5,1.5,-1"]
    synth_a = tmp_path / "synth_a.csv"
    synth_b = tmp_path / "synth_b.csv"
    assert main([*synth_flags, "--output", str(synth_a)]) == 0
    assert main([*synth_flags, "--output", str(synth_b)]) == 0
    assert synth_a.read_bytes() == synth_b.read_bytes()
    assert "# n=35" in synth_a.read_text()  # 2*(16+1)+1 parameters

    fit_flags = ["fit", "--input", str(synth_a), "--period", "365.25",
                 "--harmonics", "16", "--window", "400", "--cond-every", "100"]
    fit_a = tmp_path / "fit_a.csv"
    fit_b = tmp_path / "fit_b.csv"
    assert main([*fit_flags, "--output", str(fit_a)]) == 0
    assert main([*fit_flags, "--output", str(fit_b)]) == 0
    assert fit_a.read_bytes() == fit_b.read_bytes()
    print("[A11] PASS cmd_synth and cmd_fit outputs byte-identical across runs")
