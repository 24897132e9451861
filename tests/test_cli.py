import datetime
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from segrls import cli, linalg
from segrls.cli import fmt, main
from segrls.ingest import iso_date_range
from segrls.estimator import ForecastBand, RlsEstimator, information_matrix
from segrls.harmonic import make_harmonic_model
from segrls.linalg import condition_number
from segrls.profile import ExponentialProfile, SegmentedProfile

SMALL_MODEL = ["--period", "40", "--harmonics", "2"]  # n = 7
# the source tree the tests imported segrls from, for a CLI child
SRC = Path(cli.__file__).resolve().parent.parent


def run(argv):
    return main(argv)


def synth_file(tmp_path, name="series.csv", length=600, sigma=1.5, seed=5,
               theta="5,-8,-2,1,0.5", extra=()):
    path = tmp_path / name
    code = run(
        ["synth", *SMALL_MODEL, "--length", str(length), "--sigma", str(sigma),
         "--seed", str(seed), "--theta", theta, "--output", str(path), *extra]
    )
    assert code == 0
    return path


def csv_rows(path):
    """(date, value text) of every data row of a CSV series."""
    return [line.split(",") for line in path.read_text().splitlines()
            if line and not line.startswith(("#", "date"))]


def stockholm_file(tmp_path, csv_path, skip=()):
    """The CSV series in the observatory layout, with one extra column; ``skip`` drops dates."""
    lines = ["# sample observatory file"]
    for day, value in csv_rows(csv_path):
        if day not in skip:
            y, m, d = day.split("-")
            lines.append(f"{int(y)} {int(m)} {int(d)} {value} 9.9")
    path = tmp_path / "obs.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


FIT_FLAGS = [*SMALL_MODEL, "--window", "60", "--beta", "0.85", "--lambda", "0.97",
             "--m", "30", "--p", "1"]


class TestSynth:
    def test_writes_parseable_series(self, tmp_path):
        path = synth_file(tmp_path)
        text = path.read_text()
        assert "date,value" in text
        assert "# n=7" in text
        assert text.count("\n") >= 600

    def test_deterministic_output(self, tmp_path):
        a = synth_file(tmp_path, "a.csv").read_bytes()
        b = synth_file(tmp_path, "b.csv").read_bytes()
        assert a == b

    def test_constant_series_for_dc_only_theta(self, tmp_path):
        path = synth_file(tmp_path, "dc.csv", sigma=0.0, theta="7.5", length=10)
        values = {
            line.split(",")[1]
            for line in path.read_text().splitlines()
            if line and not line.startswith(("#", "date"))
        }
        assert values == {"7.5"}

    def test_config_errors_aggregated(self, tmp_path, capsys):
        code = run(["synth", "--length", "0", "--sigma", "-1",
                    "--output", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "--length" in err and "--sigma" in err

    def test_theta_longer_than_model_rejected(self, tmp_path):
        code = run(["synth", *SMALL_MODEL, "--theta", ",".join(["1"] * 8),
                    "--output", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("theta, full", [
        ("6,,-3", "6,0,-3,0,0"), (" ,2", "0,2,0,0,0"), ("", "0,0,0,0,0"),
        (",,", "0,0,0,0,0"), ("6,", "6,0,0,0,0"), ("1,2,3,4,5,,", "1,2,3,4,5"),
    ], ids=["inner", "leading", "none", "commas", "trailing", "full-then-commas"])
    def test_an_empty_theta_entry_is_a_zero_in_its_place(self, tmp_path, theta, full):
        path = tmp_path / "s.csv"
        assert run(["synth", "--period", "40", "--harmonics", "1", "--length", "5",
                    "--theta", theta, "--output", str(path)]) == 0       # n = 5
        assert f"\n# theta_full={full}\n" in path.read_text()

    def test_an_empty_entry_counts_before_a_later_one(self, tmp_path, capsys):
        code = run(["synth", "--period", "40", "--harmonics", "1",
                    "--theta", "1,2,3,4,,5", "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert "--theta has 6 entries, model dimension is 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--period", "nan"],
        ["fit", "--period", "inf"],
        ["fit", "--epsilon", "nan"],
        ["fit", "--epsilon", "inf"],
        ["synth", "--period", "nan"],
        ["synth", "--sigma", "nan"],
        ["synth", "--sigma", "inf"],
        ["synth", "--theta", "nan,1"],
    ],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv),
)
def test_non_finite_flag_is_a_config_error(tmp_path, capsys, argv):
    data = synth_file(tmp_path)
    capsys.readouterr()
    command, *flags = argv
    base = ["--input", str(data), *FIT_FLAGS] if command == "fit" else SMALL_MODEL
    code = run([command, *base, *flags, "--output", str(tmp_path / "out.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1


class TestFit:
    def test_fit_emits_rows_and_footer(self, tmp_path):
        data = synth_file(tmp_path)
        out = tmp_path / "fit.csv"
        code = run(["fit", "--input", str(data), *FIT_FLAGS, "--output", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("k,date,y,yhat_full,yhat_first_harmonic,residual,cond_a")
        assert "# rmse=" in text
        assert "# loading_applied=False" in text

    def test_fit_deterministic(self, tmp_path):
        data = synth_file(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run(["fit", "--input", str(data), *FIT_FLAGS, "--output", str(out_a)]) == 0
        assert run(["fit", "--input", str(data), *FIT_FLAGS, "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_noiseless_rmse_tiny(self, tmp_path):
        data = synth_file(tmp_path, "clean.csv", sigma=0.0)
        out = tmp_path / "fit.csv"
        assert run(["fit", "--input", str(data), *FIT_FLAGS, "--output", str(out)]) == 0
        rmse = float(_footer_value(out, "rmse"))
        assert rmse <= 1e-6

    def test_condition_column_emitted(self, tmp_path):
        # every 10th row from the first carries cond(A_k) of the directly
        # assembled matrix; the others are blank
        data = synth_file(tmp_path, length=80)
        model = make_harmonic_model(40.0, 2)
        for profile, prof in (("segmented", SegmentedProfile(0.85, 0.97, 30, 1, 60)),
                              ("infinite", ExponentialProfile(0.97))):
            out = tmp_path / f"fit_{profile}.csv"
            assert run(["fit", "--input", str(data), *FIT_FLAGS, "--profile", profile,
                        "--cond-every", "10", "--output", str(out)]) == 0
            rows = [l.split(",") for l in out.read_text().splitlines()
                    if l and not l.startswith(("#", "k,"))]
            first = int(rows[0][0])
            due = [(int(r[0]), r[6]) for r in rows if (int(r[0]) - first) % 10 == 0]
            assert [k for k, _ in due] == [60, 70, 80]
            assert all(r[6] == "" for r in rows if (int(r[0]) - first) % 10)
            for k, text in due:
                # the infinite profile's window spans the whole history, k = 1..k
                count = prof.w or k
                want = condition_number(information_matrix(prof, model, k, count))
                # 1e-9 relative, plus half a unit in the 9th printed digit
                tol = 1e-9 * want + 5e-9 * 10 ** math.floor(math.log10(want))
                assert abs(float(text) - want) <= tol, (profile, k, text, want)

    def test_steps_and_condition_numbers_the_benchmark_counts(self, tmp_path, monkeypatch):
        # the benchmark's tracer wraps RlsEstimator.step, reads sample[0] and
        # counts the calls of both functions
        data = synth_file(tmp_path, length=360)
        steps, conds = [], []
        step, cond = cli.RlsEstimator.step, linalg.condition_number

        def counted_step(est, sample):
            steps.append(int(sample[0]))
            return step(est, sample)

        def counted_cond(a):
            conds.append(a)
            return cond(a)

        monkeypatch.setattr(cli.RlsEstimator, "step", counted_step)
        monkeypatch.setattr(linalg, "condition_number", counted_cond)
        assert run(["fit", "--input", str(data), *FIT_FLAGS, "--cond-every", "60",
                    "--output", str(tmp_path / "fit.csv")]) == 0
        assert steps == list(range(61, 361))
        assert len(conds) == 300 // 60 + 1

    def test_bad_profile_parameters_exit_2(self, tmp_path, capsys):
        data = synth_file(tmp_path)
        code = run(["fit", "--input", str(data), *SMALL_MODEL, "--beta", "1.5",
                    "--window", "60", "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert "beta" in capsys.readouterr().err

    def test_window_below_dimension_exit_2(self, tmp_path):
        data = synth_file(tmp_path)
        code = run(["fit", "--input", str(data), *SMALL_MODEL, "--window", "6",
                    "--output", str(tmp_path / "x.csv")])
        assert code == 2

    def test_missing_file_exit_3(self, tmp_path):
        code = run(["fit", "--input", str(tmp_path / "absent.csv"), *FIT_FLAGS,
                    "--output", str(tmp_path / "x.csv")])
        assert code == 3

    def test_gap_under_fail_policy_exit_3(self, tmp_path):
        path = tmp_path / "gappy.csv"
        path.write_text(
            "date,value\n2000-01-01,1.0\n2000-01-02,1.5\n2000-01-04,2.0\n"
        )
        code = run(["fit", "--input", str(path), *FIT_FLAGS,
                    "--output", str(tmp_path / "x.csv")])
        assert code == 3

    @pytest.mark.parametrize("defect", ["nan", "inf", "duplicate-date", "out-of-order"])
    def test_bad_records_exit_3_with_one_line(self, tmp_path, capsys, defect):
        path = synth_file(tmp_path)
        rows = path.read_text().splitlines()
        i = rows.index("date,value") + 100
        if defect in ("nan", "inf"):
            rows[i] = rows[i].split(",")[0] + "," + defect
        elif defect == "duplicate-date":
            rows.insert(i, rows[i])
        else:
            rows[i], rows[i + 1] = rows[i + 1], rows[i]
        path.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        code = run(["fit", "--input", str(path), *FIT_FLAGS,
                    "--output", str(tmp_path / "x.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1

    def test_oversized_date_field_exit_3_with_one_line(self, tmp_path, capsys):
        path = stockholm_file(tmp_path, synth_file(tmp_path, length=80))
        rows = path.read_text().splitlines()
        rows[10] = "99999999999999999999 1 1 -1.2 9.9"
        path.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        code = run(["fit", "--input", str(path), "--format", "stockholm", *FIT_FLAGS,
                    "--output", str(tmp_path / "x.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: line 11: ") and err.count("\n") == 1

    def test_oversized_quoted_cell_exit_3_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text(
            'date,value\n2000-01-01,1.0\n2000-01-02,"' + "1" * 140_000 + '"\n'
        )
        capsys.readouterr()
        code = run(["fit", "--input", str(path), *FIT_FLAGS,
                    "--output", str(tmp_path / "x.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: line 3: ") and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["csv", "stockholm"])
    def test_huge_bad_value_exit_3_with_one_short_line(self, tmp_path, capsys, fmt):
        bad = "x" * 100_000
        path = tmp_path / "huge.txt"
        if fmt == "csv":
            path.write_text(f"date,value\n2000-01-01,1\n2000-01-02,{bad}\n")
        else:
            path.write_text(f"2000 1 1 1\n2000 1 2 {bad}\n")
        capsys.readouterr()
        code = run(["fit", "--input", str(path), "--format", fmt, *FIT_FLAGS,
                    "--output", str(tmp_path / "x.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 200

    @pytest.mark.parametrize("column", ["50", "9223372036854775807", "9223372036854775808",
                                        "100000000000000000000000"])
    def test_a_value_column_past_every_line_exit_3_with_one_line(self, tmp_path, capsys, column):
        path = stockholm_file(tmp_path, synth_file(tmp_path, length=80))
        capsys.readouterr()
        code = run(["fit", "--input", str(path), "--format", "stockholm", "--value-column",
                    column, *FIT_FLAGS, "--output", str(tmp_path / "x.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: line 2: expected integer year, month and day and "
                              f"a float in column {int(column) + 1}, got ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["csv", "stockholm"])
    @pytest.mark.parametrize("first", ["data", "comment"])
    def test_byte_order_mark_is_not_data(self, tmp_path, fmt, first):
        path = synth_file(tmp_path, length=80)
        if fmt == "stockholm":
            path = stockholm_file(tmp_path, path)
        text = path.read_text()
        if first == "data":
            text = text[text.index("\ndate,") + 1 :] if fmt == "csv" else text.split("\n", 1)[1]
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf" + text[:1].encode())
        outputs = []
        for source in (plain, marked):
            out = tmp_path / f"{source.name}.out"
            assert run(["fit", "--input", str(source), "--format", fmt, *FIT_FLAGS,
                        "--output", str(out)]) == 0
            outputs.append([line for line in out.read_text().splitlines()
                            if not line.startswith("# input=")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "fmt, text",
        [("csv", "date,value\n\n\n"), ("stockholm", "# note\n\n# note\n  \n\n")],
        ids=["csv-header-then-blank", "stockholm-comments-then-blank"],
    )
    def test_no_records_exit_3_without_a_warning(self, tmp_path, capsys, fmt, text):
        path = tmp_path / "empty.txt"
        path.write_text(text)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["fit", "--input", str(path), "--format", fmt, *FIT_FLAGS,
                        "--output", str(tmp_path / "x.csv")])
        assert code == 3 and not caught
        err = capsys.readouterr().err
        assert err == "data error: no records to index\n"

    def test_span_shorter_than_window_exit_3(self, tmp_path):
        data = synth_file(tmp_path, "short.csv", length=50)
        code = run(["fit", "--input", str(data), *FIT_FLAGS,
                    "--output", str(tmp_path / "x.csv")])
        assert code == 3

    def test_insufficient_excitation_exit_4(self, tmp_path):
        # 35-parameter model over a 35-sample window: numerically rank deficient
        data = synth_file(tmp_path, "tiny.csv", length=40)
        code = run(["fit", "--input", str(data), "--period", "365.25",
                    "--harmonics", "16", "--profile", "exponential",
                    "--window", "35", "--output", str(tmp_path / "x.csv")])
        assert code == 4

    def test_stockholm_format(self, tmp_path):
        base = synth_file(tmp_path, "csvtwin.csv", sigma=0.5, length=80)
        path = stockholm_file(tmp_path, base)
        out = tmp_path / "fit.csv"
        code = run(["fit", "--input", str(path), "--format", "stockholm",
                    *FIT_FLAGS, "--output", str(out)])
        assert code == 0


@pytest.mark.parametrize("name", ["./missing.csv", "", "a//missing.csv"])
def test_a_missing_input_is_named_as_given(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    assert run(["fit", "--input", name, *FIT_FLAGS]) == 3
    err = capsys.readouterr().err
    assert err == f"data error: [Errno 2] No such file or directory: {name!r}\n"


class TestRowRendering:
    """The one-expression row formats and the date helper render as fmt and date arithmetic do."""

    def values(self):
        rng = np.random.default_rng(7)
        # every class of float64: random bit patterns cover normals, subnormals,
        # both zeros, infinities and nan payloads; then the edges spelled out
        bits = rng.integers(0, 2**64, size=50_000, dtype=np.uint64, endpoint=False)
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                    2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 123456789.5,
                    999999999.5, 1e-5, 1e16]
        return [*bits.view(np.float64).tolist(), *specials,
                *rng.standard_normal(5_000).tolist(), *np.float64(specials)]

    def test_percent_g_is_fmt(self):
        for value in self.values():
            assert "%.9g" % value == fmt(value), repr(value)
        # compare stacks np.histogram's int64 counts with the float bin edges,
        # so its "%d" meets each count as a float64
        for count in np.array([0, 1, 41, 39_601, 2**31, 2**53 - 1, 2**53], dtype=np.int64):
            assert "%d" % float(count) == f"{count}", repr(count)

    def test_fit_and_compare_rows(self):
        vals = self.values()[:4000]
        for i in range(0, len(vals) - 4, 4):
            y, a, b, c = vals[i : i + 4]
            assert cli._FIT_ROW % (i, "2001-02-03", y, a, b, c, "") == (
                f"{i},2001-02-03,{fmt(y)},{fmt(a)},{fmt(b)},{fmt(c)},")
            assert cli._COMPARE_ROW % (i, "2001-02-03", y, a, b) == (
                f"{i},2001-02-03,{fmt(y)},{fmt(a)},{fmt(b)}")
            assert cli._FORECAST_ROW % (i, "2001-02-03", y, a, b, "", "") == (
                f"{i},2001-02-03,{fmt(y)},{fmt(a)},{fmt(b)},,")
            assert cli._FORECAST_ROW % (i, "2001-02-03", y, a, b, fmt(c), i % 8 // 4) == (
                f"{i},2001-02-03,{fmt(y)},{fmt(a)},{fmt(b)},{fmt(c)},{i % 8 // 4}")

    @pytest.mark.parametrize("chunk", [7, cli._ROW_CHUNK])
    @pytest.mark.parametrize("cond_every", [0, 60], ids=["cond-empty", "cond-filled"])
    def test_chunked_rows_are_the_per_row_form(self, monkeypatch, chunk, cond_every):
        monkeypatch.setattr(cli, "_ROW_CHUNK", chunk)
        origin, first = datetime.date(1999, 12, 25), 400
        vals = self.values()
        count = cli._ROW_CHUNK + 30        # one chunk boundary or more
        y, yhat, yhat1, res, conds = (vals[j * count : (j + 1) * count] for j in range(5))
        cond = [c if cond_every and i % cond_every == 0 else None for i, c in enumerate(conds)]
        def iso(k):
            return (origin + datetime.timedelta(days=k - 1)).isoformat()

        ks = range(first, first + count)
        fit_rows = [cli._FIT_ROW % (k, iso(k), *row, fmt(c))
                    for k, *row, c in zip(ks, y, yhat, yhat1, res, cond)]
        got = cli._render_rows(cli._FIT_ROW, origin, first,
                               [y, yhat, yhat1, res, list(map(fmt, cond))])
        assert len(got) == -(-count // chunk)
        assert "\n".join(got) == "\n".join(fit_rows)
        compare_rows = [cli._COMPARE_ROW % (k, iso(k), *row)
                        for k, *row in zip(ks, y, yhat, res)]
        got = cli._render_rows(cli._COMPARE_ROW, origin, first, [y, yhat, res])
        assert "\n".join(got) == "\n".join(compare_rows)
        # forecast: the observed and in_band cells are empty where cond is
        in_band = ["" if c is None else str(i % 2) for i, c in enumerate(cond)]
        forecast_rows = [f"{k},{iso(k)},{fmt(m)},{fmt(lo)},{fmt(hi)},{fmt(c)},{inside}"
                         for k, m, lo, hi, c, inside in zip(ks, y, yhat, yhat1, cond, in_band)]
        got = cli._render_rows(cli._FORECAST_ROW, origin, first, [
            y, yhat, yhat1, list(map(fmt, cond)), [int(t) if t else "" for t in in_band]])
        assert "\n".join(got) == "\n".join(forecast_rows)

    @pytest.mark.parametrize("origin", [datetime.date(1999, 12, 25), datetime.date(1, 1, 1)])
    def test_iso_dates_are_date_of(self, origin):
        want = [(origin + datetime.timedelta(days=k - 1)).isoformat() for k in range(1, 3000)]
        assert iso_date_range(origin, 1, 3000) == want


def _footer_value(path, key):
    for line in path.read_text().splitlines():
        if line.startswith(f"# {key}="):
            return line.split("=", 1)[1]
    raise KeyError(key)


class TestCompare:
    def test_identical_profiles_ratio_one(self, tmp_path):
        data = synth_file(tmp_path)
        out = tmp_path / "cmp.csv"
        code = run(["compare", "--input", str(data), *SMALL_MODEL,
                    "--profile", "exponential", "--lambda", "0.97",
                    "--window", "60", "--output", str(out)])
        assert code == 0
        assert float(_footer_value(out, "rmse_ratio")) == 1.0

    def test_segmented_beats_baseline_and_histogram_counts(self, tmp_path):
        data = synth_file(tmp_path, length=800)
        out = tmp_path / "cmp.csv"
        code = run(["compare", "--input", str(data), *FIT_FLAGS, "--output", str(out)])
        assert code == 0
        assert float(_footer_value(out, "rmse_ratio")) < 1.0
        text = out.read_text().splitlines()
        hist_start = text.index("bin_left,bin_right,count_fitted,count_baseline")
        hist = [l.split(",") for l in text[hist_start + 1 : hist_start + 42]]
        assert len(hist) == 41
        steps = len(text[1:hist_start - 1])
        assert sum(int(r[2]) for r in hist) == steps
        assert sum(int(r[3]) for r in hist) == steps

    def test_pure_first_harmonic_both_near_noise_level(self, tmp_path):
        sigma = 0.8
        data = synth_file(tmp_path, "pure.csv", length=900, sigma=sigma, theta="5,-8,-2")
        out = tmp_path / "cmp.csv"
        code = run(["compare", "--input", str(data), *SMALL_MODEL,
                    "--beta", "0.9", "--lambda", "0.997", "--m", "60", "--p", "1",
                    "--window", "200", "--output", str(out)])
        assert code == 0
        assert float(_footer_value(out, "rmse_baseline")) == pytest.approx(sigma, rel=0.2)


class TestForecast:
    def test_horizon_rows_and_coverage(self, tmp_path):
        data = synth_file(tmp_path)
        out = tmp_path / "fc.csv"
        code = run(["forecast", "--input", str(data), *FIT_FLAGS,
                    "--end", "2001-06-30", "--horizon", "30", "--output", str(out)])
        assert code == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith(("#", "k,"))]
        assert len(rows) == 30
        coverage = _footer_value(out, "coverage")
        assert coverage != "na" and 0.0 <= float(coverage) <= 1.0

    def test_zero_width_band_for_clean_dc_series(self, tmp_path):
        data = synth_file(tmp_path, "dc.csv", sigma=0.0, theta="5", length=70)
        out = tmp_path / "fc.csv"
        code = run(["forecast", "--input", str(data), *SMALL_MODEL,
                    "--profile", "exponential", "--lambda", "0.97", "--window", "60",
                    "--horizon", "1", "--output", str(out)])
        assert code == 0
        row = [l for l in out.read_text().splitlines()
               if l and not l.startswith(("#", "k,"))][0]
        _, _, mean, lower, upper, observed, in_band = row.split(",")
        assert float(mean) == pytest.approx(5.0, abs=1e-9)
        assert float(upper) - float(lower) <= 1e-9

    def test_horizon_past_year_9999_exit_2(self, tmp_path, capsys):
        # the series ends on 9999-07-19, 165 days before the last representable date
        data = synth_file(tmp_path, length=200, extra=("--origin", "9999-01-01"))
        out = tmp_path / "fc.csv"
        argv = ["forecast", "--input", str(data), *FIT_FLAGS, "--output", str(out)]
        assert run([*argv, "--horizon", "165"]) == 0
        assert out.read_text().splitlines()[165].split(",")[1] == "9999-12-31"
        capsys.readouterr()
        assert run([*argv, "--horizon", "166"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "passes year 9999" in err

    def test_horizon_beyond_data_reports_na(self, tmp_path):
        data = synth_file(tmp_path)
        out = tmp_path / "fc.csv"
        code = run(["forecast", "--input", str(data), *FIT_FLAGS,
                    "--horizon", "10", "--output", str(out)])
        assert code == 0
        assert _footer_value(out, "coverage") == "na"

    def test_observed_and_in_band_match_the_archive(self, tmp_path):
        # 500 days from 2000-01-01; the fit ends on day 440, the 90-day horizon
        # runs 30 days past the last record, and three horizon days are missing
        base = synth_file(tmp_path, length=500)
        observed = dict(csv_rows(base))
        dates = sorted(observed)
        dropped = {dates[449], dates[450], dates[469]}
        path = stockholm_file(tmp_path, base, skip=dropped)
        out = tmp_path / "fc.csv"
        code = run(["forecast", "--input", str(path), "--format", "stockholm", *FIT_FLAGS,
                    "--start", dates[49], "--end", dates[439], "--horizon", "90",
                    "--output", str(out)])
        assert code == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if l and not l.startswith(("#", "k,"))]
        assert len(rows) == 90
        hits = 0
        for k, date, _, lower, upper, seen, in_band in rows:
            if date in observed and date not in dropped:
                value = float(observed[date])
                inside = float(lower) <= value <= float(upper)
                hits += inside
                assert (seen, in_band) == (f"{value:.9g}", str(int(inside)))
            else:
                assert (seen, in_band) == ("", "")
        total = 60 - len(dropped)
        assert sum(r[5] != "" for r in rows) == total
        assert _footer_value(out, "observed_horizon_days") == str(total)
        assert _footer_value(out, "coverage") == f"{hits / total:.9g}"

    def test_a_value_on_either_edge_of_the_band_is_inside(self, tmp_path, monkeypatch):
        data = synth_file(tmp_path)
        observed = np.array([float(value) for _, value in csv_rows(data)])

        def edge_band(est, horizon):     # lower == upper == the value recorded
            values = observed[est.k : est.k + horizon]
            return ForecastBand(values, values, values, 0.0)

        monkeypatch.setattr(RlsEstimator, "forecast", edge_band)
        out = tmp_path / "fc.csv"
        assert run(["forecast", "--input", str(data), *FIT_FLAGS, "--end", "2001-06-30",
                    "--horizon", "20", "--output", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if l and not l.startswith(("#", "k,"))]
        assert [row[6] for row in rows] == ["1"] * 20
        assert _footer_value(out, "coverage") == "1"

    def test_bad_horizon_exit_2(self, tmp_path):
        data = synth_file(tmp_path)
        code = run(["forecast", "--input", str(data), *FIT_FLAGS, "--horizon", "0",
                    "--output", str(tmp_path / "x.csv")])
        assert code == 2


class TestVerify:
    def test_below_minimum_trials_exit_2(self, capsys):
        assert run(["verify", "--trials", "10"]) == 2
        assert "--trials" in capsys.readouterr().err

    def test_pass_is_seed_independent(self):
        from segrls.verify import DEFAULT_SEED, run_synthetic_suite

        for seed in range(DEFAULT_SEED, DEFAULT_SEED + 10):
            results = run_synthetic_suite(trials=100, seed=seed)
            failed = [r.name for r in results if not r.passed]
            assert not failed, f"seed {seed} failed {failed}"


def fresh(code, *flags):
    """The stdout and stderr of ``code`` in a fresh interpreter on this checkout's src/."""
    child = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                           timeout=120, check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    return child.stdout, child.stderr


class TestStartup:
    """`reference` and `verify` are registered at import and run on first use."""

    def test_the_parser_runs_neither_reference_nor_verify(self):
        out, err = fresh("import sys, types, segrls.cli; segrls.cli.build_parser(); "
                         "print([type(sys.modules['segrls.' + name]) is types.ModuleType "
                         "for name in ('reference', 'verify')])", "-X", "importtime")
        imported = {line.rpartition("|")[2].strip() for line in err.splitlines()}
        assert {"segrls", "segrls.cli", "segrls.estimator"} <= imported
        assert not imported & {"segrls.reference", "segrls.verify"}
        assert out == "[False, False]\n"      # still lazy: neither module's code has run

    def test_verify_is_whole_to_a_reader_of_its_namespace(self):
        # what a tracer that walks vars() of the loaded segrls modules relies on
        out, _ = fresh("import sys, segrls.cli; "
                       "print('criterion_a1' in vars(sys.modules['segrls.verify']), "
                       "'accumulation_experiment' in vars(sys.modules['segrls.reference']))")
        assert out == "True True\n"

    def test_every_public_name_resolves_and_a_star_import_binds_them_all(self):
        out, _ = fresh("import segrls; names = {}; exec('from segrls import *', names); "
                       "print(sorted(set(segrls.__all__) ^ (set(names) - {'__builtins__'})), "
                       "all(names[n] is getattr(segrls, n) for n in segrls.__all__), "
                       "segrls.synth_generate is segrls.reference.synth_generate, "
                       "hasattr(segrls, 'no_such_name'))")
        assert out == "[] True True False\n"

    def test_verify_without_seed_runs_the_default_seed(self):
        out, _ = fresh("import segrls.cli, segrls.verify as v; seeds = []; "
                       "v.run_synthetic_suite = lambda trials, seed: seeds.append(seed) or []; "
                       "segrls.cli.main(['verify']); segrls.cli.main(['verify', '--seed', '7']); "
                       "print(seeds == [v.DEFAULT_SEED, 7])")
        assert out == "True\n"


@pytest.mark.parametrize("command", ["synth", "fit"])
def test_a_model_too_big_to_allocate_is_a_config_error(tmp_path, command):
    # 8e9 model entries; the child gets 3 GB of address space, so an attempt to
    # allocate them fails at once instead of taking the machine's memory
    resource = pytest.importorskip("resource")
    limit = 3_000_000_000
    flags = {"synth": ["--length", "1"], "fit": ["--input", str(synth_file(tmp_path))]}
    argv = [sys.executable, "-m", "segrls.cli", command, *flags[command],
            "--period", "1e300", "--harmonics", "4000000000",
            "--output", str(tmp_path / "out.csv")]
    child = subprocess.run(
        argv, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert child.returncode == 2, child.stderr
    assert child.stderr.startswith("configuration error: ")
    assert child.stderr.count("\n") == 1
