"""Command-line front end: fit, compare, forecast, verify, synth.

All commands emit plot-ready CSV with a '#'-prefixed metadata footer that
embeds the full parameter set.  Floats are printed with 9 significant
digits, so identical inputs and flags produce byte-identical files.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import math
import sys

import numpy as np

from . import verify as verify_mod
from .errors import (
    CalendarError,
    GapError,
    InsufficientDataError,
    IntermediateSingularityError,
    NotPositiveDefiniteError,
    ParseError,
    RangeError,
    SegrlsError,
    SingularUpdateError,
    WindowTooSmallError,
)
from .estimator import RlsEstimator
from .harmonic import make_harmonic_model, predict, predict_first_harmonic
from .ingest import GAP_POLICIES, IndexedSeries, parse_csv, parse_stockholm, to_indexed
from .linalg import condition_number
from .profile import ExponentialProfile, SegmentedProfile
from .reference import SyntheticSpec, synth_generate

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_DATA_ERRORS = (OSError, ParseError, CalendarError, GapError, RangeError)

_NUMERICAL_ERRORS = (
    NotPositiveDefiniteError,
    SingularUpdateError,
    IntermediateSingularityError,
    WindowTooSmallError,
    InsufficientDataError,
)


def fmt(value) -> str:
    """Fixed 9-significant-digit rendering for reproducible CSV output."""
    if value is None:
        return ""
    return f"{value:.9g}"


# ----------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segrls",
        description="Sliding-window RLS with segmented forgetting profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--period", type=float, default=365.25,
                       help="fundamental period in samples (default 365.25)")
        p.add_argument("--harmonics", type=int, default=16,
                       help="number of higher-order harmonics (default 16)")

    def add_profile_flags(p):
        p.add_argument("--profile", choices=("segmented", "exponential", "infinite"),
                       default="segmented")
        p.add_argument("--beta", type=float, default=0.89,
                       help="fast forgetting factor of the segmented profile")
        p.add_argument("--lambda", dest="lam", type=float, default=0.99,
                       help="slow forgetting factor")
        p.add_argument("--m", type=int, default=250, help="drop magnitude exponent")
        p.add_argument("--p", type=int, default=1, help="fast segment length")
        p.add_argument("--window", type=int, default=400,
                       help="window length (also the init length for --profile infinite)")
        p.add_argument("--epsilon", type=float, default=0.0,
                       help="diagonal loading added to the initial information matrix")

    def add_data_flags(p):
        p.add_argument("--input", required=True, help="input series file")
        p.add_argument("--format", choices=("stockholm", "csv"), default="csv")
        p.add_argument("--value-column", type=int, default=3,
                       help="zero-based value column for the stockholm format")
        p.add_argument("--start", default=None, help="first day of the span (ISO date)")
        p.add_argument("--end", default=None, help="last day of the span (ISO date)")
        p.add_argument("--gap-policy", choices=GAP_POLICIES, default="fail")

    def add_output_flag(p):
        p.add_argument("--output", default="-", help="output CSV path ('-' = stdout)")

    p_fit = sub.add_parser("fit", help="fit one profile and emit per-step rows")
    add_data_flags(p_fit)
    add_model_flags(p_fit)
    add_profile_flags(p_fit)
    add_output_flag(p_fit)
    p_fit.add_argument("--cond-every", type=int, default=0,
                       help="emit the information-matrix condition number every N steps")
    p_fit.set_defaults(func=cmd_fit)

    p_cmp = sub.add_parser("compare",
                           help="segmented vs exponential baseline on the same span")
    add_data_flags(p_cmp)
    add_model_flags(p_cmp)
    add_profile_flags(p_cmp)
    add_output_flag(p_cmp)
    p_cmp.add_argument("--baseline-lambda", type=float, default=None,
                       help="forgetting factor of the exponential baseline "
                            "(default: --lambda)")
    p_cmp.set_defaults(func=cmd_compare)

    p_fc = sub.add_parser("forecast", help="multi-week first-harmonic forecast")
    add_data_flags(p_fc)
    add_model_flags(p_fc)
    add_profile_flags(p_fc)
    add_output_flag(p_fc)
    p_fc.add_argument("--horizon", type=int, default=30)
    p_fc.set_defaults(func=cmd_forecast)

    p_ver = sub.add_parser("verify", help="run the self-contained verification suites")
    p_ver.add_argument("--trials", type=int, default=200)
    p_ver.add_argument("--seed", type=int, default=verify_mod.DEFAULT_SEED)
    p_ver.set_defaults(func=cmd_verify)

    p_syn = sub.add_parser("synth", help="write a synthetic harmonic series CSV")
    add_model_flags(p_syn)
    add_output_flag(p_syn)
    p_syn.add_argument("--length", type=int, default=1000)
    p_syn.add_argument("--sigma", type=float, default=2.0)
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--theta", default="6,-10,-3",
                       help="comma-separated leading parameters [dc,a0,b0,...]; "
                            "unspecified entries are zero")
    p_syn.add_argument("--origin", default="2000-01-01",
                       help="calendar date of index k=1")
    p_syn.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


# ----------------------------------------------------------------------
# configuration assembly (all problems aggregated into one message)


def _build_model(args, errors):
    try:
        return make_harmonic_model(args.period, args.harmonics)
    except SegrlsError as err:
        errors.append(str(err))
        return None


def _build_profile(args, errors):
    try:
        if args.profile == "segmented":
            return SegmentedProfile(args.beta, args.lam, args.m, args.p, args.window)
        if args.profile == "exponential":
            return ExponentialProfile(args.lam, args.window)
        return ExponentialProfile(args.lam)
    except SegrlsError as err:
        errors.append(str(err))
        return None


def _parse_date(text, flag, errors):
    if text is None:
        return None
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:
        errors.append(f"{flag} is not an ISO date: {text!r}")
        return None


def _common_config(args):
    errors: list[str] = []
    model = _build_model(args, errors)
    profile = _build_profile(args, errors)
    start = _parse_date(args.start, "--start", errors)
    end = _parse_date(args.end, "--end", errors)
    if model is not None and args.window < model.dim:
        errors.append(
            f"--window {args.window} is smaller than the model dimension {model.dim}"
        )
    if args.epsilon < 0.0:
        errors.append("--epsilon must be >= 0")
    if getattr(args, "horizon", 1) < 1:
        errors.append("--horizon must be >= 1")
    if getattr(args, "cond_every", 0) < 0:
        errors.append("--cond-every must be >= 0")
    if getattr(args, "value_column", 3) < 3:
        errors.append("--value-column must be >= 3")
    return errors, model, profile, start, end


def _fail_config(errors) -> int:
    print("configuration error: " + "; ".join(errors), file=sys.stderr)
    return EXIT_CONFIG


def _fail(kind, err, code) -> int:
    print(f"{kind}: {err}", file=sys.stderr)
    return code


def _data_command(command):
    """Map data errors to exit 3 and numerical failures to exit 4, one stderr line each."""

    @functools.wraps(command)
    def run(args) -> int:
        try:
            return command(args)
        except _DATA_ERRORS as err:
            return _fail("data error", err, EXIT_DATA)
        except _NUMERICAL_ERRORS as err:
            return _fail("numerical failure", err, EXIT_NUMERICAL)

    return run


# ----------------------------------------------------------------------
# data loading


def _load_records(args):
    with open(args.input, "r", encoding="utf-8") as handle:
        text = handle.read()
    if args.format == "stockholm":
        return parse_stockholm(text, value_column=args.value_column)
    return parse_csv(text)


def _load_series(args, start, end) -> tuple[IndexedSeries, list]:
    records = _load_records(args)
    series = to_indexed(records, start=start, end=end, gap_policy=args.gap_policy)
    return series, records


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _config_footer(args, model, extra=()) -> list[str]:
    lines = [f"# command={args.command}"]
    skip = {"func", "command", "output", "input"}
    if getattr(args, "input", None):
        lines.append(f"# input={args.input}")
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        lines.append(f"# {key}={value}")
    if model is not None:
        lines.append(f"# n={model.dim}")
    lines.extend(extra)
    return lines


# ----------------------------------------------------------------------
# shared fit driver


def _init_window(profile, args) -> int:
    if isinstance(profile, ExponentialProfile) and profile.unbounded:
        return args.window
    return profile.w


def _run_fit(profile, model, series: IndexedSeries, args, cond_every=0):
    """Initialize on the first window, then stream; returns per-step rows."""
    samples = series.samples
    window = _init_window(profile, args)
    if len(samples) < window + 1:
        raise RangeError(
            f"span has {len(samples)} samples; need more than the window {window}"
        )
    est = RlsEstimator.init(
        profile, model, samples[:window], diagonal_loading=args.epsilon
    )
    rows = []

    def emit(sample):
        yhat = predict(model, est.theta, sample.k)
        yhat1 = predict_first_harmonic(model, est.theta, sample.k)
        cond = None
        if cond_every and (sample.k - samples[window - 1].k) % cond_every == 0:
            cond = condition_number(est.info_matrix())
        rows.append((sample.k, series.date_of(sample.k), sample.y, yhat, yhat1,
                     sample.y - yhat, cond))

    emit(samples[window - 1])
    for sample in samples[window:]:
        est.step(sample)
        emit(sample)
    return est, rows


def _residual_stats(rows):
    residuals = np.array([r[5] for r in rows])
    rmse = math.sqrt(float(np.mean(residuals**2)))
    return residuals, rmse, float(np.mean(residuals)), float(np.std(residuals))


# ----------------------------------------------------------------------
# commands


@_data_command
def cmd_fit(args) -> int:
    errors, model, profile, start, end = _common_config(args)
    if errors:
        return _fail_config(errors)
    series, _ = _load_series(args, start, end)
    est, rows = _run_fit(profile, model, series, args, cond_every=args.cond_every)

    _, rmse, res_mean, res_std = _residual_stats(rows)
    out = ["k,date,y,yhat_full,yhat_first_harmonic,residual,cond_a"]
    for k, day, y, yhat, yhat1, resid, cond in rows:
        out.append(
            f"{k},{day.isoformat()},{fmt(y)},{fmt(yhat)},{fmt(yhat1)},"
            f"{fmt(resid)},{fmt(cond)}"
        )
    out.extend(_config_footer(args, model, extra=[
        f"# steps={len(rows) - 1}",
        f"# rmse={fmt(rmse)}",
        f"# residual_mean={fmt(res_mean)}",
        f"# residual_std={fmt(res_std)}",
        f"# loading_applied={est.loading_applied}",
        f"# filled_dates={','.join(d.isoformat() for d in series.filled)}",
    ]))
    _write_output(args.output, "\n".join(out) + "\n")
    print(f"fit: {len(rows) - 1} steps, rmse {fmt(rmse)}", file=sys.stderr)
    return EXIT_OK


@_data_command
def cmd_compare(args) -> int:
    errors, model, fitted, start, end = _common_config(args)
    baseline_lam = args.baseline_lambda if args.baseline_lambda is not None else args.lam
    try:
        baseline = ExponentialProfile(baseline_lam, args.window)
    except SegrlsError as err:
        errors.append(str(err))
        baseline = None
    if errors:
        return _fail_config(errors)

    series, _ = _load_series(args, start, end)
    _, rows_fit = _run_fit(fitted, model, series, args)
    _, rows_base = _run_fit(baseline, model, series, args)

    res_fit, rmse_fit, _, std_fit = _residual_stats(rows_fit)
    res_base, rmse_base, _, std_base = _residual_stats(rows_base)
    ratio = rmse_fit / rmse_base if rmse_base else float("nan")

    # shared equal-width bins across both residual sets, per-profile counts
    top = max(float(np.max(np.abs(res_fit))), float(np.max(np.abs(res_base))), 1e-30)
    edges = np.linspace(-top, top, 42)
    counts_fit, _ = np.histogram(res_fit, bins=edges)
    counts_base, _ = np.histogram(res_base, bins=edges)

    out = ["k,date,y,residual_fitted,residual_baseline"]
    for (k, day, y, _, _, r_f, _), (_, _, _, _, _, r_b, _) in zip(rows_fit, rows_base):
        out.append(f"{k},{day.isoformat()},{fmt(y)},{fmt(r_f)},{fmt(r_b)}")
    out.append("")
    out.append("bin_left,bin_right,count_fitted,count_baseline")
    for i in range(41):
        out.append(
            f"{fmt(edges[i])},{fmt(edges[i + 1])},{counts_fit[i]},{counts_base[i]}"
        )
    out.extend(_config_footer(args, model, extra=[
        f"# baseline_lambda={fmt(baseline_lam)}",
        f"# rmse_fitted={fmt(rmse_fit)}",
        f"# rmse_baseline={fmt(rmse_base)}",
        f"# rmse_ratio={fmt(ratio)}",
        f"# residual_std_fitted={fmt(std_fit)}",
        f"# residual_std_baseline={fmt(std_base)}",
    ]))
    _write_output(args.output, "\n".join(out) + "\n")
    print(
        f"compare: rmse {args.profile} {fmt(rmse_fit)} vs baseline {fmt(rmse_base)} "
        f"(ratio {fmt(ratio)})",
        file=sys.stderr,
    )
    return EXIT_OK


@_data_command
def cmd_forecast(args) -> int:
    errors, model, profile, start, end = _common_config(args)
    if errors:
        return _fail_config(errors)
    series, records = _load_series(args, start, end)
    est, _ = _run_fit(profile, model, series, args)
    band = est.forecast(args.horizon)

    observed_by_date = {r.date: r.value for r in records}
    out = ["k,date,mean,lower,upper,observed,in_band"]
    hits = 0
    total = 0
    for point in band.points:
        day = series.date_of(point.k)
        observed = observed_by_date.get(day)
        in_band = ""
        if observed is not None:
            inside = point.lower <= observed <= point.upper
            hits += int(inside)
            total += 1
            in_band = str(int(inside))
        out.append(
            f"{point.k},{day.isoformat()},{fmt(point.mean)},{fmt(point.lower)},"
            f"{fmt(point.upper)},{fmt(observed)},{in_band}"
        )
    coverage = fmt(hits / total) if total else "na"
    out.extend(_config_footer(args, model, extra=[
        f"# sigma={fmt(band.sigma)}",
        f"# coverage={coverage}",
        f"# observed_horizon_days={total}",
    ]))
    _write_output(args.output, "\n".join(out) + "\n")
    print(f"forecast: horizon {args.horizon}, coverage {coverage}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials < 100:
        return _fail_config([f"--trials must be >= 100, got {args.trials}"])
    results = verify_mod.run_synthetic_suite(trials=args.trials, seed=args.seed)
    for result in results:
        print(result.line())
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"verification FAILED: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print("verification passed", file=sys.stderr)
    return EXIT_OK


def cmd_synth(args) -> int:
    errors: list[str] = []
    model = _build_model(args, errors)
    origin = _parse_date(args.origin, "--origin", errors)
    theta = None
    if model is not None:
        try:
            leading = [float(v) for v in args.theta.split(",") if v.strip() != ""]
        except ValueError:
            errors.append(f"--theta is not a comma-separated float list: {args.theta!r}")
            leading = []
        if len(leading) > model.dim:
            errors.append(
                f"--theta has {len(leading)} entries, model dimension is {model.dim}"
            )
        else:
            theta = np.zeros(model.dim)
            theta[: len(leading)] = leading
    if args.length < 1:
        errors.append("--length must be >= 1")
    if args.sigma < 0.0:
        errors.append("--sigma must be >= 0")
    if errors:
        return _fail_config(errors)

    spec = SyntheticSpec(
        model=model,
        theta_star=theta,
        noise_sigma=args.sigma,
        seed=args.seed,
        length=args.length,
    )
    samples = synth_generate(spec)
    out = []
    out.extend(_config_footer(args, model, extra=[f"# theta_full={','.join(fmt(v) for v in theta)}"]))
    out.append("date,value")
    for sample in samples:
        day = origin + datetime.timedelta(days=sample.k - 1)
        out.append(f"{day.isoformat()},{fmt(sample.y)}")
    _write_output(args.output, "\n".join(out) + "\n")
    print(f"synth: wrote {len(samples)} samples", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
