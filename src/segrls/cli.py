"""Command-line front end: fit, compare, forecast, verify, synth.

All commands emit plot-ready CSV with a '#'-prefixed metadata footer that
embeds the full parameter set.  Floats are printed with 9 significant
digits, so identical inputs and flags produce byte-identical files.

``--input`` goes to the parsers as a path: a regular file is read once for
its text and, when ``segrls.ingest`` lets it, again by ``numpy.loadtxt``'s
chunked reader; a pipe such as ``/dev/stdin`` is read once, as text.

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

from . import reference, verify as verify_mod
from .errors import (
    CalendarError,
    GapError,
    NotPositiveDefiniteError,
    ParseError,
    RangeError,
    SegrlsError,
    SingularUpdateError,
)
from .estimator import RlsEstimator
from .harmonic import HarmonicModel
from .ingest import (
    GAP_POLICIES,
    IndexedSeries,
    Records,
    iso_date_range,
    parse_csv,
    parse_stockholm,
    to_indexed,
)
from .profile import ExponentialProfile, SegmentedProfile

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_DATA_ERRORS = (OSError, UnicodeError, ParseError, CalendarError, GapError, RangeError)

_NUMERICAL_ERRORS = (NotPositiveDefiniteError, SingularUpdateError)


def fmt(value) -> str:
    """Fixed 9-significant-digit rendering for reproducible CSV output."""
    if value is None:
        return ""
    return f"{value:.9g}"


# Per-day rows of `fit`, `compare` and `forecast` in one expression each: k,
# the date text, then the floats as fmt renders them ("%.9g" is the same
# conversion); fit's cond_a column and forecast's observed column are fmt's
# text, empty between --cond-every rows and on days with no record, and
# in_band is 0, 1 or empty.  A histogram row is two bin edges and two counts.
_FIT_ROW = "%d,%s,%.9g,%.9g,%.9g,%.9g,%s"
_COMPARE_ROW = "%d,%s,%.9g,%.9g,%.9g"
_FORECAST_ROW = "%d,%s,%.9g,%.9g,%.9g,%s,%s"
_HISTOGRAM_ROW = "%.9g,%.9g,%d,%d"
# Rows rendered per chunk: one date conversion and one % format each.
_ROW_CHUNK = 4096


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

    def add_output_flag(p):
        p.add_argument("--output", default="-", help="output CSV path ('-' = stdout)")

    # the three series commands: the same data, model, profile and output
    # flags, then one flag of their own
    for name, func, text, flag, extra in (
        ("fit", cmd_fit, "fit one profile and emit per-step rows", "--cond-every",
         dict(type=int, default=0,
              help="emit the information-matrix condition number every N steps")),
        ("compare", cmd_compare, "segmented vs exponential baseline on the same span",
         "--baseline-lambda",
         dict(type=float, default=None,
              help="forgetting factor of the exponential baseline (default: --lambda)")),
        ("forecast", cmd_forecast, "multi-week first-harmonic forecast", "--horizon",
         dict(type=int, default=30)),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--input", required=True, help="input series file")
        p.add_argument("--format", choices=("stockholm", "csv"), default="csv")
        p.add_argument("--value-column", type=int, default=3,
                       help="zero-based value column for the stockholm format")
        p.add_argument("--start", default=None, help="first day of the span (ISO date)")
        p.add_argument("--end", default=None, help="last day of the span (ISO date)")
        p.add_argument("--gap-policy", choices=GAP_POLICIES, default="fail")
        add_model_flags(p)
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
        add_output_flag(p)
        p.add_argument(flag, **extra)
        p.set_defaults(func=func)

    p_ver = sub.add_parser("verify", help="run the self-contained verification suites")
    p_ver.add_argument("--trials", type=int, default=200)
    p_ver.add_argument("--seed", type=int)
    p_ver.set_defaults(func=cmd_verify)

    p_syn = sub.add_parser("synth", help="write a synthetic harmonic series CSV")
    add_model_flags(p_syn)
    add_output_flag(p_syn)
    p_syn.add_argument("--length", type=int, default=1000)
    p_syn.add_argument("--sigma", type=float, default=2.0)
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--theta", default="6,-10,-3",
                       help="comma-separated leading parameters [dc,a0,b0,...]; "
                            "an empty entry, and every entry after the last, is zero")
    p_syn.add_argument("--origin", default="2000-01-01",
                       help="calendar date of index k=1")
    p_syn.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


# ----------------------------------------------------------------------
# configuration assembly (all problems aggregated into one message)


def _build(errors, make, *fields):
    """``make(*fields)``, or None after appending the SegrlsError's text to ``errors``."""
    try:
        return make(*fields)
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
    model = _build(errors, HarmonicModel, args.period, args.harmonics)
    profile = _build(errors, *{
        "segmented": (SegmentedProfile, args.beta, args.lam, args.m, args.p, args.window),
        "exponential": (ExponentialProfile, args.lam, args.window),
        "infinite": (ExponentialProfile, args.lam),
    }[args.profile])
    start = _parse_date(args.start, "--start", errors)
    end = _parse_date(args.end, "--end", errors)
    if model is not None and args.window < model.dim:
        errors.append(
            f"--window {args.window} is smaller than the model dimension {model.dim}"
        )
    if not 0.0 <= args.epsilon < math.inf:
        errors.append(f"--epsilon must be finite and >= 0, got {args.epsilon}")
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


class _InputPath:
    """``--input`` as given, as a path: ``pathlib.Path`` would drop a './' and
    turn '' into '.', so an OSError would not name the path the user gave."""

    def __init__(self, path: str):
        self.path = path

    def __fspath__(self) -> str:
        return self.path


def _load_series(args, start, end) -> tuple[IndexedSeries, Records]:
    # by path, so a regular file can take the reader's chunked file pass
    source = _InputPath(args.input)
    if args.format == "stockholm":
        records = parse_stockholm(source, value_column=args.value_column)
    else:
        records = parse_csv(source)
    return to_indexed(records, start=start, end=end, gap_policy=args.gap_policy), records


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


def _run_fit(profile, model, series: IndexedSeries, args, cond_every=0):
    """Initialize on the first window, then stream the rest of the span with ``run``.

    Returns the estimator, the window length w and ``run``'s (yhat, yhat1,
    cond), whose row i is index w + i.
    """
    values, window = series.values, args.window
    if len(values) < window + 1:
        raise RangeError(
            f"span has {len(values)} samples; need more than the window {window}"
        )
    est = RlsEstimator.init(profile, model, values[:window], diagonal_loading=args.epsilon)
    return est, window, est.run(values[window:], cond_every)


def _render_rows(row_format, origin, first, columns) -> list[str]:
    """Per-day rows ``row_format % (k, date of k, *values)`` from index ``first`` on.

    ``columns`` holds one list of values per field after the date, index
    ``first`` at position 0.  The rows come back in chunks of _ROW_CHUNK,
    joined by newlines: each chunk's dates are one ``iso_date_range`` call,
    and its fields are interleaved into one flat list by slice assignment
    and formatted by one ``%``, as each row's ``%`` would.
    """
    count, width = len(columns[0]), 2 + len(columns)
    chunks = []
    for start in range(first, first + count, _ROW_CHUNK):
        stop = min(start + _ROW_CHUNK, first + count)
        flat = [None] * ((stop - start) * width)
        flat[0::width] = range(start, stop)
        flat[1::width] = iso_date_range(origin, start, stop)
        for j, column in enumerate(columns, start=2):
            flat[j::width] = column[start - first : stop - first]
        chunks.append("\n".join([row_format] * (stop - start)) % tuple(flat))
    return chunks


def _residual_stats(residuals):
    rmse = math.sqrt(float(np.mean(residuals**2)))
    return rmse, float(np.mean(residuals)), float(np.std(residuals))


# ----------------------------------------------------------------------
# commands


@_data_command
def cmd_fit(args) -> int:
    errors, model, profile, start, end = _common_config(args)
    if errors:
        return _fail_config(errors)
    series, _ = _load_series(args, start, end)
    _, window, (yhat, yhat1, cond) = _run_fit(
        profile, model, series, args, cond_every=args.cond_every
    )
    y = series.values[window - 1 :]
    residuals = y - yhat
    rmse, res_mean, res_std = _residual_stats(residuals)
    steps = len(y) - 1

    out = ["k,date,y,yhat_full,yhat_first_harmonic,residual,cond_a"]
    out.extend(_render_rows(_FIT_ROW, series.origin, window, [
        y.tolist(), yhat.tolist(), yhat1.tolist(), residuals.tolist(), list(map(fmt, cond))]))
    out.extend(_config_footer(args, model, extra=[
        f"# steps={steps}",
        f"# rmse={fmt(rmse)}",
        f"# residual_mean={fmt(res_mean)}",
        f"# residual_std={fmt(res_std)}",
        f"# loading_applied={args.epsilon > 0.0}",
        f"# filled_dates={','.join(d.isoformat() for d in series.filled)}",
    ]))
    _write_output(args.output, "\n".join(out) + "\n")
    print(f"fit: {steps} steps, rmse {fmt(rmse)}", file=sys.stderr)
    return EXIT_OK


@_data_command
def cmd_compare(args) -> int:
    errors, model, fitted, start, end = _common_config(args)
    baseline_lam = args.baseline_lambda if args.baseline_lambda is not None else args.lam
    baseline = _build(errors, ExponentialProfile, baseline_lam, args.window)
    if errors:
        return _fail_config(errors)

    series, _ = _load_series(args, start, end)
    _, window, (yhat_fit, _, _) = _run_fit(fitted, model, series, args)
    _, _, (yhat_base, _, _) = _run_fit(baseline, model, series, args)
    y = series.values[window - 1 :]
    res_fit, res_base = y - yhat_fit, y - yhat_base

    rmse_fit, _, std_fit = _residual_stats(res_fit)
    rmse_base, _, std_base = _residual_stats(res_base)
    ratio = rmse_fit / rmse_base if rmse_base else float("nan")

    # shared equal-width bins across both residual sets, per-profile counts
    top = max(float(np.max(np.abs(res_fit))), float(np.max(np.abs(res_base))), 1e-30)
    edges = np.linspace(-top, top, 42)
    counts_fit, _ = np.histogram(res_fit, bins=edges)
    counts_base, _ = np.histogram(res_base, bins=edges)

    out = ["k,date,y,residual_fitted,residual_baseline"]
    out.extend(_render_rows(_COMPARE_ROW, series.origin, window,
                            [y.tolist(), res_fit.tolist(), res_base.tolist()]))
    out.append("")
    out.append("bin_left,bin_right,count_fitted,count_baseline")
    bins = np.column_stack((edges[:-1], edges[1:], counts_fit, counts_base))
    out.append("\n".join([_HISTOGRAM_ROW] * 41) % tuple(bins.ravel().tolist()))
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
    last = len(series.values)
    end = series.origin + datetime.timedelta(days=last - 1)
    if end.toordinal() + args.horizon > datetime.date.max.toordinal():
        return _fail_config(
            [f"--horizon {args.horizon} from the series end {end} passes year 9999"]
        )
    est, _, _ = _run_fit(profile, model, series, args)
    band = est.forecast(args.horizon)

    # index k falls on origin + k - 1, so the horizon's first day is origin + last
    pos, recorded = records.find(
        np.datetime64(series.origin, "D") + np.arange(last, last + args.horizon))
    observed = records.values[pos[recorded]]
    inside = (band.lower[recorded] <= observed) & (observed <= band.upper[recorded])
    hits, total = int(inside.sum()), len(observed)
    cells = np.full((2, args.horizon), "", dtype=object)
    cells[0, recorded] = list(map(fmt, observed.tolist()))
    cells[1, recorded] = inside.astype(int).tolist()
    out = ["k,date,mean,lower,upper,observed,in_band"]
    out.extend(_render_rows(_FORECAST_ROW, series.origin, last + 1, [
        band.mean.tolist(), band.lower.tolist(), band.upper.tolist(), *cells.tolist()]))
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
    seed = verify_mod.DEFAULT_SEED if args.seed is None else args.seed
    results = verify_mod.run_synthetic_suite(trials=args.trials, seed=seed)
    for result in results:
        print(result.line())
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"verification FAILED: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print("verification passed", file=sys.stderr)
    return EXIT_OK


@_data_command
def cmd_synth(args) -> int:
    errors: list[str] = []
    model = _build(errors, HarmonicModel, args.period, args.harmonics)
    origin = _parse_date(args.origin, "--origin", errors)
    if model is not None:
        try:
            cells = [v.strip() for v in args.theta.split(",")]
            while cells and not cells[-1]:     # trailing empty entries are no entries
                cells.pop()
            leading = [float(v) if v else 0.0 for v in cells]
        except ValueError:
            errors.append(f"--theta is not a comma-separated float list: {args.theta!r}")
            leading = []
        if len(leading) > model.dim:
            errors.append(
                f"--theta has {len(leading)} entries, model dimension is {model.dim}"
            )
        elif not all(map(math.isfinite, leading)):
            errors.append(f"--theta entries must be finite: {args.theta!r}")
    if args.length < 1:
        errors.append("--length must be >= 1")
    if not 0.0 <= args.sigma < math.inf:
        errors.append(f"--sigma must be finite and >= 0, got {args.sigma}")
    if origin is not None and args.length > (datetime.date.max - origin).days + 1:
        errors.append(f"--length {args.length} from --origin {origin} passes year 9999")
    if errors:
        return _fail_config(errors)

    try:
        theta = np.zeros(model.dim)
        theta[: len(leading)] = leading
        values = reference.synth_generate(
            reference.SyntheticSpec(model, theta, args.sigma, args.seed, args.length))
    except RangeError as err:
        return _fail_config([str(err)])
    except MemoryError as err:
        # a model too large to hold: numpy's error names the size it could not allocate
        return _fail_config([f"--harmonics {args.harmonics} with --length {args.length} "
                             f"does not fit in memory: {err}"])
    out = []
    out.extend(_config_footer(args, model, extra=[f"# theta_full={','.join(fmt(v) for v in theta)}"]))
    out.append("date,value")
    dates = iso_date_range(origin, 1, len(values) + 1)
    out.extend(f"{date},{fmt(y)}" for date, y in zip(dates, values.tolist()))
    _write_output(args.output, "\n".join(out) + "\n")
    print(f"synth: wrote {len(values)} samples", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
