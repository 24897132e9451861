"""Workload command sequences and their correctness gates.

A workload is a list of ``segrls`` command lines plus, for each command, a
gate that checks its output to tolerance (never byte for byte).  Commands
and gates are plain JSON so the parent can hand them to a fresh interpreter.

Why these four workloads:

* ``fit_long`` is the streaming hot path: per-step update plus r x r solve
  is most of its time, parsing a few percent, no diagnostics.
* ``archive_forecast`` is parse-bound: twelve forecasts each re-read a
  91k-day archive and stream only three years, so a parse or index gain
  shows here and must be flat on ``fit_long``.
* ``verify`` is oracle-, init- and Monte-Carlo-heavy; shared-gain estimation
  and faster initialization show here and not on ``fit_long``.
* ``profiles_diag`` is diagnostic-bound: the condition number every 60 steps
  dominates, so a faster ``condition_number`` shows here and must be flat on
  ``fit_long``.
"""

from __future__ import annotations

import datetime
import math
from pathlib import Path

import numpy as np

from . import inputs

WORKLOADS = ("fit_long", "archive_forecast", "verify", "profiles_diag")

# Fig-2 settings, passed explicitly so that a change of CLI defaults cannot
# change the work a workload asks for.
WINDOW = 400
MODEL_FLAGS = ["--period", "365.25", "--harmonics", "16"]
FIG2_FLAGS = ["--profile", "segmented", "--beta", "0.89", "--lambda", "0.99",
              "--m", "250", "--p", "1", "--window", str(WINDOW)]
PROFILE_FLAGS = {
    "segmented": FIG2_FLAGS,
    "exponential": ["--profile", "exponential", "--lambda", "0.99", "--window", str(WINDOW)],
    "infinite": ["--profile", "infinite", "--lambda", "0.99", "--window", str(WINDOW)],
}

FORECASTS = 12
FORECAST_YEARS = 3
HORIZON = 30
COND_EVERY = 60
VERIFY_TRIALS = 100
# `segrls verify` seeds proven to pass by the test suite: DEFAULT_SEED .. +9.
VERIFY_BASE_SEED = 20250801
# Sample-steps `segrls verify --trials 100` asks for: A1 600, A2 2 x 600,
# A5 3 x 100, A9 100 trials x 30.
VERIFY_STEPS = 600 + 2 * 600 + 3 * 100 + VERIFY_TRIALS * 30

FIT_TOL = 1e-6      # |yhat_full - oracle prediction| / max(1, |oracle|)
BAND_TOL = 1e-6     # |upper - lower - 6 sigma| / max(1, 6 sigma)
COND_TOL = 1e-6     # |cond_a - cond(A_k)| / cond(A_k)
FIT_SAMPLES = 24    # oracle-checked rows per fit output


def _fit_command(workdir: Path, src: str, out: str, profile: str, extra=()) -> list[str]:
    return ["fit", "--input", str(workdir / src), *MODEL_FLAGS, *PROFILE_FLAGS[profile],
            *extra, "--output", str(workdir / out)]


def _years_back(day: datetime.date, years: int) -> datetime.date:
    try:
        return day.replace(year=day.year - years)
    except ValueError:          # 29 February
        return day.replace(year=day.year - years, day=28)


def build(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's inputs into ``workdir``; return its manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    facts = inputs.generate(seed, workdir, workload)
    commands = []
    if workload == "fit_long":
        commands.append({
            "argv": _fit_command(workdir, "fit_long.csv", "fit_long.out.csv", "segmented"),
            "gate": {"kind": "fit", "input": "fit_long.csv", "profile": "segmented",
                     "output": "fit_long.out.csv"},
            "steps": inputs.FIT_LONG_DAYS - WINDOW,
            "oracle": {"input": "fit_long.csv", "column": 0, "offset": 0,
                       "days": inputs.FIT_LONG_DAYS},
        })
    elif workload == "archive_forecast":
        last = inputs.ARCHIVE_ORIGIN + datetime.timedelta(days=inputs.ARCHIVE_DAYS - 1)
        first_end = inputs.ARCHIVE_ORIGIN.replace(year=inputs.ARCHIVE_ORIGIN.year + 4)
        stride = (last - first_end).days // FORECASTS
        for i, jitter in enumerate(facts["forecast_offsets"]):
            end = first_end + datetime.timedelta(days=i * stride + jitter)
            start = _years_back(end, FORECAST_YEARS) + datetime.timedelta(days=1)
            out = f"forecast{i:02d}.out.csv"
            column = 3 + i % inputs.ARCHIVE_COLUMNS
            commands.append({
                "argv": ["forecast", "--input", str(workdir / "archive.txt"),
                         "--format", "stockholm", "--value-column", str(column),
                         "--start", start.isoformat(), "--end", end.isoformat(),
                         "--horizon", str(HORIZON), *MODEL_FLAGS, *FIG2_FLAGS,
                         "--output", str(workdir / out)],
                "gate": {"kind": "forecast", "output": out},
                "steps": (end - start).days + 1 - WINDOW,
                "oracle": {"input": "archive.txt", "column": column - 3,
                           "offset": (start - inputs.ARCHIVE_ORIGIN).days,
                           "days": (end - start).days + 1},
            })
    elif workload == "verify":
        commands.append({
            "argv": ["verify", "--trials", str(VERIFY_TRIALS),
                     "--seed", str(VERIFY_BASE_SEED + seed % 10)],
            "gate": {"kind": "verify"},
            "steps": VERIFY_STEPS,
            "oracle": None,
        })
    else:
        for profile in ("segmented", "exponential", "infinite"):
            out = f"diag_{profile}.out.csv"
            commands.append({
                "argv": _fit_command(workdir, "diag.csv", out, profile,
                                     extra=["--cond-every", str(COND_EVERY)]),
                "gate": {"kind": "diag", "input": "diag.csv", "profile": profile,
                         "output": out},
                "steps": inputs.DIAG_DAYS - WINDOW,
                "oracle": {"input": "diag.csv", "column": 0, "offset": 0,
                           "days": inputs.DIAG_DAYS},
            })
    return {"workload": workload, "seed": seed, "workdir": str(workdir),
            "commands": commands}


# ----------------------------------------------------------------------
# gates (run in the child, after the timed region)


def load_values(workdir: Path, name: str, column: int = 0) -> np.ndarray:
    """Input values exactly as the parsers read them (shortest-repr floats)."""
    path = workdir / name
    if name.endswith(".csv"):
        return np.loadtxt(path, delimiter=",", skiprows=1, usecols=1, dtype=float)
    return np.loadtxt(path, comments="#", usecols=3 + column, dtype=float)


def samples_of(values: np.ndarray, offset: int = 0, days: int | None = None):
    from segrls.estimator import Sample

    span = values[offset: offset + days if days is not None else None]
    return [Sample(k, float(y)) for k, y in enumerate(span, start=1)]


def make_profile(name: str):
    from segrls.profile import ExponentialProfile, SegmentedProfile

    if name == "segmented":
        return SegmentedProfile(0.89, 0.99, 250, 1, WINDOW)
    if name == "exponential":
        return ExponentialProfile(0.99, WINDOW)
    return ExponentialProfile(0.99)


def make_model():
    from segrls.harmonic import make_harmonic_model

    return make_harmonic_model(inputs.PERIOD, inputs.HARMONICS)


def _read_rows(path: Path):
    """(header, rows, footer dict) of a CSV output with a '#' footer."""
    lines = path.read_text(encoding="utf-8").splitlines()
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    footer = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# ") and "=" in ln)
    header = body[0].split(",")
    return header, [ln.split(",") for ln in body[1:]], footer


def _check_rows(rows, days: int) -> str | None:
    ks = [int(r[0]) for r in rows]
    if ks != list(range(WINDOW, days + 1)):
        return f"expected rows k={WINDOW}..{days}, got {len(rows)} rows"
    return None


def _gate_fit(gate, workdir: Path) -> str | None:
    from segrls.reference import direct_weighted_ls

    values = load_values(workdir, gate["input"])
    header, rows, _ = _read_rows(workdir / gate["output"])
    problem = _check_rows(rows, len(values))
    if problem:
        return problem
    col = header.index("yhat_full")
    samples = samples_of(values)
    model, profile = make_model(), make_profile(gate["profile"])
    picks = np.unique(np.linspace(0, len(rows) - 1, FIT_SAMPLES).astype(int))
    for i in picks:
        k = int(rows[i][0])
        _, theta = direct_weighted_ls(profile, model, samples, k)
        want = float(inputs.regressors(np.array([k]))[0] @ theta)
        got = float(rows[i][col])
        if not abs(got - want) <= FIT_TOL * max(1.0, abs(want)):
            return f"yhat_full at k={k} is {got!r}, oracle {want!r}"
        if float(rows[i][2]) != values[k - 1]:
            return f"y at k={k} is {rows[i][2]!r}, input {values[k - 1]!r}"
    return None


def _gate_diag(gate, workdir: Path) -> str | None:
    from segrls.reference import direct_weighted_ls

    values = load_values(workdir, gate["input"])
    header, rows, _ = _read_rows(workdir / gate["output"])
    problem = _check_rows(rows, len(values))
    if problem:
        return problem
    col = header.index("cond_a")
    samples = samples_of(values)
    model, profile = make_model(), make_profile(gate["profile"])
    for row in rows:
        k = int(row[0])
        due = (k - WINDOW) % COND_EVERY == 0
        if due != (row[col] != ""):
            return f"cond_a at k={k} is {row[col]!r}; due={due}"
        if due:
            a, _ = direct_weighted_ls(profile, model, samples, k)
            want = float(np.linalg.cond(a))
            got = float(row[col])
            if not abs(got - want) <= COND_TOL * want:
                return f"cond_a at k={k} is {got!r}, numpy.linalg.cond {want!r}"
    return None


def _gate_forecast(gate, workdir: Path) -> str | None:
    header, rows, footer = _read_rows(workdir / gate["output"])
    sigma = float(footer.get("sigma", "nan"))
    if not (math.isfinite(sigma) and sigma > 0.0):
        return f"sigma is {footer.get('sigma')!r}"
    if len(rows) != HORIZON:
        return f"expected {HORIZON} forecast rows, got {len(rows)}"
    lo, hi, mean = header.index("lower"), header.index("upper"), header.index("mean")
    for row in rows:
        width = float(row[hi]) - float(row[lo])
        if not (math.isfinite(float(row[mean]))
                and abs(width - 6.0 * sigma) <= BAND_TOL * max(1.0, 6.0 * sigma)):
            return f"band at k={row[0]} is {width!r}, 6 sigma = {6.0 * sigma!r}"
    return None


def _gate_verify(stdout: str) -> str | None:
    lines = [ln for ln in stdout.splitlines() if ln.startswith("[")]
    if not lines:
        return "no criterion lines"
    bad = [ln for ln in lines if "] PASS " not in ln]
    return f"not PASS: {bad}" if bad else None


def check(command: dict, rc, stdout: str, workdir: Path) -> str | None:
    """None when the command succeeded and its output is correct, else why not."""
    if rc != 0:
        return f"exit code {rc}"
    gate = command["gate"]
    if gate["kind"] == "verify":
        return _gate_verify(stdout)
    gate_fn = {"fit": _gate_fit, "diag": _gate_diag, "forecast": _gate_forecast}[gate["kind"]]
    try:
        return gate_fn(gate, workdir)
    except (OSError, ValueError, IndexError) as err:     # missing or malformed output
        return f"unreadable output: {err!r}"
