"""Seeded input files for the benchmark workloads.

Every series is a harmonic annual cycle plus Gaussian weather noise, drawn
from ``numpy.random.default_rng(seed)`` and written with one decimal, as
observatory archives are.  The generator does not import ``segrls``: a change
to the code under test cannot change its own inputs.
"""

from __future__ import annotations

import datetime
import math
from pathlib import Path

import numpy as np

PERIOD = 365.25
HARMONICS = 16                 # the CLI default; model dimension n = 35
FIT_LONG_DAYS = 40_000
DIAG_DAYS = 4_000
ARCHIVE_DAYS = 91_000
ARCHIVE_COLUMNS = 3
NOISE_SIGMA = 2.5

FIT_LONG_ORIGIN = datetime.date(1901, 1, 1)
DIAG_ORIGIN = datetime.date(1990, 1, 1)
ARCHIVE_ORIGIN = datetime.date(1756, 1, 1)


def regressors(k: np.ndarray) -> np.ndarray:
    """Rows [1, cos(q_0 k), sin(q_0 k), ..., cos(q_h k), sin(q_h k)], q_i = 2 pi (i+1)/T."""
    angles = np.asarray(k, dtype=float)[:, None] * (
        2.0 * math.pi * np.arange(1, HARMONICS + 2) / PERIOD
    )
    phi = np.empty((angles.shape[0], 2 * (HARMONICS + 1) + 1))
    phi[:, 0] = 1.0
    phi[:, 1::2] = np.cos(angles)
    phi[:, 2::2] = np.sin(angles)
    return phi


def _theta(rng: np.random.Generator) -> np.ndarray:
    """Temperature-like parameters: strong annual cycle, decaying harmonics."""
    theta = np.zeros(2 * (HARMONICS + 1) + 1)
    theta[0] = 6.0 + rng.normal(0.0, 0.5)
    theta[1] = -9.0 + rng.normal(0.0, 0.5)
    theta[2] = -2.5 + rng.normal(0.0, 0.5)
    i = np.arange(1, HARMONICS + 1)
    theta[1 + 2 * i] = rng.normal(0.0, 1.0, HARMONICS) / (i + 1)
    theta[2 + 2 * i] = rng.normal(0.0, 1.0, HARMONICS) / (i + 1)
    return theta


def series_values(rng: np.random.Generator, days: int) -> np.ndarray:
    """Daily values for k = 1..days, rounded to the one decimal written to disk."""
    clean = regressors(np.arange(1, days + 1)) @ _theta(rng)
    return np.round(clean + rng.normal(0.0, NOISE_SIGMA, days), 1)


def _dates(origin: datetime.date, days: int) -> list[datetime.date]:
    return [origin + datetime.timedelta(days=i) for i in range(days)]


def write_csv(path: Path, origin: datetime.date, values: np.ndarray) -> None:
    lines = ["date,value"]
    lines.extend(
        f"{day.isoformat()},{value:.1f}"
        for day, value in zip(_dates(origin, len(values)), values)
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_stockholm(path: Path, origin: datetime.date, columns: np.ndarray) -> None:
    """Observatory layout: '#' header, then 'year month day v1 v2 v3' per day."""
    lines = [
        "# Daily mean temperatures, synthetic observatory archive",
        "# columns: year month day raw homogenized homogenized_urban_corrected",
    ]
    for day, row in zip(_dates(origin, columns.shape[0]), columns):
        lines.append(
            f"{day.year} {day.month:2d} {day.day:2d} "
            + " ".join(f"{v:6.1f}" for v in row)
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(seed: int, workdir: Path, workload: str) -> dict:
    """Write the input files ``workload`` reads into ``workdir``.

    Returns the seeded choices of the command lines.  Each file draws from
    its own child generator, so one workload's inputs do not depend on which
    other files are written.
    """
    fit_rng, diag_rng, archive_rng, origin_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)
    )
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "fit_long":
        write_csv(workdir / "fit_long.csv", FIT_LONG_ORIGIN,
                  series_values(fit_rng, FIT_LONG_DAYS))
    elif workload == "profiles_diag":
        write_csv(workdir / "diag.csv", DIAG_ORIGIN, series_values(diag_rng, DIAG_DAYS))
    elif workload == "archive_forecast":
        base = series_values(archive_rng, ARCHIVE_DAYS)
        drift = np.linspace(0.0, 1.0, ARCHIVE_DAYS)
        archive = np.column_stack(
            [base, base - 0.3 * drift, base - 0.3 * drift - 0.2 * drift**2]
        )
        write_stockholm(workdir / "archive.txt", ARCHIVE_ORIGIN, np.round(archive, 1))
    return {"forecast_offsets": origin_rng.integers(0, 365, 12).tolist()}
