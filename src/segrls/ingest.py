"""Parsers for daily temperature series and index assignment.

Two input layouts are supported: the whitespace-delimited observatory layout
(year month day value ..., '#' comments) and a plain ``date,value`` CSV.
``to_indexed`` turns dated records into consecutively indexed samples, with
an explicit policy for missing days.
"""

from __future__ import annotations

import csv
import datetime
import io
import math
from bisect import bisect_left
from dataclasses import dataclass, field

from .errors import CalendarError, GapError, ParseError, RangeError
from .estimator import Sample

GAP_POLICIES = ("fail", "interpolate", "previous")


@dataclass(frozen=True)
class SeriesRecord:
    date: datetime.date
    value: float


@dataclass(frozen=True)
class IndexedSeries:
    """Samples with k = 1 at ``origin`` and consecutive indices, no gaps."""

    origin: datetime.date
    samples: tuple[Sample, ...]
    gap_policy: str = "fail"
    filled: tuple[datetime.date, ...] = field(default=())

    def date_of(self, k: int) -> datetime.date:
        return self.origin + datetime.timedelta(days=k - 1)

    def index_of(self, day: datetime.date) -> int:
        return (day - self.origin).days + 1


def parse_stockholm(text: str, value_column: int = 3) -> list[SeriesRecord]:
    """Whitespace-delimited daily records: year month day value [extra columns].

    Lines starting with '#' and blank lines are skipped.  ``value_column`` is
    the zero-based token index of the temperature column (default: the fourth
    column, the first temperature in the observatory layout).
    """
    if value_column < 3:
        raise ValueError("value_column must be >= 3 (after year, month, day)")
    records = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) <= value_column:
            raise ParseError(
                f"expected at least {value_column + 1} columns, got {len(tokens)}",
                line_number=line_no,
            )
        try:
            year, month, day = (int(t) for t in tokens[:3])
        except ValueError:
            raise ParseError(
                f"non-integer date fields {tokens[:3]!r}", line_number=line_no
            ) from None
        try:
            when = datetime.date(year, month, day)
        except ValueError as err:
            raise CalendarError(f"line {line_no}: {err}: {tokens[:3]!r}") from None
        value = _parse_value(tokens[value_column], line_no)
        records.append(SeriesRecord(date=when, value=value))
    return records


def parse_csv(text: str) -> list[SeriesRecord]:
    """CSV with header ``date,value``, ISO dates; '#' comment lines are skipped."""
    lines = []
    line_numbers = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append(raw)
        line_numbers.append(line_no)
    if not lines:
        raise ParseError("empty input; expected a 'date,value' header")
    reader = csv.reader(io.StringIO("\n".join(lines)))
    rows = list(reader)
    header = [cell.strip().lower() for cell in rows[0]]
    if header != ["date", "value"]:
        raise ParseError(
            f"expected header 'date,value', got {','.join(rows[0])!r}",
            line_number=line_numbers[0],
        )
    records = []
    for row, line_no in zip(rows[1:], line_numbers[1:]):
        if len(row) != 2:
            raise ParseError(f"expected 2 fields, got {len(row)}", line_number=line_no)
        date_text, value_text = row[0].strip(), row[1].strip()
        try:
            when = datetime.date.fromisoformat(date_text)
        except ValueError as err:
            if _looks_like_iso_date(date_text):
                raise CalendarError(f"line {line_no}: {err}: {date_text!r}") from None
            raise ParseError(f"invalid ISO date {date_text!r}", line_number=line_no) from None
        value = _parse_value(value_text, line_no)
        records.append(SeriesRecord(date=when, value=value))
    return records


def _parse_value(text: str, line_no: int) -> float:
    """A finite float; nan and inf would poison every later estimate."""
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"non-numeric value {text!r}", line_number=line_no) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {text!r}", line_number=line_no)
    return value


def _looks_like_iso_date(text: str) -> bool:
    parts = text.split("-")
    return len(parts) == 3 and all(p.isdigit() for p in parts)


def to_indexed(
    records: list[SeriesRecord],
    start: datetime.date | None = None,
    end: datetime.date | None = None,
    gap_policy: str = "fail",
) -> IndexedSeries:
    """Assign k = 1..N to consecutive days of [start, end].

    Missing days are handled per ``gap_policy``: 'fail' raises GapError,
    'interpolate' fills linearly between the neighboring records, 'previous'
    holds the last observed value.  Every filled date is listed in the
    returned metadata.  Duplicate or out-of-order dates raise CalendarError.
    """
    if gap_policy not in GAP_POLICIES:
        raise ValueError(f"gap_policy must be one of {GAP_POLICIES}, got {gap_policy!r}")
    if not records:
        raise RangeError("no records to index")
    dates = [r.date for r in records]
    for prev, cur in zip(dates, dates[1:]):
        if cur <= prev:
            raise CalendarError(
                f"records must be strictly increasing by date; got {prev} then {cur}"
            )
    start = start or dates[0]
    end = end or dates[-1]
    if start > end:
        raise RangeError(f"start {start} is after end {end}")
    if start < dates[0] or end > dates[-1]:
        raise RangeError(
            f"requested span {start}..{end} exceeds the data span {dates[0]}..{dates[-1]}"
        )

    samples = []
    filled = []
    day = start
    k = 1
    while day <= end:
        pos = bisect_left(dates, day)
        if pos < len(dates) and dates[pos] == day:
            value = records[pos].value
        elif gap_policy == "fail":
            raise GapError(f"missing day {day.isoformat()} under gap policy 'fail'")
        elif gap_policy == "previous":
            value = records[pos - 1].value
            filled.append(day)
        else:  # interpolate
            left = records[pos - 1]
            right = records[pos]
            span = (right.date - left.date).days
            frac = (day - left.date).days / span
            value = left.value + frac * (right.value - left.value)
            filled.append(day)
        samples.append(Sample(k, value))
        day += datetime.timedelta(days=1)
        k += 1

    return IndexedSeries(
        origin=start,
        samples=tuple(samples),
        gap_policy=gap_policy,
        filled=tuple(filled),
    )
