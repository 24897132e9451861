"""Parsers for daily temperature series and index assignment.

Two input layouts are supported: the whitespace-delimited observatory layout
(year month day value ..., '#' comments) and a plain ``date,value`` CSV.
Each parser reads its file in one ``numpy.loadtxt`` pass into columnar
``Records`` and checks calendar validity and finiteness on whole arrays; only
a refused file is walked line by line, to name the first bad line.  The
one-pass grammar is narrower than ``int``/``float``/``date.fromisoformat``:
digit separators (``1_0.5``), non-ASCII digits, integers past 64 bits, basic
and week dates, whitespace around the CSV date and quoted CSV cells are
refused with ``ParseError`` and the line number.  ``to_indexed`` turns the
records into consecutively indexed samples, with an explicit policy for
missing days.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CalendarError, GapError, ParseError, RangeError
from .estimator import Sample

GAP_POLICIES = ("fail", "interpolate", "previous")

_OBSERVATORY_ROW = np.dtype(
    [("year", np.int64), ("month", np.int64), ("day", np.int64), ("value", np.float64)]
)
# one code point past YYYY-MM-DD, so a longer cell cannot hide in the truncation
_CSV_ROW = np.dtype([("date", "U11"), ("value", np.float64)])
_ISO_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9]  # positions of the digits in YYYY-MM-DD


@dataclass(frozen=True)
class SeriesRecord:
    date: datetime.date
    value: float


class Records:
    """Dated values in file order, held as two parallel arrays.

    ``dates`` is datetime64[D] and ``values`` float64.  ``len(records)`` is
    the record count and ``records[i]`` the i-th ``SeriesRecord``; iteration
    yields ``SeriesRecord`` too.
    """

    __slots__ = ("dates", "values")

    def __init__(self, dates: np.ndarray, values: np.ndarray):
        self.dates = dates
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> SeriesRecord:
        return SeriesRecord(self.dates[index].item(), float(self.values[index]))

    def __iter__(self):
        return map(SeriesRecord, self.dates.tolist(), self.values.tolist())

    def find(self, days: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each day's left insertion point in the sorted ``dates``, and whether it is there."""
        pos = np.searchsorted(self.dates, days)
        inside = pos < len(self.dates)
        recorded = np.zeros(pos.shape, dtype=bool)
        recorded[inside] = self.dates[pos[inside]] == days[inside]
        return pos, recorded


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


def parse_stockholm(text: str, value_column: int = 3) -> Records:
    """Whitespace-delimited daily records: year month day value [extra columns].

    Lines starting with '#' and blank lines are skipped.  ``value_column`` is
    the zero-based token index of the temperature column (default: the fourth
    column, the first temperature in the observatory layout).  Columns after
    it are not read.
    """
    if value_column < 3:
        raise ValueError("value_column must be >= 3 (after year, month, day)")

    def convert(rows):
        table = _load(rows, _OBSERVATORY_ROW, usecols=(0, 1, 2, value_column))
        return _records(table["year"], table["month"], table["day"], table["value"])

    def walk(numbered):
        for line_no, raw in numbered:
            tokens = raw.split()
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
                datetime.date(year, month, day)
            except (ValueError, OverflowError) as err:
                raise CalendarError(f"line {line_no}: {err}: {tokens[:3]!r}") from None
            _check_value(tokens[value_column], line_no)

    lines = text.splitlines()
    return _parse(lines, _data_lines(lines), convert, walk)


def parse_csv(text: str) -> Records:
    """CSV with header ``date,value``, ISO dates; '#' comment lines are skipped."""

    def convert(rows):
        table = _load(rows, _CSV_ROW, delimiter=",")
        year, month, day = _iso_fields(table["date"])
        return _records(year, month, day, table["value"])

    def walk(numbered):
        rows = _csv_rows(numbered)
        next(rows)  # the header
        for row, (line_no, _) in zip(rows, numbered[1:]):
            if len(row) != 2:
                raise ParseError(f"expected 2 fields, got {len(row)}", line_number=line_no)
            date_text, value_text = row[0].strip(), row[1].strip()
            try:
                datetime.date.fromisoformat(date_text)
            except ValueError as err:
                if _looks_like_iso_date(date_text):
                    raise CalendarError(f"line {line_no}: {err}: {date_text!r}") from None
                raise ParseError(
                    f"invalid ISO date {date_text!r}", line_number=line_no
                ) from None
            _check_value(value_text, line_no)

    lines = text.splitlines()
    rows = _data_lines(lines)
    if not rows:
        raise ParseError("empty input; expected a 'date,value' header")
    header = next(_csv_rows(_numbered_data_lines(lines)))
    if [cell.strip().lower() for cell in header] != ["date", "value"]:
        raise ParseError(
            f"expected header 'date,value', got {','.join(header)!r}",
            line_number=next(_numbered_data_lines(lines))[0],
        )
    return _parse(lines, rows, convert, walk, skip=1)


def _data_lines(lines: list[str]) -> list[str]:
    """The lines that are neither blank nor '#' comments."""
    return [raw for raw in lines if (s := raw.strip()) and s[0] != "#"]


def _numbered_data_lines(lines: list[str]):
    """(line number, line) of each data line, lazily: a header read stops at the header."""
    return ((no, raw) for no, raw in enumerate(lines, start=1) if _data_lines([raw]))


def _csv_rows(numbered):
    """csv rows of the ``numbered`` data lines as one stream, so a quoted cell may span lines.

    A ``csv.Error``, such as a cell past the csv module's field size limit,
    becomes a ``ParseError`` naming the line the reader stopped at.
    """
    line_no = None

    def feed():
        nonlocal line_no
        for line_no, raw in numbered:
            yield raw + "\n"

    try:
        yield from csv.reader(feed())
    except csv.Error as err:
        raise ParseError(str(err), line_number=line_no) from None


def _load(rows: list[str], dtype: np.dtype, **kwargs) -> np.ndarray:
    """One C-tokenized pass over ``rows``; '#' is data here, the rows hold no comments."""
    if not rows:
        return np.empty(0, dtype=dtype)
    return np.loadtxt(rows, dtype=dtype, comments=None, ndmin=1, **kwargs)


def _iso_fields(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Year, month and day of ``YYYY-MM-DD`` cells; ValueError if any cell is not that."""
    codes = np.ascontiguousarray(cells).view(np.uint32).reshape(len(cells), 11)
    digits = codes[:, _ISO_DIGITS].astype(np.int64) - ord("0")
    shaped = (
        ((digits >= 0) & (digits <= 9)).all(axis=1)
        & (codes[:, 4] == ord("-")) & (codes[:, 7] == ord("-")) & (codes[:, 10] == 0)
    )
    if not shaped.all():
        raise ValueError("a date cell is not YYYY-MM-DD")
    return (digits[:, :4] @ [1000, 100, 10, 1], digits[:, 4:6] @ [10, 1],
            digits[:, 6:] @ [10, 1])


def _records(year, month, day, values) -> Records:
    """Columnar records; ValueError if a date is off the calendar or a value is not finite."""
    months = (np.clip(year, 1, 9999) - 1970) * 12 + np.clip(month, 1, 12) - 1
    first = months.astype("datetime64[M]").astype("datetime64[D]")
    length = (months + 1).astype("datetime64[M]").astype("datetime64[D]") - first
    valid = (
        (year >= 1) & (year <= 9999) & (month >= 1) & (month <= 12)
        & (day >= 1) & (day <= length.astype(np.int64))
    )
    if not (valid.all() and np.isfinite(values).all()):
        raise ValueError("a date is off the calendar or a value is not finite")
    # a contiguous copy, so the records do not keep the whole parsed table alive
    values = np.ascontiguousarray(values)
    return Records(first + (day - 1).astype("timedelta64[D]"), values)


def _parse(lines, rows, convert, walk, skip=0) -> Records:
    """``convert`` the data ``rows`` after ``skip``; if refused, raise the first bad line's error.

    ``walk`` reads the numbered data lines with ``int``/``float``/``date``
    and raises, with its class and line number, the error of the first line
    that grammar refuses.  A file it passes holds a token outside the
    narrower grammar of the one-pass reader, named by converting line by line.
    """
    try:
        return convert(rows[skip:])
    except ValueError as err:
        numbered = list(_numbered_data_lines(lines))
        walk(numbered)
        for line_no, raw in numbered[skip:]:
            try:
                convert([raw])
            except ValueError:
                raise ParseError(
                    f"unsupported token syntax in {raw!r}", line_number=line_no
                ) from None
        raise ParseError(str(err)) from err


def _check_value(text: str, line_no: int) -> None:
    """A finite float; nan and inf would poison every later estimate."""
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"non-numeric value {text!r}", line_number=line_no) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {text!r}", line_number=line_no)


def _looks_like_iso_date(text: str) -> bool:
    parts = text.split("-")
    return len(parts) == 3 and all(p.isdigit() for p in parts)


def to_indexed(
    records: Records,
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
    if not len(records):
        raise RangeError("no records to index")
    dates, values = records.dates, records.values
    back = np.flatnonzero(dates[1:] <= dates[:-1])
    if back.size:
        prev, cur = dates[back[0] : back[0] + 2].tolist()
        raise CalendarError(
            f"records must be strictly increasing by date; got {prev} then {cur}"
        )
    first, last = dates[0].item(), dates[-1].item()
    start = start or first
    end = end or last
    if start > end:
        raise RangeError(f"start {start} is after end {end}")
    if start < first or end > last:
        raise RangeError(
            f"requested span {start}..{end} exceeds the data span {first}..{last}"
        )

    days = np.arange(np.datetime64(start, "D"), np.datetime64(end, "D") + 1)
    pos, recorded = records.find(days)
    y = values[pos]
    missing = ~recorded
    if missing.any():
        if gap_policy == "fail":
            gap = days[missing][0].item()
            raise GapError(f"missing day {gap.isoformat()} under gap policy 'fail'")
        # a missing day lies strictly inside the data span: pos is its right neighbor
        right = pos[missing]
        left = right - 1
        if gap_policy == "previous":
            y[missing] = values[left]
        else:  # interpolate, the scalar formula element by element
            span = (dates[right] - dates[left]).astype(np.int64)
            frac = (days[missing] - dates[left]).astype(np.int64) / span
            y[missing] = values[left] + frac * (values[right] - values[left])

    return IndexedSeries(
        origin=start,
        samples=tuple(map(Sample, range(1, len(y) + 1), y.tolist())),
        gap_policy=gap_policy,
        filled=tuple(days[missing].tolist()),
    )
