"""Parsers for daily temperature series and index assignment.

Two input layouts are supported: the whitespace-delimited observatory layout
(year month day value ..., '#' comments) and a plain ``date,value`` CSV.
Each parser takes the text or a file's path (read as UTF-8), less a leading
byte-order mark, reads it in one ``numpy.loadtxt`` pass into columnar
``Records`` and checks calendar validity and finiteness on whole arrays.
The reader's chunked file pass reads a regular, uncompressed file again by
its path, past the leading comment and blank lines, when no '#' follows
them and no line break that ``str.splitlines`` honours and universal
newlines do not is in it.  Otherwise, or if it refuses the file, the
reader gets the data lines alone.  A refused file is read again with the
same reader, narrowed by halves to its first refused line, and the stage
that refuses that line picks the error: a token the reader or the ISO date
shape refuses and a non-finite value are a ``ParseError``, an off-calendar
date (a date field past 64 bits too) is a ``CalendarError``, each naming
the line.  The CSV header follows the data's rule, so a quoted header is
refused.  ``to_indexed`` turns the records into consecutively indexed
values, with an explicit policy for missing days.
"""

from __future__ import annotations

import datetime
import os
import stat
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CalendarError, GapError, ParseError, RangeError, _check_count

GAP_POLICIES = ("fail", "interpolate", "previous")

_OBSERVATORY_ROW = np.dtype(
    [("year", np.int64), ("month", np.int64), ("day", np.int64), ("value", np.float64)]
)
# one code point past YYYY-MM-DD, so a longer cell cannot hide in the truncation
_CSV_ROW = np.dtype([("date", "U11"), ("value", np.float64)])
_LAST_MONTH = (9999 - 1970) * 12 + 11  # December 9999, in months since January 1970
_ISO_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9]  # positions of the digits in YYYY-MM-DD
# digit place values, as int32 so the fields stay 4 bytes a date
_YEAR_PLACES = np.array([1000, 100, 10, 1], dtype=np.int32)
_PLACES = _YEAR_PLACES[2:]
# line breaks that str.splitlines honours and universal newlines do not
_SPLITLINES_ONLY = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")  # suffixes numpy.loadtxt decompresses
_PREFIX = 4096  # characters split first to find the leading comment and blank lines


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
    """Daily values with k = 1 at ``origin``, no gaps: index k is ``values[k - 1]``."""

    origin: datetime.date
    values: np.ndarray
    filled: tuple[datetime.date, ...] = field(default=())


def iso_date_range(origin: datetime.date, start: int, stop: int) -> list[str]:
    """The ISO dates of indices start..stop-1, k = 1 falling on ``origin``.

    One numpy conversion for the whole range; each text is
    ``datetime.date.isoformat``'s, for dates from 0001-01-01 to 9999-12-31.
    """
    before_origin = np.datetime64(origin, "D") - 1
    days = np.arange(before_origin + start, before_origin + stop)
    return np.datetime_as_string(days).tolist()


def parse_stockholm(source: str | os.PathLike, value_column: int = 3) -> Records:
    """Whitespace-delimited daily records: year month day value [extra columns].

    ``source`` is the text, or the path of a file to read.  Lines starting
    with '#' and blank lines are skipped.  ``value_column`` is the zero-based
    token index of the temperature column (default: the fourth column, the
    first temperature in the observatory layout).  Columns after it are not
    read.
    """
    _check_count(value_column, 3, f"value_column must be an integer >= 3 (after year, "
                                  f"month, day), got {value_column!r}")
    # the reader's largest column, sys.maxsize, is past every line, as a larger one is
    usecols = (0, 1, 2, min(value_column, sys.maxsize))

    def convert(rows, **reader):
        try:
            table = _load(rows, _OBSERVATORY_ROW, usecols=usecols, **reader)
        except ValueError:
            # a date field past 64 bits is a year off the calendar; only a single
            # line's refusal is ever classified, so only a single line is checked
            if isinstance(rows, list) and len(rows) == 1 and any(
                    map(_past_int64, rows[0].split()[:3])):
                raise _OffCalendar from None
            raise
        return _records(table["year"], table["month"], table["day"], table["value"])

    text, path = _text(source)
    start, offset, _ = _leading_block(text)
    expected = f"integer year, month and day and a float in column {int(value_column) + 1}"
    return _read(text, path, start, offset, convert, expected)


def parse_csv(source: str | os.PathLike) -> Records:
    """CSV with header ``date,value``, ISO dates; '#' comment lines are skipped.

    ``source`` is the text, or the path of a file to read.
    """

    def convert(rows, **reader):
        table = _load(rows, _CSV_ROW, delimiter=",", **reader)
        year, month, day = _iso_fields(table["date"])
        return _records(year, month, day, table["value"])

    text, path = _text(source)
    start, offset, header = _leading_block(text)
    if header is None:
        raise ParseError("empty input; expected a 'date,value' header")
    if [cell.strip().lower() for cell in header.split(",")] != ["date", "value"]:
        raise ParseError(f"line {start + 1}: expected header 'date,value', got {_quote(header)}")
    return _read(text, path, start, offset, convert, "'YYYY-MM-DD,float'", skip=1)


class _OffCalendar(ValueError):
    """A date the calendar does not hold."""


class _NotFinite(ValueError):
    """A nan or inf value, which would poison every later estimate."""


def _data_lines(lines: list[str]) -> list[str]:
    """The lines that are neither blank nor '#' comments."""
    return [raw for raw in lines if (s := raw.strip()) and s[0] != "#"]


def _text(source) -> tuple[str, str | None]:
    """The text of ``source`` less a leading BOM, and the absolute path of a file to read again.

    A text source, and a file that is not regular (a pipe reads empty the
    second time) or that ``numpy.loadtxt`` would decompress by its suffix,
    give no path.  The path is absolute, so numpy never takes it for a URL.
    """
    # a leading byte-order mark is not data; utf-8-sig drops it from a file
    if isinstance(source, str):
        return source.removeprefix("\ufeff"), None
    with open(source, encoding="utf-8-sig") as handle:
        text = handle.read()
        regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
    path = os.path.abspath(source)
    rereadable = regular and os.path.splitext(path)[1].lower() not in _COMPRESSED
    return text, path if rereadable else None


def _leading_block(text: str) -> tuple[int, int, str | None]:
    """The comment and blank lines that open ``text``, as ``str.splitlines`` splits it.

    Returns their count, the offset of the line after them, and that line,
    the first data line, without its break (None if there is none).  Only a
    prefix is split, doubled until it holds a data line, so a file is not
    split whole to find its header.
    """
    size = _PREFIX
    while True:
        pieces = text[:size].splitlines(keepends=True)
        if size < len(text):
            pieces.pop()  # it may be cut, its break too
        data = _data_lines(pieces)
        if data:
            # the pieces before it are blank or comments, so none is equal to it
            count = pieces.index(data[0])
            return count, sum(map(len, pieces[:count])), data[0].splitlines()[0]
        if size >= len(text):
            return len(pieces), len(text), None
        size *= 2


def _past_int64(token: str) -> bool:
    """An ASCII integer with an optional sign that a 64-bit field cannot hold."""
    digits = token[1:] if token[:1] in ("+", "-") else token
    return digits.isascii() and digits.isdigit() and not -(2**63) <= int(token) < 2**63


def _quote(text: str) -> str:
    """``repr`` of the stripped ``text``, cut to 40 characters so an error stays one short line."""
    quoted = repr(text.strip())
    return quoted if len(quoted) <= 40 else quoted[:39] + "…"


def _load(rows: list[str] | str, dtype: np.dtype, **kwargs) -> np.ndarray:
    """One C-tokenized pass over ``rows``, a list of lines or a file's path.

    '#' is data here: the lines read hold no comments.  The reader skips
    empty lines; lines that are all empty are no records, without the
    reader's warning on stderr.
    """
    if not rows:
        return np.empty(0, dtype=dtype)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(rows, dtype=dtype, comments=None, ndmin=1, **kwargs)


def _iso_fields(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Year, month and day of ``YYYY-MM-DD`` cells; ValueError if any cell is not that."""
    codes = cells[:, None].view(np.uint32)  # (count, 11) code points, not copied
    digits = codes[:, _ISO_DIGITS]
    digits -= ord("0")  # a code point below '0' wraps past 9
    shaped = (
        (digits <= 9).all(axis=1)
        & (codes[:, 4] == ord("-")) & (codes[:, 7] == ord("-")) & (codes[:, 10] == 0)
    )
    if not shaped.all():
        raise ValueError("a date cell is not YYYY-MM-DD")
    digits = digits.astype(np.uint8)
    return (digits[:, :4] @ _YEAR_PLACES, digits[:, 4:6] @ _PLACES,
            digits[:, 6:] @ _PLACES)


def _records(year, month, day, values) -> Records:
    """Columnar records; _OffCalendar or _NotFinite if a date or a value is refused."""
    months = (np.clip(year, 1, 9999) - 1970) * 12 + np.clip(month, 1, 12) - 1
    # the first days of the months from the earliest record's to the one after
    # the latest's: the calendar runs once a month, not once a record
    lo = months.min(initial=_LAST_MONTH)
    firsts = np.arange(lo, months.max(initial=lo) + 2).astype("datetime64[M]")
    firsts = firsts.astype("datetime64[D]")
    slot = months - lo
    valid = (
        (year >= 1) & (year <= 9999) & (month >= 1) & (month <= 12)
        & (day >= 1) & (day <= np.diff(firsts).astype(np.int64)[slot])
    )
    if not valid.all():
        raise _OffCalendar
    if not np.isfinite(values).all():
        raise _NotFinite
    # a contiguous copy, so the records do not keep the whole parsed table alive
    values = np.ascontiguousarray(values)
    return Records(firsts[slot] + (day - 1).astype("timedelta64[D]"), values)


def _read(text, path, start, offset, convert, expected, skip=0) -> Records:
    """``convert`` the data lines of ``text`` after the ``skip`` lines from line ``start``.

    ``start`` indexes the first data line and ``offset`` is its place in
    ``text``.  When ``path`` names the file ``text`` was read from, no '#'
    follows ``offset`` and every line break in ``text`` is one universal
    newlines read, the file's lines are ``text``'s: it goes to ``convert``
    by its path, past its first ``start + skip`` lines.  The reader skips
    or refuses each blank line among the data, so an accepted pass holds
    the data lines' records.  Otherwise, or if refused, ``_parse`` reads
    the data lines alone.
    """
    if (path is not None and text.find("#", offset) < 0
            and not any(map(text.__contains__, _SPLITLINES_ONLY))):
        try:
            return convert(path, skiprows=start + skip, encoding="utf-8-sig")
        except ValueError:
            pass
    lines = text.splitlines()
    return _parse(lines, _data_lines(lines), convert, expected, skip)


def _parse(lines, rows, convert, expected, skip=0) -> Records:
    """``convert`` the data ``rows`` after ``skip``; if refused, raise the first bad line's error.

    A refused file is read again with the same ``convert``: halves of the
    numbered data lines narrow it to the first line that ``convert`` refuses
    on its own, and the stage that refuses that line picks the error.  An
    off-calendar date is a ``CalendarError``; a non-finite value, and a line
    the tokenizer or the date shape refuses (quoted against ``expected``),
    are a ``ParseError``.
    """
    try:
        return convert(rows[skip:])
    except ValueError:
        pass
    # between two data rows stand only blank and comment lines, none equal to a
    # row, so each row's line is the next line equal to it
    after = enumerate(lines, start=1)
    numbered = [(next(no for no, line in after if line == raw), raw) for raw in rows][skip:]
    lo, hi = 0, len(numbered)
    while hi - lo > 1:  # the first refused line is in numbered[lo:hi]
        mid = (lo + hi) // 2
        try:
            convert([raw for _, raw in numbered[lo:mid]])
            lo = mid
        except ValueError:
            hi = mid
    line_no, raw = numbered[lo]
    try:
        convert([raw])
    except _OffCalendar:
        raise CalendarError(f"line {line_no}: date off the calendar: {_quote(raw)}") from None
    except _NotFinite:
        raise ParseError(f"line {line_no}: non-finite value: {_quote(raw)}") from None
    except ValueError:
        raise ParseError(f"line {line_no}: expected {expected}, got {_quote(raw)}") from None
    raise ParseError("refused as a whole, but no line is refused on its own")


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
    returned metadata.  Duplicate or out-of-order dates raise CalendarError, and
    a ``start`` or ``end`` that is not None or a ``datetime.date`` RangeError.
    """
    if not (isinstance(gap_policy, str) and gap_policy in GAP_POLICIES):
        raise ValueError(f"gap_policy must be one of {GAP_POLICIES}, got {gap_policy!r}")
    for name, day in (("start", start), ("end", end)):
        if day is not None and type(day) is not datetime.date:
            raise RangeError(f"{name} must be a datetime.date or None, got {day!r}")
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

    return IndexedSeries(origin=start, values=y, filled=tuple(days[missing].tolist()))
