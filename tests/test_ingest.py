import calendar
import datetime
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from segrls import ingest
from segrls.errors import CalendarError, GapError, ParseError, RangeError
from segrls.ingest import (
    Records,
    SeriesRecord,
    iso_date_range,
    parse_csv,
    parse_stockholm,
    to_indexed,
)

# the source tree the tests import segrls from, so that a CLI child runs the same code
SRC = Path(ingest.__file__).resolve().parent.parent

STOCKHOLM_SAMPLE = """\
# Stockholm daily mean temperatures (sample)
1756 1 1 -1.2 -1.1 1
1756 1 2 -4.0 -3.9 1
1756 1 3 -6.3 -6.2 1
"""


def day(text):
    return datetime.date.fromisoformat(text)


def date_of(origin, k):
    """The ISO date of index k, k = 1 falling on ``origin``, by date arithmetic."""
    return (origin + datetime.timedelta(days=k - 1)).isoformat()


class TestParseStockholm:
    def test_basic_layout(self):
        records = parse_stockholm(STOCKHOLM_SAMPLE)
        assert records[0] == SeriesRecord(day("1756-01-01"), -1.2)
        assert len(records) == 3

    def test_comments_and_blank_lines_skipped(self):
        assert len(parse_stockholm("# only a comment\n\n")) == 0

    def test_value_column_selection(self):
        records = parse_stockholm(STOCKHOLM_SAMPLE, value_column=4)
        assert records[0].value == -1.1
        with pytest.raises(RangeError):
            parse_stockholm(STOCKHOLM_SAMPLE, value_column=2)

    @pytest.mark.parametrize("column", [2, -1, 3.0, 4.5, "3", None, False],
                             ids=["two", "negative", "float", "fraction", "string", "none",
                                  "bool"])
    def test_value_column_is_a_count_of_at_least_3(self, column):
        with pytest.raises(RangeError, match=re.escape(
                f"value_column must be an integer >= 3 (after year, month, day), "
                f"got {column!r}")):
            parse_stockholm(STOCKHOLM_SAMPLE, value_column=column)
        # a numpy integer is a count
        assert parse_stockholm(STOCKHOLM_SAMPLE, np.int64(4))[0].value == -1.1

    @pytest.mark.parametrize("column", [6, 2**63 - 1, 2**63, 10**23])
    def test_value_column_past_every_line_names_the_first_data_line(self, tmp_path, column):
        want = (f"line 2: expected integer year, month and day and a float in column "
                f"{column + 1}, got '1756 1 1 -1.2 -1.1 1'")
        for source in (STOCKHOLM_SAMPLE, write(tmp_path / "archive.txt", STOCKHOLM_SAMPLE)):
            with pytest.raises(ParseError) as err:
                parse_stockholm(source, value_column=column)
            assert str(err.value) == want
        # no data line: no records, whatever the column
        assert len(parse_stockholm("# note\n", value_column=column)) == 0

    def test_byte_order_mark_of_a_text_is_not_data(self):
        assert outcome("stockholm", "\ufeff2000 1 1 1.5 9\n") == outcome(
            "stockholm", "2000 1 1 1.5 9\n")
        assert len(parse_stockholm("\ufeff2000 1 1 1.5 9\n")) == 1
        # only one mark is dropped, as utf-8-sig drops one from a file
        with pytest.raises(ParseError, match="^line 1: "):
            parse_stockholm("\ufeff\ufeff2000 1 1 1.5 9\n")

    def test_invalid_calendar_date(self):
        with pytest.raises(CalendarError):
            parse_stockholm("1756 2 30 0.0")

    def test_short_line_reports_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_stockholm("1756 1 1 -1.2\n1756 1 2\n")
        assert err.value.line_number == 2

    def test_non_finite_value_reports_line_number(self):
        for text in ("nan", "-inf"):
            with pytest.raises(ParseError) as err:
                parse_stockholm(f"1756 1 1 -1.2\n1756 1 2 {text} 0.0\n")
            assert err.value.line_number == 2

    def test_non_numeric_fields(self):
        with pytest.raises(ParseError):
            parse_stockholm("1756 1 1 abc")
        with pytest.raises(ParseError):
            parse_stockholm("year 1 1 0.0")

    def test_calendar_agrees_with_datetime(self):
        """Every day of these years reads as datetime.date has it; days past a month are refused."""
        years = [1, 4, 100, 400, 1582, 1700, 1900, 1970, 2000, 2023, 2024, 9999]
        days = [datetime.date(y, m, 1) + datetime.timedelta(days=i)
                for y in years for m in range(1, 13) for i in range(31)]
        days = sorted({d for d in days if d.year in years})
        records = parse_stockholm("".join(f"{d.year} {d.month} {d.day} 0\n" for d in days))
        assert records.dates.tolist() == days
        for y in years:
            for m in range(1, 13):
                for d in (0, calendar.monthrange(y, m)[1] + 1):
                    with pytest.raises(CalendarError):
                        parse_stockholm(f"{y} {m} {d} 0")
        ends = parse_stockholm("1 1 1 0\n9999 12 31 0\n").dates.tolist()
        assert ends == [datetime.date.min, datetime.date.max]


class TestParseCsv:
    def test_minimal_file(self):
        records = parse_csv("date,value\n2000-01-01,3.5\n")
        assert list(records) == [SeriesRecord(day("2000-01-01"), 3.5)]

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_csv("2000-01-01,3.5\n")
        with pytest.raises(ParseError):
            parse_csv("")

    def test_non_numeric_value_reports_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_csv("date,value\n2000-01-01,3.5\n2000-01-02,oops\n")
        assert err.value.line_number == 3

    def test_non_finite_value_reports_line_number(self):
        for text in ("nan", "inf", "-Infinity"):
            with pytest.raises(ParseError) as err:
                parse_csv(f"date,value\n2000-01-01,3.5\n2000-01-02,{text}\n")
            assert err.value.line_number == 3

    def test_bad_iso_date(self):
        with pytest.raises(ParseError):
            parse_csv("date,value\n01/02/2000,3.5\n")

    def test_invalid_calendar_date(self):
        with pytest.raises(CalendarError):
            parse_csv("date,value\n2000-02-30,3.5\n")

    def test_byte_order_mark_of_a_text_is_not_data(self):
        text = "date,value\n2000-01-01,1.5\n"
        assert outcome("csv", "\ufeff" + text) == outcome("csv", text)
        assert outcome("csv", "\ufeff# note\n" + text) == outcome("csv", text)

    def test_comment_lines_skipped(self):
        text = "# generated\n# seed=1\ndate,value\n2000-01-01,1\n# tail note\n"
        records = parse_csv(text)
        assert len(records) == 1


def make_records(days, values):
    return Records(np.array(days, dtype="datetime64[D]"), np.array(values, dtype=float))


class TestToIndexed:
    def test_contiguous_round_trip(self):
        records = make_records(
            ["2000-01-01", "2000-01-02", "2000-01-03"], [1.25, -2.5, 0.125]
        )
        series = to_indexed(records)
        assert series.values.dtype == np.float64
        assert series.values.tolist() == [1.25, -2.5, 0.125]  # bit exact
        assert series.filled == ()

    def test_index_date_bijection(self):
        records = make_records(["2000-01-01", "2000-01-02", "2000-01-03"], [0, 0, 0])
        series = to_indexed(records)
        assert iso_date_range(series.origin, 1, len(series.values) + 1) == [
            r.date.isoformat() for r in records
        ]

    def test_gap_fails_by_default(self):
        records = make_records(["2000-01-01", "2000-01-03"], [1.0, 3.0])
        with pytest.raises(GapError) as err:
            to_indexed(records)
        assert "2000-01-02" in str(err.value)

    def test_gap_interpolated_midpoint(self):
        records = make_records(["2000-01-01", "2000-01-03"], [1.0, 3.0])
        series = to_indexed(records, gap_policy="interpolate")
        assert series.values[1] == pytest.approx(2.0)
        assert series.filled == (day("2000-01-02"),)

    def test_multi_day_gap_linear(self):
        records = make_records(["2000-01-01", "2000-01-05"], [0.0, 4.0])
        series = to_indexed(records, gap_policy="interpolate")
        assert series.values.tolist() == pytest.approx([0, 1, 2, 3, 4])

    def test_gap_previous_holds_value(self):
        records = make_records(["2000-01-01", "2000-01-03"], [1.0, 3.0])
        series = to_indexed(records, gap_policy="previous")
        assert series.values[1] == 1.0

    def test_span_must_lie_within_data(self):
        records = make_records(["2000-01-02", "2000-01-03"], [1.0, 2.0])
        with pytest.raises(RangeError):
            to_indexed(records, start=day("2000-01-01"))
        with pytest.raises(RangeError):
            to_indexed(records, end=day("2000-01-04"))
        with pytest.raises(RangeError):
            to_indexed(records, start=day("2000-01-03"), end=day("2000-01-02"))

    def test_subspan_selection(self):
        records = make_records(
            ["2000-01-01", "2000-01-02", "2000-01-03", "2000-01-04"], [1, 2, 3, 4]
        )
        series = to_indexed(records, start=day("2000-01-02"), end=day("2000-01-03"))
        assert series.values.tolist() == [2, 3]
        assert series.origin == day("2000-01-02")

    def test_unsorted_input_rejected(self):
        records = make_records(["2000-01-02", "2000-01-01"], [1.0, 2.0])
        with pytest.raises(CalendarError):
            to_indexed(records)
        records = make_records(["2000-01-01", "2000-01-01"], [1.0, 2.0])
        with pytest.raises(CalendarError):
            to_indexed(records)

    def test_empty_input(self):
        with pytest.raises(RangeError):
            to_indexed(make_records([], []))

    @pytest.mark.parametrize("bound", [
        "2000-01-01", 730120, datetime.datetime(2000, 1, 1), np.datetime64("2000-01-01"), 0,
    ], ids=["string", "int", "datetime", "datetime64", "zero"])
    @pytest.mark.parametrize("name", ["start", "end"])
    def test_span_bound_is_a_date_or_none(self, name, bound):
        records = make_records(["2000-01-01", "2000-01-02"], [1.0, 2.0])
        with pytest.raises(RangeError, match=re.escape(
                f"{name} must be a datetime.date or None, got {bound!r}")):
            to_indexed(records, **{name: bound})


class TestIsoDates:
    """``iso_date_range`` against date arithmetic at both ends of the calendar."""

    @pytest.mark.parametrize("first, last", [
        ("0001-01-01", "0009-03-01"),
        ("9991-10-30", "9999-12-31"),
    ], ids=["origin-0001-01-01", "ends-9999-12-31"])
    def test_dates_follow_date_arithmetic(self, first, last):
        first, last = day(first), day(last)
        days = (last - first).days + 1
        dates = np.datetime64(first, "D") + np.arange(days)
        series = to_indexed(make_records(dates, np.zeros(days)))
        want = [date_of(first, k) for k in range(1, days + 1)]
        assert iso_date_range(series.origin, 1, len(series.values) + 1) == want
        assert want[-1] == last.isoformat()

    @pytest.mark.parametrize("origin, start, stop", [
        ("0001-01-01", 1, 3000),
        ("1900-02-27", 1, 800),              # no Feb 29 in 1900
        ("2000-02-27", 1, 800),              # Feb 29 in 2000
        ("2023-12-30", 50, 900),             # Feb 29 in 2024, from k = 50 on
        ("2100-02-01", 20, 40),              # no Feb 29 in 2100
        ("9999-12-01", 1, 32),               # through 9999-12-31
        ("0001-01-01", 3652059 - 5, 3652060),  # the last days of 9999 from 0001-01-01
    ])
    def test_date_range_is_iso_dates(self, origin, start, stop):
        got = iso_date_range(day(origin), start, stop)
        assert got == [date_of(day(origin), k) for k in range(start, stop)]
        assert all(type(text) is str for text in got)

    def test_date_range_over_the_whole_calendar(self):
        # the first and last day of every 37th year, and of the leap-rule years
        origin = day("0001-01-01")
        for year in [*range(1, 10000, 37), 4, 100, 400, 1600, 1900, 2000, 9996, 9999]:
            for first, last in [((year, 1, 1), (year, 1, 3)),
                                ((year, 12, 29), (year, 12, 31))]:
                start = (datetime.date(*first) - origin).days + 1
                stop = (datetime.date(*last) - origin).days + 2
                want = [date_of(origin, k) for k in range(start, stop)]
                assert iso_date_range(origin, start, stop) == want

    def test_dates_reach_both_ends_of_the_calendar(self):
        # the callers keep every index inside them: forecast's horizon and synth's length
        assert iso_date_range(day("9999-12-22"), 1, 11)[-1] == "9999-12-31"
        assert iso_date_range(day("0001-01-01"), 1, 2) == ["0001-01-01"]


def line_of(err):
    """The line number an ingest error names."""
    if isinstance(err, ParseError):
        return err.line_number
    return int(re.match(r"line (\d+): ", str(err)).group(1))


# Both layouts hold the same records.  Comment, blank and whitespace-only
# lines, tabs and extra columns are skipped or ignored; value columns 3-5 of
# the observatory layout carry distinct spellings of a float.
OBSERVATORY_TABLE = """\
# observatory layout, columns: year month day v3 v4 v5 flag

1756 1 1 -1.2 -1.1 1e-3 1
   \t
  # an indented comment
1756\t1\t2\t-4.0\t+.5\t5. x y z
 1756  2 29   0.1   -0   1E2   # a trailing note after the columns
1900 2 28 2.675 -3.7 0.30000000000000004 0
9999 12 31 1e300 -1e-300 123456789.123456789 0
"""

CSV_TABLE = """\
# csv layout

date,value
1756-01-01,-1.2
   \t
  # an indented comment
1756-01-02,\t+.5
1756-02-29,   -0
1900-02-28,2.675 \t
9999-12-31,123456789.123456789
"""


def reference_rows(text, fmt, value_column):
    """(date, value) per data line, read with date() and float() one line at a time."""
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or line == "date,value":
            continue
        if fmt == "csv":
            date_text, value_text = line.split(",")
            rows.append((day(date_text), float(value_text)))
        else:
            tokens = line.split()
            rows.append((datetime.date(*map(int, tokens[:3])), float(tokens[value_column])))
    return rows


def parse(fmt, text, value_column=3):
    return parse_csv(text) if fmt == "csv" else parse_stockholm(text, value_column)


@pytest.mark.parametrize(
    "fmt, text, value_column",
    [
        ("stockholm", OBSERVATORY_TABLE, 3),
        ("stockholm", OBSERVATORY_TABLE, 4),
        ("stockholm", OBSERVATORY_TABLE, 5),
        ("csv", CSV_TABLE, None),
    ],
    ids=["observatory-3", "observatory-4", "observatory-5", "csv"],
)
def test_grammar_accepts_layout(fmt, text, value_column):
    records = parse(fmt, text, value_column)
    expected = reference_rows(text, fmt, value_column)
    assert len(records) == len(expected) == 5
    assert [(r.date, r.value) for r in records] == expected
    assert [r.value.hex() for r in records] == [v.hex() for _, v in expected]  # -0.0 too
    assert records.dates.dtype == "datetime64[D]" and records.values.dtype == float
    assert records[-1] == SeriesRecord(*expected[-1])


BAD_LINE_AT = 7  # the bad line replaces this line (a data line) of the table


@pytest.mark.parametrize(
    "fmt, bad, error",
    [
        ("stockholm", "1756 2 3", ParseError),             # short line
        ("stockholm", "1756 2.0 3 5", ParseError),         # non-integer date field
        ("stockholm", "1756 feb 3 5", ParseError),
        ("stockholm", "1757 2 29 5", CalendarError),       # not a leap year
        ("stockholm", "1756 13 1 5", CalendarError),
        ("stockholm", "0 1 1 5", CalendarError),
        ("stockholm", "99999999999999999999 1 1 5", CalendarError),  # past int64
        ("stockholm", "1756 2 3 abc", ParseError),         # non-numeric
        ("stockholm", "1756 2 3 nan", ParseError),
        ("stockholm", "1756 2 3 -inf", ParseError),
        ("stockholm", "1756 2 3 5#x", ParseError),         # a glued '#' is not a comment
        ("stockholm", "1756 2 3 # 5", ParseError),
        ("csv", "1756-02-03", ParseError),                 # short line
        ("csv", "1756-02-03,1,2", ParseError),
        ("csv", "03/02/1756,5", ParseError),               # not an ISO date
        ("csv", "1757-02-29,5", CalendarError),
        ("csv", "1756-02-03,abc", ParseError),             # non-numeric
        ("csv", "1756-02-03,nan", ParseError),
        ("csv", "1756-02-03,Infinity", ParseError),
        ("csv", "1756-02-03,5#x", ParseError),             # a glued '#' is not a comment
    ],
)
def test_grammar_rejects_line(fmt, bad, error):
    lines = (CSV_TABLE if fmt == "csv" else OBSERVATORY_TABLE).splitlines()
    lines[BAD_LINE_AT - 1] = bad
    with pytest.raises(error) as err:
        parse(fmt, "\n".join(lines) + "\n")
    assert type(err.value) is error
    assert line_of(err.value) == BAD_LINE_AT


# Tokens that int(), float() and date.fromisoformat() read but the one-pass
# reader refuses: digit separators, non-ASCII digits, integers past 64 bits,
# basic and week ISO dates, whitespace around the CSV date, quoted cells.
@pytest.mark.parametrize(
    "fmt, bad",
    [
        ("stockholm", "1756 2 3 1_0.5"),
        ("stockholm", "1_756 2 3 5"),
        ("stockholm", "1756 2 3 ٥"),
        ("stockholm", "1756 2 ３ 5"),
        ("csv", "1756-02-03,1_0.5"),
        ("csv", "17560203,5"),
        ("csv", "1756-W05-7,5"),
        ("csv", " 1756-02-03,5"),
        ("csv", '1756-02-03,"5"'),
    ],
)
def test_grammar_narrowing_is_a_parse_error(fmt, bad):
    lines = (CSV_TABLE if fmt == "csv" else OBSERVATORY_TABLE).splitlines()
    lines[BAD_LINE_AT - 1] = bad
    with pytest.raises(ParseError) as err:
        parse(fmt, "\n".join(lines) + "\n")
    assert line_of(err.value) == BAD_LINE_AT


def test_oversized_quoted_cell_is_a_parse_error():
    """A cell past the csv module's field size limit names its line, in the header too."""
    huge = '"' + "1" * 140_000 + '"'
    with pytest.raises(ParseError) as err:
        parse_csv(f"date,value\n2000-01-01,1.0\n2000-01-02,{huge}\n2000-01-03,2.0\n")
    assert line_of(err.value) == 3
    with pytest.raises(ParseError) as err:
        parse_csv(f"# note\n{huge},value\n2000-01-01,1.0\n")
    assert line_of(err.value) == 2


def test_quoted_header_is_a_parse_error():
    """The header follows the data's rule: a quoted cell is refused."""
    with pytest.raises(ParseError) as err:
        parse_csv('# note\n"date","value"\n2000-01-01,1.0\n')
    assert line_of(err.value) == 2


@pytest.mark.parametrize(
    "first, second, error, words",
    [
        ("1756 2 3 1_0.5", "1756 2 4 nan", ParseError, "expected"),
        ("1756 2 3 nan", "1756 2 4 1_0.5", ParseError, "non-finite"),
        ("1757 2 29 5", "1756 2 4 1_0.5", CalendarError, "off the calendar"),
        ("1756 2 3 ٥", "1757 2 29 5", ParseError, "expected"),
    ],
    ids=["separator-then-nan", "nan-then-separator", "calendar-then-separator",
         "arabic-digit-then-calendar"],
)
def test_first_refused_line_is_named_whichever_stage_refuses_it(first, second, error, words):
    lines = OBSERVATORY_TABLE.splitlines()
    lines[BAD_LINE_AT - 1] = first
    lines[BAD_LINE_AT] = second
    with pytest.raises(error) as err:
        parse_stockholm("\n".join(lines) + "\n")
    assert type(err.value) is error
    assert line_of(err.value) == BAD_LINE_AT
    assert words in str(err.value)


# One token from each stage that refuses a line: the tokenizer, the ISO date
# shape, the calendar (a date field past 64 bits too) and the finiteness check.
REFUSED_TOKENS = ["1_0.5", "٥", '"5"', " 2000-01-01", "2000-02-30", "nan",
                  "99999999999999999999", "7" * 10_000]


def data_line_numbers(lines):
    return [no for no, raw in enumerate(lines, 1) if raw.strip()[:1] not in ("", "#")]


def mutate_table(rng, text):
    """One to three fields of random data lines replaced by refused tokens, or whole lines."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.choice(data_line_numbers(lines)) - 1
        sep = "," if "," in lines[i] else " "
        fields = lines[i].split(sep)
        if rng.random() < 0.2:
            fields = [rng.choice(REFUSED_TOKENS)]
        else:
            fields[rng.randrange(len(fields))] = rng.choice(REFUSED_TOKENS)
        lines[i] = sep.join(fields)
    return "\n".join(lines) + "\n"


def refused_alone(fmt, raw):
    """Whether the parser refuses ``raw`` as the only data line of a file."""
    try:
        parse(fmt, f"date,value\n{raw}\n" if fmt == "csv" else raw)
    except (ParseError, CalendarError):
        return True
    return False


def test_ingest_fuzz_names_the_first_refused_line():
    """Mutated tables end in records or in one short error naming the first refused data line."""
    rng = random.Random(7)
    kinds = set()
    for case in range(200):
        fmt = rng.choice(["csv", "stockholm"])
        text = mutate_table(rng, CSV_TABLE if fmt == "csv" else OBSERVATORY_TABLE)
        try:
            parse(fmt, text)
            continue
        except (ParseError, CalendarError) as err:
            error = err
        kinds.add((type(error), "non-finite" in str(error)))
        assert len(str(error)) < 200, f"case {case}: {text!r}"
        named = line_of(error)
        lines = text.splitlines()
        data = data_line_numbers(lines)
        assert named in data, f"case {case}: {text!r}"
        if fmt == "csv" and named == data[0]:
            continue  # the header
        body = data[1:] if fmt == "csv" else data
        assert refused_alone(fmt, lines[named - 1]), f"case {case}: {text!r}"
        earlier = [lines[no - 1] for no in body if no < named]
        assert not any(refused_alone(fmt, raw) for raw in earlier), f"case {case}: {text!r}"
    # the draws reach every refusal stage: tokenizer or date shape, calendar, finiteness
    assert kinds == {(ParseError, False), (ParseError, True), (CalendarError, False)}


# Pieces of the differential fuzz below: every break str.splitlines knows,
# lines only str.strip sees as blank, comments before and among the data,
# glued and trailing '#', and a few refused tokens.
UNIVERSAL_BREAKS = ["\n", "\r\n", "\r"]  # the breaks universal newlines read
LINE_BREAKS = [*UNIVERSAL_BREAKS, "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               " ", " "]
BLANK_LINES = ["", " ", "\t", "\x1f", "\xa0", " ", " \x1f\xa0  "]
COMMENT_LINES = ["# note", "  # indented", "#", "\t#1756 1 1 5"]
VALUES = ["-1.2", "0", "+.5", "1e3", "2.675", "-0"]
REFUSED_VALUES = ["abc", "nan", "1_0", "5#x"]


def fuzz_text(rng, fmt):
    """A small file of one layout built from the pieces above, with mixed line breaks.

    Most files break their lines only where universal newlines do, so that
    the reader's file pass sees them; the rest mix in every other break.
    Some start with a byte-order mark.
    """
    lines = [rng.choice(COMMENT_LINES + BLANK_LINES) for _ in range(rng.randint(0, 3))]
    if fmt == "csv":
        lines.append(rng.choice(["date,value", " Date , VALUE "]))
    when = datetime.date(1756, 1, 1) + datetime.timedelta(days=rng.randrange(100_000))
    for _ in range(rng.randint(0, 8)):
        draw = rng.random()
        if draw < 0.15:
            lines.append(rng.choice(BLANK_LINES))
            continue
        if draw < 0.2:
            lines.append(rng.choice(COMMENT_LINES))
            continue
        value = rng.choice(REFUSED_VALUES if draw < 0.25 else VALUES)
        if fmt == "csv":
            line = f"{when.isoformat()},{value}"
        else:
            line = f"{when.year} {when.month} {when.day} {value} 9.9"
            if rng.random() < 0.05:
                line += " # a trailing note"
        lines.append(line)
        when += datetime.timedelta(days=1)
    breaks = UNIVERSAL_BREAKS if rng.random() < 0.7 else LINE_BREAKS
    ends = [rng.choice(breaks) for _ in lines]
    if ends and rng.random() < 0.3:
        ends[-1] = ""
    # a byte-order mark, which a text and a file both drop, or two, of which they keep one
    mark = rng.choice(["\ufeff", "\ufeff\ufeff"]) if rng.random() < 0.15 else ""
    return mark + "".join(line + end for line, end in zip(lines, ends))


def outcome(fmt, source):
    """The records as dates and value bits, or the refusal's type and message."""
    try:
        records = parse(fmt, source)
    except (ParseError, CalendarError) as err:
        return type(err), str(err)
    return records.dates.tolist(), [value.hex() for value in records.values.tolist()]


def write(path, text):
    """``text`` as UTF-8 bytes, its line breaks as they are; returns ``path``."""
    path.write_bytes(text.encode("utf-8"))
    return path


class LoadCounter:
    """Stands in for ``ingest._load``: per call, whether it read a path and what it returned."""

    def __init__(self, monkeypatch):
        self.load = ingest._load
        self.calls = []
        monkeypatch.setattr(ingest, "_load", self)

    def __call__(self, rows, *args, **kwargs):
        self.calls.append((isinstance(rows, str), None))
        table = self.load(rows, *args, **kwargs)
        self.calls[-1] = (isinstance(rows, str), len(table))
        return table


@pytest.mark.parametrize("tail", ["  \n", " \t\n\n  \r\n", "\t"], ids=["spaces", "mixed", "no-newline"])
@pytest.mark.parametrize("fmt", ["csv", "stockholm"])
def test_whitespace_lines_among_and_after_the_data(monkeypatch, tmp_path, fmt, tail):
    """Whitespace-only lines that end or split the data change no record and no error.

    The observatory reader skips such lines, so its file pass accepts the
    file.  The comma reader refuses them, so a CSV file's pass is refused
    and its data lines are read instead: a second pass, on input that no
    writer of this package produces.
    """
    if fmt == "csv":
        text = "date,value\n2000-01-01,1.5\n2000-01-02,-2\n2000-01-03,0.25\n"
    else:
        text = "2000 1 1 1.5\n2000 1 2 -2\n2000 1 3 0.25\n"
    # the tail after the line that the refusal below names, so its number stays
    lines = text.splitlines(keepends=True)
    cut = 3 if fmt == "csv" else 2
    inside = "".join(lines[:cut]) + tail + ("" if tail.endswith("\n") else "\n") + "".join(lines[cut:])
    want = outcome(fmt, text)
    counter = LoadCounter(monkeypatch)
    for n, variant in enumerate([text + tail, inside]):
        for source in (variant, write(tmp_path / f"{n}.txt", variant)):
            counter.calls = []
            assert outcome(fmt, source) == want
            if isinstance(source, str):
                assert counter.calls == [(False, 3)], variant
            elif fmt == "stockholm":
                assert counter.calls == [(True, 3)], variant
            else:
                assert counter.calls == [(True, None), (False, 3)], variant
    # a refused line keeps its number and its message
    err = outcome(fmt, text.replace("-2", "x"))
    assert err[0] is ParseError and err[1].startswith(f"line {3 if fmt == 'csv' else 2}:")
    for n, variant in enumerate([text + tail, inside]):
        bad = variant.replace("-2", "x")
        assert outcome(fmt, bad) == outcome(fmt, write(tmp_path / f"bad{n}.txt", bad)) == err


def test_one_pass_reads_as_the_data_lines_alone(monkeypatch, tmp_path):
    """A file read by path gives the data-lines route's records or refusal, and its text's."""
    rng = random.Random(11)
    cases = [(fmt, fuzz_text(rng, fmt)) for _ in range(600) for fmt in ("csv", "stockholm")]

    exact = ingest._parse
    counter = LoadCounter(monkeypatch)
    fast, passes = [], []  # per case, the outcome and the reader's passes
    for n, (fmt, text) in enumerate(cases):
        counter.calls = []
        fast.append(outcome(fmt, write(tmp_path / f"{n}.txt", text)))
        passes.append(counter.calls)

    def data_lines_only(text, path, start, offset, convert, expected, skip=0):
        lines = text.splitlines()
        return exact(lines, ingest._data_lines(lines), convert, expected, skip)

    monkeypatch.setattr(ingest, "_read", data_lines_only)
    for n, ((fmt, text), got) in enumerate(zip(cases, fast)):
        assert got == outcome(fmt, tmp_path / f"{n}.txt") == outcome(fmt, text), f"{fmt}: {text!r}"
    # the draws reach the file pass, the fallback before it, and refusals
    accepted_by_path = sum(calls[0][0] and calls[0][1] is not None for calls in passes if calls)
    skipped = sum(calls != [] and not any(by_path for by_path, _ in calls) for calls in passes)
    refused = sum(not isinstance(o[0], list) for o in fast)
    assert accepted_by_path > 200
    assert skipped > 100
    assert refused > 100


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("fmt", ["csv", "stockholm"])
def test_a_line_at_any_position_reads_as_the_data_lines_alone(monkeypatch, tmp_path, fmt,
                                                                newline):
    """Whitespace-only, indented, comment and refused lines, inserted before each line or
    indenting it: a file gives its text's records or error, and the data lines' alone."""
    if fmt == "csv":
        lines = ["date,value", "2000-01-01,1.5", "2000-01-02,-2", "2000-01-03,0.25"]
        refused = "2000-01-04,x"
    else:
        lines = ["# observatory", "2000 1 1 1.5 9", "2000 1 2 -2 9", "2000 1 3 0.25 9"]
        refused = "2000 1 4 x 9"
    texts = []
    for i in range(len(lines) + 1):
        for extra in (" \t ", "\t", "  # indented note", "# note", refused, " " + refused):
            texts.append(newline.join([*lines[:i], extra, *lines[i:]]) + newline)
        if i < len(lines):
            texts.append(newline.join([*lines[:i], "  " + lines[i], *lines[i + 1:]]) + newline)
    by_path = [outcome(fmt, write(tmp_path / f"{n}.txt", text)) for n, text in enumerate(texts)]

    exact = ingest._parse

    def data_lines_only(text, path, start, offset, convert, expected, skip=0):
        lines = text.splitlines()
        return exact(lines, ingest._data_lines(lines), convert, expected, skip)

    monkeypatch.setattr(ingest, "_read", data_lines_only)
    for n, (text, got) in enumerate(zip(texts, by_path)):
        assert got == outcome(fmt, text) == outcome(fmt, tmp_path / f"{n}.txt"), repr(text)
    # both records and refusals are among the outcomes
    assert {isinstance(got[0], list) for got in by_path} == {True, False}


ARCHIVE = "# observatory\n\n1756 1 1 -1.2 1\n1756 1 2 -4.0 2\n1756 1 3 -6.3 3\n"
SERIES = "# note\ndate,value\n1756-01-01,-1.2\n1756-01-02,-4.0\n1756-01-03,-6.3\n"


class TestFileSources:
    """Files read by path give their text's records and errors, by the file pass where it can."""

    @pytest.mark.parametrize("fmt", ["stockholm", "csv"])
    @pytest.mark.parametrize("form, by_path", [
        ("crlf", True), ("cr", True), ("bom", True), ("form-feed", False), ("hash", False),
    ], ids=["crlf", "cr", "bom", "form-feed", "hash"])
    def test_line_breaks_bom_and_comments(self, monkeypatch, tmp_path, fmt, form, by_path):
        text = ARCHIVE if fmt == "stockholm" else SERIES
        want = outcome(fmt, text)
        if form == "crlf":
            text = text.replace("\n", "\r\n")
        elif form == "cr":
            text = text.replace("\n", "\r")
        elif form == "bom":
            text = "\ufeff" + text
        elif form == "form-feed":
            text = text.replace("\n", "\x0c", 3)
        else:
            text += "# a note after the data\n"
        counter = LoadCounter(monkeypatch)
        assert outcome(fmt, write(tmp_path / "data.txt", text)) == want
        assert counter.calls == [(by_path, 3)]
        # a refused line is named by the line number of the text as written
        bad = text.replace("-4.0", "x")
        named = outcome(fmt, write(tmp_path / "bad.txt", bad))
        assert named[0] is ParseError and named[1].startswith("line 4:")

    def test_relative_path(self, monkeypatch, tmp_path):
        write(tmp_path / "series.csv", SERIES)
        monkeypatch.chdir(tmp_path)
        want = outcome("csv", SERIES)
        counter = LoadCounter(monkeypatch)
        assert outcome("csv", Path("series.csv")) == want
        assert counter.calls == [(True, 3)]

    @pytest.mark.parametrize("name", ["x.gz", "x.bz2", "x.XZ", "x.lzma"])
    def test_plain_text_under_a_compressed_suffix(self, monkeypatch, tmp_path, name):
        want = outcome("csv", SERIES)
        counter = LoadCounter(monkeypatch)
        assert outcome("csv", write(tmp_path / name, SERIES)) == want
        assert counter.calls == [(False, 3)]

    @pytest.mark.parametrize("feed", ["stdin-pipe", "fifo"])
    def test_a_pipe_is_read_once(self, tmp_path, feed):
        """``--input`` on a pipe: it reads empty the second time, so its text is all there is."""
        text = "".join(f"{d.year} {d.month} {d.day} {(d.day * 7919) % 101 / 10} 9\n" for d in
                       (datetime.date(1756, 1, 1) + datetime.timedelta(days=i)
                        for i in range(400)))
        regular = write(tmp_path / "archive.txt", text)
        flags = ["--format", "stockholm", "--period", "40", "--harmonics", "2",
                 "--window", "60", "--profile", "exponential", "--lambda", "0.97"]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

        def fit(source, **kwargs):
            argv = [sys.executable, "-m", "segrls.cli", "fit", "--input", source, *flags]
            return subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    text=True, env=env, **kwargs)

        def rows(child, feed_text=None):
            out, err = child.communicate(feed_text, timeout=60)
            assert child.returncode == 0, err
            return [line for line in out.splitlines() if not line.startswith("# input=")]

        want = rows(fit(str(regular)))
        assert sum(line[:1].isdigit() for line in want) == 400 - 60 + 1  # every record
        if feed == "stdin-pipe":
            assert rows(fit("/dev/stdin", stdin=subprocess.PIPE), text) == want
        else:
            fifo = tmp_path / "fifo"
            os.mkfifo(fifo)
            child = fit(str(fifo))
            # opening the FIFO to write waits for the child to open it to read
            writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
            writer.start()
            try:
                assert rows(child) == want
            finally:
                child.kill()
            writer.join(timeout=60)
            assert not writer.is_alive()


# Gaps of 1, 2, 3 and 6 days between irregular values; spans that start or end
# inside a gap.
GAPPY = make_records(
    ["2000-01-01", "2000-01-02", "2000-01-04", "2000-01-07", "2000-01-08",
     "2000-01-12", "2000-01-19", "2000-01-20"],
    [0.1, -3.7, 2.675, 1e-3, -0.0, 123456.789, -2.5e-7, 7.3],
)


def scalar_fill(records, start, end, policy):
    """Values and filled days of [start, end], one day at a time, by the scalar formulas."""
    known = {r.date: r.value for r in records}
    values, filled = [], []
    when = start
    while when <= end:
        if when in known:
            values.append(known[when])
        else:
            left = max(d for d in known if d < when)
            right = min(d for d in known if d > when)
            if policy == "previous":
                values.append(known[left])
            else:
                frac = (when - left).days / (right - left).days
                values.append(known[left] + frac * (known[right] - known[left]))
            filled.append(when)
        when += datetime.timedelta(days=1)
    return values, tuple(filled)


@pytest.mark.parametrize("policy", ["interpolate", "previous"])
@pytest.mark.parametrize(
    "start, end",
    [
        ("2000-01-01", "2000-01-20"),  # the whole data span
        ("2000-01-03", "2000-01-18"),  # both ends inside a gap
        ("2000-01-05", "2000-01-12"),
        ("2000-01-09", "2000-01-09"),  # one filled day
    ],
)
def test_gap_fill_is_bit_identical_to_the_scalar_formula(policy, start, end):
    series = to_indexed(GAPPY, start=day(start), end=day(end), gap_policy=policy)
    values, filled = scalar_fill(GAPPY, day(start), day(end), policy)
    assert [y.hex() for y in series.values.tolist()] == [v.hex() for v in values]
    assert series.filled == filled
    assert series.origin == day(start)
