import datetime

import pytest

from segrls.errors import CalendarError, GapError, ParseError, RangeError
from segrls.ingest import SeriesRecord, parse_csv, parse_stockholm, to_indexed

STOCKHOLM_SAMPLE = """\
# Stockholm daily mean temperatures (sample)
1756 1 1 -1.2 -1.1 1
1756 1 2 -4.0 -3.9 1
1756 1 3 -6.3 -6.2 1
"""


def day(text):
    return datetime.date.fromisoformat(text)


class TestParseStockholm:
    def test_basic_layout(self):
        records = parse_stockholm(STOCKHOLM_SAMPLE)
        assert records[0] == SeriesRecord(day("1756-01-01"), -1.2)
        assert len(records) == 3

    def test_comments_and_blank_lines_skipped(self):
        assert parse_stockholm("# only a comment\n\n") == []

    def test_value_column_selection(self):
        records = parse_stockholm(STOCKHOLM_SAMPLE, value_column=4)
        assert records[0].value == -1.1
        with pytest.raises(ValueError):
            parse_stockholm(STOCKHOLM_SAMPLE, value_column=2)

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


class TestParseCsv:
    def test_minimal_file(self):
        records = parse_csv("date,value\n2000-01-01,3.5\n")
        assert records == [SeriesRecord(day("2000-01-01"), 3.5)]

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

    def test_comment_lines_skipped(self):
        text = "# generated\n# seed=1\ndate,value\n2000-01-01,1\n# tail note\n"
        records = parse_csv(text)
        assert len(records) == 1


def make_records(days, values):
    return [SeriesRecord(day(d), v) for d, v in zip(days, values)]


class TestToIndexed:
    def test_contiguous_round_trip(self):
        records = make_records(
            ["2000-01-01", "2000-01-02", "2000-01-03"], [1.25, -2.5, 0.125]
        )
        series = to_indexed(records)
        assert [s.k for s in series.samples] == [1, 2, 3]
        assert [s.y for s in series.samples] == [1.25, -2.5, 0.125]  # bit exact
        assert series.filled == ()

    def test_index_date_bijection(self):
        records = make_records(["2000-01-01", "2000-01-02", "2000-01-03"], [0, 0, 0])
        series = to_indexed(records)
        for sample in series.samples:
            assert series.index_of(series.date_of(sample.k)) == sample.k

    def test_gap_fails_by_default(self):
        records = make_records(["2000-01-01", "2000-01-03"], [1.0, 3.0])
        with pytest.raises(GapError) as err:
            to_indexed(records)
        assert "2000-01-02" in str(err.value)

    def test_gap_interpolated_midpoint(self):
        records = make_records(["2000-01-01", "2000-01-03"], [1.0, 3.0])
        series = to_indexed(records, gap_policy="interpolate")
        assert series.samples[1].y == pytest.approx(2.0)
        assert series.filled == (day("2000-01-02"),)

    def test_multi_day_gap_linear(self):
        records = make_records(["2000-01-01", "2000-01-05"], [0.0, 4.0])
        series = to_indexed(records, gap_policy="interpolate")
        assert [s.y for s in series.samples] == pytest.approx([0, 1, 2, 3, 4])

    def test_gap_previous_holds_value(self):
        records = make_records(["2000-01-01", "2000-01-03"], [1.0, 3.0])
        series = to_indexed(records, gap_policy="previous")
        assert series.samples[1].y == 1.0

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
        assert [s.y for s in series.samples] == [2, 3]
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
            to_indexed([])
