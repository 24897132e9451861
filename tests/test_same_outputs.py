import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def result(**changes):
    return {"rc": 0, "stdout": "[A1] PASS (*s) ok\n", "stderr": "fit: 3 steps\n",
            "output": "ab12", **changes}


def test_mask_hides_only_the_elapsed_field_of_verify_lines():
    text = ("[A1] PASS (0.1s) segmented: max theta dev 6.28e-15 (tol 1e-6)\n"
            "[A10] FAIL (12s) coverage 0.800 over 10 forecasts\n"
            "fit: 3 steps, rmse 1.5 (0.2s)\n")
    assert same_outputs.mask(text) == (
        "[A1] PASS (*s) segmented: max theta dev 6.28e-15 (tol 1e-6)\n"
        "[A10] FAIL (*s) coverage 0.800 over 10 forecasts\n"
        "fit: 3 steps, rmse 1.5 (0.2s)\n")
    assert same_outputs.mask("[A1] PASS (0.1s) x") == same_outputs.mask("[A1] PASS (9.7s) x")
    assert same_outputs.mask("[A1] PASS (0.1s) x") != same_outputs.mask("[A1] FAIL (0.1s) x")


def test_identical_results_have_no_differences():
    assert same_outputs.differences(result(), result()) == []


@pytest.mark.parametrize("field, value", [
    ("rc", 2), ("stdout", "[A1] FAIL (*s) ok\n"), ("stderr", ""), ("output", None),
])
def test_each_field_is_compared(field, value):
    diff = same_outputs.differences(result(), result(**{field: value}))
    assert len(diff) == 1 and diff[0].startswith(f"{field}: ")


def test_output_is_the_sha256_of_the_file_or_none(tmp_path):
    path = tmp_path / "out.csv"
    assert same_outputs.sha256(path) is None
    path.write_bytes(b"k,date\n")
    assert same_outputs.sha256(path) == (
        "754dcf1f85dd539009310ed9512ed3893efddd6d37c4fb62300d3ccbb2eb5a0c")


def test_a_command_writes_its_output_into_the_given_directory(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    argv = ["synth", "--length", "5", "--output", str(tmp_path / "elsewhere" / "s.csv")]
    got = same_outputs.run_command(src, argv, tmp_path)
    assert (got["rc"], got["stdout"], got["stderr"]) == (0, "", "synth: wrote 5 samples\n")
    assert got["output"] == same_outputs.sha256(tmp_path / "s.csv") is not None
    assert not (tmp_path / "elsewhere").exists()


def test_archive_copies_take_each_route_and_error():
    from segrls.errors import CalendarError, ParseError
    from segrls.ingest import parse_stockholm

    text = "# archive\n" + "".join(f"1800 1 {d} {d}.5 {d}.25 0\n" for d in range(1, 11))
    want = parse_stockholm(text)
    copies = same_outputs._archive_copies(text)
    for name in ("hash", "crlf", "formfeed"):
        got = parse_stockholm(copies[name])
        assert got.dates.tolist() == want.dates.tolist(), name
        assert got.values.tolist() == want.values.tolist(), name
    middle = len(text.split("\n")) // 2 + 1
    for name, error in (("refused", ParseError), ("offcalendar", CalendarError)):
        with pytest.raises(error, match=f"line {middle}:"):
            parse_stockholm(copies[name])
