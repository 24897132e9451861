import importlib.util
import os
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "mutants.py"
_SPEC = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

Mutant = mutants.Mutant


def fake_src(root):
    """A tiny source tree: src/segrls/a.py, b.py and a bytecode cache."""
    pkg = root / "src" / "segrls"
    (pkg / "__pycache__").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1 + 2\ny = x * 3\n")
    (pkg / "b.py").write_text("z = 4\nz = 4\n")
    (pkg / "__pycache__" / "a.pyc").write_bytes(b"\0")
    return root / "src"


def test_a_mutant_is_applied_once_to_a_copy_and_the_source_is_left_alone(tmp_path):
    src = fake_src(tmp_path)
    copy = tmp_path / "copy"
    assert mutants.mutate(src, copy, Mutant("plus", "a.py", "1 + 2", "1 - 2"))
    assert (copy / "segrls" / "a.py").read_text() == "x = 1 - 2\ny = x * 3\n"
    assert (copy / "segrls" / "b.py").read_text() == "z = 4\nz = 4\n"
    assert not (copy / "segrls" / "__pycache__").exists()
    assert (src / "segrls" / "a.py").read_text() == "x = 1 + 2\ny = x * 3\n"


@pytest.mark.parametrize("mutant", [
    Mutant("absent", "a.py", "1 + 3", "1 - 3"),
    Mutant("twice", "b.py", "z = 4", "z = 5"),
    Mutant("no such file", "c.py", "x", "y"),
], ids=["absent", "twice", "no-file"])
def test_a_mutant_that_does_not_match_exactly_once_is_stale_and_never_runs(
        tmp_path, capsys, mutant):
    runs = []
    code = mutants.check([mutant], fake_src(tmp_path), lambda src: runs.append(src) or 1)
    assert code == 1 and runs == []
    line, = capsys.readouterr().out.splitlines()
    assert line.startswith("STALE ") and line.endswith(f"{mutant.path}: {mutant.name}")


def test_one_line_per_mutant_and_exit_1_unless_every_one_is_killed(tmp_path, capsys):
    src = fake_src(tmp_path)
    plus, times = Mutant("plus", "a.py", "1 + 2", "1 - 2"), Mutant("times", "a.py", "* 3", "* 4")
    seen = []

    def run(copy):
        # the suite sees the mutated copy, never the source tree
        seen.append((copy / "segrls" / "a.py").read_text())
        return codes.pop(0)

    codes = [1, 1]
    assert mutants.check([plus, times], src, run) == 0
    assert seen == ["x = 1 - 2\ny = x * 3\n", "x = 1 + 2\ny = x * 4\n"]
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == [
        "killed", "killed"]

    for last, status in [(0, "SURVIVED"), (2, "ERROR"), (5, "ERROR")]:
        codes = [1, last]
        assert mutants.check([plus, times], src, run) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["killed", status]
        assert lines[1].endswith("a.py: times")
    assert "pytest exit 5" in mutants.outcome(5)


def test_the_suite_runs_with_the_copy_first_on_the_path(tmp_path, monkeypatch):
    calls = []

    def fake_run(argv, **kwargs):
        calls.append((argv, kwargs))
        return type("Done", (), {"returncode": 1})()

    monkeypatch.setattr(mutants.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    assert mutants.run_tier1(tmp_path / "src") == 1
    (argv, kwargs), = calls
    assert argv[1:] == ["-m", "pytest", "-q", "--continue-on-collection-errors",
                        "-p", "no:cacheprovider", "-x"]
    assert kwargs["cwd"] == mutants.ROOT
    assert kwargs["env"]["PYTHONPATH"] == os.pathsep.join([str(tmp_path / "src"), "elsewhere"])


def test_every_listed_mutant_matches_the_source_exactly_once():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(names) == len(set(names))
    for mutant in mutants.MUTANTS:
        text = (mutants.ROOT / "src" / "segrls" / mutant.path).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old, mutant.name
