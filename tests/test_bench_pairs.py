import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

import segrls

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower"},
           {"name": "steps_per_s", "unit": "1/s", "better": "higher"}]


def run(wall, steps, failed=0):
    return {"seed": 1, "result": {"attempted": 2, "failed": failed, "metrics": {
        "wall_s": {"value": wall, "unit": "s"},
        "steps_per_s": {"value": steps, "unit": "1/s"}}}}


def test_wins_follow_the_better_direction_and_ties_count_for_neither():
    runs = {"base": [run(3.0, 10), run(3.0, 10), run(2.0, 10), {"seed": 4, "error": "x"}],
            "change": [run(2.0, 12), run(3.0, 10), run(2.5, 9), run(1.0, 20)]}
    summary = bench_pairs.summarize(runs, METRICS)
    assert summary["wall_s"]["change_wins"] == 1
    assert summary["steps_per_s"]["change_wins"] == 1
    assert summary["wall_s"]["pairs"] == 3          # a pair without a result is left out
    assert summary["wall_s"]["base"] == {"median": 3.0, "q1": 2.5, "q3": 3.0}
    assert bench_pairs.tally(runs["base"]) == {
        "failed": 0, "attempted": 6, "runs_without_result": 1}


def test_spread_of_one_run_is_that_run():
    assert bench_pairs.spread([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0}
    assert bench_pairs.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
        {"median": 3.0, "q1": 2.0, "q3": 4.0})


def test_src_lines_counts_newlines_of_the_package_modules_only(tmp_path):
    pkg = tmp_path / "src" / "segrls"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n\ny = 2\n")
    (pkg / "b.py").write_text("z = 3")              # no final newline: wc -l counts 0
    (pkg / "notes.txt").write_text("not\ncode\n")
    (pkg / "sub" / "c.py").write_text("w = 4\n")
    assert bench_pairs.src_lines(tmp_path) == 3


def test_public_names_counts_all_without_importing_the_package(tmp_path):
    pkg = tmp_path / "src" / "segrls"
    pkg.mkdir(parents=True)
    # an import that would fail, and a second list that is not __all__
    (pkg / "__init__.py").write_text('import no_such_module\nnames = ["x"]\n'
                                     '__all__ = [\n    "a",\n    "b",\n    "c",\n]\n')
    assert bench_pairs.public_names(tmp_path) == 3
    assert bench_pairs.public_names(bench_pairs.ROOT) == len(segrls.__all__)
    (pkg / "__init__.py").write_text("names = []\n")
    with pytest.raises(ValueError, match="no __all__ in "):
        bench_pairs.public_names(tmp_path)


def test_working_tree_export_holds_the_bench_paths_without_caches(tmp_path):
    root = tmp_path / "root"
    for name in ("src/segrls/cli.py", "src/segrls/__pycache__/cli.pyc", "perfbench/run.py",
                 "perfbench/.perfbench_out/x.json", "perfbench/tests/test_a.py",
                 "tests/test_cli.py", "tests/.pytest_cache/v/x", "scripts/bench_pairs.py",
                 "README.md", "BENCH_1.json"):
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(name)
    (root / "BENCHMARK.json").write_text("{}")
    (root / "pyproject.toml").write_text("[tool.pytest.ini_options]\n")
    bench_pairs.export_working_tree(root, tmp_path / "change")
    copied = sorted(str(p.relative_to(tmp_path / "change"))
                    for p in (tmp_path / "change").rglob("*") if p.is_file())
    assert copied == ["BENCHMARK.json", "perfbench/run.py", "perfbench/tests/test_a.py",
                      "pyproject.toml", "scripts/bench_pairs.py", "src/segrls/cli.py",
                      "tests/test_cli.py"]
    assert (tmp_path / "change" / "src" / "segrls" / "cli.py").read_text() == "src/segrls/cli.py"


# pytest -q --durations=3 output, as a Tier-1 run prints it
DURATIONS_OUTPUT = """\
........................................................................ [ 50%]
.......s.s.............................................................. [100%]
============================= slowest 3 durations ==============================
6.71s call     tests/test_acceptance.py::TestVerify::test_pass_is_seed_independent
2.90s call     tests/test_linalg.py::TestSameBits::test_guard[draws 1-20000]
0.52s setup    tests/test_cli.py::test_fit

(1 durations < 0.005s hidden.  Use -vv to show these durations.)
=========================== short test summary info ============================
SKIPPED [1] tests/test_acceptance.py:96: 1.50s call     not a durations row
585 passed, 2 skipped in 23.61s
"""


def test_durations_reads_only_the_durations_table():
    assert bench_pairs.durations(DURATIONS_OUTPUT) == [
        [6.71, "call", "tests/test_acceptance.py::TestVerify::test_pass_is_seed_independent"],
        [2.90, "call", "tests/test_linalg.py::TestSameBits::test_guard[draws 1-20000]"],
        [0.52, "setup", "tests/test_cli.py::test_fit"],
    ]
    assert bench_pairs.durations("585 passed in 1.00s\n") == []


def tier1_run(wall, returncode=0, slowest=()):
    return {"wall_s": wall, "returncode": returncode, "summary": "", "slowest": list(slowest)}


def test_tier1_summary_gives_wall_spread_failed_runs_and_median_slowest_phases():
    rows = bench_pairs.durations(DURATIONS_OUTPUT)
    runs = {
        "base": [tier1_run(20.0, slowest=rows), tier1_run(22.0, slowest=rows[:1]),
                 tier1_run(21.0, 1)],
        "change": [tier1_run(30.0, slowest=[[9.0, "call", "t::a"], *rows[1:]]),
                   tier1_run(24.0, slowest=[[1.0, "call", "t::a"], [0.1, "call", "t::b"],
                                            [0.2, "call", "t::c"], [0.3, "call", "t::d"]]),
                   tier1_run(26.0, slowest=[[2.0, "call", "t::a"]])],
    }
    summary = bench_pairs.summarize_tier1(runs)
    assert summary["base"] == {
        "median": 21.0, "q1": 20.5, "q3": 21.5, "failed_runs": 1,
        "slowest": [[6.71, "call", rows[0][2]], [2.90, "call", rows[1][2]],
                    [0.52, "setup", rows[2][2]]]}
    change = summary["change"]
    assert (change["median"], change["q1"], change["q3"]) == (26.0, 25.0, 28.0)
    assert change["failed_runs"] == 0
    # each phase at the median of the runs that list it; five at most, slowest first
    assert change["slowest"] == [[2.90, "call", rows[1][2]], [2.0, "call", "t::a"],
                                 [0.52, "setup", rows[2][2]], [0.3, "call", "t::d"],
                                 [0.2, "call", "t::c"]]


@pytest.mark.parametrize("argv", [
    ["verify", "--pr", "x", "--base", "HEAD"],        # a workload needs its pair count
    ["verify:0", "--pr", "x", "--base", "HEAD"],
    ["nosuch:3", "--pr", "x", "--base", "HEAD"],
    ["verify:3", "--pr", "x"],                        # the base is never implied
])
def test_bad_arguments_exit_2_before_any_run(argv):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2


def test_drop_bytecode_deletes_every_pycache_and_nothing_else(tmp_path):
    for name in ("src/segrls/__pycache__/cli.cpython-311.pyc", "src/segrls/cli.py",
                 "perfbench/tests/__pycache__/t.pyc", "tests/__pycache__/x.pyc",
                 "tests/test_cli.py"):
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(name)
    bench_pairs.drop_bytecode(tmp_path)
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()) == [
        "src/segrls/cli.py", "tests/test_cli.py"]
    assert not list(tmp_path.rglob("__pycache__"))


def test_workloads_start_without_the_bytecode_tier1_left(tmp_path, monkeypatch):
    # a throwaway repository with the bench paths; Tier-1 writes bytecode into
    # each checkout, and no workload may find it there
    root = tmp_path / "root"
    for name in ("src/segrls/__init__.py", "perfbench/run.py", "tests/test_a.py",
                 "scripts/s.py", "pyproject.toml"):
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text("__all__ = []\n")
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": METRICS}))
    for argv in (["init", "-q"], ["add", "-A"],
                 ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "x"]):
        subprocess.run(["git", *argv], cwd=root, check=True, capture_output=True)
    events = []

    def fake_tier1(checkout):
        (checkout / "src" / "segrls" / "__pycache__").mkdir(exist_ok=True)
        (checkout / "src" / "segrls" / "__pycache__" / "x.pyc").write_bytes(b"\0")
        events.append("tier1")
        return tier1_run(1.0)

    def fake_once(checkout, workload, seed, seconds):
        events.append(sorted(str(p.relative_to(checkout)) for p in checkout.rglob("__pycache__")))
        return run(1.0, 2.0)

    monkeypatch.setattr(bench_pairs, "ROOT", root)
    monkeypatch.setattr(bench_pairs, "run_tier1", fake_tier1)
    monkeypatch.setattr(bench_pairs, "run_once", fake_once)
    assert bench_pairs.main(["w:2", "--pr", "t", "--base", "HEAD"]) == 0
    assert events == ["tier1"] * 2 * bench_pairs.TIER1_RUNS + [[]] * 4
    report = json.loads((root / "BENCH_t.json").read_text())
    assert report["workloads"]["w"]["metrics"]["wall_s"]["pairs"] == 2
