import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_trajectory.py"
_SPEC = importlib.util.spec_from_file_location("bench_trajectory", _PATH)
bench_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trajectory)


def workload(median, wins, pairs):
    return {"metrics": {"wall_s": {"change": {"median": median, "q1": 0.0, "q3": 0.0},
                                   "base": {"median": 9.0}, "change_wins": wins,
                                   "pairs": pairs}}}


LEGEND = ("(wall_s: the change's median and the pairs it won; tier1_s ?: "
          "the medians differ by no more than the wider interquartile range)")


def write(path, report):
    path.write_text(json.dumps(report), encoding="utf-8")


def test_one_row_per_numbered_file_in_order_and_the_others_listed_apart(tmp_path):
    # PR 9 predates public_names and tier1_s; PR 10 has every column
    write(tmp_path / "BENCH_9.json", {
        "workloads": {"verify": workload(1.4381, 1, 3)},
        "src_lines": {"base": 2596, "change": 2536}})
    write(tmp_path / "BENCH_10.json", {
        "workloads": {"fit_long": workload(2.8531, 10, 10), "verify": workload(1.328, 3, 3)},
        "src_lines": {"base": 2536, "change": 2625},
        "public_names": {"base": 33, "change": 30},
        "tier1_s": {"base": {"median": 23.64, "q1": 23.0, "q3": 24.0},
                    "change": {"median": 22.04, "q1": 22.0, "q3": 22.5}}})
    write(tmp_path / "BENCH_6-a8-vs-rowwise.json", {"workloads": {}})
    (tmp_path / "notes.json").write_text("{}")
    assert bench_trajectory.table(tmp_path).splitlines() == [
        "pr  verify     fit_long     src_lines   public_names  tier1_s",
        "9   1.438 1/3  -            2596->2536  -             -",
        "10  1.328 3/3  2.853 10/10  2536->2625  33->30        23.6->22.0",
        LEGEND,
        "also: BENCH_6-a8-vs-rowwise.json",
    ]


def test_tier1_medians_within_the_wider_quartile_range_are_unresolved(tmp_path):
    def tier1(base, change):
        return {"tier1_s": {side: dict(zip(("q1", "median", "q3"), quartiles))
                            for side, quartiles in (("base", base), ("change", change))}}

    # BENCH_27's figures: the medians 2.9 s apart, the base's quartiles 5.1 s apart
    write(tmp_path / "BENCH_27.json", tier1((22.36, 22.62, 27.46), (24.66, 25.56, 25.95)))
    # the change's spread is the wider one, and the medians differ by exactly it
    write(tmp_path / "BENCH_28.json", tier1((20.0, 20.5, 21.0), (21.0, 22.5, 23.0)))
    # resolved: 2.0 s apart, the wider spread 1.5 s
    write(tmp_path / "BENCH_29.json", tier1((20.0, 20.5, 21.0), (22.0, 22.5, 23.5)))
    assert [line.split()[-1] for line in bench_trajectory.table(tmp_path).splitlines()[1:4]] == [
        "22.6->25.6?", "20.5->22.5?", "20.5->22.5"]


def test_the_files_are_read_from_the_root_of_the_checkout(monkeypatch, tmp_path, capsys):
    write(tmp_path / "BENCH_1.json", {"workloads": {"verify": workload(1.0, 2, 3)}})
    monkeypatch.setattr(bench_trajectory, "ROOT", tmp_path)
    assert bench_trajectory.main([]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "1   1.000 2/3  -          -             -"
    assert not any(line.startswith("also") for line in out)
