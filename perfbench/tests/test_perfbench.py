"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import datetime
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import child, inputs, run, speed, tracer, workloads

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# inputs


def test_inputs_depend_only_on_the_seed(tmp_path):
    for workload in ("fit_long", "profiles_diag", "archive_forecast"):
        a = inputs.generate(3, tmp_path / "a", workload)
        b = inputs.generate(3, tmp_path / "b", workload)
        c = inputs.generate(4, tmp_path / "c", workload)
        assert a == b and a != c
    for name in ("fit_long.csv", "diag.csv", "archive.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()


def test_inputs_parse_to_the_generated_values(tmp_path):
    from segrls.ingest import parse_csv, parse_stockholm

    inputs.generate(5, tmp_path, "profiles_diag")
    records = parse_csv((tmp_path / "diag.csv").read_text())
    assert len(records) == inputs.DIAG_DAYS
    assert records[0].date == inputs.DIAG_ORIGIN
    values = workloads.load_values(tmp_path, "diag.csv")
    assert [r.value for r in records] == values.tolist()

    rng = np.random.default_rng(0)
    columns = np.round(rng.normal(0, 5, (40, 3)), 1)
    inputs.write_stockholm(tmp_path / "a.txt", datetime.date(1800, 2, 20), columns)
    for col in range(3):
        parsed = parse_stockholm((tmp_path / "a.txt").read_text(), value_column=3 + col)
        assert [r.value for r in parsed] == columns[:, col].tolist()
        assert workloads.load_values(tmp_path, "a.txt", col).tolist() == columns[:, col].tolist()


# ----------------------------------------------------------------------
# tracer


def _busy(us: float) -> None:
    end = time.perf_counter_ns() + us * 1000
    while time.perf_counter_ns() < end:
        pass


def _fake_package(monkeypatch):
    """A two-module package: outer() calls inner() through a module namespace."""
    inner_mod = types.ModuleType("fakepkg.inner")
    outer_mod = types.ModuleType("fakepkg.outer")
    pkg = types.ModuleType("fakepkg")

    def inner(us):
        _busy(us)
        return us

    def tiny():
        return 1

    def outer(us):
        _busy(us)
        inner_mod.inner(us)
        return outer_mod.helper_inner(2 * us)

    class Engine:
        def run(self, us):
            return outer_mod.outer(us)

        @classmethod
        def make(cls):
            return cls()

    for fn, mod in ((inner, inner_mod), (tiny, inner_mod), (outer, outer_mod)):
        fn.__module__ = mod.__name__
        setattr(mod, fn.__name__, fn)
    Engine.__module__ = outer_mod.__name__
    outer_mod.Engine = Engine
    outer_mod.helper_inner = inner          # a second name bound to the same function
    pkg.inner = inner
    for mod in (pkg, inner_mod, outer_mod):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return pkg, inner_mod, outer_mod


def test_tracer_spans_self_time_and_restore(monkeypatch):
    pkg, inner_mod, outer_mod = _fake_package(monkeypatch)
    original_inner, original_run = inner_mod.inner, outer_mod.Engine.run
    t = tracer.Tracer()
    t.install("fakepkg")
    assert pkg.inner is not original_inner and outer_mod.helper_inner is pkg.inner
    t.set_request(7)
    outer_mod.Engine.make().run(200)
    t.uninstall()
    assert inner_mod.inner is original_inner and pkg.inner is original_inner
    assert outer_mod.helper_inner is original_inner and outer_mod.Engine.run is original_run

    s = t.summary()
    assert s["inner.inner"]["calls"] == 2 and s["outer.outer"]["calls"] == 1
    assert s["outer.Engine.run"]["calls"] == 1 and s["outer.Engine.make"]["calls"] == 1
    # run's only child is outer; outer's children are the two inner calls
    assert s["outer.Engine.run"]["self_s"] == pytest.approx(
        s["outer.Engine.run"]["s"] - s["outer.outer"]["s"], abs=1e-9)
    assert s["outer.outer"]["self_s"] == pytest.approx(
        s["outer.outer"]["s"] - s["inner.inner"]["s"], abs=1e-9)
    assert s["outer.outer"]["self_s"] >= 150e-6
    assert s["inner.inner"]["s"] >= 550e-6
    spans = t.arrays()
    assert set(spans["request"].tolist()) == {7}
    names = [t.names[f] for f in spans["fid"]]
    run_idx = names.index("outer.Engine.run")
    assert spans["parent"][names.index("outer.outer")] == run_idx
    assert spans["parent"][run_idx] == -1


def test_tracer_drops_wrappers_that_swamp_their_call(monkeypatch):
    pkg, inner_mod, _ = _fake_package(monkeypatch)
    t = tracer.Tracer()
    t.install("fakepkg")
    for _ in range(tracer.PROBES[-1] + 10):
        inner_mod.tiny()
    for _ in range(tracer.PROBES[0] + 1):
        inner_mod.inner(30)
    t.uninstall()
    s = t.summary()
    assert "inner.tiny" in t.dropped and s["inner.tiny"]["dropped"]
    assert s["inner.tiny"]["calls"] == tracer.PROBES[-1] + 10   # still counted
    assert "inner.inner" not in t.dropped


# ----------------------------------------------------------------------
# gates and per-layer metrics on a small fit


@pytest.fixture
def small_fit(tmp_path):
    """A 700-day CSV and its segmented fit with --cond-every 60."""
    rng = np.random.default_rng(11)
    inputs.write_csv(tmp_path / "s.csv", datetime.date(2001, 1, 1),
                     inputs.series_values(rng, 700))
    command = {
        "argv": workloads._fit_command(tmp_path, "s.csv", "s.out.csv", "segmented",
                                       extra=["--cond-every", str(workloads.COND_EVERY)]),
        "gate": {"kind": "diag", "input": "s.csv", "profile": "segmented",
                 "output": "s.out.csv"},
        "steps": 300,
        "oracle": {"input": "s.csv", "column": 0, "offset": 0, "days": 700},
    }
    return tmp_path, command


def _replace_field(path: Path, k: int, column: str, value: str) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[0] == str(k):
            cells[header.index(column)] = value
            lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_fit_and_diag_gates(small_fit):
    workdir, command = small_fit
    _, results = child.run_commands([command])
    assert results[0]["rc"] == 0
    assert workloads.check(command, 0, "", workdir) is None
    fit_gate = dict(command["gate"], kind="fit")
    assert workloads._gate_fit(fit_gate, workdir) is None
    assert workloads.check(command, 3, "", workdir) == "exit code 3"

    out = workdir / "s.out.csv"
    good = out.read_text()
    _replace_field(out, 700, "yhat_full", "1.5e3")
    assert "yhat_full at k=700" in workloads._gate_fit(fit_gate, workdir)
    out.write_text(good)
    _replace_field(out, 460, "cond_a", "12.5")
    assert "cond_a at k=460" in workloads.check(command, 0, "", workdir)
    out.write_text(good)
    _replace_field(out, 461, "cond_a", "12.5")
    assert "cond_a at k=461" in workloads.check(command, 0, "", workdir)


def test_forecast_and_verify_gates(tmp_path):
    rows = ["k,date,mean,lower,upper,observed,in_band"]
    rows += [f"{k},2000-01-01,1.5,-4.5,7.5,," for k in range(1, workloads.HORIZON + 1)]
    good = "\n".join(rows + ["# sigma=2", "# coverage=na"]) + "\n"
    (tmp_path / "f.csv").write_text(good)
    gate = {"kind": "forecast", "output": "f.csv"}
    assert workloads._gate_forecast(gate, tmp_path) is None
    (tmp_path / "f.csv").write_text(good.replace("# sigma=2", "# sigma=nan"))
    assert "sigma" in workloads._gate_forecast(gate, tmp_path)
    (tmp_path / "f.csv").write_text(good.replace("7.5,,\n", "7.6,,\n", 1))
    assert "band at k=1" in workloads._gate_forecast(gate, tmp_path)

    missing = {"gate": {"kind": "forecast", "output": "missing.csv"}}
    assert workloads.check(missing, 0, "", tmp_path).startswith("unreadable output")
    (tmp_path / "empty.csv").write_text("")
    empty = {"gate": {"kind": "forecast", "output": "empty.csv"}}
    assert workloads.check(empty, 0, "", tmp_path).startswith("unreadable output")

    assert workloads._gate_verify("[A1] PASS (1.0s) x\n[A2] PASS (0.1s) y\n") is None
    assert "not PASS" in workloads._gate_verify("[A1] PASS (1.0s) x\n[A9] FAIL (2s) z\n")
    assert workloads._gate_verify("") == "no criterion lines"


def test_traced_run_yields_every_declared_per_layer_metric(small_fit):
    workdir, command = small_fit
    import segrls.cli  # noqa: F401

    t = tracer.Tracer()
    probe, counter = child.OracleProbe(t), child.RecordCounter()
    t.install(after={"estimator.RlsEstimator.step": probe, "ingest.parse_csv": counter})
    try:
        wall, results = child.run_commands([command], t)
    finally:
        t.uninstall()
    assert results[0]["rc"] == 0
    oracle_dev, checked = probe.max_deviation([command], workdir)
    assert checked == 0                       # k never reaches 997 in 700 days
    metrics, absent = child.layer_metrics(t, wall, counter.records, None, 1)
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(metrics) | {"trace.overhead"} == declared
    assert metrics["estimator.step.calls"] == 300
    assert metrics["ingest.parse.records"] == 700
    assert metrics["linalg.condition_number.calls"] == 300 // workloads.COND_EVERY + 1
    assert "estimator.oracle_dev" in absent


# ----------------------------------------------------------------------
# speed normalization


def test_factor_is_the_mean_speed_relative_to_the_reference():
    assert speed.factor([0.004, 0.004], reference=0.004) == pytest.approx(1.0)
    assert speed.factor([0.008] * 3, reference=0.004) == pytest.approx(0.5)
    # half the interval at full speed, half at half speed
    assert speed.factor([0.004, 0.008], reference=0.004) == pytest.approx(0.75)
    # a preempted probe barely moves the mean
    assert speed.factor([0.004] * 9 + [1.0], reference=0.004) == pytest.approx(0.9, abs=0.001)


def test_sampler_probes_while_the_block_runs_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler(interval=0.01) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
        elapsed = time.perf_counter() - t0
    assert len(sampler.durations) >= 5
    assert 0.0 < sampler.spent < elapsed
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_pin_to_one_cpu_keeps_one_of_the_allowed_cpus():
    allowed = os.sched_getaffinity(0)
    try:
        cpu = speed.pin_to_one_cpu()
        assert cpu in allowed and os.sched_getaffinity(0) == {cpu}
    finally:
        os.sched_setaffinity(0, allowed)


# ----------------------------------------------------------------------
# the command line contract


def test_repeat_stops_before_the_budget_is_overrun():
    calls = []

    def once():
        calls.append(1)
        time.sleep(0.02)
        return len(calls)

    assert run.repeat(0.07, once) == [1, 2, 3]
    assert run.repeat(0.001, once) == [4]


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit_long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.end_to_end(
        [{"norm_wall_s": 1.0, "steps": 1, "peak_rss_mb": 1.0}], [1.0]))
