"""One repetition of a workload, in a fresh interpreter.

    python -m perfbench.child MANIFEST --trace 0|1 [--spans PATH]

Runs the manifest's command lines in-process through ``segrls.cli.main``,
times the whole sequence, then gates every command's output (outside the
timed region) and prints one JSON object.  Untraced, the CPU-speed probe
(see ``speed``) samples while the commands run, and the report adds the
speed-normalized time.  With ``--trace 1`` the package's public functions
are wrapped first (see ``tracer``) and the per-layer metrics are computed
from the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import speed, workloads

VERIFY_CRITERIA = ("a1", "a2", "a3", "a4", "a5", "a7", "a8", "a9")
LAYERS = ("ingest", "harmonic", "profile", "estimator", "linalg", "reference",
          "verify", "cli")
ORACLE_STRIDE = 997     # theta is checked against the direct solve where k % 997 == 0


def run_commands(commands, tracer=None):
    """Run each command through segrls.cli.main; returns (wall_s, results)."""
    import segrls.cli

    results = []
    start = time.perf_counter()
    for index, command in enumerate(commands):
        if tracer is not None:
            tracer.set_request(index)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = segrls.cli.main(command["argv"])
        except SystemExit as exc:
            rc = f"SystemExit({exc.code})"
        except Exception:                       # a traceback is a failed command
            rc = "exception: " + traceback.format_exc(limit=3)
        results.append({"rc": rc, "stdout": out.getvalue()})
    wall = time.perf_counter() - start
    return wall, results


class OracleProbe:
    """Keeps theta at sampled k after RlsEstimator.step, for a check after the run."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.snapshots = []

    def __call__(self, args, result):
        est, sample = args[0], args[1]
        k = int(sample[0])
        if k % ORACLE_STRIDE == 0:
            self.snapshots.append((self.tracer.request, est.profile, est.model, k,
                                   np.array(est.theta, copy=True)))

    def max_deviation(self, commands, workdir: Path):
        """Largest ||theta - theta_direct|| / ||theta_direct|| over the snapshots."""
        from segrls.reference import direct_weighted_ls

        worst, checked, samples = 0.0, 0, {}
        for request, profile, model, k, theta in self.snapshots:
            spec = commands[request]["oracle"]
            if spec is None:
                continue
            if request not in samples:
                values = workloads.load_values(workdir, spec["input"], spec["column"])
                samples[request] = workloads.samples_of(values, spec["offset"], spec["days"])
            _, direct = direct_weighted_ls(profile, model, samples[request], k)
            worst = max(worst, float(np.linalg.norm(theta - direct) / np.linalg.norm(direct)))
            checked += 1
        return worst, checked


class RecordCounter:
    """Counts the records the parse functions return."""

    def __init__(self):
        self.records = 0

    def __call__(self, args, result):
        self.records += len(result)


def layer_metrics(tracer, wall_s, records, oracle_dev, output_bytes):
    """Per-layer metrics from one traced run; returns (metrics, absent names)."""
    summary = tracer.summary()
    absent = []

    def total(names, field):
        names = [n for n in names if n in summary]
        if not names or (field != "calls" and any(summary[n]["dropped"] for n in names)):
            return None
        return sum(summary[n][field] for n in names)

    spec = {
        "ingest.parse": ["ingest.parse_csv", "ingest.parse_stockholm"],
        "ingest.to_indexed": ["ingest.to_indexed"],
        "harmonic.regressor_matrix": ["harmonic.regressor_matrix"],
        "harmonic.predict": ["harmonic.predict", "harmonic.predict_first_harmonic"],
        # predict_first_harmonic costs about one span, so its wrapper is dropped
        # and its time is its callers' self time; the time metric is predict's.
        "harmonic.predict_full": ["harmonic.predict"],
        "profile.weight": ["profile.weight"],
        "estimator.init": ["estimator.RlsEstimator.init"],
        "estimator.step": ["estimator.RlsEstimator.step"],
        "estimator.forecast": ["estimator.RlsEstimator.forecast"],
        "estimator.info_matrix": ["estimator.RlsEstimator.info_matrix"],
        "linalg.solve_indefinite": ["linalg.solve_indefinite"],
        "linalg.spd_inverse": ["linalg.spd_inverse"],
        "linalg.condition_number": ["linalg.condition_number"],
        "linalg.batch_inverse_update": ["linalg.batch_inverse_update"],
        "reference.direct_weighted_ls": ["reference.direct_weighted_ls"],
        "reference.monte_carlo_bias": ["reference.monte_carlo_bias"],
        "reference.accumulation_experiment": ["reference.accumulation_experiment"],
    }
    spec.update({f"verify.{c}": [f"verify.criterion_{c}"] for c in VERIFY_CRITERIA})
    wanted = [
        ("ingest.parse", "s"), ("ingest.to_indexed", "s"),
        ("harmonic.regressor_matrix", "calls"), ("harmonic.regressor_matrix", "s"),
        ("harmonic.predict", "calls"), ("harmonic.predict_full", "s"),
        ("profile.weight", "calls"),
        ("estimator.init", "calls"), ("estimator.init", "s"),
        ("estimator.step", "calls"), ("estimator.step", "s"), ("estimator.step", "self_s"),
        ("estimator.forecast", "s"),
        ("estimator.info_matrix", "calls"), ("estimator.info_matrix", "s"),
        ("linalg.solve_indefinite", "calls"), ("linalg.solve_indefinite", "s"),
        ("linalg.spd_inverse", "s"),
        ("linalg.condition_number", "calls"), ("linalg.condition_number", "s"),
        ("linalg.batch_inverse_update", "s"),
        ("reference.direct_weighted_ls", "calls"), ("reference.direct_weighted_ls", "s"),
        ("reference.monte_carlo_bias", "s"), ("reference.accumulation_experiment", "s"),
    ] + [(f"verify.{c}", "s") for c in VERIFY_CRITERIA]

    metrics = {}
    for key, field in wanted:
        name = f"{key.removesuffix('_full')}.{field}"
        value = total(spec[key], field)
        if value is None:
            absent.append(name)
            value = 0
        metrics[name] = value

    for layer in LAYERS:
        names = [n for n in summary if n.split(".")[0] == layer]
        metrics[f"{layer}.self_s"] = sum(summary[n]["self_s"] for n in names)

    metrics["ingest.parse.records"] = records
    parse_s = total(spec["ingest.parse"], "s")
    metrics["ingest.parse.us_per_record"] = (
        parse_s / records * 1e6 if records and parse_s is not None else 0.0
    )
    if not records or parse_s is None:
        absent.append("ingest.parse.us_per_record")

    step = "estimator.RlsEstimator.step"
    steps = tracer.durations_ns(step) if step in tracer.names else np.array([])
    if steps.size and not summary[step]["dropped"]:
        metrics["estimator.step.p50_us"] = float(np.percentile(steps, 50)) / 1e3
        metrics["estimator.step.p999_us"] = float(np.percentile(steps, 99.9)) / 1e3
    else:
        metrics["estimator.step.p50_us"] = metrics["estimator.step.p999_us"] = 0.0
        absent += ["estimator.step.p50_us", "estimator.step.p999_us"]

    if oracle_dev is None:
        absent.append("estimator.oracle_dev")
    metrics["estimator.oracle_dev"] = oracle_dev or 0.0
    metrics["cli.output_bytes"] = output_bytes
    metrics["trace.wall_s"] = wall_s
    metrics["trace.dropped"] = len(tracer.dropped)
    return metrics, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("manifest")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write the spans here (.npz)")
    args = parser.parse_args(argv)

    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    workdir = Path(manifest["workdir"])
    commands = manifest["commands"]
    import segrls.cli  # noqa: F401  (import cost is setup_s, not wall_s)

    tracer = probe = counter = None
    if args.trace:
        from .tracer import Tracer

        tracer = Tracer()
        probe, counter = OracleProbe(tracer), RecordCounter()
        tracer.install(after={"estimator.RlsEstimator.step": probe,
                              "ingest.parse_csv": counter,
                              "ingest.parse_stockholm": counter})
    sampler = None
    try:
        if tracer is None:
            with speed.Sampler() as sampler:
                wall, results = run_commands(commands)
        else:
            wall, results = run_commands(commands, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    output_bytes = 0
    for command, result in zip(commands, results):
        problem = workloads.check(command, result["rc"], result["stdout"], workdir)
        if problem is not None:
            failures.append({"argv": command["argv"], "problem": problem})
        output_bytes += len(result["stdout"].encode("utf-8"))
        argv = command["argv"]
        if "--output" in argv:
            path = Path(argv[argv.index("--output") + 1])
            if path.is_file():
                output_bytes += path.stat().st_size

    report = {
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "steps": sum(c["steps"] for c in commands),
        "attempted": len(commands),
        "failed": len(failures),
        "failures": failures,
    }
    if sampler is not None:
        # the probe's own time is not the program's; the rest is rescaled to
        # the reference CPU speed (see speed.py)
        work_s = wall - sampler.spent
        scale = speed.factor(sampler.durations or speed.time_kernel(5))
        report.update({"work_s": work_s, "speed_factor": scale,
                       "probe_samples": len(sampler.durations),
                       "norm_wall_s": work_s * scale})
    if tracer is not None:
        oracle_dev, checked = probe.max_deviation(commands, workdir)
        metrics, absent = layer_metrics(tracer, wall, counter.records,
                                        oracle_dev if checked else None, output_bytes)
        report.update({
            "per_layer": metrics,
            "absent": absent,
            "dropped": tracer.dropped,
            "spans": len(tracer.fids),
            "oracle_checks": checked,
        })
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
