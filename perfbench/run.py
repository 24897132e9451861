"""Benchmark of the segrls command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a segrls checkout.  The inputs are generated from
``--seed``; each repetition of the workload runs in a fresh interpreter
(``perfbench/child.py``) that calls ``segrls.cli.main`` in-process, and
every command's output is gated for correctness.  Repetitions are started
until ``--seconds`` of measuring are used (at least one).  The process
pins itself and its children to one CPU, and every time is rescaled to a
reference CPU speed by a probe timed on that CPU (``perfbench/speed.py``).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced repetitions and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the same numbers for a reader, with the machine facts.  Inputs are
written under ``.perfbench_work/`` and deleted at the end; the full report
and the spans of a traced run are kept under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import speed, workloads  # noqa: E402

# setup_s is the median over SETUP_PER_REP fresh interpreters before every
# repetition, so that its samples spread over the whole run like wall_s's.
SETUP_PER_REP = 3
SETUP_CODE = "import segrls.cli; segrls.cli.build_parser()"
BLAS_THREADS = 1        # n = 35 systems gain nothing from more; one thread is steadier
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def machine_facts(cpu: int | None = None) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "pinned_cpu": cpu,
    }


def time_interpreter(code: str, env: dict) -> float:
    """Seconds from spawning ``python -c code`` to its exit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env)
    # a blocking wait: Popen.wait(timeout) polls, which rounds times up to 50 ms
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        rc = proc.wait()
    finally:
        watchdog.cancel()
    if rc != 0:
        raise BenchError(f"`{code}` failed with exit code {rc}")
    return time.perf_counter() - t0


def measure_setup(env: dict, runs: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to `import segrls.cli` + build_parser(),
    each rescaled to the reference speed by a bare interpreter start on either side."""
    times = []
    for _ in range(runs):
        probe = [time_interpreter("pass", env)]
        elapsed = time_interpreter(SETUP_CODE, env)
        probe.append(time_interpreter("pass", env))
        times.append(elapsed * speed.factor(probe, speed.START_REFERENCE_S))
    return times


def run_child(manifest: Path, trace: int, env: dict, spans: Path | None = None) -> dict:
    argv = [sys.executable, "-m", "perfbench.child", str(manifest), "--trace", str(trace)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process failed (exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def repeat(budget_s: float, once) -> list:
    """Call ``once`` until the next call would overrun ``budget_s``; at least once."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(once())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > budget_s:
            return results


def end_to_end(reps: list[dict], setup: list[float]) -> dict:
    """Medians over the repetitions; the times are speed-normalized (see speed.py)."""
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r["norm_wall_s"] for r in reps),
        "steps_per_s": statistics.median(r["steps"] / r["norm_wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    traced = [t for _, t in pairs]
    metrics = {name: statistics.median(t["per_layer"][name] for t in traced)
               for name in traced[0]["per_layer"]}
    # both sides raw: the untraced side without the probe's time in it
    metrics["trace.overhead"] = (
        statistics.median(t["wall_s"] for t in traced)
        / statistics.median(u["work_s"] for u, _ in pairs)
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "segrls" / "cli.py").is_file():
        print(f"perfbench: no segrls source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    cpu = speed.pin_to_one_cpu()
    env = child_env()
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        manifest = workloads.build(args.workload, args.seed, work)
        manifest_path = work / "manifest.json"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        if args.trace:
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
            pairs = repeat(args.seconds, lambda: (run_child(manifest_path, 0, env),
                                                  run_child(manifest_path, 1, env, spans)))
            reps = [r for pair in pairs for r in pair]
            metrics = per_layer(pairs)
        else:
            measure_setup(env, 1)    # fills the bytecode and file caches; not reported
            setup = []

            def once():
                setup.extend(measure_setup(env, SETUP_PER_REP))
                return run_child(manifest_path, 0, env)

            reps = repeat(args.seconds, once)
            metrics = end_to_end(reps, setup)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    facts = machine_facts(cpu)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "result": result,
              "fail_frac": failed / attempted, "repetitions": reps}
    (out_dir / f"{tag}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)}")
    print("machine " + json.dumps(facts))
    for name, entry in result["metrics"].items():
        print(f"  {name:40s} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  {'fail_frac':40s} {failed / attempted:>14.6g} ({failed}/{attempted})")
    if not args.trace:
        print(f"  {'raw wall_s (not normalized)':40s} "
              f"{statistics.median(r['wall_s'] for r in reps):>14.6g} s")
        print(f"  {'speed factor (reference / measured)':40s} "
              f"{statistics.median(r['speed_factor'] for r in reps):>14.6g}")
    for rep in reps:
        for failure in rep["failures"]:
            print(f"  FAILED {' '.join(failure['argv'][:1])}: {failure['problem']}")
    if args.trace:
        absent = sorted({n for r in reps for n in r.get("absent", [])})
        dropped = sorted({n for r in reps for n in r.get("dropped", {})})
        print(f"  absent (reported as 0): {', '.join(absent) or 'none'}")
        print(f"  dropped wrappers (count only): {', '.join(dropped) or 'none'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
