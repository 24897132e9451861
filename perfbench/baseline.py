"""Run every workload over a range of seeds and record the medians and spreads.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads fit_long verify]
                                  [--trace] [--label TEXT] --out FILE.json

Each (workload, seed) pair is one ``perfbench/run.py`` run of the
``run_seconds`` in BENCHMARK.json.  For every end-to-end metric the file
holds the ten values, their median and quartiles, and the spread
(q3 - q1) / median next to the metric's bound; the printed summary flags a
spread above a third of its bound (``setup_s`` is held to its bound on the
median only, not on the spread).  ``--trace`` adds one traced run per
workload, with the first seed, for the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import run, workloads  # noqa: E402


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread_of(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--label", default="")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"label": args.label, "run_seconds": seconds, "seeds": args.seeds,
              "machine": run.machine_facts(), "workloads": {}}
    steady = True
    for workload in args.workloads:
        results = [one_run(workload, seed, seconds, 0) for seed in args.seeds]
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            stats = spread_of([r["metrics"][name]["value"] for r in results])
            stats["bound"] = bound
            entry["end_to_end"][name] = stats
            flag = ""
            if name != "setup_s" and stats["spread"] > bound / 3:
                flag = "  <-- spread above a third of the bound"
                steady = False
            print(f"{workload:17s} {name:12s} median {stats['median']:12.6g} "
                  f"spread {stats['spread']:.3f} (bound {bound}){flag}", flush=True)
        if args.trace:
            traced = one_run(workload, args.seeds[0], seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print("steady" if steady else "NOT steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
