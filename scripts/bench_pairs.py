"""Alternating base/change pairs of the perfbench workloads and of the Tier-1 suite,
written to BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --pr N --base REV verify:10 fit_long:3

Run from a segrls checkout whose working tree holds the change.  Both sides
run from exports side by side in one temporary directory, which is removed
at the end: ``base/`` holds the base revision's ``src/``, ``perfbench/``,
``BENCHMARK.json``, ``tests/``, ``scripts/`` and ``pyproject.toml`` (which
holds the suite's ``filterwarnings``) from ``git archive``, ``change/`` the
same paths copied from the working tree, without ``__pycache__``, pytest's
cache or perfbench's work and output directories.  Each positional argument
is a workload with its number of pairs.  Pair i (from 1) of a workload runs

    python3 perfbench/run.py --workload W --seed i --seconds N --trace 0

once in the base checkout and once in the working tree, the base first in
odd pairs and the change first in even ones; N is BENCHMARK.json's
``run_seconds``, so both sides run as long as the benchmark does.  The
``machine`` line and the final JSON line of every run are kept.  For each
end-to-end metric of BENCHMARK.json the file gives, per side, the median and
the quartiles over the pairs, and the number of pairs the change won (a tie
counts for neither side); per side it also gives the summed ``failed`` and
``attempted``.  ``src_lines`` gives each side's newline count of
``src/segrls/*.py``, as ``wc -l`` counts it, and ``public_names`` the length
of its ``segrls.__all__``, read from ``src/segrls/__init__.py`` without
importing it.

Before the workloads, each side runs the Tier-1 command

    python3 -m pytest -q --continue-on-collection-errors -p no:cacheprovider --durations=5

TIER1_RUNS times, with its ``src/`` on PYTHONPATH, the sides interleaved as
the pairs are.  ``tier1_s`` gives each side's median and quartiles of the
wall time, its runs that did not exit 0, and its five slowest test phases,
each at its median over the runs that list it; each run's wall time, exit
code and final line are kept.  The Tier-1 children may write bytecode
(a test that starts an interpreter without PYTHONDONTWRITEBYTECODE does), and
a checkout holding it skips compiling ``src/`` in every later run, which
``setup_s`` would show; so every ``__pycache__`` under both checkouts is
deleted after Tier-1, before the first workload, and each side starts its
workloads as a fresh checkout would.  The file is written at the root of the
checkout.
"""

from __future__ import annotations

import argparse
import ast
import datetime
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
# what perfbench/run.py and the Tier-1 suite read from a checkout
BENCH_PATHS = ("src", "perfbench", "BENCHMARK.json", "tests", "scripts", "pyproject.toml")
SLOWEST = 5
TIER1_RUNS = 3
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         f"--durations={SLOWEST}"]
# one line of pytest's --durations table: "6.71s call     tests/t.py::test_x"
DURATION = re.compile(r"^(\d+(?:\.\d+)?)s (call|setup|teardown)\s+(\S.*)$")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_working_tree(root: Path, dest: Path) -> None:
    """Copy ``root``'s BENCH_PATHS into ``dest``, leaving out caches and perfbench's work."""
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".perfbench_work",
                                    ".perfbench_out")
    dest.mkdir()
    for name in BENCH_PATHS:
        if (root / name).is_dir():
            shutil.copytree(root / name, dest / name, ignore=ignore)
        else:
            shutil.copy2(root / name, dest / name)


def drop_bytecode(checkout: Path) -> None:
    """Delete every ``__pycache__`` directory under ``checkout``."""
    for cache in sorted(checkout.rglob("__pycache__")):
        shutil.rmtree(cache)


def src_lines(checkout: Path) -> int:
    """Newlines in the checkout's ``src/segrls/*.py``, the total ``wc -l`` prints."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "segrls").glob("*.py"))


def public_names(checkout: Path) -> int:
    """Length of the checkout's ``segrls.__all__``, parsed from its ``__init__.py``, not imported."""
    tree = ast.parse((checkout / "src" / "segrls" / "__init__.py").read_bytes())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            return len(ast.literal_eval(node.value))
    raise ValueError(f"no __all__ in {checkout / 'src' / 'segrls' / '__init__.py'}")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its machine facts and its result, or the reason it gave none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    machine = [json.loads(line[len("machine "):]) for line in lines
               if line.startswith("machine ")]
    if proc.returncode != 0 or not machine:
        return {"seed": seed, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return {"seed": seed, "machine": machine[0], "result": json.loads(lines[-1])}


def run_tier1(checkout: Path) -> dict:
    """One Tier-1 run in ``checkout``: its wall time, exit code, final line and slowest phases."""
    path = os.pathsep.join(filter(None, (str(checkout / "src"), os.environ.get("PYTHONPATH"))))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "returncode": proc.returncode, "summary": lines[-1] if lines else "",
            "slowest": durations(proc.stdout)}


def durations(stdout: str) -> list[list]:
    """The [seconds, phase, test] rows of the --durations table in pytest's ``stdout``."""
    rows, inside = [], False
    for line in stdout.splitlines():
        if line.startswith("=") and "durations" in line:
            inside = True
        elif inside and (match := DURATION.match(line)):
            rows.append([float(match[1]), match[2], match[3]])
        elif inside and line.startswith("="):
            break
    return rows


def summarize_tier1(runs: dict[str, list[dict]]) -> dict:
    """Per side: the wall time's median and quartiles, failed runs and the slowest phases."""
    summary = {}
    for side in SIDES:
        seen: dict[tuple[str, str], list[float]] = {}
        for run in runs[side]:
            for seconds, phase, test in run["slowest"]:
                seen.setdefault((phase, test), []).append(seconds)
        slowest = sorted(([statistics.median(times), phase, test]
                          for (phase, test), times in seen.items()), reverse=True)
        summary[side] = {
            **spread([run["wall_s"] for run in runs[side]]),
            "failed_runs": sum(run["returncode"] != 0 for run in runs[side]),
            "slowest": slowest[:SLOWEST],
        }
    return summary


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]} if values else {}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and the change's wins over the pairs."""
    done = [(b, c) for b, c in zip(runs["base"], runs["change"])
            if "result" in b and "result" in c]
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [pair[i]["result"]["metrics"][name]["value"] for pair in done]
                  for i, side in enumerate(SIDES)}
        wins = sum((c < b) if lower else (c > b)
                   for b, c in zip(values["base"], values["change"]))
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"],
            **{side: spread(values[side]) for side in SIDES},
            "change_wins": wins, "pairs": len(done),
        }
    return summary


def tally(side_runs: list[dict]) -> dict:
    results = [r["result"] for r in side_runs if "result" in r]
    return {"failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "runs_without_result": len(side_runs) - len(results)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workloads", nargs="+", metavar="WORKLOAD:PAIRS")
    parser.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    parser.add_argument("--base", required=True, help="the base revision")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    plan = []
    for token in args.workloads:
        name, _, pairs = token.partition(":")
        if name not in {w["name"] for w in spec["workloads"]}:
            parser.error(f"unknown workload {name!r}")
        if not pairs.isdigit() or int(pairs) < 1:
            parser.error(f"expected WORKLOAD:PAIRS with PAIRS >= 1, got {token!r}")
        plan.append((name, int(pairs)))
    base_rev = git("rev-parse", args.base)

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    checkouts = {side: tmp / side for side in SIDES}
    try:
        checkouts["base"].mkdir()
        archive = subprocess.run(["git", "archive", base_rev, *BENCH_PATHS], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(checkouts["base"])], input=archive, check=True)
        export_working_tree(ROOT, checkouts["change"])
        started = datetime.datetime.now().isoformat(timespec="seconds")
        tier1 = {side: [] for side in SIDES}
        for i in range(1, TIER1_RUNS + 1):
            for side in SIDES if i % 2 == 1 else SIDES[::-1]:
                tier1[side].append(run_tier1(checkouts[side]))
                print(f"tier1 run {i}/{TIER1_RUNS} {side}: "
                      f"{tier1[side][-1]['wall_s']:.1f} s, {tier1[side][-1]['summary']}",
                      file=sys.stderr)
        for path in checkouts.values():
            drop_bytecode(path)
        report = {
            "pr": args.pr, "base": base_rev,
            "change": f"working tree on {git('rev-parse', 'HEAD')}",
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
            "command": "python3 perfbench/run.py --workload W --seed S --seconds N --trace 0",
            "seconds": seconds, "started": started,
            "src_lines": {side: src_lines(path) for side, path in checkouts.items()},
            "public_names": {side: public_names(path) for side, path in checkouts.items()},
            "tier1_s": {"command": " ".join(["python3", *TIER1]),
                        **summarize_tier1(tier1), "runs": tier1},
            "machine": {}, "workloads": {},
        }
        for name, pairs in plan:
            runs = {side: [] for side in SIDES}
            for seed in range(1, pairs + 1):
                order = SIDES if seed % 2 == 1 else SIDES[::-1]
                for side in order:
                    run = run_once(checkouts[side], name, seed, seconds)
                    runs[side].append(run)
                    if "machine" in run:
                        report["machine"].setdefault(side, run["machine"])
                    print(f"{name} pair {seed}/{pairs} {side}: "
                          f"{run.get('error') or run['result']['metrics']['wall_s']['value']}",
                          file=sys.stderr)
            report["workloads"][name] = {
                "pairs": pairs, "seeds": list(range(1, pairs + 1)),
                **{side: tally(runs[side]) for side in SIDES},
                "metrics": summarize(runs, spec["end_to_end"]),
                "runs": runs,
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
