"""One row per PR from the BENCH_<n>.json files that scripts/bench_pairs.py writes.

    python3 scripts/bench_trajectory.py

Reads every ``BENCH_<n>.json`` with a numeric n at the root of this
checkout and prints one row per file, in order of n: for each
workload, the change's ``wall_s`` median and its ``change_wins/pairs``; then
``src_lines`` and ``public_names`` as base->change, and the ``tier1_s``
medians as base->change, where the file has them ("-" where it does not).
A ``tier1_s`` cell ends in "?" when the two medians differ by no more than
the wider of the two sides' interquartile ranges: the runs cannot tell them
apart.
The workload columns are those of any file, in the order they first appear.
The other ``BENCH_*.json`` files, such as ``BENCH_6-a8-vs-rowwise.json``,
are listed after the table under "also".
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NUMBERED = re.compile(r"BENCH_(\d+)\.json")
METRIC = "wall_s"
SIZE_COLUMNS = ("src_lines", "public_names", "tier1_s")


def bench_files(directory: Path) -> tuple[list[tuple[int, Path]], list[str]]:
    """The numbered files as (n, path) in order of n, and the names of the others."""
    numbered, also = [], []
    for path in sorted(directory.glob("BENCH_*.json")):
        match = NUMBERED.fullmatch(path.name)
        if match:
            numbered.append((int(match[1]), path))
        else:
            also.append(path.name)
    return sorted(numbered), also


def _sides(sides: dict | None, fmt: str) -> str:
    """A base/change pair as 'base->change', each formatted by ``fmt``, or '-' if absent."""
    return f"{sides['base']:{fmt}}->{sides['change']:{fmt}}" if sides else "-"


def _tier1(tier1: dict | None) -> str:
    """The tier1_s medians as 'base->change', with '?' after them when unresolved."""
    if not tier1:
        return "-"
    base, change = tier1["base"], tier1["change"]
    spread = max(side["q3"] - side["q1"] for side in (base, change))
    unresolved = abs(change["median"] - base["median"]) <= spread
    return _sides({"base": base["median"], "change": change["median"]}, ".1f") + (
        "?" if unresolved else "")


def row(report: dict) -> tuple[dict, list[str]]:
    """One PR's cells: 'median wins/pairs' by workload, and the SIZE_COLUMNS."""
    cells = {}
    for name, workload in report.get("workloads", {}).items():
        metric = workload["metrics"][METRIC]
        cells[name] = (f"{metric['change']['median']:.3f} "
                       f"{metric['change_wins']}/{metric['pairs']}")
    return cells, [_sides(report.get("src_lines"), "d"),
                   _sides(report.get("public_names"), "d"), _tier1(report.get("tier1_s"))]


def table(directory: Path) -> str:
    numbered, also = bench_files(directory)
    rows = [(str(n), *row(json.loads(path.read_text(encoding="utf-8"))))
            for n, path in numbered]
    workloads = list(dict.fromkeys(name for _, cells, _ in rows for name in cells))
    header = ["pr", *workloads, *SIZE_COLUMNS]
    body = [[pr, *(cells.get(name, "-") for name in workloads), *sizes]
            for pr, cells, sizes in rows]
    widths = [max(len(line[i]) for line in [header, *body]) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
             for line in [header, *body]]
    lines.append(f"({METRIC}: the change's median and the pairs it won; tier1_s ?: "
                 f"the medians differ by no more than the wider interquartile range)")
    if also:
        lines.append("also: " + ", ".join(also))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.parse_args(argv)
    print(table(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
