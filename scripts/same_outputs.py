"""Run one set of segrls commands on a base revision and on the working tree; compare.

    python3 scripts/same_outputs.py --base REV

Run from a segrls checkout whose working tree holds the change.  The base
revision's ``src/`` is exported with ``git archive`` into a temporary
directory, which is removed at the end.  The inputs are built there once,
with the working tree's ``perfbench.workloads.build`` for seeds 1-3, and both
sides read the same files.  The commands are, for each seed: the
``fit_long`` fit, the twelve ``archive_forecast`` forecasts, and the three
``profiles_diag`` fits with and without ``--cond-every``; then, once:
``compare``, ``compare --profile infinite`` (rank-one steps against the
rank-two exponential baseline in one command) and a diagonally loaded fit
(``--epsilon 1e-9 --cond-every 60``, the one command whose footer reads
``loading_applied=True``) on the seed-1 diagnostic series, an
infinite-profile fit with ``--cond-every 60``, an exponential-profile fit
(39,600 rank-2 steps) and ``compare`` (39,601 rows) on the seed-1
``fit_long`` series (40,000 days), an infinite-profile forecast on the
seed-1 archive, and that forecast again on five edited copies of the
archive (a '#' line after the data, CRLF line breaks and a form-feed line
break, which must give the same forecast; a refused value and an
off-calendar date, exit 3), three fits of edited copies of the seed-1
``fit_long`` CSV, each exit 3 naming its line (a refused header after a
comment line, a refused value and a non-finite value), three fits over a
span of a copy of the seed-1 archive less its two middle days (with
``--gap-policy interpolate``, with ``previous``, and with the default
``fail``, exit 3 naming the first missing day), ``synth --origin
0001-01-01``, a wide, long ``synth`` (100,000 days of a 203-parameter
model, every theta entry non-zero), a forecast whose horizon ends on
9999-12-31 and one that passes it, two fits of a 40-day series that fail
(exit 3: the
span is shorter than the Fig-2 window; exit 4: n=35 over an exponential
window of 35, which is rank deficient), four fits refused as configuration
errors (exit 2: beta == lambda, lambda^m == beta^p, the drop condition with
a grid past Nyquist, and p+1 >= w with a window below the model
dimension), and ``verify --trials 100`` with
the default seed and with ``--seed`` 20250802, 20250803, 20250804 and
20250805 (the perfbench ``verify`` workload runs the first three for its
seeds 1-3); last, the seed-1 ``fit_long`` fit with ``--input /dev/stdin``,
a pipe fed from that CSV, so that the parser's text pass reads it.

Each command runs as ``python -m segrls.cli`` in a fresh interpreter, with
the side's ``src/`` first on PYTHONPATH and ``--output`` pointing into a directory
of its own.  The exit code, stdout, stderr and the SHA-256 of the output
file are compared; the elapsed field of ``verify``'s lines, ``(1.2s)``, is
masked first.  Every difference is printed; the exit code is 1 if there is
one, 0 if every command is identical.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
SEEDS = (1, 2, 3)
ELAPSED = re.compile(r"^(\[\w+\] \w+ )\(\d+(?:\.\d+)?s\)", re.MULTILINE)
# the last day a forecast can reach, and the length of the series that ends before it
LAST_DAY = datetime.date(9999, 12, 31)
LATE_DAYS = 700
LATE_HORIZON = 90
# a series longer than the model dimension (35) and shorter than the Fig-2 window
SHORT_DAYS = 40
# a span of GAP_DAYS days whose day GAP_BEFORE + 1 is the first missing one, past the window
GAP_BEFORE = 500
GAP_DAYS = 800


def mask(text: str) -> str:
    """``text`` with the elapsed field of each verify line, ``[A1] PASS (0.1s)``, masked."""
    return ELAPSED.sub(r"\1(*s)", text)


def differences(base: dict, change: dict) -> list[str]:
    """The fields in which one command's two results differ, as 'field: base != change'."""
    return [f"{key}: {base[key]!r} != {change[key]!r}"
            for key in ("rc", "stdout", "stderr", "output") if base[key] != change[key]]


def sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def run_command(src: Path, argv: list[str], outdir: Path, stdin: Path | None = None) -> dict:
    """One segrls command on the checkout whose package is under ``src``.

    The text of the file ``stdin``, when given, goes to the command through a pipe.
    """
    argv = list(argv)
    output = None
    if "--output" in argv:
        i = argv.index("--output") + 1
        output = outdir / Path(argv[i]).name
        argv[i] = str(output)
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    feed = None if stdin is None else stdin.read_text(encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "segrls.cli", *argv], capture_output=True,
                          text=True, input=feed, env={**os.environ, "PYTHONPATH": path})
    return {"rc": proc.returncode, "stdout": mask(proc.stdout), "stderr": mask(proc.stderr),
            "output": sha256(output) if output else None}


def _dated_series(path: Path, first: datetime.date, days: int) -> None:
    """A dated CSV of ``days`` deterministic values from ``first`` on."""
    rows = [f"{first + datetime.timedelta(days=i)},{10.0 * ((i * 7919) % 101) / 101.0 - 5.0!r}"
            for i in range(days)]
    path.write_text("date,value\n" + "\n".join(rows) + "\n", encoding="utf-8")


def _archive_copies(text: str) -> dict[str, str]:
    """Edited copies of an observatory archive, by name, each edited at its middle line.

    A '#' line after the data, CRLF line breaks and one form-feed line break
    send the file to the data-lines pass and must give the same forecast; a
    refused value and an off-calendar date must each fail with exit 3,
    naming the line.
    """
    lines = text.split("\n")
    middle = len(lines) // 2
    before, after = "\n".join(lines[:middle]), "\n".join(lines[middle + 1 :])
    year, month, day, _, *rest = lines[middle].split()
    return {
        "hash": f"{before}\n# a note after the data\n{lines[middle]}\n{after}",
        "crlf": text.replace("\n", "\r\n"),
        "formfeed": f"{before}\n{lines[middle]}\x0c{after}",
        "refused": f"{before}\n{' '.join([year, month, day, 'x', *rest])}\n{after}",
        "offcalendar": f"{before}\n{' '.join([year, '2', '30', '0.0', *rest])}\n{after}",
    }


def _csv_copies(text: str) -> dict[str, str]:
    """Edited copies of a ``date,value`` CSV that starts with its header, by name.

    Each must fail with exit 3, naming the line: a refused header, put after
    a comment line, and a refused value and a non-finite value at the middle line.
    """
    lines = text.split("\n")
    middle = len(lines) // 2
    before, after = "\n".join(lines[:middle]), "\n".join(lines[middle + 1 :])
    date = lines[middle].split(",")[0]
    return {
        "header": "# a note before the header\nday," + text.split(",", 1)[1],
        "refused": f"{before}\n{date},x\n{after}",
        "nonfinite": f"{before}\n{date},nan\n{after}",
    }


def _gap_copy(text: str) -> tuple[str, datetime.date]:
    """An observatory archive less the data lines of its two middle days, and the first of them."""
    lines = text.split("\n")
    middle = len(lines) // 2
    year, month, day = map(int, lines[middle].split()[:3])
    return "\n".join(lines[:middle] + lines[middle + 2 :]), datetime.date(year, month, day)


def commands(work: Path) -> list[tuple[list[str], Path | None]]:
    """(command line, file piped to its stdin or None) pairs, with inputs built under ``work``."""
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    lines = []
    for seed in SEEDS:
        for name in ("fit_long", "archive_forecast", "profiles_diag"):
            for command in workloads.build(name, seed, work / f"{name}-{seed}")["commands"]:
                argv = command["argv"]
                lines.append(argv)
                if "--cond-every" in argv:
                    i = argv.index("--cond-every")
                    lines.append(argv[:i] + argv[i + 2:])
    diag = work / "profiles_diag-1" / "diag.csv"
    lines.append(["compare", "--input", str(diag), *workloads.MODEL_FLAGS,
                  *workloads.FIG2_FLAGS, "--output", "compare.out.csv"])
    # the infinite profile (rank one) against its exponential baseline (rank two)
    lines.append(["compare", "--input", str(diag), *workloads.MODEL_FLAGS,
                  *workloads.PROFILE_FLAGS["infinite"], "--output", "compare_infinite.out.csv"])
    lines.append(["fit", "--input", str(diag), *workloads.MODEL_FLAGS, *workloads.FIG2_FLAGS,
                  "--epsilon", "1e-9", "--cond-every", str(workloads.COND_EVERY),
                  "--output", "epsilon.out.csv"])
    lines.append(["fit", "--input", str(work / "fit_long-1" / "fit_long.csv"),
                  *workloads.MODEL_FLAGS, *workloads.PROFILE_FLAGS["infinite"],
                  "--cond-every", str(workloads.COND_EVERY), "--output", "infinite_long.out.csv"])
    lines.append(["fit", "--input", str(work / "fit_long-1" / "fit_long.csv"),
                  *workloads.MODEL_FLAGS, *workloads.PROFILE_FLAGS["exponential"],
                  "--output", "exponential_long.out.csv"])
    lines.append(["compare", "--input", str(work / "fit_long-1" / "fit_long.csv"),
                  *workloads.MODEL_FLAGS, *workloads.FIG2_FLAGS,
                  "--output", "compare_long.out.csv"])
    # the first seed-1 archive forecast, with the infinite profile's flags for Fig-2's
    argv = next(line for line in lines if line[0] == "forecast")
    i = argv.index("--profile")
    lines.append([*argv[:i], *workloads.PROFILE_FLAGS["infinite"],
                  *argv[i + len(workloads.FIG2_FLAGS):]])
    # the same forecast on edited copies of the seed-1 archive
    archive = work / "archive_forecast-1" / "archive.txt"
    i = argv.index("--input") + 1
    for name, text in _archive_copies(archive.read_text(encoding="utf-8")).items():
        copy = work / f"archive_{name}.txt"
        copy.write_bytes(text.encode("utf-8"))
        lines.append([*argv[:i], str(copy), *argv[i + 1 : -1], f"archive_{name}.out.csv"])
    # fits of edited copies of the seed-1 fit_long CSV, each refused naming its line
    series = work / "fit_long-1" / "fit_long.csv"
    for name, text in _csv_copies(series.read_text(encoding="utf-8")).items():
        copy = work / f"csv_{name}.csv"
        copy.write_bytes(text.encode("utf-8"))
        lines.append(["fit", "--input", str(copy), *workloads.MODEL_FLAGS, *workloads.FIG2_FLAGS,
                      "--output", f"csv_{name}.out.csv"])
    # fits over a span of the seed-1 archive that holds a two-day gap, under each gap policy
    text, missing = _gap_copy(archive.read_text(encoding="utf-8"))
    gap = work / "archive_gap.txt"
    gap.write_bytes(text.encode("utf-8"))
    first = missing - datetime.timedelta(days=GAP_BEFORE)
    span = ["--start", str(first), "--end", str(first + datetime.timedelta(days=GAP_DAYS - 1))]
    for policy in ("interpolate", "previous", "fail"):
        flags = ["--gap-policy", policy] if policy != "fail" else []
        lines.append(["fit", "--input", str(gap), "--format", "stockholm", *span, *flags,
                      *workloads.MODEL_FLAGS, *workloads.FIG2_FLAGS,
                      "--output", f"gap_{policy}.out.csv"])
    lines.append(["synth", "--origin", "0001-01-01", "--length", "2000", "--seed", "5",
                  "--output", "synth.out.csv"])
    # n = 203 and every theta entry non-zero: the clean signal is a wide matrix-vector product
    theta = ",".join(str(4 - i % 9 or 0.5) for i in range(203))
    lines.append(["synth", "--length", "100000", "--period", "1000", "--harmonics", "100",
                  "--theta", theta, "--output", "synth_wide.out.csv"])
    # a series that ends LATE_HORIZON days before LAST_DAY
    late = work / "late.csv"
    _dated_series(late, LAST_DAY - datetime.timedelta(days=LATE_HORIZON + LATE_DAYS - 1),
                  LATE_DAYS)
    for horizon in (LATE_HORIZON, LATE_HORIZON + 1):
        lines.append(["forecast", "--input", str(late), *workloads.MODEL_FLAGS,
                      *workloads.FIG2_FLAGS, "--horizon", str(horizon),
                      "--output", f"late{horizon}.out.csv"])
    # exit 3: the span is shorter than the Fig-2 window; exit 4: n = 35 over a
    # 35-day window, which is numerically rank deficient
    short = work / "short.csv"
    _dated_series(short, datetime.date(2000, 1, 1), SHORT_DAYS)
    lines.append(["fit", "--input", str(short), *workloads.MODEL_FLAGS, *workloads.FIG2_FLAGS,
                  "--output", "short.out.csv"])
    lines.append(["fit", "--input", str(short), *workloads.MODEL_FLAGS, "--profile",
                  "exponential", "--window", "35", "--output", "deficient.out.csv"])
    # exit 2: each profile and model refusal, and a window below the model dimension
    for flags in (["--beta", "0.99", "--lambda", "0.99"],
                  ["--beta", "0.25", "--lambda", "0.5", "--m", "2"],
                  ["--beta", "0.5", "--m", "1", "--period", "4", "--harmonics", "2"],
                  ["--p", "5", "--window", "6"]):
        lines.append(["fit", "--input", str(short), *flags, "--output", "refused.out.csv"])
    lines.append(["verify", "--trials", "100"])
    # the verify workload's seeds for perfbench seeds 1-3, and one more
    for seed in (*SEEDS, 4):
        lines.append(["verify", "--trials", "100", "--seed",
                      str(workloads.VERIFY_BASE_SEED + seed % 10)])
    # the seed-1 fit_long fit through a pipe: a text, not a path, so the text pass parses it
    piped = ["fit", "--input", "/dev/stdin", *workloads.MODEL_FLAGS, *workloads.FIG2_FLAGS,
             "--output", "stdin.out.csv"]
    return [(line, None) for line in lines] + [(piped, series)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="the base revision")
    args = parser.parse_args(argv)
    base_rev = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()

    tmp = Path(tempfile.mkdtemp(prefix="same_outputs-"))
    try:
        archive = subprocess.run(["git", "archive", base_rev, "src"], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        (tmp / "base").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "base")], input=archive, check=True)
        srcs = {"base": tmp / "base" / "src", "change": ROOT / "src"}
        work = tmp / "work"
        lines = commands(work)
        changed = 0
        for n, (line, stdin) in enumerate(lines):
            results = {}
            for side in SIDES:
                outdir = tmp / "out" / side / str(n)
                outdir.mkdir(parents=True)
                results[side] = run_command(srcs[side], line, outdir, stdin)
            diff = differences(results["base"], results["change"])
            changed += bool(diff)
            status = "DIFFERENT" if diff else "identical"
            shown = " ".join(line).replace(f"{work}{os.sep}", "")
            print(f"{status} (exit {results['change']['rc']}): {shown}")
            for item in diff:
                print(f"    {item[:300]}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(lines) - changed} of {len(lines)} commands identical against {base_rev[:12]}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
