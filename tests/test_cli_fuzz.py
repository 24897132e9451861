"""Seeded fuzz loop over the CLI: random flag values and mutated input files.

Every case runs ``segrls.cli.main`` in-process.  It must end in a documented
exit code (0, 2, 3 or 4) with no exception escaping, and a failing case
prints exactly one line to stderr.  The values are drawn by
``random.Random(SEED)``, so a failure replays from the printed argv.  Each
``--value-column`` draw is also run once on a clean observatory file.  After
the loop, a few valid ``verify`` runs with seeds drawn by their own
``random.Random(VERIFY_SEED)`` must exit 0 with every criterion passing.
"""

import datetime
import math
import random

import pytest

from segrls.cli import main

SEED = 4
CASES = 300
DAYS = 200
VERIFY_SEED = 5
VERIFY_RUNS = 2

FLOATS = ["nan", "inf", "-inf", "-1", "0", "1e308", "-1e-308", "0.5"]
# the large values stay small enough that a defect cannot exhaust memory
INTS = ["-1", "0", "1", "2", "100000"]
DATES = ["2000-01-01", "2000-03-01", "2000-07-18", "1999-01-01", "2100-01-01",
         "2000-02-30", "9999-12-31", "0001-01-01", "2000-1-1", "x"]

BASE_FIT = {"--period": "40", "--harmonics": "2", "--window": "60", "--beta": "0.85",
            "--lambda": "0.97", "--m": "30", "--p": "1"}

# flag -> pool of values beyond the base value
FIT_FLAGS = {
    "--period": FLOATS + ["4", "1e-300"],
    "--harmonics": INTS,
    "--profile": ["segmented", "exponential", "infinite"],
    "--beta": FLOATS + ["0.97", "1"],
    "--lambda": FLOATS + ["0.85", "1", "0.999999"],
    "--m": INTS,
    "--p": INTS + ["59"],
    "--window": INTS + ["7", "8", "199", "200"],
    "--epsilon": FLOATS,
    "--format": ["csv", "stockholm"],
    "--value-column": ["2", "3", "4", "5", "100000", "9223372036854775808",
                       "100000000000000000000000"],
    "--start": DATES,
    "--end": DATES,
    "--gap-policy": ["fail", "interpolate", "previous"],
}
COMMAND_FLAGS = {
    "fit": {"--cond-every": ["0", "1", "7", "-1", "100000"]},
    "compare": {"--baseline-lambda": FLOATS + ["0.99"]},
    "forecast": {"--horizon": ["-1", "0", "1", "30", "5000"]},
}
SYNTH_FLAGS = {
    "--period": FLOATS + ["4"],
    "--harmonics": INTS,
    "--length": ["-1", "0", "1", "2", "200"],
    "--sigma": FLOATS,
    "--seed": INTS + ["-99999999999"],
    "--theta": ["", "1", "nan", "1,inf", "1e308,1e308", "a,b", ",,", "1,2,3,4,5,6,7,8"],
    "--origin": DATES,
}


def series_lines(rng, fmt):
    day = datetime.date(2000, 1, 1)
    lines = ["date,value"] if fmt == "csv" else ["# year month day t1 t2 t3"]
    for k in range(1, DAYS + 1):
        y = 5.0 + 3.0 * math.sin(2.0 * math.pi * k / 40.0) + rng.gauss(0.0, 1.0)
        if fmt == "csv":
            lines.append(f"{day.isoformat()},{y:.3f}")
        else:
            lines.append(f"{day.year} {day.month} {day.day} {y:.1f} {y:.1f} {y + 1:.1f}")
        day += datetime.timedelta(days=1)
    return lines


def mutate(rng, lines):
    """Apply one to three random edits to the lines of an input file."""
    lines = list(lines)
    tokens = ["nan", "inf", "", "x", "1e999", "-0", "2000-02-30", "99999", "1,2", "#"]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        edit = rng.randrange(7)
        if edit == 0:
            lines.insert(i, "".join(chr(rng.randrange(32, 127)) for _ in range(12)))
        elif edit == 1:
            del lines[i]
        elif edit == 2:
            lines.insert(i, lines[i])
        elif edit == 3:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == 4:
            lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
        else:
            sep = "," if "," in lines[i] else " "
            fields = lines[i].split(sep)
            fields[rng.randrange(len(fields))] = rng.choice(tokens)
            lines[i] = sep.join(fields)
    return lines


def draw_case(rng, tmp_path, index):
    """One argv: a base configuration with up to two flags redrawn."""
    command = rng.choice(["fit", "fit", "compare", "forecast", "synth", "verify"])
    out = tmp_path / ("missing" if rng.random() < 0.05 else "") / f"out{index}.csv"
    if command == "verify":
        return ["verify", f"--trials={rng.choice(['-1', '0', '99'])}",
                f"--seed={rng.choice(INTS)}"]
    if command == "synth":
        pools, flags = SYNTH_FLAGS, {"--period": "40", "--harmonics": "2",
                                     "--length": str(DAYS)}
    else:
        pools, flags = {**FIT_FLAGS, **COMMAND_FLAGS[command]}, dict(BASE_FIT)
    for name in rng.sample(sorted(pools), rng.randint(0, 2)):
        flags[name] = rng.choice(pools[name])
    argv = [command]
    for name, value in flags.items():
        argv.append(f"{name}={value}")  # '=' keeps a value like '-1' a value
    if command != "synth":
        fmt = flags.get("--format", "csv")
        lines = series_lines(rng, fmt)
        if rng.random() < 0.5:
            lines = mutate(rng, lines)
        path = tmp_path / f"in{index}.txt"
        data = "\n".join(lines).encode()
        if rng.random() < 0.03:
            data = data[:40] + b"\xff\xfe" + data[40:]
        path.write_bytes(data)
        argv.append(f"--input={path}")
    argv.append(f"--output={out}")
    return argv


def test_cli_fuzz_exits_with_a_documented_code(tmp_path, capsys):
    rng = random.Random(SEED)
    codes = []
    for index in range(CASES):
        argv = draw_case(rng, tmp_path, index)
        try:
            code = main(argv)
        except (Exception, SystemExit) as err:
            pytest.fail(f"case {index}: {argv} raised {err!r}")
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), f"case {index}: {argv} exited {code}"
        if code:
            assert err.count("\n") == 1, f"case {index}: {argv} wrote {err!r}"
        codes.append(code)
    # the draws reach every documented outcome, not only configuration errors
    assert set(codes) == {0, 2, 3, 4}

    # each value column once on a clean archive, so that every one reaches the parser:
    # a column past every line is a data error, as the first data line is refused
    for column in FIT_FLAGS["--value-column"]:
        path = tmp_path / "archive.txt"
        path.write_text("\n".join(series_lines(rng, "stockholm")) + "\n")
        argv = ["fit", *(f"{name}={value}" for name, value in BASE_FIT.items()),
                "--format=stockholm", f"--value-column={column}", f"--input={path}",
                f"--output={tmp_path / 'archive.out'}"]
        try:
            code = main(argv)
        except (Exception, SystemExit) as err:
            pytest.fail(f"{argv} raised {err!r}")
        err = capsys.readouterr().err
        assert code == (2 if int(column) < 3 else 0 if int(column) <= 5 else 3), (argv, err)
        assert err.count("\n") == 1, (argv, err)

    verify_rng = random.Random(VERIFY_SEED)
    for _ in range(VERIFY_RUNS):
        argv = ["verify", "--trials", "100", "--seed", str(verify_rng.randrange(2**32))]
        code = main(argv)
        lines = capsys.readouterr().out.splitlines()
        assert code == 0, f"{argv} exited {code}: {lines}"
        assert len(lines) == 8 and all("] PASS (" in line for line in lines), (argv, lines)
