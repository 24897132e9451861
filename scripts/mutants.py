"""Apply each of a fixed list of one-line source mutations and require Tier-1 to fail.

    python3 scripts/mutants.py

Run from a segrls checkout.  For each mutant in MUTANTS, ``src/`` is copied
into a temporary directory, without ``__pycache__``, and the mutant's
``old`` text, which must occur exactly once in its file, is replaced by its
``new`` text in the copy; the working tree is never written.  The Tier-1
suite of the working tree then runs with the copy first on PYTHONPATH:

    python3 -m pytest -q --continue-on-collection-errors -p no:cacheprovider -x

A mutant is ``killed`` when pytest exits 1 (a test failed), ``SURVIVED``
when it exits 0, and ``ERROR`` for any other exit code (an interrupted run
or a usage error shows nothing about the mutant).  A mutant whose ``old``
text does not occur exactly once is ``STALE`` and never runs: the source
moved, and the mutant must be updated, not counted.  One line per mutant is
printed as it finishes; the exit code is 0 when every mutant is killed, and
1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "-x"]


class Mutant(NamedTuple):
    name: str
    path: str       # relative to src/segrls
    old: str
    new: str


MUTANTS = [
    # the eight tried when the ROADMAP was last re-anchored
    Mutant("forecast band 2 sigma", "estimator.py",
           "mean + 3.0 * sigma", "mean + 2.0 * sigma"),
    Mutant("moving variance over n - 1", "estimator.py",
           "np.mean(r * r, axis=0)", "np.sum(r * r, axis=0) / (len(r) - 1)"),
    Mutant("first harmonic sine on the cosine row", "estimator.py",
           "theta[2] * phi[2]", "theta[2] * phi[1]"),
    Mutant("residual one slot late", "estimator.py",
           "self._residuals[(k - 1) % self.window]", "self._residuals[k % self.window]"),
    Mutant("drop scale without lambda", "profile.py",
           "math.sqrt(abs(lam_m - beta_p) * lam)", "math.sqrt(abs(lam_m - beta_p))"),
    Mutant("capacitance limit doubled", "linalg.py",
           "if not cond <= 1.0 / PIVOT_RTOL:", "if not cond <= 2.0 / PIVOT_RTOL:"),
    Mutant("forecast rows one index early", "estimator.py",
           "np.arange(self.k + 1, self.k + horizon + 1)", "np.arange(self.k, self.k + horizon)"),
    Mutant("no singular floor", "linalg.py",
           "if amin < SINGULAR_FLOOR:", "if amin < 0.0:"),
    # the scratch mutations CHANGES.md cites, where their code still stands
    Mutant("residuals read unrolled", "estimator.py",
           "r = np.roll(self._residuals, -oldest, axis=0)", "r = self._residuals"),
    Mutant("infinite info_matrix one row short", "estimator.py",
           "np.arange(k0 + 1, self.k + 1)", "np.arange(k0 + 2, self.k + 1)"),
    Mutant("gain product regrouped", "linalg.py",
           "t = v.dot(u_inv.dot(v.T))", "t = v.dot(u_inv).dot(v.T)"),
    Mutant("rank-one inverse as a power", "linalg.py",
           "u_inv[0, 0] = inv = 1.0 / u", "u_inv[0, 0] = inv = u ** -1"),
    Mutant("rank-one inverse by np.divide", "linalg.py",
           "u_inv[0, 0] = inv = 1.0 / u", "u_inv[0, 0] = inv = np.divide(1.0, u)"),
    Mutant("rank-one estimate without abs of 1/u", "linalg.py",
           "cond = abs(inv) * (1.0 + abs(w))", "cond = inv * (1.0 + abs(w))"),
    Mutant("rank-one estimate without abs of w", "linalg.py",
           "cond = abs(inv) * (1.0 + abs(w))", "cond = abs(inv) * (1.0 + w)"),
    Mutant("rank-one zero test weakened", "linalg.py",
           "if u == 0.0:", "if u == 0.0 and w == 0.0:"),
    Mutant("guard bound without abs", "linalg.py",
           "np.maximum.reduce(np.abs(pair), None)", "np.maximum.reduce(pair, None)"),
    Mutant("guard bound without r", "linalg.py",
           "rm = pair.shape[1] * float(", "rm = float("),
    Mutant("guard margin 2", "linalg.py",
           "if bound < 0.5 / PIVOT_RTOL:", "if bound < 2.0 / PIVOT_RTOL:"),
    Mutant("pipe read again by path", "ingest.py",
           "rereadable = regular and os.path", "rereadable = os.path"),
    Mutant("no splitlines-only separator guard", "ingest.py",
           "and not any(map(text.__contains__, _SPLITLINES_ONLY))):", "):"),
    # the fitted value a step stores, and the capacitance estimate past the bound
    Mutant("stored yhat drops the last regressor", "estimator.py",
           "phi.dot(theta)", "phi[:-1].dot(theta[:-1])"),
    Mutant("estimate with the inf-norm of W", "linalg.py",
           "np.linalg.norm(pair[1], 1)", "np.linalg.norm(pair[1], np.inf)"),
    # the forecast table's cells and coverage
    Mutant("in_band upper bound strict", "cli.py",
           "(observed <= band.upper[recorded])", "(observed < band.upper[recorded])"),
    Mutant("in_band lower bound strict", "cli.py",
           "(band.lower[recorded] <= observed)", "(band.lower[recorded] < observed)"),
    Mutant("coverage over the horizon", "cli.py",
           "fmt(hits / total)", "fmt(hits / args.horizon)"),
    Mutant("forecast rows from the last fitted index", "cli.py",
           "series.origin, last + 1, [", "series.origin, last, ["),
    Mutant("observed cells one day late", "cli.py",
           "np.arange(last, last + args.horizon)", "np.arange(last + 1, last + args.horizon + 1)"),
    # start-up registers reference and verify without running them, and A8's median
    Mutant("reference loaded eagerly", "__init__.py",
           'reference, verify = map(_register_lazily, ("reference", "verify"))',
           'from . import reference\nverify = _register_lazily("verify")'),
    Mutant("verify loaded eagerly", "__init__.py",
           'reference, verify = map(_register_lazily, ("reference", "verify"))',
           'reference = _register_lazily("reference")\nfrom . import verify'),
    Mutant("median middle index off by one", "reference.py",
           "s[(len(s) - 1) // 2:", "s[len(s) // 2:"),
    # the synthetic signal's row blocks, and the bias estimate's refusal and bound
    Mutant("synth block stride one row short", "reference.py",
           "range(0, spec.length, ROW_BLOCK)", "range(0, spec.length, ROW_BLOCK - 1)"),
    Mutant("one-row last block moved one row early", "reference.py",
           "bounds[-2] -= 4", "bounds[-2] -= 1"),
    Mutant("bias estimate of the unbounded profile not refused", "reference.py",
           'raise ValueError("the bias estimate needs a windowed profile, not the unbounded one")',
           "pass"),
    Mutant("A9 bound without abs", "verify.py",
           "np.all(np.abs(bias) <= 4.0 * se)", "np.all(bias <= 4.0 * se)"),
]


def mutate(src: Path, dest: Path, mutant: Mutant) -> bool:
    """Copy ``src`` to ``dest`` with ``mutant`` applied; False, leaving it unapplied, if stale."""
    shutil.copytree(src, dest, ignore=shutil.ignore_patterns("__pycache__"))
    target = dest / "segrls" / mutant.path
    text = target.read_text(encoding="utf-8") if target.is_file() else ""
    if text.count(mutant.old) != 1:
        return False
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return True


def run_tier1(src: Path) -> int:
    """Pytest's exit code for the working tree's Tier-1 suite with ``src`` first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *TIER1], cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL,
                          env={**os.environ, "PYTHONPATH": path}).returncode


def outcome(returncode: int) -> str:
    if returncode == 1:
        return "killed"
    return "SURVIVED" if returncode == 0 else f"ERROR (pytest exit {returncode})"


def check(mutants, src: Path, run=run_tier1) -> int:
    """Print one line per mutant; 0 when ``run`` failed the suite on every one, else 1."""
    failed = 0
    for mutant in mutants:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            copy = Path(tmp) / "src"
            status = outcome(run(copy)) if mutate(src, copy, mutant) else "STALE"
        failed += status != "killed"
        print(f"{status:<9} {time.perf_counter() - start:6.1f} s  {mutant.path}: {mutant.name}",
              flush=True)
    return 1 if failed else 0


def main(argv=None) -> int:
    argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    return check(MUTANTS, ROOT / "src")


if __name__ == "__main__":
    sys.exit(main())
