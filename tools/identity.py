"""Check that the CLI's outputs are byte-identical to a git revision's.

Usage: python tools/identity.py --base REV

Exports REV with ``git archive`` into a temporary directory (``.git`` is left
untouched), then runs one fixed matrix of ``metagrad`` invocations on that
tree and on this checkout's working tree. Both runs of an invocation start in
the same empty working directory and write to ``out/`` there. Compared per
invocation: exit code, stdout, stderr and every file written. Prints one
summary line, then each differing invocation with what differs. Exits 0 when
every invocation is identical, 1 otherwise.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KINDS = ("full", "fo", "trunc", "binom", "binom-trunc", "imaml", "reptile")

# runs that overflow; their stderr is the one divergence line
OVERFLOW = [
    ["metatrain", "--family", "quadratic", "--estimator", "imaml", "--alpha", "1e300", "--K", "1",
     "--iters", "2", "--batch", "2"],
    ["metatrain", "--family", "quadratic", "--H", "1e200", "--iters", "3"],
]

# NaN/Inf hyperparameters exit 1 naming the field
NON_FINITE = [
    ["metatrain", "--alpha", "nan", "--iters", "1"],
    ["metatrain", "--estimator", "imaml", "--lambda", "nan", "--iters", "1"],
    ["metatrain", "--estimator", "imaml", "--lambda", "inf", "--iters", "1"],
]


def matrix():
    runs = []
    for family, track in (("quadratic", False), ("quadratic", True), ("logistic", False),
                          ("logistic", True), ("sinusoid", True)):
        iters = "3" if family == "sinusoid" else "20"
        for kind in KINDS:
            argv = ["metatrain", "--family", family, "--estimator", kind, "--L", "2", "--C", "3", "--iters", iters]
            runs.append(argv + ["--track-errors"] * track)
    runs.append(["metatrain", "--family", "sinusoid", "--estimator", "imaml", "--L", "2", "--C", "3", "--iters", "3"])
    for family in ("quadratic", "logistic", "sinusoid"):
        # a one-task batch, whose failure replay slices a one-row stack
        runs.append(["metatrain", "--family", family, "--estimator", "binom", "--L", "2", "--batch", "1",
                     "--iters", "3" if family == "sinusoid" else "20", "--track-errors"])
        sweep = ["error-sweep", "--family", family, "--batches", "3"]
        runs += [sweep + ["--K", "10"], sweep + ["--K", "1"], sweep + ["--K", "5"],
                 sweep + ["--K", "5", "--rescale-alpha"], sweep + ["--K", "10", "--rescale-alpha"]]
    runs += [["bounds"], ["bounds", "--theorem", "4"], ["cost"], ["cost", "--K", "8"]]
    return runs + OVERFLOW + NON_FINITE


def export(rev: str, dest: Path):
    git = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    tar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=git.stdout)
    git.stdout.close()
    if git.wait() or tar.returncode:
        raise SystemExit(f"identity: cannot export {rev!r}")


def run(src: Path, argv, work: Path) -> dict:
    """Exit code, stdout, stderr and the files written by one invocation, started in an empty ``work``."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "metagrad.cli", *argv, "--out", "out"],
                          cwd=work, env=env, capture_output=True)
    files = {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()}
    return {"exit code": done.returncode, "stdout": done.stdout, "stderr": done.stderr, "files": files}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare the working tree with")
    args = ap.parse_args()
    runs = matrix()
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        base = Path(tmp) / "base"
        base.mkdir()
        export(args.base, base)
        differing = []
        for argv in runs:
            want = run(base / "src", argv, Path(tmp) / "work")
            got = run(ROOT / "src", argv, Path(tmp) / "work")
            what = [key for key in want if want[key] != got[key]]
            if what:
                differing.append((argv, what))
    print(f"identity: {len(runs) - len(differing)} of {len(runs)} invocations identical to {args.base}, "
          f"{len(differing)} differ")
    for argv, what in differing:
        print(f"  {', '.join(what)}: metagrad {' '.join(argv)}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
