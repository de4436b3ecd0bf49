"""Check that the CLI's outputs are byte-identical to a git revision's.

Usage: python tools/identity.py --base REV

Exports REV with ``git archive`` into a temporary directory (``.git`` is left
untouched), then runs one fixed matrix of cases on that tree and on this
checkout's working tree. A case is one ``metagrad`` invocation, one run of a
demo script from the tree's own ``demos/``, one ``python -c`` snippet that
imports the tree's ``metagrad``, or a rerun pair: a second invocation into the
``out/`` the first one left, which checks that a rerun rewrites every file to
a fresh run's bytes. Both runs of a case start in the same empty working
directory; CLI invocations write to ``out/`` there. Compared per case: exit
codes, stdout, stderr and every file written. Prints one summary line, then
each differing case with what differs. Exits 0 when every case is identical,
1 otherwise.
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
    ["bounds", "--alpha", "nan"],
    ["metatrain", "--H", "inf", "--iters", "1"],
]

# commands that take no L exit 1 naming only the inputs they were given
CONSTRAINT = [
    ["bounds", "--K", "1"],
    ["cost", "--K", "-1"],
    ["bounds", "--theorem", "abc"],
]

# every estimate and cost on prescribed-curvature trajectories, printed to the last bit
PRESCRIBED_SNIPPET = """\
# prescribed-path estimates and costs, as repr
import numpy as np
from metagrad import (PrescribedHessianSequence, binom_meta_gradient, binom_oracle,
                      binomtrunc_meta_gradient, from_hessian_sequence, full_meta_gradient,
                      sharpness_sequence, trunc_meta_gradient)
K, D, ALPHA, H = 5, 3, 0.3, 1.7
a = np.random.default_rng(0).standard_normal((K, D, D))
random = PrescribedHessianSequence(a + a.swapaxes(1, 2), np.random.default_rng(1).standard_normal(D))
for L in range(K + 1):
    for name in ("theorem2-neg", "theorem3-pos", "theorem3-trunc", "random"):
        seq = random if name == "random" else sharpness_sequence(name, K, L, H, D)
        traj, g = from_hessian_sequence(seq, ALPHA), seq.g
        runs = [("trunc", trunc_meta_gradient(traj, g, L)), ("full", full_meta_gradient(traj, g))]
        runs += [(f"binom rescale={r}", binom_meta_gradient(traj, g, L, r)) for r in (False, True)]
        runs += [(f"binom-trunc C={C}", binomtrunc_meta_gradient(traj, g, L, C)) for C in range(L, K + 1)]
        for what, mg in runs:
            print(name, L, what, repr(mg.estimate.tolist()), repr(mg.cost))
        for r in (False, True):
            print(name, L, f"oracle rescale={r}", repr(binom_oracle(traj, g, L, r).tolist()))
"""


# demo scripts, each run from the tree under test, and the snippet: the only cases that
# print values computed on prescribed-curvature trajectories (cost prints only counts)
DEMOS = [["demos/sharp_instances.py"], ["-c", PRESCRIBED_SNIPPET]]

# a second run into the out/ of a first, longer one: every file it writes is shorter
RERUNS = [
    *((["error-sweep", "--family", family, "--batches", "3", "--K", "10"],
       ["error-sweep", "--family", family, "--batches", "3", "--K", "1"])
      for family in ("quadratic", "logistic", "sinusoid")),
    (["metatrain", "--iters", "20"], ["metatrain", "--iters", "3"]),
]


def matrix():
    """Every case, as the tuple of argvs it runs in order."""
    runs = []
    for family in ("quadratic", "logistic", "sinusoid"):
        iters = "3" if family == "sinusoid" else "20"
        for track in (False, True):
            for kind in KINDS:
                argv = ["metatrain", "--family", family, "--estimator", kind, "--L", "2", "--C", "3", "--iters", iters]
                runs.append(argv + ["--track-errors"] * track)
    for family in ("quadratic", "logistic", "sinusoid"):
        # a one-task batch, whose failure replay slices a one-row stack
        runs.append(["metatrain", "--family", family, "--estimator", "binom", "--L", "2", "--batch", "1",
                     "--iters", "3" if family == "sinusoid" else "20", "--track-errors"])
        sweep = ["error-sweep", "--family", family, "--batches", "3"]
        runs += [sweep + ["--K", "10"], sweep + ["--K", "1"], sweep + ["--K", "5"],
                 sweep + ["--K", "5", "--rescale-alpha"], sweep + ["--K", "10", "--rescale-alpha"]]
    runs += [["bounds"], ["bounds", "--theorem", "4"], ["cost"], ["cost", "--K", "0"], ["cost", "--K", "8"]]
    return [(argv,) for argv in runs + DEMOS + OVERFLOW + NON_FINITE + CONSTRAINT] + RERUNS


def command(src: Path, argv) -> list:
    """The process to start for one invocation: a snippet, a demo script of the tree at ``src``, or its CLI."""
    if argv[0] == "-c":
        return [sys.executable, *argv]
    if argv[0].endswith(".py"):
        return [sys.executable, str(src.parent / argv[0]), *argv[1:]]
    return [sys.executable, "-m", "metagrad.cli", *argv, "--out", "out"]


def describe(argv) -> str:
    if argv[0] == "-c":  # the snippet's first line names it
        return "python -c " + argv[1].splitlines()[0]
    return ("python " if argv[0].endswith(".py") else "metagrad ") + " ".join(argv)


def export(rev: str, dest: Path):
    git = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    tar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=git.stdout)
    git.stdout.close()
    if git.wait() or tar.returncode:
        raise SystemExit(f"identity: cannot export {rev!r}")


def run(src: Path, case, work: Path) -> dict:
    """Exit codes, stdout, stderr and the files left by one case's invocations, run in order in an empty ``work``."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src))
    done = [subprocess.run(command(src, argv), cwd=work, env=env, capture_output=True) for argv in case]
    files = {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()}
    return {"exit code": [d.returncode for d in done], "stdout": [d.stdout for d in done],
            "stderr": [d.stderr for d in done], "files": files}


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
        for case in runs:
            want = run(base / "src", case, Path(tmp) / "work")
            got = run(ROOT / "src", case, Path(tmp) / "work")
            what = [key for key in want if want[key] != got[key]]
            if what:
                differing.append((case, what))
    print(f"identity: {len(runs) - len(differing)} of {len(runs)} cases identical to {args.base}, "
          f"{len(differing)} differ")
    for case, what in differing:
        print(f"  {', '.join(what)}: " + ", then ".join(describe(argv) for argv in case))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
