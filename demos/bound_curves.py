"""Worst-case error bounds across the truncation parameter.

The three meta-gradient estimators (first-order, truncated backprop, and the
binomial-expansion cascade) admit closed-form worst-case error bounds in
terms of K, L, alpha, and the curvature constants H and h. This script runs
``metagrad bounds`` with its defaults -- K=5, alpha=0.25, H=1.0, and h=0.1,
M=1 for the locally strongly convex case -- which sweeps L for each
smoothness regime, writes one SVG per regime, and prints the normalized
curves from the CSV it wrote.

The headline shape to look for: the truncated estimator's bound shrinks
roughly geometrically in L, while the expansion estimator's bound collapses
super-exponentially -- by L=2 it is already below 6% of the first-order
bound in the smooth regime.
"""

from pathlib import Path

from metagrad import cli

OUT = Path(__file__).parent / "output"


def main():
    if cli.main(["bounds", "--out", str(OUT)]) != 0:
        raise SystemExit(1)
    print((OUT / "bounds.csv").read_text(), end="")
    print(f"\nwrote {OUT}/bounds.csv and three SVGs")


if __name__ == "__main__":
    main()
