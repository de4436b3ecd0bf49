"""The logical cost model: HVP counts, sequential depth, live vectors.

Every estimator's price is measured in Hessian-vector products. What differs
is the *shape* of the work:

* the exact product is K HVPs long and strictly sequential (depth K, one
  live vector);
* truncation shortens the chain to L but keeps it sequential;
* the expansion cascade does L stages of K-L+1 mutually independent HVPs:
  more total work (L*(K-L+1)), but only depth L on a machine that can run a
  stage's HVPs concurrently, at the price of K-L+1 live vectors;
* the implicit (CG) estimate costs one HVP per solver iteration and holds a
  constant working set.

The numbers below come from ``metagrad cost``, which runs each estimator for
real on a small prescribed-curvature path (K=5) and reads its counters back.
"""

from pathlib import Path

from metagrad import cli

OUT = Path(__file__).parent / "output"


def main():
    if cli.main(["cost", "--out", str(OUT)]) != 0:
        raise SystemExit(1)
    print((OUT / "cost.csv").read_text(), end="")
    print("\nexpansion depth stays at L while total work peaks near L = K/2;")
    print("its live-vector window K-L+1 shrinks as L grows, which is why the")
    print("full-order cascade (L=K) matches the exact product's footprint.")


if __name__ == "__main__":
    main()
