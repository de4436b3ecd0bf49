"""One measurement process of the benchmark; run.py starts it in a fresh interpreter.

Modes:
  setup   time to import metagrad and build the workload's priors, RNGs and
          first task batch, measured from this interpreter's first line
  plain   the untraced closed loop: end-to-end op timings and peak RSS
  traced  the same loop with every layer boundary wrapped in a span

The loop is one client with no concurrency. Each rotation runs six ops back
to back: sample_task_batch + meta_step for fo, trunc, binom, full and imaml
(each kind on its own prior and task stream), then one ``error-sweep`` through
the CLI. One untimed warm-up rotation comes first; the loop then runs until
``--seconds`` have passed and at least ``--min-rotations`` rotations are done
(or ``--max-seconds`` is reached). Prints one JSON object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports metagrad from the checkout)
from metagrad import cli, metatrain  # noqa: E402
from metagrad.adaptation import DivergenceError  # noqa: E402
from metagrad.linalg import CGBreakdownError  # noqa: E402

KEPT_LOSSES = 3  # leading meta_loss values per kind, replayed by the gate


def setup_seconds(wl, seed) -> float:
    streams = workloads.make_streams(wl, seed)
    metatrain.sample_task_batch(streams[0].cfg, streams[0].rng)
    return time.perf_counter() - T0


class Loop:
    def __init__(self, wl, seed, out_dir: Path, wrap=None):
        self.wl = wl
        self.seed = seed
        self.out_dir = out_dir
        self.streams = workloads.make_streams(wl, seed)
        self.sweeps = 0
        self.sweep_bytes = []
        self.errors = []
        ops = [(s.kind, lambda s=s: self.step(s)) for s in self.streams] + [("sweep", self.sweep)]
        self.ops = [(kind, wrap(f"op.{kind}", op) if wrap else op) for kind, op in ops]
        self.samples = {kind: [] for kind, _ in ops}
        self.attempted = 0
        self.failed = 0

    def step(self, stream) -> bool:
        try:
            tasks = metatrain.sample_task_batch(stream.cfg, stream.rng)
            theta, row = metatrain.meta_step(stream.theta, tasks, stream.cfg)
        except (DivergenceError, CGBreakdownError):
            stream.losses.append(None)  # theta stays where it was
            return False
        stream.theta = theta
        stream.losses.append(row.meta_loss)
        return True

    def sweep(self) -> bool:
        argv = self.wl.sweep_argv(workloads.sweep_seed(self.seed, self.sweeps), self.out_dir)
        self.sweeps += 1
        return cli.main(argv) == 0

    def check_sweep(self):
        """The L=K row of errors_averaged.csv: trunc and binom equal full there."""
        with open(self.out_dir / "errors_averaged.csv", newline="") as f:
            row = next(r for r in csv.DictReader(f) if int(r["L"]) == self.wl.K)
        scale = max(float(row["err_fo"]), 1e-300)
        for col in ("err_tr", "err_bin"):
            if not float(row[col]) <= self.wl.rtol * scale:
                self.errors.append(f"sweep {self.sweeps - 1}: {col}={row[col]} at L=K (err_fo={row['err_fo']})")
        self.sweep_bytes.append(sum(p.stat().st_size for p in self.out_dir.iterdir()))

    def rotation(self, timed: bool):
        clock = time.perf_counter_ns
        for kind, op in self.ops:
            self.attempted += 1
            start = clock()
            ok = op()
            elapsed = clock() - start
            if not ok:
                self.failed += 1
            elif timed:
                self.samples[kind].append(elapsed / 1e6)
            if ok and kind == "sweep":
                self.check_sweep()

    def run(self, seconds, min_rotations, max_seconds):
        start = time.perf_counter()
        rotations = 0
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= max_seconds or (elapsed >= seconds and rotations >= min_rotations):
                break
            self.rotation(timed=True)
            rotations += 1
        return rotations


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-rotations", type=int, default=0)
    ap.add_argument("--max-seconds", type=float, default=120.0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]

    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_seconds(wl, args.seed)}))
        return

    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    sweep_dir = args.out / f"sweep-{args.mode}"
    loop = Loop(wl, args.seed, sweep_dir, wrap=tracer.wrap if tracer else None)
    loop.rotation(timed=False)
    if tracer:
        tracer.clear()
        loop.sweep_bytes.clear()
    rotations = loop.run(args.seconds, args.min_rotations, args.max_seconds)

    result = {
        "rotations": rotations,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "samples_ms": loop.samples,
        "losses": {s.kind: s.losses[:KEPT_LOSSES] for s in loop.streams},
        "errors": loop.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        tracer.write_csv_gz(workloads.OUT / f"trace_{args.workload}.csv.gz")
        result["layers"] = tracing.layer_metrics(tracer, loop.sweep_bytes)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
