"""metagrad benchmark: per-estimator meta-step latency and error-sweep latency.

Usage (from the repository root):

    python3 bench/run.py --workload sine --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload in turn

One client runs ops back to back in a fixed rotation (see worker.py), in a
fresh worker interpreter. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json from an untraced worker, plus ``setup_s`` from several fresh
set-up probes. ``--trace 1`` splits ``--seconds`` between an untraced and a
traced worker and reports the per-layer metrics (tracing.py), including the
tracing overhead. Every run must pass the correctness gate (gate.py); a run
that fails it prints no metrics and exits 1.

Prints each metric with its unit, an ``environment`` line, and as the last
line one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads  # first: exits unless the checkout's src/metagrad is importable
import gate
import numpy as np

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 4             # fresh interpreters before and after the timed worker; setup_s is the median
MIN_ROTATIONS = 100          # so each op's p90 has at least ten samples beyond it
WORKER_MAX_SECONDS = 120.0   # keeps a run within its time limit on a slow machine
WORKER_TIMEOUT = 170.0


def spec():
    with open(workloads.ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    return {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def worker(mode, wl, seed, out_dir, seconds=0.0, min_rotations=0, max_seconds=WORKER_MAX_SECONDS):
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--mode", mode, "--workload", wl.name,
        "--seed", str(seed), "--seconds", str(seconds), "--min-rotations", str(min_rotations),
        "--max-seconds", str(max_seconds), "--out", str(out_dir),
    ]
    proc = subprocess.run(cmd, cwd=workloads.ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p50(samples):
    return statistics.median(samples)


def p90(samples):
    return statistics.quantiles(samples, n=10)[-1]


def blas_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        libs = {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines() if "blas" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(ctypes.CDLL(lib), symbol, None)
            if getter is not None:
                threads = getter()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def git_commit():
    # the ceiling stops git from reporting an enclosing repository's commit for a plain copy
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(workloads.ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(wl, seed, seconds, trace, rotations):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "load": "closed loop, 1 client, rotation " + ",".join(workloads.OP_KINDS),
        "rotations": rotations,
        "config": wl.describe(),
        "sweep_argv": wl.sweep_argv(workloads.sweep_seed(seed, 0), Path("<out>")),
    }


def op_metrics(samples):
    m = {}
    for kind in workloads.OP_KINDS:
        m[f"op_ms_p50.{kind}"] = p50(samples[kind])
        m[f"op_ms_p90.{kind}"] = p90(samples[kind])
    return m


def run_workload(wl, seed, seconds, trace, units):
    """Measure one workload; returns (correct, attempted, failed, metrics, environment)."""
    out_dir = workloads.OUT / f"run-{wl.name}-{seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            half = seconds / 2
            # two rotations at least, so that every op has a p50 and a p90
            runs = [worker("plain", wl, seed, out_dir, half, 2, WORKER_MAX_SECONDS / 2),
                    worker("traced", wl, seed, out_dir, half, 2, WORKER_MAX_SECONDS / 2)]
        else:
            # probes before and after the timed worker sample the machine's speed at two
            # moments at least `seconds` apart
            setup = [worker("setup", wl, seed, out_dir)["setup_s"] for _ in range(SETUP_PROBES)]
            runs = [worker("plain", wl, seed, out_dir, seconds, MIN_ROTATIONS)]
            setup += [worker("setup", wl, seed, out_dir)["setup_s"] for _ in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failures = gate.check_set(wl, seed)
    for r in runs:
        failures += r["errors"] + gate.replay(wl, seed, r["losses"])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    env = environment(wl, seed, seconds, trace, [r["rotations"] for r in runs])
    if failures:
        for msg in failures:
            print(f"gate: {wl.name}: {msg}", file=sys.stderr)
        return False, attempted, failed, {}, env

    plain = runs[0]
    if trace:
        metrics = dict(runs[1]["layers"])
        traced_ops, plain_ops = op_metrics(runs[1]["samples_ms"]), op_metrics(plain["samples_ms"])
        for kind in workloads.OP_KINDS:
            metrics[f"trace.overhead_ratio.{kind}"] = traced_ops[f"op_ms_p50.{kind}"] / plain_ops[f"op_ms_p50.{kind}"]
    else:
        metrics = op_metrics(plain["samples_ms"])
        metrics["setup_s"] = p50(setup)
        metrics["ok_ratio"] = (plain["attempted"] - plain["failed"]) / plain["attempted"]
        metrics["peak_rss_mb"] = plain["peak_rss_mb"]
        env["samples_per_op"] = {k: len(v) for k, v in plain["samples_ms"].items()}
        env["setup_probes"] = setup

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    return True, attempted, failed, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    units = spec()[args.trace]
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        wl = workloads.WORKLOADS[name]
        ok, att, fail, m, env = run_workload(wl, args.seed, args.seconds, args.trace, units)
        correct &= ok
        attempted += att
        failed += fail
        print("environment " + json.dumps(env))
        for metric, entry in m.items():
            print(f"{name:14s} {metric:48s} {entry['value']:14.6g} {entry['unit']}")
            metrics[metric if len(names) == 1 else f"{name}/{metric}"] = entry

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
