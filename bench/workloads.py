"""Workload definitions and the per-kind task streams the benchmark drives.

Importing this module puts the checkout's ``src/`` first on ``sys.path`` and
imports ``metagrad`` from there; it refuses to run against any other copy
(for example one installed into site-packages), because the benchmark must
measure the sources it ships with.
"""

import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"  # sweep outputs of a run (removed after it) and the last trace per workload


def _import_metagrad():
    init = SRC / "metagrad" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: metagrad sources not found at {init}")
    sys.path.insert(0, str(SRC))
    import metagrad

    if Path(metagrad.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported metagrad from {metagrad.__file__}, expected {init}")


_import_metagrad()

from metagrad import metatrain  # noqa: E402
from metagrad.estimators import EstimatorConfig  # noqa: E402

# One meta-step op per estimator kind, then the error-sweep op.
STEP_KINDS = ("fo", "trunc", "binom", "full", "imaml")
OP_KINDS = STEP_KINDS + ("sweep",)


@dataclass(frozen=True)
class Workload:
    name: str
    family: str           # MetaTrainConfig.family, also the CLI --family value
    K: int
    L: int                # truncation for trunc and binom
    alpha: float
    beta: float
    imaml_lambda: float
    rtol: float           # relative tolerance of the correctness gate
    why: str
    meta_batch: int = 10
    shots: int = 10
    dim: int = 6

    def config(self, kind: str, seed: int) -> metatrain.MetaTrainConfig:
        est = EstimatorConfig(
            kind=kind,
            L=self.L if kind in ("trunc", "binom") else 0,
            imaml_lambda=self.imaml_lambda,
        )
        return metatrain.MetaTrainConfig(
            estimator=est,
            family=self.family,
            alpha=self.alpha,
            beta=self.beta,
            K=self.K,
            meta_batch=self.meta_batch,
            seed=seed,
            shots=self.shots,
            dim=self.dim,
        )

    def sweep_argv(self, seed: int, out_dir: Path) -> List[str]:
        return [
            "error-sweep",
            "--family", self.family,
            "--K", str(self.K),
            "--alpha", repr(self.alpha),
            "--batch", str(self.meta_batch),
            "--shots", str(self.shots),
            "--d", str(self.dim),
            "--batches", "1",
            "--seed", str(seed),
            "--out", str(out_dir),
        ]

    def describe(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "why"}


# BENCHMARK.json lists sine and logistic-deep only. Steady medians need 55-second runs on a
# 2-vCPU VM whose speed swings by 25-40% for tens of seconds at a time (35-second runs left
# op_ms_p50 spreading by up to 0.21 of its median across seeds), and a full parent-vs-change
# comparison has to stay within an hour, which leaves room for two workloads. quad stays
# runnable (--workload quad or all); logistic-deep's analytic HVP is cheap too, so it is the
# listed workload that HVP changes bypass.
WORKLOADS = {
    w.name: w
    for w in (
        # imaml uses lambda=100. At the initial prior, CG meets non-positive curvature
        # (the Hessian is not SPD) on 20 of 20 sampled sine tasks with the CLI default
        # lambda=1 and on 19 of 20 with lambda=10 (seeds 0 and 1 alike); with lambda=100,
        # which matches the README's curvature note of about 1e2, it breaks down on none.
        Workload(
            name="sine", family="sinusoid", K=5, L=2, alpha=1e-3, beta=2e-3,
            imaml_lambda=100.0, rtol=1e-6,
            why="1-40-40-1 MLP (d=1761): finite-difference HVPs and MLP gradients are ~80% of a "
                "binom op; imaml lambda=100 because lambda=1 (10) breaks CG on 20 (19) of 20 tasks",
        ),
        Workload(
            name="quad", family="quadratic", K=5, L=2, alpha=0.25, beta=1e-3,
            imaml_lambda=1.0, rtol=1e-10,
            why="d=6 quadratics: a 7us HVP is negligible, objective construction and per-call "
                "overhead in adaptation/estimators dominate; HVP speed-ups should not move it",
        ),
        Workload(
            name="logistic-deep", family="logistic", K=10, L=5, alpha=0.25, beta=1e-3,
            imaml_lambda=1.0, rtol=1e-10,
            why="d=6 logistic, K=10, L=5 (30 HVPs per binom estimate, ~285 per sweep task): "
                "estimator self time dominates, and the sweep reads many estimates per trajectory",
        ),
    )
}


@dataclass
class Stream:
    """One estimator kind's prior and task stream, seeded as run_metatrain seeds them."""

    kind: str
    cfg: metatrain.MetaTrainConfig
    theta: np.ndarray
    rng: np.random.Generator
    losses: list = field(default_factory=list)  # meta_loss per op, None for a failed op


def make_streams(wl: Workload, seed: int) -> List[Stream]:
    streams = []
    for kind in STEP_KINDS:
        cfg = wl.config(kind, seed)
        init_ss, task_ss = np.random.SeedSequence(cfg.seed).spawn(2)
        theta = metatrain.initial_theta(cfg, np.random.default_rng(init_ss))
        streams.append(Stream(kind, cfg, theta, np.random.default_rng(task_ss)))
    return streams


def sweep_seed(seed: int, index: int) -> int:
    """CLI seed of the index-th sweep op, so every sweep draws fresh tasks."""
    return seed * 1_000_000 + index
