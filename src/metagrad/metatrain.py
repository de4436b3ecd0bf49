"""Outer meta-training loop and fixed-prior error experiments.

A meta-step adapts a batch of tasks from the shared prior theta, estimates
each task's meta-gradient with the configured estimator, and applies either
the gradient rule theta' = theta - beta * mean(estimates) or the
interpolation rule theta' = theta + eps * mean(phi^K - theta).

Tasks within a batch adapt and estimate independently (they could run
concurrently); the meta-update is a single reduction in fixed task order, so
records are bitwise-reproducible given (seed, config).
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import List, Sequence

import numpy as np

from .adaptation import DivergenceError, Trajectory, gd_adapt, validation_gradient
from .csvtable import csv_text, row_values
from .estimators import (
    EstimatorConfig,
    _check_L,
    backprop_products,
    binom_meta_gradient,
    estimate,
    estimation_error,
    reptile_direction,
)
from .linalg import CGBreakdownError
from .objectives import (
    TaskObjective,
    mlp_init,
    random_logistic,
    random_quadratic,
    sample_sinusoid_batch,
)

FAMILIES = ("quadratic", "logistic", "sinusoid")


@dataclass(frozen=True)
class TaskPair:
    """A task's training objective and the validation objective scoring it."""

    train: TaskObjective
    val: TaskObjective


@dataclass(frozen=True)
class MetaTrainConfig:
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    family: str = "quadratic"
    alpha: float = 0.25       # inner step size
    beta: float = 1e-3        # meta step size
    K: int = 5
    meta_batch: int = 10
    iterations: int = 100
    seed: int = 0
    shots: int = 10           # data points per side (sinusoid family)
    dim: int = 6              # parameter dimension (quadratic/logistic)
    hmax: float = 1.0         # curvature spectrum upper end (quadratic family)
    track_errors: bool = False
    resample: bool = True     # fresh task batch every iteration

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown task family {self.family!r}; expected one of {FAMILIES}")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("step sizes must be positive")
        if self.meta_batch < 1:
            raise ValueError("meta_batch must be >= 1")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.hmax < 0:
            raise ValueError("hmax must be >= 0")


def _logistic_pair(rng: np.random.Generator, d: int, n: int) -> TaskPair:
    w = rng.standard_normal(d)
    return TaskPair(train=random_logistic(rng, w, n), val=random_logistic(rng, w, n))


def sample_task_batch(cfg: MetaTrainConfig, rng: np.random.Generator) -> List[TaskPair]:
    """Draw one meta-batch of (train, val) objective pairs for cfg.family."""
    if cfg.family == "quadratic":
        return [
            TaskPair(
                train=random_quadratic(rng, cfg.dim, 0.0, cfg.hmax),
                val=random_quadratic(rng, cfg.dim, 0.0, cfg.hmax),
            )
            for _ in range(cfg.meta_batch)
        ]
    if cfg.family == "logistic":
        return [_logistic_pair(rng, cfg.dim, max(2 * cfg.dim, 20)) for _ in range(cfg.meta_batch)]
    tasks = sample_sinusoid_batch(rng, cfg.meta_batch, cfg.shots)
    return [TaskPair(train=t.train_objective(), val=t.val_objective()) for t in tasks]


def initial_theta(cfg: MetaTrainConfig, rng: np.random.Generator) -> np.ndarray:
    if cfg.family == "sinusoid":
        return mlp_init(rng)
    return rng.standard_normal(cfg.dim)


@dataclass(frozen=True)
class TrainRecordRow:
    iteration: int
    meta_loss: float
    grad_norm: float
    err_fo: float
    err_tr: float
    err_bin: float
    hvp_total: int


TRAIN_CSV_HEADER = "iter,meta_loss,grad_norm,err_fo,err_tr,err_bin,hvp_total"


def train_csv(rows: Sequence[TrainRecordRow]) -> str:
    return csv_text(TRAIN_CSV_HEADER, map(row_values, rows))


def _estimator_errors(traj: Trajectory, g, l_values: Sequence[int], rescale_alpha: bool):
    """[(e_fo, e_tr, e_bin) per L]: errors of the first-order, truncated and
    expansion estimates against the exact product, with the exact and every
    truncated estimate read off one backprop pass."""
    for L in l_values:
        _check_L(L, traj.K)
    products = list(backprop_products(traj, g))
    exact = products[-1]
    e_fo = estimation_error(g, exact)
    return [
        (e_fo, estimation_error(products[L], exact),
         estimation_error(binom_meta_gradient(traj, g, L, rescale_alpha), exact))
        for L in l_values
    ]


@contextmanager
def _failure_prefix(where: str):
    """Re-raise a numerical failure in the block as its own type, prefixed with ``where``."""
    try:
        yield
    except (DivergenceError, CGBreakdownError) as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def meta_step(theta: np.ndarray, tasks: Sequence[TaskPair], cfg: MetaTrainConfig):
    """One outer update over a task batch; returns (theta', TrainRecordRow).

    The iteration field of the returned row is left at 0; the caller stamps it.
    """
    if not tasks:
        raise ValueError("task batch must be non-empty")
    # adapt every task before estimating any: per-task interleaving ran sine binom steps ~5% slower
    trajectories, grads, mgs, errs = [], [], [], []
    for t, pair in enumerate(tasks):
        with _failure_prefix(f"task {t}"):
            trajectories.append(gd_adapt(pair.train, theta, cfg.alpha, cfg.K))
            grads.append(validation_gradient(pair.val, trajectories[-1]))
    meta_loss = float(np.mean([pair.val.value(traj.final) for pair, traj in zip(tasks, trajectories)]))
    for t, (traj, g) in enumerate(zip(trajectories, grads)):
        with _failure_prefix(f"task {t}"):
            if cfg.estimator.kind != "reptile":
                mgs.append(estimate(traj, g, cfg.estimator))
            if cfg.track_errors:
                errs.append(_estimator_errors(traj, g, [cfg.estimator.L], cfg.estimator.rescale_alpha)[0])
    hvp_total = sum(mg.cost.hvp_total for mg in mgs)

    if cfg.estimator.kind == "reptile":
        direction = reptile_direction(theta, [traj.final for traj in trajectories])
        theta_next = theta + cfg.estimator.reptile_eps * direction
        grad_norm = float(np.linalg.norm(direction))
    else:
        mean_estimate = sum(mg.estimate for mg in mgs) / len(mgs)
        theta_next = theta - cfg.beta * mean_estimate
        grad_norm = float(np.linalg.norm(mean_estimate))

    err_fo = err_tr = err_bin = math.nan
    if errs:
        err_fo, err_tr, err_bin = (float(np.mean(column)) for column in zip(*errs))

    row = TrainRecordRow(0, meta_loss, grad_norm, err_fo, err_tr, err_bin, hvp_total)
    return theta_next, row


def run_metatrain(cfg: MetaTrainConfig):
    """Run cfg.iterations meta-steps; returns (records, final theta)."""
    init_ss, task_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    theta = initial_theta(cfg, np.random.default_rng(init_ss))
    task_rng = np.random.default_rng(task_ss)
    fixed_batch = None if cfg.resample else sample_task_batch(cfg, task_rng)

    records = []
    for i in range(cfg.iterations):
        tasks = sample_task_batch(cfg, task_rng) if cfg.resample else fixed_batch
        with _failure_prefix(f"meta-iteration {i}"):
            theta, row = meta_step(theta, tasks, cfg)
        records.append(replace(row, iteration=i))
    return records, theta


@dataclass(frozen=True)
class ErrorRow:
    batch: int
    L: int
    err_fo: float
    err_tr: float
    err_bin: float


PER_BATCH_CSV_HEADER = "batch,L,err_fo,err_tr,err_bin"
AVERAGED_CSV_HEADER = "L,err_fo,err_tr,err_bin"


def run_error_experiment(cfg: MetaTrainConfig, l_values: Sequence[int], batches: int):
    """Measure actual estimator errors at a fixed prior; no outer updates.

    For every batch: adapt each task from the same theta, take the exact
    product as the reference, and record the batch-mean errors of the
    first-order, truncated, and expansion estimates at each L. The exact and
    every truncated estimate come off one backprop pass per task. Returns
    (per_batch_rows, averaged_rows).
    """
    if batches < 1:
        raise ValueError("batches must be >= 1")
    l_values = list(l_values)

    init_ss, task_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    theta = initial_theta(cfg, np.random.default_rng(init_ss))
    task_rng = np.random.default_rng(task_ss)

    per_batch = []
    sums = [np.zeros(3) for _ in l_values]  # by position, so a repeated L is not summed twice
    for b in range(batches):
        errs = []  # per task, one (e_fo, e_tr, e_bin) per L
        for t, pair in enumerate(sample_task_batch(cfg, task_rng)):
            with _failure_prefix(f"batch {b}, task {t}"):
                traj = gd_adapt(pair.train, theta, cfg.alpha, cfg.K)
                g = validation_gradient(pair.val, traj)
                errs.append(_estimator_errors(traj, g, l_values, cfg.estimator.rescale_alpha))
        for L, per_task, total in zip(l_values, zip(*errs), sums):
            mean = np.mean(np.array(per_task), axis=0)
            total += mean
            per_batch.append(ErrorRow(b, L, float(mean[0]), float(mean[1]), float(mean[2])))

    averaged = [
        ErrorRow(-1, L, *(float(x) for x in total / batches)) for L, total in zip(l_values, sums)
    ]
    return per_batch, averaged


def per_batch_csv(rows: Sequence[ErrorRow]) -> str:
    return csv_text(PER_BATCH_CSV_HEADER, map(row_values, rows))


def averaged_csv(rows: Sequence[ErrorRow]) -> str:
    return csv_text(AVERAGED_CSV_HEADER, (row_values(r)[1:] for r in rows))
