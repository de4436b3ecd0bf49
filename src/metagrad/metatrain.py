"""Outer meta-training loop and fixed-prior error experiments.

A meta-step adapts a batch of tasks from the shared prior theta, estimates
each task's meta-gradient with the configured estimator, and applies either
the gradient rule theta' = theta - beta * mean(estimates) or the
interpolation rule theta' = theta + eps * mean(phi^K - theta).

Each phase runs once for the batch on a leading task axis (imaml solves task by
task). Row t is bit for bit task t's single-task run, and the meta-update is a
single reduction in fixed task order, so records are bitwise-reproducible given
(seed, config). A stacked phase fails fast without naming a task; a failed batch
is then replayed task by task (``_run_stacked``), so the report names the task a
task-by-task run stops at.
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
    _cascade,
    _check_L,
    _effective_alpha,
    estimate,
    estimation_error,
    imaml_meta_gradient,
    reptile_direction,
)
from .linalg import CGBreakdownError
from .objectives import (
    TaskObjective,
    mlp_init,
    random_logistic,
    random_quadratic,
    sample_sinusoid_batch,
    stack_objectives,
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
    expansion estimates against the exact product (per task of a stack), read
    off one cascade per effective alpha. The base-alpha cascade runs to order
    K, so its right edge holds the exact and every truncated product."""
    K = traj.K
    for L in l_values:
        _check_L(L, K)
    g = np.asarray(g, dtype=float)
    groups = {traj.alpha: {K}}
    for L in l_values:
        groups.setdefault(_effective_alpha(traj, L, rescale_alpha), set()).add(L)
    runs = {a: _cascade(traj.hvp_stage, 0, K, sorted(ls), a, g) for a, ls in groups.items()}
    products = runs[traj.alpha][1]
    exact = products[K]
    e_fo = estimation_error(g, exact)
    return [
        (e_fo, estimation_error(products[L], exact),
         estimation_error(runs[_effective_alpha(traj, L, rescale_alpha)][0][L], exact))
        for L in l_values
    ]


@contextmanager
def _failure_prefix(where: str):
    """Re-raise a numerical failure in the block as its own type, prefixed with ``where``."""
    try:
        yield
    except (DivergenceError, CGBreakdownError) as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _run_stacked(phase, tasks: Sequence[TaskPair], where: str = ""):
    """phase(tasks) on the whole stack, once. On a numerical failure, re-run phase on
    each task alone, in order, and raise the first one's failure as ``{where}task t: ...``.
    Row t of a stack is bit for bit task t's own run, so that is the failure a
    task-by-task run stops at."""
    try:
        return phase(tasks)
    except (DivergenceError, CGBreakdownError):
        for t in range(len(tasks)):
            with _failure_prefix(f"{where}task {t}"):
                phase(tasks[t:t + 1])
        raise  # no task fails alone: report the stack's own failure


def _adapt(tasks: Sequence[TaskPair], theta, cfg: MetaTrainConfig):
    """Adapt the batch as one stack: (trajectory, validation gradients, stacked validation objective)."""
    traj = gd_adapt(stack_objectives([p.train for p in tasks]), np.tile(theta, (len(tasks), 1)), cfg.alpha, cfg.K)
    val = stack_objectives([p.val for p in tasks])
    return traj, validation_gradient(val, traj), val


def _estimates(tasks: Sequence[TaskPair], traj: Trajectory, g, est: EstimatorConfig):
    """(B x d estimates, HVPs spent): one stacked estimate, or imaml's CG task by task."""
    if est.kind != "imaml":
        mg = estimate(traj, g, est)
        return mg.estimate, len(tasks) * mg.cost.hvp_total
    mgs = [imaml_meta_gradient(pair.train, traj.final[t], g[t], est.imaml_lambda, est.cg_tol, est.cg_iters)
           for t, pair in enumerate(tasks)]
    return np.array([mg.estimate for mg in mgs]), sum(mg.cost.hvp_total for mg in mgs)


def meta_step(theta: np.ndarray, tasks: Sequence[TaskPair], cfg: MetaTrainConfig):
    """One outer update over a one-family task batch, run as one stack; returns
    (theta', TrainRecordRow). The row's iteration is left at 0; the caller stamps it."""
    if not tasks:
        raise ValueError("task batch must be non-empty")
    est = cfg.estimator

    def phases(batch):
        traj, g, val = _adapt(batch, theta, cfg)
        losses = val.value(traj.final)
        if not np.isfinite(losses).all():
            raise DivergenceError("validation loss is NaN/Inf")
        estimates, hvp_total = (None, 0) if est.kind == "reptile" else _estimates(batch, traj, g, est)
        errs = _estimator_errors(traj, g, [est.L], est.rescale_alpha)[0] if cfg.track_errors else None
        return traj.final, losses, estimates, hvp_total, errs

    finals, losses, estimates, hvp_total, errs = _run_stacked(phases, tasks)
    meta_loss = float(np.mean(losses))

    if est.kind == "reptile":
        direction = reptile_direction(theta, finals)
        theta_next = theta + est.reptile_eps * direction
        grad_norm = float(np.linalg.norm(direction))
    else:
        mean_estimate = sum(estimates) / len(tasks)
        theta_next = theta - cfg.beta * mean_estimate
        grad_norm = float(np.linalg.norm(mean_estimate))
    if not math.isfinite(grad_norm):  # batch-level: no one task fails, so it is not replayed
        raise DivergenceError("meta-update norm is NaN/Inf")

    err_fo, err_tr, err_bin = (float(np.mean(column)) for column in errs) if errs else (math.nan,) * 3

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

    For every batch: adapt the tasks from the same theta as one stack, take
    the exact product as the reference, and record the batch-mean errors of
    the first-order, truncated, and expansion estimates at each L. Every
    estimate comes off one stacked cascade per effective alpha (see
    ``_estimator_errors``). Returns (per_batch_rows, averaged_rows).
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
        tasks = sample_task_batch(cfg, task_rng)
        errs = _run_stacked(
            lambda ts: _estimator_errors(*_adapt(ts, theta, cfg)[:2], l_values, cfg.estimator.rescale_alpha),
            tasks, f"batch {b}, ")
        for L, per_task, total in zip(l_values, errs, sums):
            mean = np.mean(np.stack(per_task, axis=1), axis=0)  # tasks x (e_fo, e_tr, e_bin)
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
