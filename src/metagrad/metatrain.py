"""Outer meta-training loop and fixed-prior error experiments.

A meta-step adapts a batch of tasks from the shared prior theta, estimates
each task's meta-gradient with the configured estimator, and applies either
the gradient rule theta' = theta - beta * mean(estimates) or the
interpolation rule theta' = theta + eps * mean(phi^K - theta).

Each phase runs once for the batch, a ``TaskBatch`` of stacked objectives that
``sample_task_batch`` draws straight into its stacks (imaml's CG too: one HVP
call per CG iteration for the tasks still iterating). Row t is bit for bit task
t's single-task run (``batch[t]``), and the meta-update is a single reduction in
fixed task order, so records are bitwise-reproducible given (seed, config). A
stacked phase fails fast without naming a task; a failed batch is then replayed
on its one-row slices (``_run_stacked``), so the report names the task a
task-by-task run stops at.
"""

import math
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .adaptation import DivergenceError, gd_adapt, validation_gradient
from .csvtable import csv_text, row_values
from .estimators import EstimatorConfig, estimate, estimator_errors
from .linalg import CGBreakdownError
from .objectives import (
    LogisticTask,
    MlpObjective,
    QuadraticTask,
    TaskObjective,
    _matvec,
    mlp_init,
    random_spd,
    take_rows,
)

FAMILIES = ("quadratic", "logistic", "sinusoid")

# sine tasks: y = amplitude * sin(x + phase), each range sampled uniformly
AMPLITUDE_RANGE = (0.1, 5.0)
PHASE_RANGE = (0.0, np.pi)
INPUT_RANGE = (-5.0, 5.0)


@dataclass(frozen=True)
class TaskPair:
    """A task's training objective and the validation objective scoring it."""

    train: TaskObjective
    val: TaskObjective


@dataclass(frozen=True)
class TaskBatch(Sequence):
    """B tasks as one stacked training and one stacked validation objective.

    ``batch[t]`` is task t's own ``TaskPair`` (the task axis dropped), and
    ``batch[a:b]`` the ``TaskBatch`` of those tasks; the arrays are views.
    """

    train: TaskObjective
    val: TaskObjective

    def __len__(self) -> int:
        # the task axis leads every array of a stacked objective
        return next(len(v) for v in vars(self.val).values() if isinstance(v, np.ndarray))

    def __getitem__(self, t):
        if isinstance(t, slice):
            return TaskBatch(take_rows(self.train, t), take_rows(self.val, t))
        if not -len(self) <= t < len(self):
            raise IndexError(f"task {t} outside a batch of {len(self)}")
        return TaskPair(take_rows(self.train, t), take_rows(self.val, t))


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

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown task family {self.family!r}; expected one of {FAMILIES}")
        for name in ("alpha", "beta"):
            if not 0 < getattr(self, name) < math.inf:  # written so that NaN fails too
                raise ValueError(f"{name} must be finite and positive")
        if self.meta_batch < 1:
            raise ValueError("meta_batch must be >= 1")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if not 0 <= self.hmax < math.inf:
            raise ValueError("hmax must be finite and >= 0")


def sample_task_batch(cfg: MetaTrainConfig, rng: np.random.Generator) -> TaskBatch:
    """Draw one meta-batch of cfg.family tasks straight into its stacks, each side
    validated once as one B-task objective. Tasks are drawn one by one, train side
    first, so the stream does not depend on B; logistic labels and sine targets are
    computed for the whole stack, bit for bit the per-task values."""
    B, d = cfg.meta_batch, cfg.dim
    if cfg.family == "quadratic":
        a, b = np.empty((2, B, d, d)), np.empty((2, B, d))
        for t in range(B):
            for side in range(2):
                a[side, t] = random_spd(rng, d, 0.0, cfg.hmax)
                b[side, t] = rng.standard_normal(d)
        return TaskBatch(QuadraticTask(a[0], b[0]), QuadraticTask(a[1], b[1]))
    if cfg.family == "logistic":
        n = max(2 * d, 20)
        w, x, u = np.empty((B, d)), np.empty((2, B, d, n)), np.empty((2, B, n))
        for t in range(B):
            w[t] = rng.standard_normal(d)
            for side in range(2):
                x[side, t] = rng.standard_normal((d, n))
                u[side, t] = rng.uniform(size=n)
        y = (u < LogisticTask._sigmoid(_matvec(x.swapaxes(-1, -2), w))).astype(float)
        return TaskBatch(LogisticTask(x[0], y[0]), LogisticTask(x[1], y[1]))
    amplitude, phase, x = np.empty((B, 1)), np.empty((B, 1)), np.empty((2, B, cfg.shots))
    for t in range(B):
        amplitude[t] = rng.uniform(*AMPLITUDE_RANGE)
        phase[t] = rng.uniform(*PHASE_RANGE)
        for side in range(2):
            x[side, t] = rng.uniform(*INPUT_RANGE, size=cfg.shots)
    y = amplitude * np.sin(x + phase)
    return TaskBatch(MlpObjective(x[0], y[0]), MlpObjective(x[1], y[1]))


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


@contextmanager
def _failure_prefix(where: str):
    """Re-raise a numerical failure in the block as its own type, prefixed with ``where``."""
    try:
        yield
    except (DivergenceError, CGBreakdownError) as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _run_stacked(phase, tasks: TaskBatch, where: str = ""):
    """phase(tasks) on the whole stack, once. On a numerical failure, re-run phase on
    each task's one-row slice, in order, and raise the first one's failure as
    ``{where}task t: ...``. Row t of a stack is bit for bit task t's own run, so that is
    the failure a task-by-task run stops at. A ValueError (a NaN/Inf map output in CG,
    say) is replayed too, since an earlier task may fail later in the stack's order; it
    is re-raised unprefixed, as the task-by-task run raises it."""
    try:
        return phase(tasks)
    except (DivergenceError, CGBreakdownError, ValueError):
        for t in range(len(tasks)):
            with _failure_prefix(f"{where}task {t}"):
                phase(tasks[t:t + 1])
        raise  # no task fails alone: report the stack's own failure


def _adapt(tasks: TaskBatch, theta, cfg: MetaTrainConfig):
    """Adapt the batch as one stack: (trajectory, validation gradients)."""
    traj = gd_adapt(tasks.train, np.tile(theta, (len(tasks), 1)), cfg.alpha, cfg.K)
    return traj, validation_gradient(tasks.val, traj)


def meta_step(theta: np.ndarray, tasks: TaskBatch, cfg: MetaTrainConfig):
    """One outer update over a task batch, run as one stack; returns (theta',
    TrainRecordRow). The row's iteration is left at 0; the caller stamps it."""
    if not tasks:
        raise ValueError("task batch must be non-empty")
    est = cfg.estimator

    def phases(batch):
        traj, g = _adapt(batch, theta, cfg)
        losses = batch.val.value(traj.final)
        if not np.isfinite(losses).all():
            raise DivergenceError("validation loss is NaN/Inf")
        mg = None if est.kind == "reptile" else estimate(traj, g, est)
        errs = estimator_errors(traj, g, [est.L], est.rescale_alpha)[0] if cfg.track_errors else None
        return traj.final, losses, mg, errs

    finals, losses, mg, errs = _run_stacked(phases, tasks)
    meta_loss = float(np.mean(losses))

    if mg is None:
        direction = sum(finals - theta) / len(tasks)
        theta_next = theta + est.reptile_eps * direction
        grad_norm, hvp_total = float(np.linalg.norm(direction)), 0
    else:
        mean_estimate = sum(mg.estimate) / len(tasks)
        theta_next = theta - cfg.beta * mean_estimate
        grad_norm, hvp_total = float(np.linalg.norm(mean_estimate)), mg.cost.hvp_total
    if not math.isfinite(grad_norm):  # batch-level: no one task fails, so it is not replayed
        raise DivergenceError("meta-update norm is NaN/Inf")

    err_fo, err_tr, err_bin = (float(np.mean(column)) for column in errs) if errs else (math.nan,) * 3

    row = TrainRecordRow(0, meta_loss, grad_norm, err_fo, err_tr, err_bin, hvp_total)
    return theta_next, row


def run_metatrain(cfg: MetaTrainConfig):
    """Run cfg.iterations meta-steps, each on a fresh task batch; returns (records, final theta)."""
    init_ss, task_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    theta = initial_theta(cfg, np.random.default_rng(init_ss))
    task_rng = np.random.default_rng(task_ss)

    records = []
    for i in range(cfg.iterations):
        tasks = sample_task_batch(cfg, task_rng)
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


def run_error_experiment(cfg: MetaTrainConfig, batches: int):
    """Measure actual estimator errors at a fixed prior; no outer updates.

    For every batch: adapt the tasks from the same theta as one stack, take
    the exact product as the reference, and record the batch-mean errors of
    the first-order, truncated, and expansion estimates at each L = 0..K, all
    read by ``estimators.estimator_errors``: one stacked base-alpha cascade to
    order K, plus binom's own pass for each order whose alpha is rescaled.
    Returns (per_batch_rows, averaged_rows).
    """
    if batches < 1:
        raise ValueError("batches must be >= 1")
    l_values = range(cfg.K + 1)

    init_ss, task_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    theta = initial_theta(cfg, np.random.default_rng(init_ss))
    task_rng = np.random.default_rng(task_ss)

    per_batch = []
    sums = np.zeros((len(l_values), 3))
    for b in range(batches):
        tasks = sample_task_batch(cfg, task_rng)
        errs = _run_stacked(
            lambda ts: estimator_errors(*_adapt(ts, theta, cfg), l_values, cfg.estimator.rescale_alpha),
            tasks, f"batch {b}, ")
        for L, per_task in enumerate(errs):
            mean = np.mean(np.stack(per_task, axis=1), axis=0)  # tasks x (e_fo, e_tr, e_bin)
            sums[L] += mean
            per_batch.append(ErrorRow(b, L, float(mean[0]), float(mean[1]), float(mean[2])))

    averaged = [
        ErrorRow(-1, L, *(float(x) for x in total / batches)) for L, total in enumerate(sums)
    ]
    return per_batch, averaged


def per_batch_csv(rows: Sequence[ErrorRow]) -> str:
    return csv_text(PER_BATCH_CSV_HEADER, map(row_values, rows))


def averaged_csv(rows: Sequence[ErrorRow]) -> str:
    return csv_text(AVERAGED_CSV_HEADER, (row_values(r)[1:] for r in rows))
