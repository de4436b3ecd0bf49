import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from metagrad import (
    BoundInputs,
    LogisticTask,
    MlpObjective,
    PrescribedHessianSequence,
    QuadraticTask,
    TaskBatch,
    TaskObjective,
    TaskPair,
    Trajectory,
    bounds_smooth,
    from_hessian_sequence,
    gd_adapt,
    meta_step,
    mlp_init,
    random_spd,
    sample_task_batch,
    validation_gradient,
)
from metagrad.estimators import _cascade
from metagrad.metatrain import AMPLITUDE_RANGE, INPUT_RANGE, PHASE_RANGE, initial_theta


def random_quadratic(rng: np.random.Generator, d: int, lo: float = 0.0, hi: float = 1.0) -> QuadraticTask:
    return QuadraticTask(random_spd(rng, d, lo, hi), rng.standard_normal(d))


def random_logistic(rng: np.random.Generator, w: np.ndarray, n: int) -> LogisticTask:
    """n inputs x ~ N(0, I), then labels drawn from sigmoid(x^T w) for true weights w."""
    x = rng.standard_normal((len(w), n))
    probs = LogisticTask._sigmoid(x.T @ w)
    y = (rng.uniform(size=n) < probs).astype(float)
    return LogisticTask(x, y)


def stack_objectives(objs) -> TaskObjective:
    """One objective over a leading task axis from objectives of one family and
    shape: row t of its results is objs[t]'s. The data is not validated again."""
    if len({type(o) for o in objs}) != 1:
        raise ValueError("stacked objectives must share one family")
    stacked = object.__new__(type(objs[0]))
    stacked.__dict__ = {name: np.stack([vars(o)[name] for o in objs]) if isinstance(value, np.ndarray) else value
                        for name, value in vars(objs[0]).items()}
    return stacked


def task_batch(pairs) -> TaskBatch:
    """The ``TaskBatch`` of single-task ``TaskPair``s of one family."""
    return TaskBatch(stack_objectives([p.train for p in pairs]), stack_objectives([p.val for p in pairs]))


@dataclass(frozen=True)
class SinusoidTask:
    """One few-shot sine-fitting task: y = amplitude * sin(x + phase)."""

    amplitude: float
    phase: float
    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray

    def train_objective(self) -> MlpObjective:
        return MlpObjective(self.x_train, self.y_train)

    def val_objective(self) -> MlpObjective:
        return MlpObjective(self.x_val, self.y_val)


def sample_sinusoid_batch(rng: np.random.Generator, batch: int, shots: int):
    """Sample ``batch`` sine tasks with ``shots`` train and val points each, one task
    at a time; the draw advances ``rng`` in place."""
    if batch < 1 or shots < 1:
        raise ValueError("batch and shots must be >= 1")
    tasks = []
    for _ in range(batch):
        amplitude = float(rng.uniform(*AMPLITUDE_RANGE))
        phase = float(rng.uniform(*PHASE_RANGE))
        x_train = rng.uniform(*INPUT_RANGE, size=shots)
        x_val = rng.uniform(*INPUT_RANGE, size=shots)
        tasks.append(SinusoidTask(amplitude, phase, x_train, amplitude * np.sin(x_train + phase),
                                  x_val, amplitude * np.sin(x_val + phase)))
    return tasks


def reference_task_batch(cfg, rng):
    """Per-task reference for ``sample_task_batch``: one validated objective per
    task and side, drawn in the same RNG order."""
    if cfg.family == "quadratic":
        return [TaskPair(random_quadratic(rng, cfg.dim, 0.0, cfg.hmax), random_quadratic(rng, cfg.dim, 0.0, cfg.hmax))
                for _ in range(cfg.meta_batch)]
    if cfg.family == "logistic":
        pairs = []
        for _ in range(cfg.meta_batch):
            w = rng.standard_normal(cfg.dim)
            n = max(2 * cfg.dim, 20)
            pairs.append(TaskPair(random_logistic(rng, w, n), random_logistic(rng, w, n)))
        return pairs
    return [TaskPair(t.train_objective(), t.val_objective()) for t in sample_sinusoid_batch(rng, cfg.meta_batch, cfg.shots)]


@pytest.fixture
def stage_sizes(monkeypatch):
    """The number of vectors sent in each ``Trajectory.hvp_stage`` call, in call order;
    every call must send its vectors as one window array."""
    sent = []
    stage = Trajectory.hvp_stage

    def counting(self, lo, vs):
        assert type(vs) is np.ndarray, f"a stage sends one window array, not a {type(vs).__name__}"
        sent.append(len(vs))
        return stage(self, lo, vs)

    monkeypatch.setattr(Trajectory, "hvp_stage", counting)
    return sent


def quadratic_trajectory(rng, d=4, K=5, alpha=0.2, lo=0.0, hi=1.0):
    """Random quadratic task adapted for K steps; returns (traj, g)."""
    task = random_quadratic(rng, d, lo, hi)
    traj = gd_adapt(task, rng.standard_normal(d), alpha, K)
    return traj, rng.standard_normal(d)


def prescribed_trajectory(rng, d=4, K=5, alpha=0.25, scale=1.0):
    """Random symmetric per-step curvature wrapped as a trajectory."""
    hs = []
    for _ in range(K):
        m = rng.standard_normal((d, d)) * scale
        hs.append((m + m.T) / 2.0)
    g = rng.standard_normal(d)
    seq = PrescribedHessianSequence(hessians=tuple(hs), g=g)
    return from_hessian_sequence(seq, alpha), g


def logistic_trajectory(rng, d=4, K=5, alpha=0.5):
    """Random logistic-regression task (analytic HVP) adapted for K steps; returns (traj, g)."""
    task = random_logistic(rng, rng.standard_normal(d), max(2 * d, 20))
    traj = gd_adapt(task, rng.standard_normal(d), alpha, K)
    return traj, rng.standard_normal(d)


def sine_trajectory(rng, K=5, alpha=1e-3, shots=5):
    """One sine task on the 1-40-40-1 regressor (exact R-op HVP); returns (traj, g).

    alpha = 1e-3 keeps alpha*H well below 1 for this family (H is about 1e2).
    """
    task = sample_sinusoid_batch(rng, 1, shots)[0]
    traj = gd_adapt(task.train_objective(), mlp_init(rng), alpha, K)
    return traj, validation_gradient(task.val_objective(), traj)


def dense_hessian(obj, phi):
    """Explicit Hessian of a quadratic (A) or logistic ((1/N) X diag(s(1 - s)) X^T) objective at phi."""
    if isinstance(obj, QuadraticTask):
        return obj.a
    s = obj._sigmoid(obj.x.T @ np.asarray(phi, dtype=float))
    return (obj.x * (s * (1.0 - s))) @ obj.x.T / obj.n


def step_hessian(traj, k):
    """Explicit Hessian at iterate k: the prescribed one, or the objective's dense_hessian."""
    if traj.step_hessians is not None:
        return traj.step_hessians[k]
    return dense_hessian(traj.objective, traj.iterates[k])


def dense_product(traj, L=None):
    """Explicit matrix (I - a H^{K-L}) ... (I - a H^{K-1}) for oracle checks."""
    K = traj.K
    if L is None:
        L = K
    d = traj.dim
    out = np.eye(d)
    for k in range(K - L, K):
        out = out @ (np.eye(d) - traj.alpha * step_hessian(traj, k))
    return out


def binom_expansion_matrix(traj, L):
    """The order-L expansion as an explicit d x d matrix: the estimators' cascade
    run on matrices seeded with the identity."""
    hessians = [step_hessian(traj, k) for k in range(traj.K)]

    def stage(lo, ms):
        return [hessians[lo + j] @ m for j, m in enumerate(ms)]

    return _cascade(stage, 0, traj.K, (L,), traj.alpha, np.eye(traj.dim))[0][L]


def meta_loop(cfg, fixed_batch=False):
    """run_metatrain's loop by hand, seeded as it seeds: ``initial_theta``, then
    ``sample_task_batch`` + ``meta_step`` per iteration (the benchmark worker's
    op), or one batch drawn once and reused when ``fixed_batch``. Returns
    (records, final theta)."""
    init_ss, task_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    theta = initial_theta(cfg, np.random.default_rng(init_ss))
    task_rng = np.random.default_rng(task_ss)
    batch = sample_task_batch(cfg, task_rng) if fixed_batch else None
    records = []
    for i in range(cfg.iterations):
        theta, row = meta_step(theta, batch if fixed_batch else sample_task_batch(cfg, task_rng), cfg)
        records.append(replace(row, iteration=i))
    return records, theta


def bound_ordering_check(bi: BoundInputs) -> bool:
    """True iff e_bin < e_tr < e_fo under the smooth-regime bounds.

    The strict chain is only claimed for 1 <= L < K (at L = 0 the truncated
    and first-order bounds coincide), so other L raise.
    """
    if not 1 <= bi.L < bi.K:
        raise ValueError(f"ordering is only claimed for 1 <= L < K, got L={bi.L}, K={bi.K}")
    v = bounds_smooth(bi)
    return v.e_bin < v.e_tr < v.e_fo


def lemma_partial_sum_identity(K: int, L: int, gamma: float):
    """Both sides of the tail-sum identity

        sum_{l=L+1}^{K} C(K,l) gamma^l
            = gamma^{L+1} sum_{l=1}^{K-L} C(K-l,L) (1+gamma)^{l-1}

    returned as (lhs, rhs) for equality testing. Needs 0 <= L <= K-1.
    """
    if not 0 <= L <= K - 1:
        raise ValueError(f"need 0 <= L <= K-1, got L={L}, K={K}")
    lhs = sum(math.comb(K, l) * gamma**l for l in range(L + 1, K + 1))
    rhs = gamma ** (L + 1) * sum(
        math.comb(K - l, L) * (1.0 + gamma) ** (l - 1) for l in range(1, K - L + 1)
    )
    return lhs, rhs


def lemma_binom_bound_check(K: int, L: int) -> bool:
    """True when C(K, L) < (e K / L)^L, which should hold for 1 <= L <= K."""
    if not 1 <= L <= K:
        raise ValueError(f"need 1 <= L <= K, got L={L}, K={K}")
    return math.comb(K, L) < (math.e * K / L) ** L


def binom_sum_collapse_check(K: int, L: int) -> bool:
    """True iff sum_{l=1}^{K-L} C(K-l, L) == C(K, L+1) in exact integers."""
    if not 0 <= L < K:
        raise ValueError(f"need 0 <= L < K, got L={L}, K={K}")
    return sum(math.comb(K - l, L) for l in range(1, K - L + 1)) == math.comb(K, L + 1)
