import numpy as np

from metagrad import (
    PrescribedHessianSequence,
    from_hessian_sequence,
    gd_adapt,
    mlp_init,
    random_logistic,
    random_quadratic,
    sample_sinusoid_batch,
    validation_gradient,
)
from metagrad.estimators import _cascade


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


def dense_product(traj, L=None):
    """Explicit matrix (I - a H^{K-L}) ... (I - a H^{K-1}) for oracle checks."""
    K = traj.K
    if L is None:
        L = K
    d = traj.dim
    out = np.eye(d)
    for k in range(K - L, K):
        out = out @ (np.eye(d) - traj.alpha * traj.step_hessian(k))
    return out


def binom_expansion_matrix(traj, L):
    """The order-L expansion as an explicit d x d matrix: the estimators' cascade
    run on matrices seeded with the identity."""
    hessians = [traj.step_hessian(k) for k in range(traj.K)]

    def stage(lo, ms):
        return [hessians[lo + j] @ m for j, m in enumerate(ms)]

    return _cascade(stage, traj.K, L, traj.alpha, np.eye(traj.dim))[0]


def strict_lower_ones(n: int) -> np.ndarray:
    """n x n matrix with entry (i, j) = 1 iff i > j, else 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.tril(np.ones((n, n)), k=-1)
