"""Inner-loop gradient descent and trajectory recording.

Adaptation runs phi^{k+1} = phi^k - alpha * grad(phi^k) from phi^0 = theta and
records every iterate. Tasks are independent: for B stacked tasks phi is B x d,
each step one gradient call, row t bit for bit task t's run. The first NaN/Inf
in any row raises at once, naming the step; naming the task is left to
``metatrain``, which replays a failed stack task by task. Finished trajectories
are immutable.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import as_vectors
from .objectives import PrescribedHessianSequence, TaskObjective


class DivergenceError(RuntimeError):
    """Raised when an iteration produces NaN/Inf; the message names the step."""


@dataclass(frozen=True)
class Trajectory:
    """A recorded K-step descent path for one task, or for B stacked tasks.

    ``iterates`` holds phi^0..phi^K, each (d,) or B x d. HVPs are replayed on
    demand through :meth:`hvp_stage` (one product per iterate of a run of consecutive steps),
    either via the backing objective or via a prescribed per-step Hessian
    sequence; :meth:`hvp` is its one-product case.
    """

    iterates: tuple
    alpha: float
    objective: Optional[TaskObjective] = None
    step_hessians: Optional[tuple] = None

    @property
    def K(self) -> int:
        return len(self.iterates) - 1

    @property
    def dim(self) -> int:
        return self.iterates[0].shape[-1]

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]

    def hvp(self, k: int, v: np.ndarray) -> np.ndarray:
        """Hessian-vector product of the training loss at iterate k."""
        return self.hvp_stage(k, [v])[0]

    def hvp_stage(self, lo: int, vs):
        """Hessian at iterate lo + j applied to vs[j], for every j, as one call."""
        hi = lo + len(vs)
        if not 0 <= lo <= hi <= self.K:
            raise IndexError(f"step indices {lo}..{hi - 1} outside [0, {self.K})")
        if self.step_hessians is not None:
            return [h @ v for h, v in zip(self.step_hessians[lo:hi], vs)]
        return self.objective.hvp(self.iterates[lo:hi], vs)


def gd_adapt(obj: TaskObjective, theta, alpha: float, K: int) -> Trajectory:
    """Run K gradient-descent steps from theta (B x d for B stacked tasks) at step size alpha."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if K < 1:
        raise ValueError("K must be >= 1")
    phi = as_vectors(theta)
    if phi.shape[-1] != obj.dim:
        raise ValueError(f"theta has dimension {phi.shape[-1]}, objective expects {obj.dim}")
    iterates = [phi]
    for k in range(K):
        try:
            g = obj.gradient(phi)
        except ValueError as exc:
            raise DivergenceError(f"gradient evaluation failed at step {k}: {exc}") from exc
        with np.errstate(over="ignore", invalid="ignore"):
            nxt = phi - alpha * g
        if not np.isfinite(nxt).all():  # a NaN/Inf gradient always leaves one in the iterate
            what = "training gradient" if not np.isfinite(g).all() else "iterate"
            raise DivergenceError(f"{what} diverged (NaN/Inf) at step {k}")
        phi = nxt
        iterates.append(phi)
    return Trajectory(iterates=tuple(iterates), alpha=float(alpha), objective=obj)


def validation_gradient(val_obj: TaskObjective, traj: Trajectory) -> np.ndarray:
    """Gradient of the validation loss at the final iterate (per row of a stack)."""
    if val_obj.dim != traj.dim:
        raise ValueError(
            f"validation objective dimension {val_obj.dim} != trajectory dimension {traj.dim}"
        )
    g = val_obj.gradient(traj.final)
    if not np.isfinite(g).all():
        raise DivergenceError("validation gradient is NaN/Inf")
    return g


def from_hessian_sequence(seq: PrescribedHessianSequence, alpha: float) -> Trajectory:
    """Wrap a prescribed Hessian sequence as a replayable trajectory.

    Iterates are placeholders (zeros): estimators only consume the per-step
    curvature, the step size, and the validation gradient.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    zero = np.zeros(seq.dim)
    iterates = tuple(zero for _ in range(seq.steps + 1))
    return Trajectory(iterates=iterates, alpha=float(alpha), step_hessians=seq.hessians)

