"""Inner-loop gradient descent and trajectory recording.

Adaptation runs phi^{k+1} = phi^k - alpha * grad(phi^k) from phi^0 = theta and
records every iterate. The recursion is inherently serial per task;
independent tasks can adapt concurrently, and a finished trajectory is
immutable and safe to share.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import as_vector
from .objectives import PrescribedHessianSequence, TaskObjective


class DivergenceError(RuntimeError):
    """Raised when an iteration produces NaN/Inf; the message names the step."""


@dataclass(frozen=True)
class Trajectory:
    """A recorded K-step descent path for one task.

    ``iterates`` holds phi^0..phi^K. HVPs are replayed on demand through
    :meth:`hvp` (one product) or :meth:`hvp_stage` (one product per iterate of
    a run of consecutive steps), either via the backing objective or via a
    prescribed per-step Hessian sequence.
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
        return self.iterates[0].shape[0]

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]

    def hvp(self, k: int, v: np.ndarray) -> np.ndarray:
        """Hessian-vector product of the training loss at iterate k."""
        if not 0 <= k < self.K:
            raise IndexError(f"step index {k} outside [0, {self.K})")
        if self.step_hessians is not None:
            return self.step_hessians[k] @ v
        return self.objective.hvp(self.iterates[k], v)

    def hvp_stage(self, lo: int, vs):
        """Hessian at iterate lo + j applied to vs[j], for every j, as one call."""
        hi = lo + len(vs)
        if not 0 <= lo <= hi <= self.K:
            raise IndexError(f"step indices {lo}..{hi - 1} outside [0, {self.K})")
        if self.step_hessians is not None:
            return [h @ v for h, v in zip(self.step_hessians[lo:hi], vs)]
        return self.objective.hvp_stack(self.iterates[lo:hi], vs)

    def step_hessian(self, k: int) -> np.ndarray:
        """Explicit Hessian at iterate k, when one is available."""
        if self.step_hessians is not None:
            return self.step_hessians[k]
        return self.objective.full_hessian(self.iterates[k])


def gd_adapt(obj: TaskObjective, theta, alpha: float, K: int) -> Trajectory:
    """Run K gradient-descent steps from theta at constant step size alpha."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if K < 1:
        raise ValueError("K must be >= 1")
    phi = as_vector(theta)
    if phi.shape[0] != obj.dim:
        raise ValueError(f"theta has dimension {phi.shape[0]}, objective expects {obj.dim}")
    iterates = [phi]
    for k in range(K):
        try:
            g = obj.gradient(phi)
        except ValueError as exc:
            raise DivergenceError(f"gradient evaluation failed at step {k}: {exc}") from exc
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"training gradient diverged (NaN/Inf) at step {k}")
        with np.errstate(over="ignore", invalid="ignore"):
            phi = phi - alpha * g
        if not np.all(np.isfinite(phi)):
            raise DivergenceError(f"iterate diverged (NaN/Inf) at step {k}")
        iterates.append(phi)
    return Trajectory(iterates=tuple(iterates), alpha=float(alpha), objective=obj)


def validation_gradient(val_obj: TaskObjective, traj: Trajectory) -> np.ndarray:
    """Gradient of the validation loss at the final iterate."""
    if val_obj.dim != traj.dim:
        raise ValueError(
            f"validation objective dimension {val_obj.dim} != trajectory dimension {traj.dim}"
        )
    g = val_obj.gradient(traj.final)
    if not np.all(np.isfinite(g)):
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

