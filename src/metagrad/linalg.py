"""Dense linear-algebra substrate: vectors, matrices, and a CG solver.

Vectors are 1-D float64 numpy arrays, matrices 2-D; ``as_vectors`` also takes
stacks of vectors (a task and/or a stage axis in front). Everything here is a pure
function over immutable inputs, so values can be shared freely across threads.
Dense storage only: the dimensions in play are small enough that correctness
checks matter far more than throughput.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class CGBreakdownError(RuntimeError):
    """Raised when CG meets non-positive curvature, i.e. the map is not SPD."""


def _finite(a, ndims, shape: str, what: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim not in ndims:
        raise ValueError(f"expected {shape}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains NaN or Inf")
    return arr


def as_vector(v) -> np.ndarray:
    """Coerce to a finite 1-D float64 array, raising on NaN/Inf."""
    return _finite(v, (1,), "a 1-D vector", "vector")


def as_vectors(v) -> np.ndarray:
    """Coerce one vector or a stack of them (task and/or stage axes) to a finite float64 array."""
    return _finite(v, (1, 2, 3), "a vector or a stack of vectors", "vector")


def as_matrix(m) -> np.ndarray:
    return _finite(m, (2,), "a 2-D matrix", "matrix")


def is_symmetric(m: np.ndarray) -> bool:
    """True when max|M - M^T| <= 1e-12 * max|M| (zero matrix counts)."""
    m = np.asarray(m, dtype=float)
    scale = np.max(np.abs(m)) if m.size else 0.0
    if scale == 0.0:
        return True
    return float(np.max(np.abs(m - m.T))) <= 1e-12 * scale


@dataclass(frozen=True)
class CGResult:
    """Outcome of a conjugate-gradient solve."""

    x: np.ndarray       # best iterate found
    converged: bool     # residual criterion met before max_iters
    iterations: int     # applications of the linear map
    residual: float     # final ||apply(x) - b|| / ||b||


def conjugate_gradient(
    apply: Callable[[np.ndarray], np.ndarray],
    b,
    tol: float = 1e-10,
    max_iters: Optional[int] = None,
) -> CGResult:
    """Solve apply(x) = b for a symmetric positive-definite linear map.

    Stops when ||apply(x) - b|| <= tol * ||b||; otherwise returns the best
    iterate after max_iters with converged=False. A Rayleigh quotient
    p^T apply(p) <= 0 raises CGBreakdownError, which signals that the map
    is not positive definite.
    """
    b = as_vector(b)
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = b.shape[0]
    if max_iters is None:
        max_iters = 10 * n

    x = np.zeros(n)
    r = b.copy()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return CGResult(x=x, converged=True, iterations=0, residual=0.0)

    p = r.copy()
    rs = float(r @ r)
    iterations = 0
    for _ in range(max_iters):
        if np.sqrt(rs) <= tol * bnorm:
            break
        ap = as_vector(apply(p))
        curvature = float(p @ ap)
        if curvature <= 0.0:
            raise CGBreakdownError(
                f"non-positive curvature p^T A p = {curvature:.3e}; map is not SPD"
            )
        step = rs / curvature
        x = x + step * p
        r = r - step * ap
        iterations += 1
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new

    residual = float(np.sqrt(rs)) / bnorm
    return CGResult(x=x, converged=residual <= tol, iterations=iterations, residual=residual)
