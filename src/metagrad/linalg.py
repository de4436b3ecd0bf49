"""Dense linear-algebra substrate: vectors, matrices, and a CG solver.

Vectors are 1-D float64 numpy arrays, matrices 2-D. Everything here is a pure
function over immutable inputs, so values can be shared freely across threads.
Dense storage only: the dimensions in play are small enough that correctness
checks matter far more than throughput.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class CGBreakdownError(RuntimeError):
    """Raised when CG meets non-positive curvature, i.e. the map is not SPD."""


def as_vector(v) -> np.ndarray:
    """Coerce to a finite 1-D float64 array, raising on NaN/Inf."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector contains NaN or Inf")
    return arr


def as_matrix(m) -> np.ndarray:
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains NaN or Inf")
    return arr


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
