"""Dense linear-algebra substrate: vectors, matrices, and a CG solver.

Vectors are 1-D float64 numpy arrays, matrices 2-D; ``as_vectors`` also takes
stacks of vectors (a task and/or a stage axis in front), ``as_matrix`` and
``is_symmetric`` a stack of matrices (a task axis in front). ``_dot`` is the per-row
dot product of such stacks, bit for bit the 1-D ``p @ q``. The CG solver takes
a B x d stack of independent systems (one system is a 1-row stack), each row
solved bit for bit as if alone. Everything here is a pure function over
immutable inputs, so values can be shared freely across threads.
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
    """Coerce one matrix or a stack of them to a finite float64 array."""
    return _finite(m, (2, 3), "a matrix or a stack of matrices", "matrix")


def is_symmetric(m: np.ndarray) -> bool:
    """True when max|M - M^T| <= 1e-12 * max|M| (zero matrix counts), for M or every matrix of a stack."""
    m = np.asarray(m, dtype=float)
    if not m.size:
        return True
    scale = np.max(np.abs(m), axis=(-2, -1))
    return bool((np.max(np.abs(m - m.swapaxes(-1, -2)), axis=(-2, -1)) <= 1e-12 * scale).all())


def _dot(p, q):
    # p @ q per row: the same ddot as for one pair, where einsum or (p * q).sum(-1) differ
    return (p[..., None, :] @ q[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class CGResult:
    """Outcome of a conjugate-gradient solve of a B x d stack; per-system fields have one entry per row."""

    x: np.ndarray               # best iterate found, B x d
    converged: np.ndarray       # per system: residual criterion met before max_iters
    iterations: int             # applications of the linear map (the slowest system's iteration count)
    residual: np.ndarray        # per system: final ||apply(x) - b|| / ||b||
    row_iterations: np.ndarray  # per system: its own iteration count


def conjugate_gradient(
    apply: Callable[[np.ndarray, np.ndarray], np.ndarray],
    b,
    tol: float = 1e-10,
    max_iters: Optional[int] = None,
) -> CGResult:
    """Solve apply(x) = b for a symmetric positive-definite linear map.

    ``b`` is a B x d stack of B independent systems (one system is a 1-row
    stack), and ``apply(P, rows)`` maps P[j] by system rows[j], returning P's
    shape (any other shape raises ValueError). A system leaves
    the stack once it converges, so P holds only the live ones, and ``rows``
    changes only when one leaves. Each row runs the one-system iteration bit
    for bit (its scalars are per-row ``_dot``s).

    A system stops when ||apply(x) - b|| <= tol * ||b||; otherwise it returns
    its best iterate after max_iters with converged=False. A Rayleigh quotient
    p^T apply(p) <= 0 in any row raises CGBreakdownError, which signals that
    the map is not positive definite.
    """
    b = _finite(b, (2,), "a B x d stack", "vector")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iters is None:
        max_iters = 10 * b.shape[1]

    x_out, rs_out = np.zeros(b.shape), _dot(b, b)
    iters = np.zeros(len(b), dtype=int)
    bnorm = np.sqrt(rs_out)
    live, x, r, p, rs, stop = np.arange(len(b)), x_out.copy(), b.copy(), b.copy(), rs_out.copy(), tol * bnorm
    for it in range(max_iters + 1):
        done = (np.sqrt(rs) <= stop) | (it == max_iters)
        if done.any():  # retire the finished rows; the work arrays shrink only here
            out = live[done]
            x_out[out], rs_out[out], iters[out] = x[done], rs[done], it
            keep = ~done
            live, x, r, p, rs, stop = live[keep], x[keep], r[keep], p[keep], rs[keep], stop[keep]
        if not live.size:
            break
        ap = as_vectors(apply(p, live))
        if ap.shape != p.shape:
            raise ValueError(f"map returned shape {ap.shape} for input shape {p.shape}")
        curvature = _dot(p, ap)
        bad = curvature <= 0.0
        if bad.any():
            raise CGBreakdownError(
                f"non-positive curvature p^T A p = {curvature[bad][0]:.3e}; map is not SPD"
            )
        step = (rs / curvature)[:, None]
        x = x + step * p
        r = r - step * ap
        rs_new = _dot(r, r)
        p = r + (rs_new / rs)[:, None] * p
        rs = rs_new

    residual = np.divide(np.sqrt(rs_out), bnorm, out=np.zeros(len(b)), where=bnorm > 0)
    return CGResult(x_out, residual <= tol, int(iters.max(initial=0)), residual, iters)
