"""Smooth task objectives: value, gradient, and Hessian-vector products.

A task objective exposes ``value``, ``gradient`` and ``linearize``:
``linearize(phi)`` returns the HVP operator at phi, which computes what depends
on phi alone once for every direction it is applied to (imaml's CG applies one
per live set of tasks). ``hvp(phi, v)`` is ``linearize(phi)(v)``; phi and v are
arrays of one shape, (d,) or with leading axes, such as a cascade stage's
width x B x d view of the trajectory and its window. Each family's constructor
takes one task's data or B tasks' data on a leading axis (A as B x d x d, X as
B x d x n, sine data as B x n) and validates it once. A stacked objective's
methods take B x d points, task t's result bit for bit in row t, and
``take_rows`` keeps a subset of the rows (one task's objective for an int). The
sine regressor serves a width x B x d stage entry by entry, each straight into
its rows with no stacked copy.
Families:

* :class:`QuadraticTask` -- closed-form constant-Hessian oracle family.
* :class:`LogisticTask` -- convex NLL with an analytic HVP.
* :class:`MlpObjective` -- small fully-connected regressor for few-shot sine
  fitting, with an exact R-op HVP.
* :class:`PrescribedHessianSequence` -- hand-picked per-step curvature used to
  meet the error bounds with equality.

Objectives are immutable after construction and evaluation is pure, so a
single instance may be evaluated concurrently from many tasks.
"""

import abc
from dataclasses import dataclass

import numpy as np

from .linalg import _dot, as_matrix, as_vector, as_vectors, is_symmetric

MLP_HIDDEN = 40  # regressor is 1 -> 40 -> 40 -> 1 with tanh activations


class TaskObjective(abc.ABC):
    """Contract for a smooth loss: value, gradient, and the HVP operator at any point.

    A family implements ``linearize(phi)``, the HVP operator at phi: it computes
    what depends on phi alone once, for every direction it is applied to.
    ``hvp(phi, v)`` is ``linearize(phi)(v)``. phi and v are arrays of one shape, (d,)
    or with leading axes (a B x d stack, a width x B x d stage), with H(phi[i]) v[i]
    in row i, bit for bit the single-pair product (two shapes raise ``ValueError``).
    """

    dim: int

    @abc.abstractmethod
    def value(self, phi) -> float: ...

    @abc.abstractmethod
    def gradient(self, phi) -> np.ndarray: ...

    @abc.abstractmethod
    def linearize(self, phi): ...

    def hvp(self, phi, v) -> np.ndarray:
        return self.linearize(phi)(v)


def _matvec(m, v):
    # m @ v for one vector, row by row for a stack: each row is the same gemv as
    # for one vector, where a 2-D gemm (V @ M.T) would differ in the last bits
    return np.matmul(m, v[..., None])[..., 0]


def _direction(phi, v):
    # the direction v, validated against an already validated point phi
    v = as_vectors(v)
    if phi.shape != v.shape:
        raise ValueError(f"hvp takes phi and v of one shape, (d,) or stacked, got {phi.shape} and {v.shape}")
    return v


def take_rows(stacked: TaskObjective, rows) -> TaskObjective:
    """The objective of tasks ``rows`` (an index array or a slice) of a stacked objective;
    an int index gives that one task's objective, without the task axis."""
    taken = object.__new__(type(stacked))
    taken.__dict__ = {name: value[rows] if isinstance(value, np.ndarray) else value
                      for name, value in vars(stacked).items()}
    return taken


class QuadraticTask(TaskObjective):
    """Loss 0.5 * phi^T A phi + b^T phi with symmetric A (d x d, or B x d x d with b B x d)."""

    def __init__(self, a, b):
        a = as_matrix(a)
        b = as_vectors(b)
        if a.shape != b.shape + b.shape[-1:]:
            raise ValueError(f"inconsistent shapes A {a.shape}, b {b.shape}")
        if not is_symmetric(a):
            raise ValueError("A must be symmetric")
        self.a = a
        self.b = b
        self.dim = b.shape[-1]

    def value(self, phi) -> float:
        phi = as_vectors(phi)
        return _dot(((0.5 * phi)[..., None, :] @ self.a)[..., 0, :], phi) + _dot(self.b, phi)

    def gradient(self, phi) -> np.ndarray:
        return _matvec(self.a, as_vectors(phi)) + self.b

    def linearize(self, phi):
        phi = as_vectors(phi)
        return lambda v: _matvec(self.a, _direction(phi, v))


class LogisticTask(TaskObjective):
    """Mean negative log-likelihood of logistic regression.

    ``x`` holds one input per column (d x N, or B x d x N with y B x N);
    labels are in {0, 1}. The Hessian (1/N) X diag(s') X^T is PSD, and the HVP
    is computed analytically as (1/N) X (s' * (X^T v)) rather than by finite
    differences.
    """

    def __init__(self, x, y):
        x = as_matrix(x)
        y = as_vectors(y)
        if x.shape[:-2] + x.shape[-1:] != y.shape:
            raise ValueError(f"inconsistent shapes X {x.shape}, y {y.shape}")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("labels must be 0 or 1")
        self.x = x
        self.y = y
        self.dim = x.shape[-2]
        self.n = x.shape[-1]

    @staticmethod
    def _sigmoid(z):
        return 0.5 * (1.0 + np.tanh(0.5 * z))

    def value(self, phi) -> float:
        z = _matvec(self.x.swapaxes(-1, -2), as_vectors(phi))
        # log(1 + e^z) - y z, evaluated stably
        return np.mean(np.logaddexp(0.0, z) - self.y * z, axis=-1)

    def gradient(self, phi) -> np.ndarray:
        z = _matvec(self.x.swapaxes(-1, -2), as_vectors(phi))
        return _matvec(self.x, self._sigmoid(z) - self.y) / self.n

    def linearize(self, phi):
        # the curvature weights s' = s * (1 - s) at phi, computed once
        phi = as_vectors(phi)
        xt = self.x.swapaxes(-1, -2)
        s = self._sigmoid(_matvec(xt, phi))
        weights = s * (1.0 - s)
        return lambda v: _matvec(self.x, weights * _matvec(xt, _direction(phi, v))) / self.n


def _mlp_slices():
    h = MLP_HIDDEN
    slices, start = [], 0
    for name, shape in (("w1", (h,)), ("b1", (h,)), ("w2", (h, h)), ("b2", (h,)), ("w3", (h,)), ("b3", (1,))):
        stop = start + int(np.prod(shape))
        slices.append((name, start, stop, shape))
        start = stop
    return tuple(slices)


_MLP_SLICES = _mlp_slices()  # (name, start, stop, shape) of each block of the flat vector


def mlp_dim() -> int:
    return _MLP_SLICES[-1][2]


def _unpack(theta: np.ndarray):
    """Views of the six blocks; leading axes of theta (a stack of vectors) are kept."""
    lead = theta.shape[:-1]
    return {name: theta[..., start:stop].reshape(lead + shape) for name, start, stop, shape in _MLP_SLICES}


def mlp_init(rng: np.random.Generator) -> np.ndarray:
    """He-style initialization of the sine regressor, flattened; advances ``rng`` in place."""
    h = MLP_HIDDEN
    w1 = rng.standard_normal(h) * np.sqrt(2.0 / 1.0)
    w2 = rng.standard_normal((h, h)) * np.sqrt(2.0 / h)
    w3 = rng.standard_normal(h) * np.sqrt(2.0 / h)
    zeros = np.zeros(h)
    return np.concatenate([w1, zeros, w2.ravel(), zeros, w3, np.zeros(1)])


class MlpObjective(TaskObjective):
    """Mean squared error of the fixed small tanh regressor on (x, y) data.

    Gradients are exact (hand backprop). HVPs are exact too: Pearlmutter's
    R-op (forward-over-reverse), which differentiates the backprop pass along
    the direction v, at about the cost of two gradients and with no step size.
    ``linearize(theta)`` runs the forward pass and every R-op term that depends
    on theta alone once; its operator runs the half that depends on v, so imaml's
    CG pays the first half once per live set of tasks. On stacks every R-op array
    has a leading batch axis. ``hvp`` serves a width x B x d stage B rows at a time,
    each entry straight into its rows of the result (a dozen temporaries per row
    cost memory, and wider calls run no faster); a width x d stage is one call.
    Each row is bit for bit the single-pair product.
    """

    def __init__(self, x, y):
        # x and y are (n,), or B x n for B tasks
        self.x = as_vectors(x)
        self.y = as_vectors(y)
        if self.x.ndim > 2 or self.x.shape != self.y.shape:
            raise ValueError("x and y must have the same shape, (n,) or B x n")
        self.dim = mlp_dim()

    def _forward(self, theta):
        # theta is one parameter vector or a B x d stack; activations are h x n or B x h x n
        p = _unpack(theta)
        a1 = p["w1"][..., None] * self.x[..., None, :] + p["b1"][..., None]
        h1 = np.tanh(a1)
        a2 = p["w2"] @ h1 + p["b2"][..., None]
        h2 = np.tanh(a2)
        yhat = (p["w3"][..., None, :] @ h2)[..., 0, :] + p["b3"]
        return p, h1, h2, yhat

    def value(self, theta) -> float:
        _, _, _, yhat = self._forward(as_vectors(theta))
        return np.mean((yhat - self.y) ** 2, axis=-1)

    def _backward(self, theta):
        # the backprop terms gradient and linearize share (dy as ... x 1 x n, s = 1 - h^2), in gradient's
        # order. s2 and w3 dy, which only linearize reads, lead the tuple so that gradient's unpacking
        # into _ frees them at once: holding them until gradient returned raised every sine op's bench
        # time by about 4%
        p, h1, h2, yhat = self._forward(theta)
        dy = (2.0 * (yhat - self.y) / self.x.shape[-1])[..., None, :]
        g2 = p["w3"][..., None] * dy
        s2 = 1.0 - h2 * h2
        da2 = g2 * s2
        g1 = p["w2"].swapaxes(-1, -2) @ da2
        s1 = 1.0 - h1 * h1
        return s2, g2, p, h1, h2, dy, s1, da2, g1

    def gradient(self, theta) -> np.ndarray:
        theta = as_vectors(theta)
        _, _, _, h1, h2, dy, s1, da2, g1 = self._backward(theta)
        da1 = g1 * s1
        dy = dy[..., 0, :]
        blocks = [_matvec(da1, self.x), da1.sum(axis=-1), (da2 @ h1.swapaxes(-1, -2)).reshape(theta.shape[:-1] + (-1,)),
                  da2.sum(axis=-1), _matvec(h2, dy), dy.sum(axis=-1, keepdims=True)]
        return np.concatenate(blocks, axis=-1)

    def hvp(self, theta, v) -> np.ndarray:
        if np.ndim(theta) != 3:
            return self.linearize(theta)(v)  # a pair or a stack of them, one call
        if np.shape(theta) != np.shape(v):
            raise ValueError(f"hvp takes phi and v of one shape, got {np.shape(theta)} and {np.shape(v)}")
        out = np.empty(np.shape(v))
        for j in range(len(v)):
            self.linearize(theta[j])(v[j], out=out[j])
        return out

    def linearize(self, theta):
        # the R-op's terms that depend on theta alone, computed once; the operator runs the v-dependent half
        theta = as_vectors(theta)
        s2, g2, p, h1, h2, dy, s1, da2, g1 = self._backward(theta)
        n = self.x.shape[-1]
        w2t = p["w2"].swapaxes(-1, -2)

        def op(v, out=None):
            q = _unpack(_direction(theta, v))
            # R-forward: directional derivatives of the activations and the residual
            rh1 = s1 * (q["w1"][..., None] * self.x[..., None, :] + q["b1"][..., None])
            rh2 = s2 * (q["w2"] @ h1 + p["w2"] @ rh1 + q["b2"][..., None])
            rdy = (p["w3"][..., None, :] @ rh2 + q["w3"][..., None, :] @ h2 + q["b3"][..., None]) * (2.0 / n)
            # R-backward: each line of gradient() differentiated, with R(1 - h^2) = -2 h Rh
            rda2 = (q["w3"][..., None] * dy + p["w3"][..., None] * rdy) * s2 - 2.0 * g2 * h2 * rh2
            rda1 = (q["w2"].swapaxes(-1, -2) @ da2 + w2t @ rda2) * s1 - 2.0 * g1 * h1 * rh1
            rdw2 = rda2 @ h1.swapaxes(-1, -2) + da2 @ rh1.swapaxes(-1, -2)
            rdw3 = rh2 @ dy.swapaxes(-1, -2) + h2 @ rdy.swapaxes(-1, -2)
            blocks = [_matvec(rda1, self.x), rda1.sum(axis=-1), rdw2.reshape(theta.shape[:-1] + (-1,)),
                      rda2.sum(axis=-1), rdw3[..., 0], rdy.sum(axis=-1)]
            return np.concatenate(blocks, axis=-1, out=out)

        return op


@dataclass(frozen=True)
class PrescribedHessianSequence:
    """A fixed per-step curvature sequence {H^k} plus a validation gradient g.

    Stands in for a recorded optimization path when only the Hessians matter,
    e.g. when checking that an error bound is met with equality. ``hessians``
    is given as any sequence of d x d matrices and stored as one read-only
    (K, d, d) array.
    """

    hessians: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        hs = [as_matrix(h) for h in self.hessians]
        g = as_vector(self.g)
        d = g.shape[0]
        for k, h in enumerate(hs):
            if h.shape != (d, d):
                raise ValueError(f"Hessian {k} has shape {h.shape}, expected {(d, d)}")
            if not is_symmetric(h):
                raise ValueError(f"Hessian {k} is not symmetric")
        stack = np.array(hs).reshape(len(hs), d, d)  # the reshape gives K = 0 its (0, d, d) shape
        stack.flags.writeable = False
        object.__setattr__(self, "hessians", stack)
        object.__setattr__(self, "g", g)

    @property
    def steps(self) -> int:
        return len(self.hessians)

    @property
    def dim(self) -> int:
        return self.g.shape[0]


SHARPNESS_KINDS = ("theorem2-neg", "theorem3-pos", "theorem3-trunc")


def sharpness_sequence(kind: str, K: int, L: int, H: float, d: int) -> PrescribedHessianSequence:
    """Curvature sequences for which the closed-form error bounds are tight,
    with validation gradient g = e_0 (the first unit vector).

    kind selects the construction:
      * "theorem2-neg":   H^k = -H I for every step
      * "theorem3-pos":   H^k = +H I for every step
      * "theorem3-trunc": H^k = +H I for k < K - L, zero for the last L steps
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    if H <= 0:
        raise ValueError("H must be positive")
    if not 0 <= L <= K:
        raise ValueError("need 0 <= L <= K")
    if d < 1:
        raise ValueError("d must be >= 1")
    eye = np.eye(d)
    if kind == "theorem2-neg":
        hs = tuple(-H * eye for _ in range(K))
    elif kind == "theorem3-pos":
        hs = tuple(H * eye for _ in range(K))
    elif kind == "theorem3-trunc":
        hs = tuple(H * eye if k < K - L else np.zeros((d, d)) for k in range(K))
    else:
        raise ValueError(f"unknown sharpness kind {kind!r}; expected one of {SHARPNESS_KINDS}")
    g = np.zeros(d)
    g[0] = 1.0
    return PrescribedHessianSequence(hessians=hs, g=g)


def random_spd(rng: np.random.Generator, d: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """Random symmetric matrix with eigenvalues uniform on [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = rng.uniform(lo, hi, size=d)
    return q @ np.diag(eigs) @ q.T

