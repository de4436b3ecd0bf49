"""Smooth task objectives: value, gradient, and Hessian-vector products.

A task objective exposes ``value``, ``gradient`` and ``hvp``; ``hvp`` takes one
(point, direction) pair or B x d stacks of them. ``stack_objectives`` puts B
tasks on a leading axis (A as B x d x d, X as B x d x n, sine data as B x n);
each method takes B x d points, task t's result bit for bit in row t. Families:

* :class:`QuadraticTask` -- closed-form constant-Hessian oracle family.
* :class:`LogisticTask` -- convex NLL with an analytic HVP.
* :class:`MlpObjective` / :class:`SinusoidTask` -- small fully-connected
  regressor for few-shot sine fitting, with an exact R-op HVP.
* :class:`PrescribedHessianSequence` -- hand-picked per-step curvature used to
  meet the error bounds with equality.

Objectives are immutable after construction and evaluation is pure, so a
single instance may be evaluated concurrently from many tasks.
"""

import abc
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import as_matrix, as_vector, as_vectors, is_symmetric

AMPLITUDE_RANGE = (0.1, 5.0)
PHASE_RANGE = (0.0, np.pi)
INPUT_RANGE = (-5.0, 5.0)

MLP_HIDDEN = 40  # regressor is 1 -> 40 -> 40 -> 1 with tanh activations


class TaskObjective(abc.ABC):
    """Contract for a smooth loss: value, gradient, HVP at any point.

    ``hvp(phi, v)`` takes one point and one direction, each of shape (d,), or
    B x d stacks of both, and returns H(phi[j]) v[j] in row j; every row equals
    the single-pair product bit for bit (phi and v of two shapes raise
    ``ValueError``).
    """

    dim: int

    @abc.abstractmethod
    def value(self, phi) -> float: ...

    @abc.abstractmethod
    def gradient(self, phi) -> np.ndarray: ...

    @abc.abstractmethod
    def hvp(self, phi, v) -> np.ndarray: ...


def _matvec(m, v):
    # m @ v for one vector, row by row for a stack: each row is the same gemv as
    # for one vector, where a 2-D gemm (V @ M.T) would differ in the last bits
    return np.matmul(m, v[..., None])[..., 0]


def _dot(p, q):
    # p @ q per row: the same ddot as for one pair, where einsum or (p * q).sum(-1) differ
    return (p[..., None, :] @ q[..., :, None])[..., 0, 0]


def _hvp_args(phi, v):
    phi, v = as_vectors(phi), as_vectors(v)
    if phi.shape != v.shape:
        raise ValueError(f"hvp takes phi and v of one shape, (d,) or stacked, got {phi.shape} and {v.shape}")
    return phi, v


def stack_objectives(objs) -> TaskObjective:
    """One objective over a leading task axis from objectives of one family and
    shape: row t of its results is objs[t]'s. The data is not validated again."""
    if len({type(o) for o in objs}) != 1:
        raise ValueError("stacked objectives must share one family")
    stacked = object.__new__(type(objs[0]))
    stacked.__dict__ = {name: np.stack([vars(o)[name] for o in objs]) if isinstance(value, np.ndarray) else value
                        for name, value in vars(objs[0]).items()}
    return stacked


class QuadraticTask(TaskObjective):
    """Loss 0.5 * phi^T A phi + b^T phi with symmetric A."""

    def __init__(self, a, b):
        a = as_matrix(a)
        b = as_vector(b)
        if a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
            raise ValueError(f"inconsistent shapes A {a.shape}, b {b.shape}")
        if not is_symmetric(a):
            raise ValueError("A must be symmetric")
        self.a = a
        self.b = b
        self.dim = b.shape[0]

    def value(self, phi) -> float:
        phi = as_vectors(phi)
        return _dot(((0.5 * phi)[..., None, :] @ self.a)[..., 0, :], phi) + _dot(self.b, phi)

    def gradient(self, phi) -> np.ndarray:
        return _matvec(self.a, as_vectors(phi)) + self.b

    def hvp(self, phi, v) -> np.ndarray:
        return _matvec(self.a, _hvp_args(phi, v)[1])


class LogisticTask(TaskObjective):
    """Mean negative log-likelihood of logistic regression.

    ``x`` holds one input per column (d x N); labels are in {0, 1}. The
    Hessian (1/N) X diag(s') X^T is PSD, and the HVP is computed analytically
    as (1/N) X (s' * (X^T v)) rather than by finite differences.
    """

    def __init__(self, x, y):
        x = as_matrix(x)
        y = as_vector(y)
        if x.shape[1] != y.shape[0]:
            raise ValueError(f"inconsistent shapes X {x.shape}, y {y.shape}")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("labels must be 0 or 1")
        self.x = x
        self.y = y
        self.dim = x.shape[0]
        self.n = x.shape[1]

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

    def hvp(self, phi, v) -> np.ndarray:
        phi, v = _hvp_args(phi, v)
        xt = self.x.swapaxes(-1, -2)
        s = self._sigmoid(_matvec(xt, phi))
        return _matvec(self.x, (s * (1.0 - s)) * _matvec(xt, v)) / self.n


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


def _as_rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def mlp_init(seed) -> np.ndarray:
    """Deterministic He-style initialization of the sine regressor, flattened.

    ``seed`` is an integer seed or an already-constructed Generator.
    """
    rng = _as_rng(seed)
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
    On stacks every R-op array has a leading batch axis; a stage x B stack runs B
    rows per call (a dozen temporaries per row cost memory, and wider calls run
    no faster). Each row is bit for bit the single-pair product.
    """

    def __init__(self, x, y):
        self.x = as_vector(x)
        self.y = as_vector(y)
        if self.x.shape != self.y.shape:
            raise ValueError("x and y must have the same length")
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

    def gradient(self, theta) -> np.ndarray:
        theta = as_vectors(theta)
        p, h1, h2, yhat = self._forward(theta)
        dy = 2.0 * (yhat - self.y) / self.x.shape[-1]
        da2 = p["w3"][..., None] * dy[..., None, :] * (1.0 - h2 * h2)
        da1 = (p["w2"].swapaxes(-1, -2) @ da2) * (1.0 - h1 * h1)
        blocks = [_matvec(da1, self.x), da1.sum(axis=-1), (da2 @ h1.swapaxes(-1, -2)).reshape(theta.shape[:-1] + (-1,)),
                  da2.sum(axis=-1), _matvec(h2, dy), dy.sum(axis=-1, keepdims=True)]
        return np.concatenate(blocks, axis=-1)

    def hvp(self, theta, v) -> np.ndarray:
        theta, v = _hvp_args(theta, v)
        if theta.ndim < 3:
            return self._r_op(theta, v)
        out = np.empty(v.shape)
        for i in range(len(v)):
            out[i] = self._r_op(theta[i], v[i])
        return out

    def _r_op(self, theta, v):
        p, h1, h2, yhat = self._forward(theta)
        q = _unpack(v)
        n = self.x.shape[-1]
        dy = (2.0 * (yhat - self.y) / n)[..., None, :]
        s1 = 1.0 - h1 * h1
        s2 = 1.0 - h2 * h2
        w2t = p["w2"].swapaxes(-1, -2)
        # R-forward: directional derivatives of the activations and the residual
        rh1 = s1 * (q["w1"][..., None] * self.x[..., None, :] + q["b1"][..., None])
        rh2 = s2 * (q["w2"] @ h1 + p["w2"] @ rh1 + q["b2"][..., None])
        rdy = (p["w3"][..., None, :] @ rh2 + q["w3"][..., None, :] @ h2 + q["b3"][..., None]) * (2.0 / n)
        # R-backward: each line of gradient() differentiated, with R(1 - h^2) = -2 h Rh
        g2 = p["w3"][..., None] * dy
        da2 = g2 * s2
        rda2 = (q["w3"][..., None] * dy + p["w3"][..., None] * rdy) * s2 - 2.0 * g2 * h2 * rh2
        g1 = w2t @ da2
        rda1 = (q["w2"].swapaxes(-1, -2) @ da2 + w2t @ rda2) * s1 - 2.0 * g1 * h1 * rh1
        rdw2 = rda2 @ h1.swapaxes(-1, -2) + da2 @ rh1.swapaxes(-1, -2)
        rdw3 = rh2 @ dy.swapaxes(-1, -2) + h2 @ rdy.swapaxes(-1, -2)
        blocks = [_matvec(rda1, self.x), rda1.sum(axis=-1), rdw2.reshape(theta.shape[:-1] + (-1,)),
                  rda2.sum(axis=-1), rdw3[..., 0], rdy.sum(axis=-1)]
        return np.concatenate(blocks, axis=-1)


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


def sample_sinusoid_batch(seed, batch: int, shots: int):
    """Sample ``batch`` sine tasks with ``shots`` train and val points each.

    Amplitudes are uniform on [0.1, 5.0], phases uniform on [0, pi], inputs
    uniform on [-5, 5]; the draw is deterministic given the seed (an integer,
    or a Generator advanced in place).
    """
    if batch < 1 or shots < 1:
        raise ValueError("batch and shots must be >= 1")
    rng = _as_rng(seed)
    tasks = []
    for _ in range(batch):
        amplitude = float(rng.uniform(*AMPLITUDE_RANGE))
        phase = float(rng.uniform(*PHASE_RANGE))
        x_train = rng.uniform(*INPUT_RANGE, size=shots)
        x_val = rng.uniform(*INPUT_RANGE, size=shots)
        tasks.append(
            SinusoidTask(
                amplitude=amplitude,
                phase=phase,
                x_train=x_train,
                y_train=amplitude * np.sin(x_train + phase),
                x_val=x_val,
                y_val=amplitude * np.sin(x_val + phase),
            )
        )
    return tasks


@dataclass(frozen=True)
class PrescribedHessianSequence:
    """A fixed per-step curvature sequence {H^k} plus a validation gradient g.

    Stands in for a recorded optimization path when only the Hessians matter,
    e.g. when checking that an error bound is met with equality.
    """

    hessians: tuple
    g: np.ndarray
    smoothness: Optional[float] = None

    def __post_init__(self):
        hs = tuple(as_matrix(h) for h in self.hessians)
        g = as_vector(self.g)
        d = g.shape[0]
        for k, h in enumerate(hs):
            if h.shape != (d, d):
                raise ValueError(f"Hessian {k} has shape {h.shape}, expected {(d, d)}")
            if not is_symmetric(h):
                raise ValueError(f"Hessian {k} is not symmetric")
            if self.smoothness is not None:
                if float(np.linalg.norm(h, 2)) > self.smoothness * (1 + 1e-12):
                    raise ValueError(f"Hessian {k} exceeds declared smoothness bound")
        object.__setattr__(self, "hessians", hs)
        object.__setattr__(self, "g", g)

    @property
    def steps(self) -> int:
        return len(self.hessians)

    @property
    def dim(self) -> int:
        return self.g.shape[0]


SHARPNESS_KINDS = ("theorem2-neg", "theorem3-pos", "theorem3-trunc")


def sharpness_sequence(kind: str, K: int, L: int, H: float, d: int, g=None) -> PrescribedHessianSequence:
    """Curvature sequences for which the closed-form error bounds are tight.

    kind selects the construction:
      * "theorem2-neg":   H^k = -H I for every step
      * "theorem3-pos":   H^k = +H I for every step
      * "theorem3-trunc": H^k = +H I for k < K - L, zero for the last L steps
    """
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
    if g is None:
        g = np.zeros(d)
        g[0] = 1.0
    return PrescribedHessianSequence(hessians=hs, g=as_vector(g), smoothness=H)


def random_spd(rng: np.random.Generator, d: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """Random symmetric matrix with eigenvalues uniform on [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = rng.uniform(lo, hi, size=d)
    return q @ np.diag(eigs) @ q.T


def random_quadratic(rng: np.random.Generator, d: int, lo: float = 0.0, hi: float = 1.0) -> QuadraticTask:
    return QuadraticTask(random_spd(rng, d, lo, hi), rng.standard_normal(d))


def random_logistic(rng: np.random.Generator, w: np.ndarray, n: int) -> LogisticTask:
    """n inputs x ~ N(0, I), then labels drawn from sigmoid(x^T w) for true weights w."""
    x = rng.standard_normal((len(w), n))
    probs = LogisticTask._sigmoid(x.T @ w)
    y = (rng.uniform(size=n) < probs).astype(float)
    return LogisticTask(x, y)
