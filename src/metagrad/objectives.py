"""Smooth task objectives: value, gradient, and Hessian-vector products.

A task objective is anything exposing ``value``, ``gradient`` and ``hvp`` at a
parameter point. Concrete families:

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

from .linalg import as_matrix, as_vector, is_symmetric

AMPLITUDE_RANGE = (0.1, 5.0)
PHASE_RANGE = (0.0, np.pi)
INPUT_RANGE = (-5.0, 5.0)

MLP_HIDDEN = 40  # regressor is 1 -> 40 -> 40 -> 1 with tanh activations


def hvp_finite_difference(obj, phi, v) -> np.ndarray:
    """Central-difference Hessian-vector product from two gradient calls.

    Differences along the unit direction u = v/||v|| and rescales by ||v||,
    so the result is exactly homogeneous in v. When ||v|| underflows, v is
    scaled by max|v| instead; a zero v gives a zero product. The step is
    eps = 1e-5 * (1 + ||phi||), balancing truncation against round-off.
    """
    phi = as_vector(phi)
    v = as_vector(v)
    eps = 1e-5 * (1.0 + float(np.linalg.norm(phi)))
    vnorm = float(np.linalg.norm(v))
    if vnorm < 1e-150:
        vnorm = float(np.max(np.abs(v), initial=0.0))
        if vnorm == 0.0:
            return np.zeros_like(v)
    u = v / vnorm
    gp = obj.gradient(phi + eps * u)
    gm = obj.gradient(phi - eps * u)
    return vnorm * (gp - gm) / (2.0 * eps)


class TaskObjective(abc.ABC):
    """Contract for a smooth loss: value, gradient, HVP at any point.

    ``hvp`` defaults to :func:`hvp_finite_difference`; families with an
    analytic product override it. ``hvp_stack(phis, vs)`` returns one product
    per (iterate, vector) pair, row j being ``hvp(phis[j], vs[j])``; its
    default is a plain loop over ``hvp`` (no stacking, no copies), and a family
    whose products batch well overrides it. ``full_hessian`` is optional and
    only available for families with an explicit Hessian.
    """

    dim: int

    @abc.abstractmethod
    def value(self, phi) -> float: ...

    @abc.abstractmethod
    def gradient(self, phi) -> np.ndarray: ...

    def hvp(self, phi, v) -> np.ndarray:
        return hvp_finite_difference(self, phi, v)

    def hvp_stack(self, phis, vs):
        return [self.hvp(p, v) for p, v in zip(phis, vs)]

    def full_hessian(self, phi) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no explicit Hessian")


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
        phi = as_vector(phi)
        return float(0.5 * phi @ self.a @ phi + self.b @ phi)

    def gradient(self, phi) -> np.ndarray:
        return self.a @ as_vector(phi) + self.b

    def hvp(self, phi, v) -> np.ndarray:
        return self.a @ as_vector(v)

    def full_hessian(self, phi) -> np.ndarray:
        return self.a


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
        z = self.x.T @ as_vector(phi)
        # log(1 + e^z) - y z, evaluated stably
        return float(np.mean(np.logaddexp(0.0, z) - self.y * z))

    def gradient(self, phi) -> np.ndarray:
        z = self.x.T @ as_vector(phi)
        return self.x @ (self._sigmoid(z) - self.y) / self.n

    def hvp(self, phi, v) -> np.ndarray:
        z = self.x.T @ as_vector(phi)
        s = self._sigmoid(z)
        return self.x @ ((s * (1.0 - s)) * (self.x.T @ as_vector(v))) / self.n

    def full_hessian(self, phi) -> np.ndarray:
        z = self.x.T @ as_vector(phi)
        s = self._sigmoid(z)
        return (self.x * (s * (1.0 - s))) @ self.x.T / self.n


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
    There is one R-op, batched: ``hvp_stack`` runs it once on B x d stacks of
    iterates and directions, every array carrying a leading batch axis, and
    ``hvp`` runs it on one pair without that axis. Each row of a stack equals
    the single-pair product bit for bit.
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
        a1 = p["w1"][..., None] * self.x + p["b1"][..., None]
        h1 = np.tanh(a1)
        a2 = p["w2"] @ h1 + p["b2"][..., None]
        h2 = np.tanh(a2)
        yhat = (p["w3"][..., None, :] @ h2)[..., 0, :] + p["b3"]
        return p, h1, h2, yhat

    def value(self, theta) -> float:
        _, _, _, yhat = self._forward(as_vector(theta))
        return float(np.mean((yhat - self.y) ** 2))

    def gradient(self, theta) -> np.ndarray:
        p, h1, h2, yhat = self._forward(as_vector(theta))
        n = self.x.shape[0]
        dy = 2.0 * (yhat - self.y) / n
        dw3 = h2 @ dy
        db3 = np.array([dy.sum()])
        da2 = p["w3"][:, None] * dy * (1.0 - h2 * h2)
        dw2 = da2 @ h1.T
        db2 = da2.sum(axis=1)
        da1 = (p["w2"].T @ da2) * (1.0 - h1 * h1)
        dw1 = da1 @ self.x
        db1 = da1.sum(axis=1)
        return np.concatenate([dw1, db1, dw2.ravel(), db2, dw3, db3])

    def hvp(self, theta, v) -> np.ndarray:
        return self._r_op(as_vector(theta), as_vector(v))

    def hvp_stack(self, phis, vs) -> np.ndarray:
        return self._r_op(as_matrix(phis), as_matrix(vs))

    def _r_op(self, theta, v):
        # theta and v are one vector each, or B x d stacks of matching rows
        p, h1, h2, yhat = self._forward(theta)
        q = _unpack(v)
        n = self.x.shape[0]
        dy = (2.0 * (yhat - self.y) / n)[..., None, :]
        s1 = 1.0 - h1 * h1
        s2 = 1.0 - h2 * h2
        w2t = p["w2"].swapaxes(-1, -2)
        # R-forward: directional derivatives of the activations and the residual
        rh1 = s1 * (q["w1"][..., None] * self.x + q["b1"][..., None])
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
        blocks = [rda1 @ self.x, rda1.sum(axis=-1), rdw2.reshape(theta.shape[:-1] + (-1,)),
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
