"""Meta-gradient estimators over a recorded trajectory and validation gradient.

Writing H^k for the training-loss Hessian at iterate k and g for the
validation gradient, the exact meta-gradient is the backpropagation product

    (I - alpha H^0) (I - alpha H^1) ... (I - alpha H^{K-1}) g

applied right to left, one HVP per factor. The estimators here trade accuracy
for HVP count in different ways:

* ``full``  -- the exact product, K sequential HVPs.
* ``fo``    -- drops all curvature; the estimate is g itself.
* ``trunc`` -- keeps only the last L factors.
* ``binom`` -- expands the product into sums over strictly increasing index
  tuples and keeps every term of order <= L in alpha. Computed as L cascade
  stages of K-L+1 mutually independent HVPs each (see ``_cascade``).
* ``binom-trunc`` -- the expansion restricted to the last C steps.
* ``imaml`` -- solves (I + H/lambda) x = g at the final iterate by CG.
* ``reptile`` -- moves toward the mean adapted parameter; no HVPs at all.

There are two cores. ``backprop_products`` is the one right-to-left loop:
``full`` and ``trunc`` stop it at product K and L, and the error experiments
read the exact and every truncated estimate off a single pass. ``_cascade``
is the one expansion implementation, behind ``binom`` and ``binom-trunc``.
``binom_oracle`` enumerates the expansion tuple by tuple and is the
deliberately unoptimized ground truth the cascade is tested against.

Every estimator is a pure function of (trajectory, g, parameters), so
invocations are safe to run concurrently across tasks. Within a binom stage
the HVPs are independent, so each stage runs as one stacked call
(``Trajectory.hvp_stage``, which the objective's ``hvp_stack`` serves), and
each column of it equals the single-vector HVP bit for bit. The stage barrier
and the fixed descending-index summation order are the only synchronization
contract, so the result equals the one-HVP-at-a-time schedule bit for bit.
"""

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adaptation import DivergenceError, Trajectory
from .linalg import conjugate_gradient
from .objectives import TaskObjective


@dataclass(frozen=True)
class CostCounters:
    """Logical cost of one estimate.

    ``hvp_total`` counts HVP evaluations actually performed,
    ``sequential_depth`` the longest chain of HVPs that must run in order,
    and ``peak_live_vectors`` the largest number of d-vectors held at once.
    """

    hvp_total: int
    sequential_depth: int
    peak_live_vectors: int

    def __post_init__(self):
        if not self.hvp_total >= self.sequential_depth >= 0:
            raise ValueError("need hvp_total >= sequential_depth >= 0")


@dataclass(frozen=True)
class MetaGradient:
    estimate: np.ndarray
    kind: str
    L: Optional[int]
    cost: CostCounters
    converged: bool = True  # only the CG-based estimate can fail to converge

    def __post_init__(self):
        if not np.all(np.isfinite(self.estimate)):
            raise DivergenceError(f"{self.kind} estimate contains NaN/Inf")


ESTIMATOR_KINDS = (
    "full",
    "fo",
    "trunc",
    "binom",
    "binom-trunc",
    "imaml",
    "reptile",
)


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator selection plus its tuning knobs.

    ``L`` is the truncation (0 <= L <= K), ``C`` the curvature window for the
    hybrid estimator (L <= C <= K), ``rescale_alpha`` swaps alpha for
    L*alpha/K inside the binomial expansion, ``imaml_lambda`` the implicit
    regularization weight, and ``reptile_eps`` the interpolation step in
    (0, 1].
    """

    kind: str = "full"
    L: int = 0
    C: Optional[int] = None
    rescale_alpha: bool = False
    imaml_lambda: float = 1.0
    cg_tol: float = 1e-10
    cg_iters: Optional[int] = None
    reptile_eps: float = 1.0

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.imaml_lambda <= 0:
            raise ValueError("imaml_lambda must be positive")
        if not 0.0 < self.reptile_eps <= 1.0:
            raise ValueError("reptile_eps must lie in (0, 1]")


def _check_L(L: int, K: int):
    if not 0 <= L <= K:
        raise ValueError(f"truncation L={L} outside [0, {K}]")


def _finite_or_raise(v, where: str):
    if not np.all(np.isfinite(v)):
        raise DivergenceError(f"NaN/Inf at {where}")
    return v


def backprop_products(traj: Trajectory, g, label: str = "full product"):
    """Yield g, P_1 g, ..., P_K g, where P_l = (I - alpha H^{K-l}) ... (I - alpha H^{K-1}).

    One right-to-left pass, one HVP per product: product l is the last-l
    truncated estimate and product K the exact one, so a consumer that stops
    at product L has run exactly L HVPs with one vector live.
    """
    v = np.asarray(g, dtype=float)
    yield v
    for k in range(traj.K - 1, -1, -1):
        v = v - traj.alpha * traj.hvp(k, v)
        _finite_or_raise(v, f"{label} step k={k}")
        yield v


def _last_product(traj: Trajectory, g, L: int, label: str) -> np.ndarray:
    return next(itertools.islice(backprop_products(traj, g, label), L, None))


def full_meta_gradient(traj: Trajectory, g) -> MetaGradient:
    """Exact product, applied right to left: v <- v - alpha * H^k v for k = K-1..0."""
    v = _last_product(traj, g, traj.K, "full product")
    return MetaGradient(v, "full", None, CostCounters(traj.K, traj.K, 1))


def fo_meta_gradient(g) -> MetaGradient:
    """First-order estimate: the validation gradient unchanged, zero HVPs."""
    return MetaGradient(np.asarray(g, dtype=float), "fo", 0, CostCounters(0, 0, 0))


def trunc_meta_gradient(traj: Trajectory, g, L: int) -> MetaGradient:
    """Product of the last L factors only; L = 0 is the first-order estimate
    and L = K recovers the exact product."""
    _check_L(L, traj.K)
    v = _last_product(traj, g, L, "truncated product")
    return MetaGradient(v, "trunc", L, CostCounters(L, L, 1))


def _effective_alpha(traj: Trajectory, L: int, rescale_alpha: bool) -> float:
    # optional stability rescaling alpha' = L * alpha / K (none at L = 0, where K may be 0)
    return traj.alpha * L / traj.K if rescale_alpha and L else traj.alpha


def _cascade(hvp_stage, K: int, L: int, alpha: float, g: np.ndarray):
    """Run the L-stage expansion cascade; returns (estimate, CostCounters).

    Writing w[l, k] for the order-l expansion restricted to index tuples with
    smallest entry >= k, the recursion is

        w[l, k] = w[l, k+1] - alpha * H^k w[l-1, k+1],   w[0, .] = g,

    and the estimate is w[L, 0]. Stage l (l = 1..L) holds the window
    w[l, L-l..K-l]: its K-L+1 HVPs touch iterates L-l..K-l and depend only on
    stage l-1, so they are mutually independent and go to
    ``hvp_stage(lo, vs)`` as one call, which applies the Hessian at iterate
    lo + j to vs[j]. The running sums then fill the window in descending k. A
    NaN/Inf anywhere in the window reaches w[l, L-l] through the running sum,
    so that one entry is checked per stage. The costs are counted from the
    calls made: the vectors sent, the calls, and the widest window sent.
    """
    width = K - L + 1
    v = [g] * width
    sent = []
    for stage in range(L):
        u = hvp_stage(L - 1 - stage, v)
        sent.append(len(v))
        nxt = [None] * width
        run = v[width - 1]
        for j in range(width - 1, -1, -1):
            run = run - alpha * u[j]
            nxt[j] = run
        if not np.all(np.isfinite(nxt[0])):
            bad = next(j for j in range(width - 1, -1, -1) if not np.all(np.isfinite(nxt[j])))
            raise DivergenceError(f"NaN/Inf at cascade stage {stage}, index {bad}")
        v = nxt
    return v[0], CostCounters(sum(sent), len(sent), max(sent, default=0))


def _binom_last(traj: Trajectory, g, L: int, C: int, rescale_alpha: bool, kind: str) -> MetaGradient:
    """The order-L expansion over the last C steps: the cascade on iterates K-C..K-1."""
    K = traj.K
    _check_L(L, K)
    if not L <= C <= K:
        raise ValueError(f"need L <= C <= K, got L={L}, C={C}, K={K}")
    alpha = _effective_alpha(traj, L, rescale_alpha)
    g = np.asarray(g, dtype=float)
    estimate, cost = _cascade(lambda lo, vs: traj.hvp_stage(K - C + lo, vs), C, L, alpha, g)
    return MetaGradient(estimate, kind, L, cost)


def binom_meta_gradient(traj: Trajectory, g, L: int, rescale_alpha: bool = False) -> MetaGradient:
    """Order-L binomial-expansion estimate via the stage cascade.

    L = 0 returns g (coincides with the first-order estimate); L = K is the
    exact product. The counted cost is L*(K-L+1) HVPs in L stage calls
    (sequential depth L), with K-L+1 vectors live.
    """
    return _binom_last(traj, g, L, traj.K, rescale_alpha, "binom")


ORACLE_MAX_K = 14


def binom_oracle(traj: Trajectory, g, L: int, rescale_alpha: bool = False) -> np.ndarray:
    """Ground-truth expansion by brute-force enumeration; deliberately slow.

    Sums, over every strictly increasing tuple 0 <= k_1 < ... < k_l < K with
    l = 1..L, the product (-alpha)^l H^{k_1} ... H^{k_l} g applied right to
    left, plus the identity term g.
    """
    K = traj.K
    if K > ORACLE_MAX_K:
        raise ValueError(f"enumeration guard: K={K} exceeds {ORACLE_MAX_K}")
    _check_L(L, K)
    g = np.asarray(g, dtype=float)
    alpha = _effective_alpha(traj, L, rescale_alpha)
    total = g.copy()
    for l in range(1, L + 1):
        sign = (-alpha) ** l
        for combo in itertools.combinations(range(K), l):
            w = g
            for k in reversed(combo):
                w = traj.hvp(k, w)
            total = total + sign * w
    return total


def binomtrunc_meta_gradient(
    traj: Trajectory, g, L: int, C: int, rescale_alpha: bool = False
) -> MetaGradient:
    """Hybrid estimate: the order-L expansion over the last C steps only.

    Runs the cascade on iterates K-C..K-1 alone, at a counted cost of
    L*(C-L+1) HVPs in L stage calls. C = L gives the truncated estimate
    (``trunc``), C = K the plain expansion (``binom``); the alpha rescaling,
    when on, still uses the full K.
    """
    return _binom_last(traj, g, L, C, rescale_alpha, "binom-trunc")


def imaml_meta_gradient(
    obj: TaskObjective,
    phi_final,
    g,
    lam: float,
    cg_tol: float = 1e-10,
    cg_iters: Optional[int] = None,
) -> MetaGradient:
    """Implicit estimate: solve (I + H/lambda) x = g at phi_final by CG.

    The map must be SPD at phi_final (true whenever the local Hessian is
    strictly above -lambda I); CG raises on non-positive curvature, and
    non-convergence is reported through the returned counters/flag rather
    than aborting. One HVP per CG iteration.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    phi_final = np.asarray(phi_final, dtype=float)
    g = np.asarray(g, dtype=float)

    def apply(v):
        return v + obj.hvp(phi_final, v) / lam

    result = conjugate_gradient(apply, g, tol=cg_tol, max_iters=cg_iters)
    # CG working set is four d-vectors (x, r, p, and the map output)
    cost = CostCounters(result.iterations, result.iterations, 4)
    return MetaGradient(result.x, "imaml", None, cost, converged=result.converged)


def reptile_direction(theta, finals) -> np.ndarray:
    """Mean displacement (1/T) sum_t (phi_t^K - theta); the caller applies eps."""
    theta = np.asarray(theta, dtype=float)
    finals = [np.asarray(f, dtype=float) for f in finals]
    if not finals:
        raise ValueError("need at least one adapted parameter")
    for f in finals:
        if f.shape != theta.shape:
            raise ValueError("dimension mismatch between theta and adapted parameters")
    return sum(f - theta for f in finals) / len(finals)


def estimation_error(estimate, exact) -> float:
    """l2 norm of the difference between two meta-gradients."""
    a = estimate.estimate if isinstance(estimate, MetaGradient) else np.asarray(estimate, dtype=float)
    b = exact.estimate if isinstance(exact, MetaGradient) else np.asarray(exact, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def estimate(traj: Trajectory, g, cfg: EstimatorConfig) -> MetaGradient:
    """Dispatch on cfg.kind. Reptile is excluded: it is a meta-update rule
    over adapted parameters, not a per-task gradient estimate."""
    if cfg.kind == "full":
        return full_meta_gradient(traj, g)
    if cfg.kind == "fo":
        return fo_meta_gradient(g)
    if cfg.kind == "trunc":
        return trunc_meta_gradient(traj, g, cfg.L)
    if cfg.kind == "binom":
        return binom_meta_gradient(traj, g, cfg.L, cfg.rescale_alpha)
    if cfg.kind == "binom-trunc":
        c = traj.K if cfg.C is None else cfg.C
        return binomtrunc_meta_gradient(traj, g, cfg.L, c, cfg.rescale_alpha)
    if cfg.kind == "imaml":
        if traj.objective is None:
            raise ValueError("implicit estimate needs a trajectory backed by an objective")
        return imaml_meta_gradient(
            traj.objective, traj.final, g, cfg.imaml_lambda, cfg.cg_tol, cfg.cg_iters
        )
    raise ValueError(f"estimator kind {cfg.kind!r} has no per-task gradient estimate")
