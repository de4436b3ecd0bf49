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

There is one core, ``_cascade``: the expansion over the last C steps. Every
HVP-based estimate except imaml is a point of it: ``full`` is (L, C) =
(K, K), ``trunc`` is (L, L), ``binom`` is (L, K) and ``binom-trunc`` is
(L, C). At L = C each stage is a single HVP, so the cascade is the
right-to-left backprop loop. No term of the expansion depends on L, so one
pass to order K holds every order's estimate on its left edge and the exact
and every truncated product on its right edge; the error experiments read
all of them off that one pass. Every cost is counted from the stage calls
the cascade makes. ``binom_oracle`` enumerates the expansion tuple by tuple
and is the deliberately unoptimized ground truth the cascade is tested against.

Every estimator is a pure function of (trajectory, g, parameters); both may be
stacked over B tasks, giving a B x d estimate and each task's own
``CostCounters``. A stage's HVPs are independent, so each stage is one
``hvp`` call on width x B rows, each bit for bit the single HVP. The fixed
descending-index summation order and stage barrier are the only contract, so
the result equals the one-HVP-at-a-time, one-task-at-a-time schedule bit for
bit. The first NaN/Inf in any row raises at once; it names the stage and step,
not the task (``metatrain`` replays a failed stack task by task for that).
"""

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adaptation import DivergenceError, Trajectory
from .linalg import conjugate_gradient
from .objectives import TaskObjective, _dot


@dataclass(frozen=True)
class CostCounters:
    """Logical cost of one estimate (of each task's, for a stacked one).

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
        if not np.isfinite(self.estimate).all():
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


def _effective_alpha(traj: Trajectory, L: int, rescale_alpha: bool) -> float:
    # optional stability rescaling alpha' = L * alpha / K; L = 0 and L = K keep alpha exactly
    return traj.alpha * L / traj.K if rescale_alpha and 0 < L < traj.K else traj.alpha


def _cascade(hvp_stage, first: int, C: int, orders, alpha: float, g: np.ndarray):
    """Run the expansion cascade on steps first..first+C-1 to every listed order.

    ``orders`` is sorted, distinct and in [0, C]. Writing w[l, k] for the
    order-l expansion over index tuples with smallest entry >= k,

        w[l, k] = w[l, k+1] - alpha * H^k w[l-1, k+1],   w[0, .] = g.

    No term depends on the order asked for, so one pass to the top order
    returns ({L: w[L, first]} for every listed L, edge, CostCounters). Stage l
    holds the window w[l, first+m-l .. first+C-l], m being the smallest listed
    order >= l, so after stage m the entries no higher order needs drop off
    the left; for one order L every window is C-L+1 wide. A stage's HVPs
    depend only on stage l-1, so they go to ``hvp_stage(lo, vs)`` as one call
    (the Hessian at step lo + j applied to vs[j]), and the running sums fill
    the window in descending k.

    The right edge w[l, first+C-l] is the product of the last l factors, so
    ``edge`` is [g, P_1 g, ..., P_top g], every truncated product; at L = C
    the window is one entry wide and the cascade is the backprop loop.

    A NaN/Inf anywhere in a window reaches its first entry through the running
    sum, so that one entry is checked per stage; the first stage that fails
    raises, naming itself and its highest non-finite step (in any row). The
    costs are counted per row from the calls made: the vectors sent, the
    calls, and the widest window sent.
    """
    v = [g] * (C + 1)
    estimates, edge, sent = {}, [g], []
    for m in orders:
        width = C - m + 1
        v = v[len(v) - width:]
        for l in range(len(edge), m + 1):
            lo = first + m - l
            u = hvp_stage(lo, v)
            sent.append(width)
            nxt = [None] * width
            run = v[-1]
            for j in range(width - 1, -1, -1):
                run = run - alpha * u[j]
                nxt[j] = run
            if not np.isfinite(run).all():
                k = max(j for j in range(width) if not np.isfinite(nxt[j]).all())
                raise DivergenceError(f"NaN/Inf at cascade stage {l - 1}, step k={lo + k}")
            v = nxt
            del u  # so the next stage call does not hold this stage's products too
            edge.append(v[-1])
        estimates[m] = v[0]
    return estimates, edge, CostCounters(sum(sent), len(sent), max(sent, default=0))


def _expansion(traj: Trajectory, g, L: int, C: int, rescale_alpha: bool = False):
    """The order-L expansion over the last C steps: (estimate, edge, CostCounters)."""
    K = traj.K
    _check_L(L, K)
    if not L <= C <= K:
        raise ValueError(f"need L <= C <= K, got L={L}, C={C}, K={K}")
    alpha = _effective_alpha(traj, L, rescale_alpha)
    estimates, edge, cost = _cascade(traj.hvp_stage, K - C, C, (L,), alpha, np.asarray(g, dtype=float))
    return estimates[L], edge, cost


def full_meta_gradient(traj: Trajectory, g) -> MetaGradient:
    """Exact product, applied right to left: the order-K expansion over all K
    steps, one HVP per stage."""
    v, _, cost = _expansion(traj, g, traj.K, traj.K)
    return MetaGradient(v, "full", None, cost)


def fo_meta_gradient(g) -> MetaGradient:
    """First-order estimate: the validation gradient unchanged, zero HVPs."""
    return MetaGradient(np.asarray(g, dtype=float), "fo", 0, CostCounters(0, 0, 0))


def trunc_meta_gradient(traj: Trajectory, g, L: int) -> MetaGradient:
    """Product of the last L factors only: the order-L expansion over the last
    L steps. L = 0 is the first-order estimate and L = K the exact product."""
    v, _, cost = _expansion(traj, g, L, L)
    return MetaGradient(v, "trunc", L, cost)


def binom_meta_gradient(traj: Trajectory, g, L: int, rescale_alpha: bool = False) -> MetaGradient:
    """Order-L binomial-expansion estimate via the stage cascade.

    L = 0 returns g (coincides with the first-order estimate); L = K is the
    exact product. The counted cost is L*(K-L+1) HVPs in L stage calls
    (sequential depth L), with K-L+1 vectors live.
    """
    v, _, cost = _expansion(traj, g, L, traj.K, rescale_alpha)
    return MetaGradient(v, "binom", L, cost)


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
    v, _, cost = _expansion(traj, g, L, C, rescale_alpha)
    return MetaGradient(v, "binom-trunc", L, cost)


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
    """Mean displacement (1/T) sum_t (phi_t^K - theta) over T x d finals; the caller applies eps."""
    theta, finals = np.asarray(theta, dtype=float), np.asarray(finals, dtype=float)
    if len(finals) == 0 or finals.shape[1:] != theta.shape:
        raise ValueError(f"need T >= 1 adapted parameters of shape {theta.shape}, got {finals.shape}")
    return sum(finals - theta) / len(finals)


def estimation_error(estimate, exact) -> float:
    """l2 norm of the difference between two meta-gradients (per row of stacks)."""
    a = estimate.estimate if isinstance(estimate, MetaGradient) else np.asarray(estimate, dtype=float)
    b = exact.estimate if isinstance(exact, MetaGradient) else np.asarray(exact, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    return np.sqrt(_dot(diff, diff))  # np.linalg.norm bit for bit; norm(axis=-1) is not


def estimate(traj: Trajectory, g, cfg: EstimatorConfig) -> MetaGradient:
    """Dispatch on cfg.kind. Reptile is excluded: it is a meta-update rule
    over adapted parameters, not a per-task gradient estimate. imaml takes one task."""
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
