"""Closed-form worst-case error bounds for the meta-gradient estimators.

All formulas are parameterized by the step count K, truncation L, step size
alpha, a gradient-Lipschitz constant H, an optional local strong-convexity
constant h over the last M steps, and the validation-gradient norm ||g||.
Three regimes:

* :func:`bounds_smooth` -- H-Lipschitz gradient only:
    e_fo  = [(1+aH)^K - 1] ||g||
    e_tr  = [(1+aH)^K - (1+aH)^L] ||g||
    e_bin = sum_{l=L+1}^{K} C(K,l) (aH)^l ||g||
* :func:`bounds_convex` -- additionally convex, 0 < aH <= 1:
    e_fo  = [1 - (1-aH)^K] ||g||
    e_tr  = [1 - (1-aH)^{K-L}] ||g||
    e_bin = C(K,L+1) (aH)^{L+1} ||g||
* :func:`bounds_strongcvx` -- h-strongly convex around the last M iterates,
  M <= min(L, K-L):
    e_fo  = max{(1+aH)^{K-M}(1-ah)^M - 1, 1 - (1-aH)^K} ||g||
    e_tr  = [(1+aH)^{K-M} - (1+aH)^{L-M}] (1-ah)^M ||g||
    e_bin = [(aH)^{L+1} sum_{l=1}^{M} C(K-l,L)(1-ah)^{l-1}
             + (1-ah)^M sum_{l=L+1}^{K-M} C(K-M,l)(aH)^l] ||g||

Binomial coefficients are evaluated in exact integer arithmetic and converted
to float only at the final multiply, so they carry no round-off. A K <= 60 guard keeps the powers well
inside double range.
"""

import math
from dataclasses import dataclass, replace
from typing import List

from .csvtable import csv_text, row_values

MAX_K = 60


@dataclass(frozen=True)
class BoundInputs:
    K: int
    L: int
    alpha: float
    H: float
    h: float = 0.0
    M: int = 0
    g_norm: float = 1.0

    def __post_init__(self):
        if self.K < 0 or self.K > MAX_K:
            raise ValueError(f"K must lie in [0, {MAX_K}] (overflow guard)")
        if not 0 <= self.L <= self.K:
            raise ValueError(f"need 0 <= L <= K, got L={self.L}, K={self.K}")
        for name in ("alpha", "H"):
            if not 0 < getattr(self, name) < math.inf:  # written so that NaN fails too
                raise ValueError(f"{name} must be finite and positive")
        if not 0 <= self.h < math.inf:
            raise ValueError("h must be finite and nonnegative")
        if self.M < 0:
            raise ValueError("M must be nonnegative")
        if not 0 <= self.g_norm < math.inf:
            raise ValueError("||g|| must be finite and nonnegative")


@dataclass(frozen=True)
class BoundValues:
    e_fo: float
    e_tr: float
    e_bin: float


def _require_descent_step(bi: BoundInputs):
    if bi.alpha * bi.H > 1.0 + 1e-15:
        raise ValueError(f"need 0 < alpha <= 1/H, got alpha*H = {bi.alpha * bi.H}")


def bounds_smooth(bi: BoundInputs) -> BoundValues:
    """Bounds under an H-Lipschitz gradient alone."""
    a = bi.alpha * bi.H
    e_fo = ((1.0 + a) ** bi.K - 1.0) * bi.g_norm
    e_tr = ((1.0 + a) ** bi.K - (1.0 + a) ** bi.L) * bi.g_norm
    e_bin = sum(math.comb(bi.K, l) * a**l for l in range(bi.L + 1, bi.K + 1)) * bi.g_norm
    return BoundValues(e_fo, e_tr, e_bin)


def bounds_convex(bi: BoundInputs) -> BoundValues:
    """Bounds under convexity; requires 0 < alpha <= 1/H."""
    _require_descent_step(bi)
    a = bi.alpha * bi.H
    e_fo = (1.0 - (1.0 - a) ** bi.K) * bi.g_norm
    e_tr = (1.0 - (1.0 - a) ** (bi.K - bi.L)) * bi.g_norm
    e_bin = math.comb(bi.K, bi.L + 1) * a ** (bi.L + 1) * bi.g_norm
    return BoundValues(e_fo, e_tr, e_bin)


def _strongcvx_values(bi: BoundInputs) -> BoundValues:
    a = bi.alpha * bi.H
    ah = bi.alpha * bi.h
    decay = (1.0 - ah) ** bi.M
    e_fo = max((1.0 + a) ** (bi.K - bi.M) * decay - 1.0, 1.0 - (1.0 - a) ** bi.K) * bi.g_norm
    e_tr = ((1.0 + a) ** (bi.K - bi.M) - (1.0 + a) ** (bi.L - bi.M)) * decay * bi.g_norm
    head = a ** (bi.L + 1) * sum(
        math.comb(bi.K - l, bi.L) * (1.0 - ah) ** (l - 1) for l in range(1, bi.M + 1)
    )
    tail = decay * sum(
        math.comb(bi.K - bi.M, l) * a**l for l in range(bi.L + 1, bi.K - bi.M + 1)
    )
    e_bin = (head + tail) * bi.g_norm
    return BoundValues(e_fo, e_tr, e_bin)


def bounds_strongcvx(bi: BoundInputs) -> BoundValues:
    """Bounds under local strong convexity around the last M iterates.

    Requires M <= min(L, K-L), 0 < alpha <= 1/H, and h <= H. The max in e_fo
    is evaluated as written; no attempt is made to decide which branch binds.
    """
    _require_descent_step(bi)
    if bi.M > min(bi.L, bi.K - bi.L):
        raise ValueError(f"need M <= min(L, K-L), got M={bi.M}, L={bi.L}, K={bi.K}")
    if bi.h > bi.H:
        raise ValueError("strong-convexity constant h cannot exceed H")
    return _strongcvx_values(bi)


@dataclass(frozen=True)
class SweepRow:
    theorem: int
    K: int
    L: int
    M: int
    alpha: float
    H: float
    h: float
    e_fo: float
    e_tr: float
    e_bin: float
    ratio_tr: float
    ratio_bin: float


SWEEP_CSV_HEADER = "theorem,K,L,M,alpha,H,h,e_fo,e_tr,e_bin,ratio_tr,ratio_bin"


def bound_sweep(theorem: int, bi: BoundInputs) -> List[SweepRow]:
    """Bound curves across the truncation range, normalized to the
    first-order bound.

    Regimes 2 and 3 sweep L = 0..K; regime 4 sweeps L = M..K (the figure
    protocol: rows past K-M evaluate the formulas literally, with empty sums
    zero). Regime 4 checks its first row with :func:`bounds_strongcvx`, so it
    requires what that function does: 0 < alpha <= 1/H, h <= H and M <= K-M.
    At L = 0 every estimator coincides with the first-order one, so
    the L = 0 row reports the first-order bound for all three columns and
    ratios anchored at exactly 1.
    """
    if theorem not in (2, 3, 4):
        raise ValueError(f"theorem selector must be 2, 3, or 4, got {theorem}")
    if theorem == 4:
        if bi.M > bi.K - bi.M:  # before the L = M row, which would blame an L the caller never gave
            raise ValueError(f"need M <= K-M, got M={bi.M}, K={bi.K}")
        bounds_strongcvx(replace(bi, L=bi.M))  # alpha*H <= 1 and h <= H for every row
    formula = {2: bounds_smooth, 3: bounds_convex, 4: _strongcvx_values}[theorem]

    rows = []
    for L in range(bi.M if theorem == 4 else 0, bi.K + 1):
        v = formula(replace(bi, L=L))
        if L == 0:
            # all estimators coincide with first-order at L = 0 (exact anchor;
            # for the smooth regime the formula already telescopes to e_fo)
            v = BoundValues(v.e_fo, v.e_fo, v.e_fo)
        ratio_tr = v.e_tr / v.e_fo if v.e_fo else 0.0
        ratio_bin = v.e_bin / v.e_fo if v.e_fo else 0.0
        rows.append(
            SweepRow(
                theorem=theorem,
                K=bi.K,
                L=L,
                M=bi.M if theorem == 4 else 0,
                alpha=bi.alpha,
                H=bi.H,
                h=bi.h if theorem == 4 else 0.0,
                e_fo=v.e_fo,
                e_tr=v.e_tr,
                e_bin=v.e_bin,
                ratio_tr=ratio_tr,
                ratio_bin=ratio_bin,
            )
        )
    return rows


def sweep_csv(rows: List[SweepRow]) -> str:
    return csv_text(SWEEP_CSV_HEADER, map(row_values, rows))
