"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import time

import numpy as np

from conftest import logistic_trajectory, prescribed_trajectory, quadratic_trajectory, sine_trajectory
from metagrad import (
    BoundInputs,
    EstimatorConfig,
    MetaTrainConfig,
    QuadraticTask,
    binom_meta_gradient,
    binom_oracle,
    binom_sum_collapse_check,
    binomtrunc_meta_gradient,
    bound_sweep,
    bounds_convex,
    estimation_error,
    fo_meta_gradient,
    from_hessian_sequence,
    full_meta_gradient,
    imaml_meta_gradient,
    lemma_binom_bound_check,
    lemma_partial_sum_identity,
    random_spd,
    run_error_experiment,
    run_metatrain,
    sharpness_sequence,
    sweep_csv,
    trunc_meta_gradient,
)
from metagrad.estimators import _expansion


def _report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num}: {status} - {description}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def _rel(a, b):
    return np.linalg.norm(a - b) / (1.0 + np.linalg.norm(b))


_MAKERS = (quadratic_trajectory, prescribed_trajectory, logistic_trajectory)


def _instances(rng, K, count=99):
    """Quadratic, prescribed-curvature and logistic instances in turn, d <= 6."""
    out = []
    for i in range(count):
        d = int(rng.integers(1, 7))
        out.append(_MAKERS[i % 3](rng, d=d, K=K, alpha=float(rng.uniform(0.05, 0.4))))
    return out


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = worst_sine = 0.0
    for K in range(1, 9):
        for traj, g in _instances(rng, K):
            for L in range(K + 1):
                want = binom_oracle(traj, g, L)
                worst = max(worst, _rel(binom_meta_gradient(traj, g, L).estimate, want))
    for K in range(1, 6):
        traj, g = sine_trajectory(rng, K=K)
        for L in range(K + 1):
            want = binom_oracle(traj, g, L)
            worst_sine = max(worst_sine, _rel(binom_meta_gradient(traj, g, L).estimate, want))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and worst_sine <= 1e-10 and elapsed < 60.0
    _report(1, "cascade estimates match brute-force enumeration on every family",
            ok, f"max rel err {worst:.2e}, sine {worst_sine:.2e}, {elapsed:.1f}s")


def _degeneracies(traj, g, L):
    """(got, want) pairs that must agree bit for bit at any truncation L."""
    K = traj.K
    full = full_meta_gradient(traj, g).estimate
    products = _expansion(traj, g, K, K)[1]
    pairs = [
        (binom_meta_gradient(traj, g, 0).estimate, g),
        (trunc_meta_gradient(traj, g, 0).estimate, g),
        (binom_meta_gradient(traj, g, K).estimate, full),
        (trunc_meta_gradient(traj, g, K).estimate, full),
        (products[K], full),
        (binomtrunc_meta_gradient(traj, g, L, K).estimate, binom_meta_gradient(traj, g, L).estimate),
        (binomtrunc_meta_gradient(traj, g, K, K).estimate, full),
        (binomtrunc_meta_gradient(traj, g, L, L).estimate, trunc_meta_gradient(traj, g, L).estimate),
    ]
    pairs += [(products[l], trunc_meta_gradient(traj, g, l).estimate) for l in range(K + 1)]
    if not np.any(g):
        pairs.append((full, np.zeros_like(g)))
    return pairs


def test_criterion_2_degeneracy_lattice():
    rng = np.random.default_rng(7)
    instances = []
    for i in range(60):
        K = int(rng.integers(1, 8))
        instances.append(_MAKERS[i % 3](rng, d=int(rng.integers(1, 6)), K=K))
    instances += [sine_trajectory(rng, K=K) for K in (1, 2, 4)]
    checked = mismatched = 0
    for traj, g in instances:
        L = int(rng.integers(0, traj.K + 1))
        for v in (g, np.zeros_like(g)):
            for got, want in _degeneracies(traj, v, L):
                checked += 1
                mismatched += not np.array_equal(got, want)
    _report(2, "estimator degeneracies hold bit for bit on every family (zero g, K=1, "
            "L=0 -> first-order, L=K -> exact, C=K -> plain expansion, C=L -> truncated)",
            mismatched == 0, f"{mismatched} of {checked} identities differ")


def test_criterion_3_sharpness_attainment():
    alpha, H, K = 0.25, 1.0, 5
    checks = []

    seq = sharpness_sequence("theorem2-neg", K=K, L=2, H=H, d=1)
    traj = from_hessian_sequence(seq, alpha)
    exact = full_meta_gradient(traj, seq.g)
    checks.append(abs(estimation_error(fo_meta_gradient(seq.g), exact) - 2.0517578125))
    checks.append(abs(estimation_error(trunc_meta_gradient(traj, seq.g, 2), exact) - 1.4892578125))
    checks.append(abs(estimation_error(binom_meta_gradient(traj, seq.g, 2), exact) - 0.1767578125))

    pos = sharpness_sequence("theorem3-pos", K=K, L=0, H=H, d=1)
    traj_pos = from_hessian_sequence(pos, alpha)
    exact_pos = full_meta_gradient(traj_pos, pos.g)
    e_fo = bounds_convex(BoundInputs(K=K, L=0, alpha=alpha, H=H)).e_fo
    checks.append(abs(estimation_error(fo_meta_gradient(pos.g), exact_pos) - e_fo))

    for L in (1, 2, 3):
        mixed = sharpness_sequence("theorem3-trunc", K=K, L=L, H=H, d=1)
        traj_mix = from_hessian_sequence(mixed, alpha)
        exact_mix = full_meta_gradient(traj_mix, mixed.g)
        e_tr = bounds_convex(BoundInputs(K=K, L=L, alpha=alpha, H=H)).e_tr
        checks.append(abs(estimation_error(trunc_meta_gradient(traj_mix, mixed.g, L), exact_mix) - e_tr))

    worst = max(checks)
    _report(3, "worst-case curvature sequences meet the closed-form bounds with equality",
            worst <= 1e-10, f"max deviation {worst:.2e}")


def test_criterion_4_bound_curve_reproduction():
    base = dict(K=5, alpha=0.25, H=1.0)
    ok = True
    details = []

    rows2 = bound_sweep(2, BoundInputs(L=0, **base))
    rows3 = bound_sweep(3, BoundInputs(L=0, **base))
    rows4 = bound_sweep(4, BoundInputs(L=1, M=1, h=0.1, **base))

    for rows in (rows2, rows3):
        for r in rows:
            if 1 <= r.L < r.K and not (r.e_bin < r.e_tr < r.e_fo):
                ok = False
                details.append(f"chain broken at regime {r.theorem}, L={r.L}")
        if not (rows[0].ratio_tr == 1.0 and rows[0].ratio_bin == 1.0):
            ok = False
            details.append(f"regime {rows[0].theorem} not anchored at 1")
    # under local strong convexity only the expansion-vs-truncation gap is
    # claimed (the truncated bound exceeds the max-protected first-order
    # bound at L=1; see the smooth regime for the full chain)
    for r in rows4:
        if 1 <= r.L < r.K and not r.e_bin < r.e_tr:
            ok = False
            details.append(f"regime 4 expansion bound not below truncated at L={r.L}")

    again = [bound_sweep(2, BoundInputs(L=0, **base)),
             bound_sweep(3, BoundInputs(L=0, **base)),
             bound_sweep(4, BoundInputs(L=1, M=1, h=0.1, **base))]
    if sweep_csv(rows2 + rows3 + rows4) != sweep_csv(again[0] + again[1] + again[2]):
        ok = False
        details.append("not bitwise reproducible")

    _report(4, "bound curves ordered, anchored at 1, and bitwise reproducible",
            ok, "; ".join(details) if details else "regimes 2-4 swept")


def test_criterion_5_combinatorial_identities():
    start = time.perf_counter()
    ok = True
    for K in range(1, 21):
        for L in range(K):
            for gamma in (-1.0, -0.5, 0.5, 1.0, 2.0):
                lhs, rhs = lemma_partial_sum_identity(K, L, gamma)
                if abs(lhs - rhs) > 1e-9 * (1 + abs(lhs)):
                    ok = False
    for K in range(1, 31):
        for L in range(K):
            if not binom_sum_collapse_check(K, L):
                ok = False
    for K in range(1, 41):
        for L in range(1, K + 1):
            if not lemma_binom_bound_check(K, L):
                ok = False
    elapsed = time.perf_counter() - start
    _report(5, "tail-sum, collapse, and binomial upper-bound identities hold",
            ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_6_actual_error_dominance():
    quad = MetaTrainConfig(family="quadratic", K=5, alpha=0.25, hmax=1.0,
                           meta_batch=10, dim=6, seed=510)
    _, avg_quad = run_error_experiment(quad, [1, 2, 3, 4], batches=10)
    ok = all(r.err_bin < r.err_tr for r in avg_quad)
    l4 = next(r for r in avg_quad if r.L == 4)
    ratio = l4.err_bin / l4.err_tr
    ok = ok and ratio <= 1e-2

    # regressor curvature is ~1e2, so alpha = 1e-3 keeps alpha*H well below 1
    # (the bounded-step regime every comparison here presumes)
    sine = MetaTrainConfig(family="sinusoid", K=5, alpha=1e-3, shots=10,
                           meta_batch=10, seed=511)
    _, avg_sine = run_error_experiment(sine, [1, 2, 3, 4], batches=10)
    ok = ok and all(r.err_bin < r.err_tr for r in avg_sine)

    _report(6, "mean expansion error beats truncation at every L on both families",
            ok, f"quadratic L=4 ratio {ratio:.1e}")


def test_criterion_7_cost_counters():
    rng = np.random.default_rng(77)
    ok = True
    for K in range(1, 11):
        traj, g = prescribed_trajectory(rng, d=2, K=K)
        c = full_meta_gradient(traj, g).cost
        ok = ok and (c.hvp_total, c.sequential_depth, c.peak_live_vectors) == (K, K, 1)
        for L in range(K + 1):
            c = trunc_meta_gradient(traj, g, L).cost
            ok = ok and (c.hvp_total, c.sequential_depth, c.peak_live_vectors) == (L, L, min(L, 1))
            c = binom_meta_gradient(traj, g, L).cost
            expected = (0, 0, 0) if L == 0 else (L * (K - L + 1), L, K - L + 1)
            ok = ok and (c.hvp_total, c.sequential_depth, c.peak_live_vectors) == expected
    _report(7, "exact logical cost counters for exact/truncated/expansion estimators",
            ok, "exhaustive K <= 10")


def test_criterion_8_implicit_estimate_correctness():
    rng = np.random.default_rng(88)
    worst = 0.0
    ok = True
    for lam in (0.1, 1.0, 10.0):
        for _ in range(10):
            d = 6
            a = random_spd(rng, d, 0.0, 1.0)
            task = QuadraticTask(a, rng.standard_normal(d))
            g = rng.standard_normal(d)
            mg = imaml_meta_gradient(task, rng.standard_normal(d), g, lam,
                                     cg_tol=1e-13, cg_iters=d)
            want = np.linalg.solve(np.eye(d) + a / lam, g)
            worst = max(worst, np.linalg.norm(mg.estimate - want) / (1 + np.linalg.norm(want)))
            ok = ok and mg.cost.hvp_total <= d
    _report(8, "CG-based implicit estimate matches dense solve within d iterations",
            ok and worst <= 1e-8, f"max rel err {worst:.2e}")


def test_criterion_9_meta_training_sanity():
    common = dict(family="sinusoid", alpha=0.01, beta=1e-3, K=5,
                  meta_batch=10, iterations=100, shots=10, seed=99)
    _, theta_full = run_metatrain(MetaTrainConfig(estimator=EstimatorConfig(kind="full"), **common))
    _, theta_binom = run_metatrain(
        MetaTrainConfig(estimator=EstimatorConfig(kind="binom", L=5), **common)
    )
    agreement = float(np.linalg.norm(theta_full - theta_binom))
    ok = agreement <= 1e-6

    quad = MetaTrainConfig(
        estimator=EstimatorConfig(kind="full"), family="quadratic", alpha=0.25,
        beta=1e-3, K=5, meta_batch=10, dim=6, iterations=1000, seed=100, resample=False,
    )
    records, _ = run_metatrain(quad)
    losses = [r.meta_loss for r in records]
    monotone = all(b <= a + 1e-12 * abs(a) for a, b in zip(losses, losses[1:]))
    ok = ok and monotone

    _report(9, "exact and full-order expansion meta-trainings coincide; convex meta-loss descends",
            ok, f"trajectory gap {agreement:.1e}, monotone={monotone}")
