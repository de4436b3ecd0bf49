import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    binom_sum_collapse_check,
    bound_ordering_check,
    lemma_binom_bound_check,
    lemma_partial_sum_identity,
    prescribed_trajectory,
    step_hessian,
)
from metagrad import (
    BoundInputs,
    bound_sweep,
    bounds_convex,
    bounds_smooth,
    bounds_strongcvx,
    sweep_csv,
)
from metagrad.bounds import SWEEP_CSV_HEADER


FIG_PARAMS = dict(K=5, alpha=0.25, H=1.0)


class TestSmoothBounds:
    def test_first_order_value(self):
        v = bounds_smooth(BoundInputs(L=0, **FIG_PARAMS))
        assert v.e_fo == 2.0517578125

    def test_truncated_value(self):
        v = bounds_smooth(BoundInputs(L=2, **FIG_PARAMS))
        assert v.e_tr == 3.0517578125 - 1.5625

    def test_binomial_value(self):
        v = bounds_smooth(BoundInputs(L=2, **FIG_PARAMS))
        assert v.e_bin == 10 * 0.25**3 + 5 * 0.25**4 + 0.25**5 == 0.1767578125

    def test_overflow_guard(self):
        with pytest.raises(ValueError, match="overflow"):
            BoundInputs(K=61, L=0, alpha=0.1, H=1.0)

    @pytest.mark.parametrize("change, message", [
        (dict(alpha=math.nan), "alpha must be finite and positive"),
        (dict(alpha=math.inf), "alpha must be finite and positive"),
        (dict(alpha=0.0), "alpha must be finite and positive"),
        (dict(H=math.inf), "H must be finite and positive"),
        (dict(H=math.nan), "H must be finite and positive"),
        (dict(h=math.nan), "h must be finite and nonnegative"),
        (dict(h=math.inf), "h must be finite and nonnegative"),
        (dict(h=-0.1), "h must be finite and nonnegative"),
        (dict(g_norm=math.nan), "||g|| must be finite and nonnegative"),
        (dict(g_norm=math.inf), "||g|| must be finite and nonnegative"),
    ], ids=["alpha-nan", "alpha-inf", "alpha-0", "H-inf", "H-nan", "h-nan", "h-inf", "h-neg", "g-nan", "g-inf"])
    def test_non_finite_inputs_rejected(self, change, message):
        # NaN fails every comparison, so each check is written to fail on it
        with pytest.raises(ValueError) as info:
            BoundInputs(**{**FIG_PARAMS, "L": 0, **change})
        assert str(info.value) == message


class TestConvexBounds:
    def test_binomial_value(self):
        v = bounds_convex(BoundInputs(L=2, **FIG_PARAMS))
        assert v.e_bin == math.comb(5, 3) * 0.25**3 == 0.15625

    def test_first_order_at_unit_step(self):
        v = bounds_convex(BoundInputs(K=7, L=0, alpha=1.0, H=1.0))
        assert v.e_fo == 1.0

    def test_truncated_value(self):
        v = bounds_convex(BoundInputs(L=2, **FIG_PARAMS))
        assert v.e_tr == 1.0 - 0.75**3 == 0.578125

    def test_step_size_constraint(self):
        with pytest.raises(ValueError, match="1/H"):
            bounds_convex(BoundInputs(K=5, L=1, alpha=2.0, H=1.0))

    def test_consecutive_ratio_formula_and_decay(self):
        a = 0.25
        prev_ratio = None
        for L in range(0, 4):
            e_l = bounds_convex(BoundInputs(K=5, L=L, alpha=a, H=1.0)).e_bin
            e_next = bounds_convex(BoundInputs(K=5, L=L + 1, alpha=a, H=1.0)).e_bin
            ratio = e_next / e_l
            assert ratio == pytest.approx(a * (5 - L - 1) / (L + 2), rel=1e-12)
            if prev_ratio is not None:
                assert ratio < prev_ratio
            prev_ratio = ratio


class TestStrongConvexBounds:
    def test_h_zero_degenerates(self):
        v = bounds_strongcvx(BoundInputs(K=5, L=2, alpha=0.25, H=1.0, h=0.0, M=2))
        assert v.e_tr == (1.25**3 - 1.25**0) * 1.0

    def test_m_zero_matches_smooth_truncated(self):
        bi = BoundInputs(K=5, L=2, alpha=0.25, H=1.0, h=0.5, M=0)
        assert bounds_strongcvx(bi).e_tr == bounds_smooth(bi).e_tr

    def test_term_by_term_summation_oracle(self):
        K, L, M, alpha, H, h = 5, 1, 1, 0.25, 1.0, 0.1
        v = bounds_strongcvx(BoundInputs(K=K, L=L, alpha=alpha, H=H, h=h, M=M))
        head = 0.0
        for l in range(1, M + 1):
            head += math.comb(K - l, L) * (1 - alpha * h) ** (l - 1)
        head *= (alpha * H) ** (L + 1)
        tail = 0.0
        for l in range(L + 1, K - M + 1):
            tail += math.comb(K - M, l) * (alpha * H) ** l
        tail *= (1 - alpha * h) ** M
        assert abs(v.e_bin - (head + tail)) <= 1e-14 * (1 + abs(v.e_bin))

    def test_max_branches(self):
        v = bounds_strongcvx(BoundInputs(K=5, L=1, alpha=0.25, H=1.0, h=0.1, M=1))
        assert v.e_fo == max(1.25**4 * 0.975 - 1.0, 1.0 - 0.75**5)

    def test_constraint_m(self):
        with pytest.raises(ValueError, match="M"):
            bounds_strongcvx(BoundInputs(K=5, L=1, alpha=0.25, H=1.0, h=0.1, M=2))

    def test_constraint_h(self):
        with pytest.raises(ValueError, match="h"):
            bounds_strongcvx(BoundInputs(K=5, L=2, alpha=0.25, H=1.0, h=2.0, M=1))


class TestOrdering:
    def test_fig_params(self):
        assert bound_ordering_check(BoundInputs(L=2, **FIG_PARAMS))

    def test_boundary_guard(self):
        with pytest.raises(ValueError, match="1 <= L < K"):
            bound_ordering_check(BoundInputs(L=0, **FIG_PARAMS))

    @given(
        K=st.integers(2, 10),
        data=st.data(),
    )
    @settings(max_examples=1000, deadline=None)
    def test_holds_for_all_admissible(self, K, data):
        L = data.draw(st.integers(1, K - 1))
        ah = data.draw(st.floats(1e-6, 1.0))
        assert bound_ordering_check(BoundInputs(K=K, L=L, alpha=ah, H=1.0))


class TestPartialSumIdentity:
    def test_hand_case(self):
        lhs, rhs = lemma_partial_sum_identity(4, 1, 1.0)
        assert lhs == 11.0 and rhs == 11.0

    def test_gamma_zero(self):
        lhs, rhs = lemma_partial_sum_identity(6, 2, 0.0)
        assert lhs == 0.0 and rhs == 0.0

    def test_sweep(self):
        for K in range(1, 21):
            for L in range(0, K):
                for gamma in (-1.0, -0.5, 0.5, 1.0, 2.0):
                    lhs, rhs = lemma_partial_sum_identity(K, L, gamma)
                    assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))

    def test_l_range(self):
        with pytest.raises(ValueError):
            lemma_partial_sum_identity(4, 4, 1.0)


class TestBinomUpperBound:
    def test_diagonal_case(self):
        assert lemma_binom_bound_check(5, 5)  # 1 < e^5

    def test_hand_case(self):
        assert math.comb(10, 3) == 120 < (10 * math.e / 3) ** 3
        assert lemma_binom_bound_check(10, 3)

    def test_sweep(self):
        assert all(lemma_binom_bound_check(K, L) for K in range(1, 41) for L in range(1, K + 1))


class TestCollapse:
    def test_hand_sum(self):
        assert binom_sum_collapse_check(5, 2)  # 6 + 3 + 1 == C(5,3) == 10

    def test_single_term(self):
        assert binom_sum_collapse_check(9, 8)

    def test_sweep_exact(self):
        assert all(binom_sum_collapse_check(K, L) for K in range(1, 31) for L in range(K))


class TestProductDeviationBound:
    def test_partial_products_stay_near_identity(self):
        # ||P^i - I||_2 <= (1 + aH)^i - 1 for any curvature sequence with
        # per-step spectral norm at most H
        rng = np.random.default_rng(40)
        for _ in range(20):
            traj, _ = prescribed_trajectory(rng, d=3, K=6, alpha=0.2, scale=0.7)
            H = max(np.linalg.norm(step_hessian(traj, k), 2) for k in range(6))
            p = np.eye(3)
            for i in range(1, 7):
                p = (np.eye(3) - traj.alpha * step_hessian(traj, 6 - i)) @ p
                bound = (1 + traj.alpha * H) ** i - 1
                assert np.linalg.norm(p - np.eye(3), 2) <= bound + 1e-12


class TestBoundValidity:
    """Measured estimator errors never exceed the closed-form bounds on
    random curvature sequences satisfying each regime's assumptions."""

    @staticmethod
    def _sym_with_eigs(rng, d, lo, hi):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        return q @ np.diag(rng.uniform(lo, hi, d)) @ q.T

    def test_errors_below_bounds(self):
        from metagrad import (
            PrescribedHessianSequence,
            binom_meta_gradient,
            estimation_error,
            fo_meta_gradient,
            from_hessian_sequence,
            full_meta_gradient,
            trunc_meta_gradient,
        )

        rng = np.random.default_rng(0)
        for trial in range(240):
            d = int(rng.integers(1, 5))
            K = int(rng.integers(2, 7))
            L = int(rng.integers(1, K))
            H = float(rng.uniform(0.5, 2.0))
            alpha = float(rng.uniform(0.01, 1.0)) / H
            g = rng.standard_normal(d)
            gn = float(np.linalg.norm(g))
            regime = trial % 3 + 2
            if regime == 2:
                hs = [self._sym_with_eigs(rng, d, -H, H) for _ in range(K)]
                bv = bounds_smooth(BoundInputs(K=K, L=L, alpha=alpha, H=H, g_norm=gn))
            elif regime == 3:
                hs = [self._sym_with_eigs(rng, d, 0, H) for _ in range(K)]
                bv = bounds_convex(BoundInputs(K=K, L=L, alpha=alpha, H=H, g_norm=gn))
            else:
                M = int(rng.integers(0, min(L, K - L) + 1))
                h = float(rng.uniform(0, H))
                hs = [self._sym_with_eigs(rng, d, -H, H) for _ in range(K - M)]
                hs += [self._sym_with_eigs(rng, d, h, H) for _ in range(M)]
                bv = bounds_strongcvx(
                    BoundInputs(K=K, L=L, alpha=alpha, H=H, h=h, M=M, g_norm=gn)
                )
            seq = PrescribedHessianSequence(hessians=tuple(hs), g=g)
            traj = from_hessian_sequence(seq, alpha)
            exact = full_meta_gradient(traj, g)
            slack = 1e-12 * (1 + gn)
            assert estimation_error(fo_meta_gradient(g), exact) <= bv.e_fo + slack
            assert estimation_error(trunc_meta_gradient(traj, g, L), exact) <= bv.e_tr + slack
            assert estimation_error(binom_meta_gradient(traj, g, L), exact) <= bv.e_bin + slack


class TestSweep:
    def test_smooth_rows_and_anchor(self):
        rows = bound_sweep(2, BoundInputs(L=0, **FIG_PARAMS))
        assert [r.L for r in rows] == list(range(6))
        assert rows[0].ratio_tr == 1.0 and rows[0].ratio_bin == 1.0

    def test_convex_anchor(self):
        rows = bound_sweep(3, BoundInputs(L=0, **FIG_PARAMS))
        assert rows[0].ratio_tr == 1.0 and rows[0].ratio_bin == 1.0
        assert rows[1].e_bin == math.comb(5, 2) * 0.25**2

    def test_strongcvx_rows(self):
        rows = bound_sweep(4, BoundInputs(L=1, M=1, h=0.1, **FIG_PARAMS))
        assert [r.L for r in rows] == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("change, match", [
        (dict(M=3), "M <="), (dict(alpha=2.0), "1/H"), (dict(h=5.0), "h cannot exceed H"),
    ], ids=["M-past-K-M", "alphaH-above-1", "h-above-H"])
    def test_strongcvx_m_constraint(self, change, match):
        # the sweep checks what bounds_strongcvx checks
        bi = BoundInputs(L=3, **{**FIG_PARAMS, "M": 1, "h": 0.1, **change})
        with pytest.raises(ValueError, match=match):
            bound_sweep(4, bi)

    @pytest.mark.parametrize("K, M", [(0, 1), (1, 1), (3, 2)], ids=["K0-M1", "K1-M1", "K3-M2"])
    def test_strongcvx_m_past_half_k_names_m_and_k(self, K, M):
        # the sweep's caller gives no L, so the error names only M and K
        bi = BoundInputs(K=K, L=0, alpha=0.25, H=1.0, h=0.1, M=M)
        with pytest.raises(ValueError, match=rf"^need M <= K-M, got M={M}, K={K}$"):
            bound_sweep(4, bi)

    def test_bad_selector(self):
        with pytest.raises(ValueError):
            bound_sweep(5, BoundInputs(L=0, **FIG_PARAMS))

    def test_gradient_norm_scales_bounds_not_ratios(self):
        rows1 = bound_sweep(2, BoundInputs(L=0, g_norm=1.0, **FIG_PARAMS))
        rows3 = bound_sweep(2, BoundInputs(L=0, g_norm=3.0, **FIG_PARAMS))
        for a, b in zip(rows1, rows3):
            assert b.e_fo == 3.0 * a.e_fo and b.e_bin == 3.0 * a.e_bin
            assert b.ratio_tr == a.ratio_tr and b.ratio_bin == a.ratio_bin

    def test_csv_header_and_determinism(self):
        rows = bound_sweep(2, BoundInputs(L=0, **FIG_PARAMS))
        text = sweep_csv(rows)
        assert text.splitlines()[0] == SWEEP_CSV_HEADER
        assert text == sweep_csv(bound_sweep(2, BoundInputs(L=0, **FIG_PARAMS)))
