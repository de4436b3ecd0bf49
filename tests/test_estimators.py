import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    binom_expansion_matrix,
    dense_hessian,
    dense_product,
    logistic_trajectory,
    prescribed_trajectory,
    quadratic_trajectory,
    random_logistic,
    random_quadratic,
    sample_sinusoid_batch,
    sine_trajectory,
    stack_objectives,
)
from metagrad import (
    CostCounters,
    DivergenceError,
    EstimatorConfig,
    LogisticTask,
    MetaTrainConfig,
    MlpObjective,
    QuadraticTask,
    TaskObjective,
    Trajectory,
    binom_meta_gradient,
    binom_oracle,
    binomtrunc_meta_gradient,
    estimate,
    estimation_error,
    fo_meta_gradient,
    from_hessian_sequence,
    full_meta_gradient,
    gd_adapt,
    imaml_meta_gradient,
    mlp_init,
    random_spd,
    sample_task_batch,
    sharpness_sequence,
    trunc_meta_gradient,
    validation_gradient,
)
from metagrad.estimators import _cascade, _expansion
from metagrad.metatrain import _adapt, initial_theta


def rel_err(a, b):
    return np.linalg.norm(a - b) / (1.0 + np.linalg.norm(b))


class TestFull:
    def test_single_factor(self):
        rng = np.random.default_rng(0)
        a = random_spd(rng, 3)
        task = QuadraticTask(a, rng.standard_normal(3))
        traj = gd_adapt(task, rng.standard_normal(3), 0.3, 1)
        g = rng.standard_normal(3)
        expected = (np.eye(3) - 0.3 * a) @ g
        assert rel_err(full_meta_gradient(traj, g).estimate, expected) <= 1e-12

    def test_matrix_power_oracle(self):
        rng = np.random.default_rng(1)
        traj, g = quadratic_trajectory(rng, d=4, K=6, alpha=0.2)
        expected = dense_product(traj) @ g
        assert rel_err(full_meta_gradient(traj, g).estimate, expected) <= 1e-10

    def test_scalar_closed_form(self):
        seq = sharpness_sequence("theorem2-neg", K=5, L=0, H=1.0, d=1)
        traj = from_hessian_sequence(seq, 0.25)
        out = full_meta_gradient(traj, seq.g).estimate
        assert out[0] == pytest.approx(1.25**5, abs=0)
        assert out[0] == 3.0517578125

    def test_counters(self):
        rng = np.random.default_rng(2)
        traj, g = quadratic_trajectory(rng, K=7)
        assert full_meta_gradient(traj, g).cost == CostCounters(7, 7, 1)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nan_abort_names_step(self):
        huge = np.array([[1e208]])
        traj = Trajectory(
            iterates=np.zeros((3, 1)),
            alpha=1e200,
            step_hessians=np.array([huge, huge]),
        )
        with pytest.raises(DivergenceError, match="cascade stage 0, step k=1$"):
            full_meta_gradient(traj, np.ones(1))

    def test_counted_costs_equal_formula(self, stage_sizes):
        # full and trunc are cascades one vector wide: one stage call per factor
        rng = np.random.default_rng(36)
        for K in range(1, 7):
            traj, g = prescribed_trajectory(rng, d=2, K=K)
            runs = [(K, lambda: full_meta_gradient(traj, g))]
            runs += [(L, lambda L=L: trunc_meta_gradient(traj, g, L)) for L in range(K + 1)]
            for L, run in runs:
                stage_sizes.clear()
                cost = run().cost
                assert (sum(stage_sizes), len(stage_sizes)) == (cost.hvp_total, cost.sequential_depth) == (L, L)
                assert cost.peak_live_vectors == min(L, 1)


class TestFirstOrder:
    def test_identity(self):
        assert np.array_equal(fo_meta_gradient([1.0, 2.0]).estimate, [1.0, 2.0])

    def test_zero(self):
        assert np.array_equal(fo_meta_gradient([0.0]).estimate, [0.0])

    def test_counters_zero(self):
        assert fo_meta_gradient([3.0]).cost == CostCounters(0, 0, 0)


class TestTrunc:
    def test_l0_equals_fo(self):
        rng = np.random.default_rng(3)
        traj, g = quadratic_trajectory(rng)
        assert np.array_equal(trunc_meta_gradient(traj, g, 0).estimate, g)

    def test_lK_equals_full(self):
        rng = np.random.default_rng(4)
        traj, g = prescribed_trajectory(rng, K=6)
        a = trunc_meta_gradient(traj, g, 6).estimate
        b = full_meta_gradient(traj, g).estimate
        assert np.array_equal(a, b)

    def test_matrix_power_oracle(self):
        rng = np.random.default_rng(5)
        traj, g = quadratic_trajectory(rng, d=3, K=3, alpha=0.25)
        expected = dense_product(traj, L=2) @ g
        assert rel_err(trunc_meta_gradient(traj, g, 2).estimate, expected) <= 1e-10

    def test_out_of_range(self):
        rng = np.random.default_rng(6)
        traj, g = quadratic_trajectory(rng, K=3)
        with pytest.raises(ValueError):
            trunc_meta_gradient(traj, g, 4)

    def test_counters(self):
        rng = np.random.default_rng(7)
        traj, g = quadratic_trajectory(rng, K=5)
        assert trunc_meta_gradient(traj, g, 3).cost == CostCounters(3, 3, 1)
        assert trunc_meta_gradient(traj, g, 0).cost == CostCounters(0, 0, 0)


class TestBinom:
    def test_l0_returns_g(self):
        rng = np.random.default_rng(8)
        traj, g = quadratic_trajectory(rng)
        assert np.array_equal(binom_meta_gradient(traj, g, 0).estimate, g)

    def test_l0_at_k0_with_rescale_returns_g(self):
        traj = from_hessian_sequence(sharpness_sequence("theorem3-pos", 0, 0, 0.5, 2), 0.25)
        g = np.array([1.0, -2.0])
        for mg in (binom_meta_gradient(traj, g, 0, True), binomtrunc_meta_gradient(traj, g, 0, 0, True)):
            assert np.array_equal(mg.estimate, g) and mg.cost == CostCounters(0, 0, 0)

    def test_lK_equals_full_product(self):
        rng = np.random.default_rng(9)
        traj, g = prescribed_trajectory(rng, K=5)
        a = binom_meta_gradient(traj, g, 5).estimate
        b = full_meta_gradient(traj, g).estimate
        assert rel_err(a, b) <= 1e-10

    def test_small_quadratic_matches_oracle(self):
        rng = np.random.default_rng(10)
        traj, g = quadratic_trajectory(rng, d=2, K=3, alpha=0.1)
        out = binom_meta_gradient(traj, g, 1).estimate
        assert np.linalg.norm(out - binom_oracle(traj, g, 1)) <= 1e-12

    @pytest.mark.parametrize("K", range(1, 7))
    def test_oracle_equivalence_randomized(self, K):
        rng = np.random.default_rng(100 + K)
        makers = (quadratic_trajectory, prescribed_trajectory, logistic_trajectory)
        for _ in range(10):
            maker = makers[rng.integers(len(makers))]
            traj, g = maker(rng, d=int(rng.integers(1, 5)), K=K)
            for L in range(K + 1):
                want = binom_oracle(traj, g, L)
                assert rel_err(binom_meta_gradient(traj, g, L).estimate, want) <= 1e-10
        traj, g = sine_trajectory(rng, K=K)
        for L in range(K + 1):
            want = binom_oracle(traj, g, L)
            assert rel_err(binom_meta_gradient(traj, g, L).estimate, want) <= 1e-10

    def test_counters(self):
        rng = np.random.default_rng(11)
        traj, g = quadratic_trajectory(rng, K=5)
        assert binom_meta_gradient(traj, g, 2).cost == CostCounters(8, 2, 4)
        assert binom_meta_gradient(traj, g, 0).cost == CostCounters(0, 0, 0)

    def test_one_stacked_call_per_stage(self, monkeypatch):
        # every family serves a stage of K - L + 1 = 4 HVPs with one hvp call on 4 x d stacks
        shapes = []
        for cls in (QuadraticTask, LogisticTask, MlpObjective):
            def counting(self, phi, v, hvp=cls.hvp):
                shapes.append((np.shape(phi)[:-1], np.shape(v)[:-1]))
                return hvp(self, phi, v)

            monkeypatch.setattr(cls, "hvp", counting)
        rng = np.random.default_rng(13)
        for make in (quadratic_trajectory, logistic_trajectory, sine_trajectory):
            traj, g = make(rng, K=5)
            shapes.clear()
            mg = binom_meta_gradient(traj, g, 2)
            assert shapes == [((4,), (4,)), ((4,), (4,))]
            assert mg.cost == CostCounters(8, 2, 4)

    def test_rescale_alpha_keeps_alpha_at_L_equal_K(self):
        # 0.2 * K / K is not 0.2 at K = 3 and 6, so L = K must not take the rescaled form
        rng = np.random.default_rng(14)
        for K in (3, 6):
            assert 0.2 * K / K != 0.2
            traj, g = quadratic_trajectory(rng, K=K, alpha=0.2)
            got = binom_meta_gradient(traj, g, K, rescale_alpha=True).estimate
            assert np.array_equal(got, full_meta_gradient(traj, g).estimate)

    def test_rescale_alpha(self):
        rng = np.random.default_rng(12)
        traj, g = quadratic_trajectory(rng, K=4)
        # L = K leaves alpha unchanged, so rescaling recovers the exact product
        a = binom_meta_gradient(traj, g, 4, rescale_alpha=True).estimate
        assert np.array_equal(a, full_meta_gradient(traj, g).estimate)
        # at L < K the expansion runs at alpha' = L alpha / K
        want = binom_oracle(traj, g, 2, rescale_alpha=True)
        got = binom_meta_gradient(traj, g, 2, rescale_alpha=True).estimate
        assert rel_err(got, want) <= 1e-12
        assert not np.allclose(got, binom_meta_gradient(traj, g, 2).estimate)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nan_abort_names_stage(self):
        huge = np.array([[1e208]])
        traj = Trajectory(
            iterates=np.zeros((3, 1)),
            alpha=1e200,
            step_hessians=np.array([huge, huge]),
        )
        with pytest.raises(DivergenceError, match="cascade stage 0, step k=1$"):
            binom_meta_gradient(traj, np.ones(1), 2)


class TestOracle:
    def test_two_singletons(self):
        rng = np.random.default_rng(16)
        traj, g = prescribed_trajectory(rng, d=3, K=2)
        h0, h1 = traj.step_hessians
        want = g - traj.alpha * ((h0 + h1) @ g)
        assert np.linalg.norm(binom_oracle(traj, g, 1) - want) <= 1e-12

    def test_cube_expansion_exact(self):
        rng = np.random.default_rng(17)
        traj, g = quadratic_trajectory(rng, d=3, K=3)
        want = dense_product(traj) @ g
        assert np.linalg.norm(binom_oracle(traj, g, 3) - want) <= 1e-12

    def test_enumeration_size(self):
        calls = 0

        class CountingTraj:
            K = 5
            alpha = 0.1
            dim = 1

            def hvp(self, k, v):
                nonlocal calls
                calls += 1
                return v

        binom_oracle(CountingTraj(), np.ones(1), 2)
        # 15 tuples (C(5,1) + C(5,2)); each costs one HVP on its suffix's product
        assert calls == math.comb(5, 1) + math.comb(5, 2) == 15

    def test_enumeration_guard(self):
        rng = np.random.default_rng(18)
        traj, g = prescribed_trajectory(rng, d=1, K=15)
        with pytest.raises(ValueError, match="guard"):
            binom_oracle(traj, g, 1)


class TestBinomTrunc:
    def test_window_k_is_plain_binom(self):
        rng = np.random.default_rng(19)
        traj, g = prescribed_trajectory(rng, K=5)
        for L in range(6):
            a = binomtrunc_meta_gradient(traj, g, L, 5).estimate
            b = binom_meta_gradient(traj, g, L).estimate
            assert np.array_equal(a, b)

    def test_full_window_full_order_is_exact(self):
        rng = np.random.default_rng(20)
        traj, g = quadratic_trajectory(rng, K=4)
        a = binomtrunc_meta_gradient(traj, g, 4, 4).estimate
        assert rel_err(a, full_meta_gradient(traj, g).estimate) <= 1e-12

    def test_restricted_window_enumeration(self):
        rng = np.random.default_rng(21)
        traj, g = prescribed_trajectory(rng, d=3, K=5)
        K, L, C = 5, 1, 4
        got = binomtrunc_meta_gradient(traj, g, L, C).estimate
        want = g.copy()
        for k1 in range(K - C, K):
            want = want - traj.alpha * traj.hvp(k1, g)
        assert np.linalg.norm(got - want) <= 1e-12

    def test_restricted_window_enumeration_higher_order(self):
        rng = np.random.default_rng(22)
        traj, g = prescribed_trajectory(rng, d=2, K=6)
        K, L, C = 6, 3, 4
        got = binomtrunc_meta_gradient(traj, g, L, C).estimate
        want = g.copy()
        for l in range(1, L + 1):
            for combo in itertools.combinations(range(K - C, K), l):
                w = g
                for k in reversed(combo):
                    w = traj.hvp(k, w)
                want = want + (-traj.alpha) ** l * w
        assert np.linalg.norm(got - want) <= 1e-12 * (1 + np.linalg.norm(want))

    def test_order_equals_window_recovers_truncated(self):
        # with L = C the expansion covers every product over the retained
        # window, i.e. exactly the truncated estimate
        rng = np.random.default_rng(34)
        traj, g = prescribed_trajectory(rng, d=3, K=6)
        for L in range(7):
            a = binomtrunc_meta_gradient(traj, g, L, L)
            b = trunc_meta_gradient(traj, g, L)
            assert np.array_equal(a.estimate, b.estimate)
            assert a.cost.hvp_total == b.cost.hvp_total

    def test_constraint_violations(self):
        rng = np.random.default_rng(23)
        traj, g = prescribed_trajectory(rng, K=4)
        with pytest.raises(ValueError):
            binomtrunc_meta_gradient(traj, g, 3, 2)  # C < L
        with pytest.raises(ValueError):
            binomtrunc_meta_gradient(traj, g, 1, 5)  # C > K

    def test_counted_costs_equal_formula(self, stage_sizes):
        # stage s sends the C-L+1 columns at iterates K-C+L-1-s..K-1-s
        rng = np.random.default_rng(35)
        for K in range(1, 7):
            traj, g = prescribed_trajectory(rng, d=2, K=K)
            for L in range(K + 1):
                for C in range(L, K + 1):
                    stage_sizes.clear()
                    cost = binomtrunc_meta_gradient(traj, g, L, C).cost
                    expected = (0, 0, 0) if L == 0 else (L * (C - L + 1), L, C - L + 1)
                    assert (cost.hvp_total, cost.sequential_depth, cost.peak_live_vectors) == expected
                    assert (sum(stage_sizes), len(stage_sizes)) == (cost.hvp_total, cost.sequential_depth)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nan_abort_names_trajectory_step(self):
        # window steps 1..2; only step 2 overflows, so the report names step 2, not window index 1
        flat, huge = np.zeros((1, 1)), np.array([[1e208]])
        traj = Trajectory(
            iterates=np.zeros((4, 1)),
            alpha=1e200,
            step_hessians=np.array([flat, flat, huge]),
        )
        with pytest.raises(DivergenceError, match="cascade stage 0, step k=2$"):
            binomtrunc_meta_gradient(traj, np.ones(1), 1, 2)

    def test_masked_hvps_not_charged(self):
        rng = np.random.default_rng(24)
        traj, g = prescribed_trajectory(rng, K=5)
        mg = binomtrunc_meta_gradient(traj, g, 1, 4)
        assert mg.cost.hvp_total == 4  # window iterates 1..4; iterate 0 is never sent


class TestImaml:
    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
    def test_matches_dense_solve(self, lam):
        rng = np.random.default_rng(25)
        a = random_spd(rng, 6, 0.0, 1.0)
        task = QuadraticTask(a, rng.standard_normal(6))
        phi = rng.standard_normal(6)
        g = rng.standard_normal(6)
        mg = imaml_meta_gradient(task, phi, g, lam, cg_tol=1e-13, cg_iters=6)
        want = np.linalg.solve(np.eye(6) + a / lam, g)
        assert np.linalg.norm(mg.estimate - want) <= 1e-8 * (1 + np.linalg.norm(want))
        assert mg.cost.hvp_total <= 6

    def test_zero_hessian_identity_system(self):
        task = QuadraticTask(np.zeros((3, 3)), np.zeros(3))
        g = np.array([1.0, -2.0, 0.5])
        mg = imaml_meta_gradient(task, np.zeros(3), g, lam=1.0)
        assert np.max(np.abs(mg.estimate - g)) <= 1e-12

    def test_huge_lambda_returns_g(self):
        rng = np.random.default_rng(26)
        a = random_spd(rng, 4, 0.0, 1.0)
        task = QuadraticTask(a, np.zeros(4))
        g = rng.standard_normal(4)
        mg = imaml_meta_gradient(task, np.zeros(4), g, lam=1e12)
        assert np.linalg.norm(mg.estimate - g) <= 1e-6 * np.linalg.norm(g)

    def test_non_psd_breakdown(self):
        from metagrad import CGBreakdownError

        task = QuadraticTask(-10.0 * np.eye(2), np.zeros(2))
        with pytest.raises(CGBreakdownError):
            imaml_meta_gradient(task, np.zeros(2), np.ones(2), lam=1.0)

    def test_nonconvergence_flag(self):
        rng = np.random.default_rng(27)
        a = random_spd(rng, 8, 0.5, 5.0)
        task = QuadraticTask(a, np.zeros(8))
        mg = imaml_meta_gradient(task, np.zeros(8), rng.standard_normal(8), 0.1, cg_tol=1e-15, cg_iters=1)
        assert mg.converged is False
        assert mg.estimate.shape == (8,)


def _imaml_batch(family, rng, batch=5):
    """(train objectives, B x d adapted points, B x d validation gradients, lambda) for one family."""
    if family == "sinusoid":
        tasks = sample_sinusoid_batch(rng, batch, 5)
        train, val = [t.train_objective() for t in tasks], [t.val_objective() for t in tasks]
        theta, alpha, lam = mlp_init(rng), 1e-3, 100.0
    else:
        d = 6
        make = ((lambda: random_quadratic(rng, d, 0.0, 2.0)) if family == "quadratic"
                else (lambda w=rng.standard_normal(d): random_logistic(rng, w, 20)))
        train, val = [make() for _ in range(batch)], [make() for _ in range(batch)]
        theta, alpha, lam = rng.standard_normal(d), 0.25, 1.0
    traj = gd_adapt(stack_objectives(train), np.tile(theta, (batch, 1)), alpha, 3)
    return train, traj.final, validation_gradient(stack_objectives(val), traj), lam


class TestStackedImaml:
    @pytest.mark.parametrize("family", ["quadratic", "logistic", "sinusoid"])
    def test_equals_per_task_solves(self, family):
        train, phi, g, lam = _imaml_batch(family, np.random.default_rng(28))
        mg = imaml_meta_gradient(stack_objectives(train), phi, g, lam)
        singles = [imaml_meta_gradient(obj, phi[t], g[t], lam) for t, obj in enumerate(train)]
        assert np.array_equal(mg.estimate, [s.estimate for s in singles])
        assert mg.converged.tolist() == [s.converged for s in singles]
        counts = [s.cost.hvp_total for s in singles]
        assert mg.cost == CostCounters(sum(counts), max(counts), 4 * len(train))

    @pytest.mark.parametrize("family", ["quadratic", "logistic", "sinusoid"])
    def test_linearized_once_per_live_set(self, monkeypatch, family):
        # CG builds its operator at the start and again only when tasks leave with others still iterating
        train, phi, g, lam = _imaml_batch(family, np.random.default_rng(30), batch=4)
        if family != "sinusoid":
            # at d = 6 every task takes 6 iterations; task t's g in the span of t + 2 of its Hessian's
            # eigenvectors takes t + 2, so the tasks leave one by one
            g = np.stack([np.linalg.eigh(dense_hessian(obj, phi[t]))[1][:, :t + 2].sum(axis=1)
                          for t, obj in enumerate(train)])
        iters = [imaml_meta_gradient(obj, phi[t], g[t], lam).cost.hvp_total for t, obj in enumerate(train)]
        retires = sorted(set(iters))[:-1]  # the last retire event ends the solve
        assert retires
        built = []
        cls = type(train[0])
        linearize = cls.linearize
        monkeypatch.setattr(cls, "linearize", lambda self, p: built.append(len(p)) or linearize(self, p))
        mg = imaml_meta_gradient(stack_objectives(train), phi, g, lam)
        assert built == [len(train)] + [sum(n > r for n in iters) for r in retires]
        assert len(built) == 1 + len(retires) < max(iters)
        assert mg.cost.hvp_total == sum(iters)

    def test_estimate_dispatches_a_stacked_trajectory(self):
        train, phi, g, lam = _imaml_batch("logistic", np.random.default_rng(29))
        traj = Trajectory(iterates=np.array([phi, phi]), alpha=0.25, objective=stack_objectives(train))
        got = estimate(traj, g, EstimatorConfig(kind="imaml", imaml_lambda=lam))
        assert np.array_equal(got.estimate, imaml_meta_gradient(traj.objective, phi, g, lam).estimate)

    @pytest.mark.parametrize("field, value", [("imaml_lambda", math.nan), ("imaml_lambda", 0.0)])
    def test_config_rejects_bad_cg_knobs(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be positive$"):
            EstimatorConfig(kind="imaml", **{field: value})


class TestEstimationError:
    def test_identical(self):
        assert estimation_error([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_pythagorean(self):
        assert estimation_error([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_sharpness_value(self):
        seq = sharpness_sequence("theorem2-neg", K=5, L=0, H=1.0, d=1)
        traj = from_hessian_sequence(seq, 0.25)
        exact = full_meta_gradient(traj, seq.g)
        assert estimation_error(fo_meta_gradient(seq.g), exact) == 2.0517578125

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            estimation_error([1.0], [1.0, 2.0])


class TestCascadeStructure:
    def test_partial_products_equal_truncated_products(self):
        rng = np.random.default_rng(28)
        traj, g = quadratic_trajectory(rng, d=4, K=6)
        products = _cascade(traj.hvp_stage, 0, traj.K, (traj.K,), traj.alpha, g)[1]
        assert len(products) == 7
        for l, product in enumerate(products):
            assert rel_err(product, dense_product(traj, L=l) @ g) <= 1e-10
            assert np.array_equal(product, trunc_meta_gradient(traj, g, l).estimate)
        assert np.array_equal(products[-1], full_meta_gradient(traj, g).estimate)

    def test_stage_recursion_telescopes(self):
        # peeling the lowest index off the order-L expansion leaves the
        # last-L product plus curvature hits on order-(L-1) expansions over
        # the remaining window:
        #   binom(L) = P^L g - a * sum_k H^k binom(L-1, window k+1..K)
        rng = np.random.default_rng(33)
        traj, g = prescribed_trajectory(rng, d=3, K=6)
        K = traj.K
        for L in range(1, K + 1):
            lhs = binom_meta_gradient(traj, g, L).estimate
            rhs = dense_product(traj, L) @ g
            for k in range(K - L):
                inner = binomtrunc_meta_gradient(traj, g, L - 1, K - k - 1).estimate
                rhs = rhs - traj.alpha * traj.hvp(k, inner)
            assert rel_err(lhs, rhs) <= 1e-12

    def test_matrix_cascade_agrees_with_vector_cascade(self):
        rng = np.random.default_rng(29)
        for d in (1, 2, 4):
            traj, g = prescribed_trajectory(rng, d=d, K=5)
            for L in range(6):
                m = binom_expansion_matrix(traj, L)
                v = binom_meta_gradient(traj, g, L).estimate
                assert np.max(np.abs(m @ g - v)) <= 1e-12 * (1 + np.max(np.abs(v)))

    @pytest.mark.parametrize("family", ["prescribed", "logistic"])
    def test_multi_order_edges_equal_single_order_cascades(self, family):
        # one pass over any subset of orders, on any window (first = K - C > 0 included),
        # gives each order's own cascade estimate and the truncated products, bit for bit
        make = {"prescribed": prescribed_trajectory, "logistic": logistic_trajectory}[family]
        traj, g = make(np.random.default_rng(41), d=3, K=5)
        K = traj.K
        for C in range(1, K + 1):
            for size in range(1, C + 2):
                for orders in itertools.combinations(range(C + 1), size):
                    estimates, edge, _ = _cascade(traj.hvp_stage, K - C, C, orders, traj.alpha, g)
                    assert sorted(estimates) == list(orders)
                    for L in orders:
                        assert np.array_equal(estimates[L], _expansion(traj, g, L, C)[0])
                    assert len(edge) == orders[-1] + 1
                    for l, product in enumerate(edge):
                        assert np.array_equal(product, trunc_meta_gradient(traj, g, l).estimate)

    @pytest.mark.parametrize("family", ["quadratic", "logistic", "sinusoid"])
    def test_stage_hands_the_objective_views(self, monkeypatch, family):
        # a stage's iterates are a view of the trajectory's one array and its directions one window
        # array; quadratic and logistic stages pass through TaskObjective.hvp, the sine one through its own
        cfg = MetaTrainConfig(family=family, K=4, meta_batch=3, alpha=1e-3 if family == "sinusoid" else 0.25)
        rng = np.random.default_rng(43)
        traj, g = _adapt(sample_task_batch(cfg, rng), initial_theta(cfg, rng), cfg)
        owner = MlpObjective if family == "sinusoid" else TaskObjective
        hvp, calls = owner.hvp, []
        monkeypatch.setattr(owner, "hvp", lambda self, phi, v: calls.append((phi, v)) or hvp(self, phi, v))
        binom_meta_gradient(traj, g, 2)
        assert len(calls) == 2
        for phi, v in calls:
            assert type(phi) is type(v) is np.ndarray and phi.shape == v.shape == (3, 3, traj.dim)
            assert np.shares_memory(phi, traj.iterates)

    def test_multi_order_costs_are_counted_windows(self, stage_sizes):
        # stage l sends the C-m+1 columns that orders >= m still need, m the next listed order
        traj, g = prescribed_trajectory(np.random.default_rng(42), d=2, K=6)
        for orders, sizes in (((0, 6), [1] * 6), ((2, 6), [5, 5, 1, 1, 1, 1]),
                              ((1, 3, 4), [6, 4, 4, 3]), (tuple(range(7)), [6, 5, 4, 3, 2, 1])):
            stage_sizes.clear()
            cost = _cascade(traj.hvp_stage, 0, 6, orders, traj.alpha, g)[2]
            assert stage_sizes == sizes
            assert (cost.hvp_total, cost.sequential_depth, cost.peak_live_vectors) == (
                sum(sizes), len(sizes), max(sizes))

    @given(
        a=st.floats(-3, 3, allow_nan=False),
        b=st.floats(-3, 3, allow_nan=False),
        L=st.integers(0, 5),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=60, deadline=None)
    def test_linearity_in_g(self, a, b, L, seed):
        rng = np.random.default_rng(seed)
        traj, _ = prescribed_trajectory(rng, d=3, K=5)
        g1 = rng.standard_normal(3)
        g2 = rng.standard_normal(3)
        for fn in (
            lambda t, g: full_meta_gradient(t, g).estimate,
            lambda t, g: trunc_meta_gradient(t, g, L).estimate,
            lambda t, g: binom_meta_gradient(t, g, L).estimate,
        ):
            lhs = fn(traj, a * g1 + b * g2)
            rhs = a * fn(traj, g1) + b * fn(traj, g2)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1 + np.linalg.norm(rhs))


class TestDispatch:
    def test_kinds(self):
        rng = np.random.default_rng(30)
        traj, g = quadratic_trajectory(rng, d=3, K=4)
        full = estimate(traj, g, EstimatorConfig(kind="full"))
        assert np.array_equal(estimate(traj, g, EstimatorConfig(kind="binom", L=4)).estimate, full.estimate)
        assert np.array_equal(estimate(traj, g, EstimatorConfig(kind="fo")).estimate, g)
        assert estimate(traj, g, EstimatorConfig(kind="imaml", imaml_lambda=2.0)).kind == "imaml"
        assert estimate(traj, g, EstimatorConfig(kind="binom-trunc", L=1, C=3)).kind == "binom-trunc"

    def test_invalid_kind(self):
        for kind in ("exact", "binom-batched", "binom-oracle"):
            with pytest.raises(ValueError, match="unknown estimator kind"):
                EstimatorConfig(kind=kind)

    def test_reptile_not_dispatchable(self):
        rng = np.random.default_rng(31)
        traj, g = quadratic_trajectory(rng, d=2, K=2)
        with pytest.raises(ValueError):
            estimate(traj, g, EstimatorConfig(kind="reptile"))


class TestDegeneracyLattice:
    def test_all_identities(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            maker = quadratic_trajectory if rng.uniform() < 0.5 else prescribed_trajectory
            traj, g = maker(rng, d=3, K=5)
            full = full_meta_gradient(traj, g).estimate
            checks = [
                (binom_meta_gradient(traj, g, 0).estimate, g),
                (trunc_meta_gradient(traj, g, 0).estimate, g),
                (binom_meta_gradient(traj, g, 5).estimate, full),
                (trunc_meta_gradient(traj, g, 5).estimate, full),
                (
                    binomtrunc_meta_gradient(traj, g, 2, 5).estimate,
                    binom_meta_gradient(traj, g, 2).estimate,
                ),
            ]
            for got, want in checks:
                assert rel_err(got, want) <= 1e-10
