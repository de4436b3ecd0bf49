import numpy as np
import pytest

from conftest import random_quadratic, sample_sinusoid_batch, stack_objectives
from metagrad import (
    DivergenceError,
    PrescribedHessianSequence,
    QuadraticTask,
    from_hessian_sequence,
    gd_adapt,
    mlp_init,
    random_spd,
    sharpness_sequence,
    validation_gradient,
)
from metagrad.objectives import TaskObjective


class _NanAtStep(TaskObjective):
    """Gradient turns NaN once phi drifts from the start (after step 0)."""

    dim = 2

    def value(self, phi):
        return 0.0

    def gradient(self, phi):
        if np.linalg.norm(phi) > 5.0:
            return np.full(2, np.nan)
        return np.ones(2)

    def linearize(self, phi):
        return np.zeros_like  # the zero operator


class TestGdAdapt:
    def test_hand_iteration(self):
        task = QuadraticTask(np.eye(2), np.zeros(2))
        traj = gd_adapt(task, [1.0, 1.0], alpha=0.5, K=2)
        assert np.allclose(traj.iterates[1], [0.5, 0.5], atol=0)
        assert np.allclose(traj.iterates[2], [0.25, 0.25], atol=0)
        assert traj.K == 2

    def test_iterates_are_one_read_only_array(self):
        # phi^0..phi^K in one (K+1)-row array, its own copy of theta, which nothing can write to
        rng = np.random.default_rng(9)
        tasks = [random_quadratic(rng, 3) for _ in range(2)]
        for obj, theta in ((tasks[0], rng.standard_normal(3)), (stack_objectives(tasks), rng.standard_normal((2, 3)))):
            traj = gd_adapt(obj, theta, 0.2, 4)
            assert type(traj.iterates) is np.ndarray and traj.iterates.shape == (5,) + theta.shape
            assert not np.shares_memory(traj.iterates, theta)
            with pytest.raises(ValueError, match="read-only"):
                traj.iterates[1] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                traj.final[..., 0] = 0.0

    def test_alpha_must_be_positive(self):
        task = QuadraticTask(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match="alpha"):
            gd_adapt(task, [1.0, 1.0], alpha=0.0, K=1)

    def test_k_must_be_positive(self):
        task = QuadraticTask(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match="K"):
            gd_adapt(task, [1.0, 1.0], alpha=0.1, K=0)

    def test_stationary_point_is_fixed(self):
        task = QuadraticTask(np.diag([2.0, 1.0]), np.array([-2.0, -1.0]))
        traj = gd_adapt(task, [1.0, 1.0], alpha=0.3, K=4)  # minimum at (1, 1)
        for phi in traj.iterates:
            assert np.array_equal(phi, [1.0, 1.0])

    def test_resimulation_invariant(self):
        rng = np.random.default_rng(4)
        task = random_quadratic(rng, 5)
        traj = gd_adapt(task, rng.standard_normal(5), 0.2, 8)
        for k in range(traj.K):
            recomputed = traj.iterates[k] - traj.alpha * task.gradient(traj.iterates[k])
            err = np.linalg.norm(traj.iterates[k + 1] - recomputed)
            assert err <= 1e-12 * (1 + np.linalg.norm(traj.iterates[k]))

    def test_closed_form_oracle(self):
        rng = np.random.default_rng(6)
        task = random_quadratic(rng, 4)
        theta = rng.standard_normal(4)
        alpha, K = 0.15, 6
        traj = gd_adapt(task, theta, alpha, K)
        m = np.eye(4) - alpha * task.a
        expected = np.linalg.matrix_power(m, K) @ theta
        expected -= alpha * sum(np.linalg.matrix_power(m, j) for j in range(K)) @ task.b
        assert np.linalg.norm(traj.final - expected) <= 1e-10 * (1 + np.linalg.norm(expected))

    def test_divergence_names_step(self):
        with pytest.raises(DivergenceError, match="step 1"):
            gd_adapt(_NanAtStep(), [1.0, 1.0], alpha=10.0, K=5)

    def test_dimension_mismatch(self):
        task = QuadraticTask(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError, match="dimension"):
            gd_adapt(task, [1.0, 1.0], 0.1, 1)


class TestValidationGradient:
    def test_same_objective_closed_form(self):
        rng = np.random.default_rng(10)
        task = random_quadratic(rng, 3)
        traj = gd_adapt(task, rng.standard_normal(3), 0.2, 3)
        g = validation_gradient(task, traj)
        assert np.array_equal(g, task.a @ traj.final + task.b)

    def test_zero_at_optimum(self):
        task = QuadraticTask(np.eye(2), np.zeros(2))  # optimum at origin
        val = QuadraticTask(np.diag([3.0, 4.0]), np.zeros(2))
        traj = gd_adapt(task, [1e-18, 0.0], 1.0, 1)
        assert np.array_equal(validation_gradient(val, traj), [0.0, 0.0])

    def test_sinusoid_deterministic(self):
        (task,) = sample_sinusoid_batch(np.random.default_rng(17), 1, 10)
        theta = mlp_init(np.random.default_rng(17))
        g1 = validation_gradient(task.val_objective(), gd_adapt(task.train_objective(), theta, 0.01, 3))
        g2 = validation_gradient(task.val_objective(), gd_adapt(task.train_objective(), theta, 0.01, 3))
        assert np.array_equal(g1, g2)

    def test_dimension_mismatch(self):
        task = QuadraticTask(np.eye(2), np.zeros(2))
        other = QuadraticTask(np.eye(3), np.zeros(3))
        traj = gd_adapt(task, [1.0, 1.0], 0.1, 1)
        with pytest.raises(ValueError, match="dimension"):
            validation_gradient(other, traj)


class TestPrescribedTrajectory:
    def test_replays_fixed_hessians(self):
        seq = sharpness_sequence("theorem2-neg", K=4, L=0, H=2.0, d=3)
        traj = from_hessian_sequence(seq, alpha=0.1)
        assert traj.K == 4
        v = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(traj.hvp(2, v), -2.0 * v)

    def test_iterates_are_one_read_only_array(self):
        traj = from_hessian_sequence(sharpness_sequence("theorem3-pos", K=3, L=0, H=1.0, d=2), 0.5)
        assert type(traj.iterates) is np.ndarray and traj.iterates.shape == (4, 2)
        assert not traj.iterates.flags.writeable and not traj.iterates.any()

    def test_step_index_bounds(self):
        seq = sharpness_sequence("theorem3-pos", K=2, L=0, H=1.0, d=1)
        traj = from_hessian_sequence(seq, 0.5)
        with pytest.raises(IndexError):
            traj.hvp(2, np.ones(1))

    def test_stage_applies_step_hessians_in_order(self):
        seq = sharpness_sequence("theorem3-trunc", K=4, L=2, H=3.0, d=2)
        traj = from_hessian_sequence(seq, alpha=0.1)
        vs = np.array([[1.0, 2.0], [-1.0, 0.5], [4.0, 4.0]])
        rows = traj.hvp_stage(1, vs)
        assert [r.tolist() for r in rows] == [[3.0, 6.0], [0.0, 0.0], [0.0, 0.0]]
        for k, (v, row) in enumerate(zip(vs, rows), start=1):
            assert np.array_equal(row, traj.hvp(k, v))
        with pytest.raises(IndexError):
            traj.hvp_stage(2, vs)
        with pytest.raises(IndexError):
            traj.hvp_stage(-1, vs[:1])
        # the sequence is one read-only (K, d, d) array, and a stage is one array whose
        # rows equal the one-matrix products h @ v bit for bit
        for d in (1, 2, 3, 6, 20, 64):
            rng = np.random.default_rng(d)
            hs = [random_spd(rng, d, -1.0, 1.0) for _ in range(4)]
            seq = PrescribedHessianSequence(hessians=hs, g=np.ones(d))
            assert type(seq.hessians) is np.ndarray and seq.hessians.shape == (4, d, d)
            assert not seq.hessians.flags.writeable
            vs = rng.standard_normal((3, d))
            stage = from_hessian_sequence(seq, alpha=0.1).hvp_stage(1, vs)
            assert type(stage) is np.ndarray
            for h, v, row in zip(hs[1:], vs, stage):
                assert np.array_equal(row, h @ v), d
