import numpy as np
import pytest

from metagrad import (
    DivergenceError,
    EstimatorConfig,
    MetaTrainConfig,
    QuadraticTask,
    TaskPair,
    binom_meta_gradient,
    estimation_error,
    full_meta_gradient,
    gd_adapt,
    meta_step,
    run_error_experiment,
    run_metatrain,
    sample_task_batch,
    validation_gradient,
)
from metagrad.metatrain import TRAIN_CSV_HEADER, averaged_csv, initial_theta, per_batch_csv, train_csv


def _zero_task():
    return QuadraticTask(np.zeros((2, 2)), np.zeros(2))


class TestMetaStep:
    def test_full_estimator_closed_form(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a = q @ np.diag([0.2, 0.5, 0.9]) @ q.T
        train = QuadraticTask(a, rng.standard_normal(3))
        val = QuadraticTask(np.eye(3), rng.standard_normal(3))
        cfg = MetaTrainConfig(estimator=EstimatorConfig(kind="full"), alpha=0.3, beta=0.01, K=4, meta_batch=1)
        theta = rng.standard_normal(3)
        theta_next, row = meta_step(theta, [TaskPair(train, val)], cfg)

        m = np.eye(3) - 0.3 * a
        phi = theta.copy()
        for _ in range(4):
            phi = phi - 0.3 * train.gradient(phi)
        g = val.gradient(phi)
        expected = theta - 0.01 * (np.linalg.matrix_power(m, 4) @ g)
        assert np.linalg.norm(theta_next - expected) <= 1e-10 * (1 + np.linalg.norm(expected))
        assert row.hvp_total == 4

    def test_zero_meta_gradient_is_fixed_point(self):
        cfg = MetaTrainConfig(estimator=EstimatorConfig(kind="full"), meta_batch=1)
        theta = np.array([0.7, -0.3])
        theta_next, row = meta_step(theta, [TaskPair(_zero_task(), _zero_task())], cfg)
        assert np.array_equal(theta_next, theta)
        assert row.grad_norm == 0.0

    def test_reptile_fixed_point(self):
        cfg = MetaTrainConfig(estimator=EstimatorConfig(kind="reptile", reptile_eps=0.5), meta_batch=1)
        theta = np.array([1.0, 2.0])
        theta_next, _ = meta_step(theta, [TaskPair(_zero_task(), _zero_task())], cfg)
        assert np.array_equal(theta_next, theta)

    def test_divergence_names_the_task(self):
        cfg = MetaTrainConfig(estimator=EstimatorConfig(kind="full"), alpha=1.0, K=150, meta_batch=2)
        steep = QuadraticTask(1e6 * np.eye(2), np.ones(2))
        tasks = [TaskPair(_zero_task(), _zero_task()), TaskPair(steep, _zero_task())]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError, match=r"^task 1: "):
            meta_step(np.ones(2), tasks, cfg)

    def test_empty_batch_rejected(self):
        cfg = MetaTrainConfig()
        with pytest.raises(ValueError):
            meta_step(np.zeros(2), [], cfg)


class TestRunMetatrain:
    def test_deterministic_records(self):
        cfg = MetaTrainConfig(
            estimator=EstimatorConfig(kind="binom", L=2),
            family="quadratic",
            iterations=20,
            meta_batch=3,
            dim=4,
            seed=7,
            track_errors=True,
        )
        records_a, theta_a = run_metatrain(cfg)
        records_b, theta_b = run_metatrain(cfg)
        assert records_a == records_b
        assert np.array_equal(theta_a, theta_b)
        assert train_csv(records_a) == train_csv(records_b)

    def test_tracked_binom_error_uses_rescale_alpha(self):
        est = EstimatorConfig(kind="binom", L=2, rescale_alpha=True)
        cfg = MetaTrainConfig(
            estimator=est, family="quadratic", iterations=1, meta_batch=3, dim=4, seed=4, track_errors=True
        )
        records, _ = run_metatrain(cfg)
        init_ss, task_ss = np.random.SeedSequence(cfg.seed).spawn(2)
        theta = initial_theta(cfg, np.random.default_rng(init_ss))
        errs = []
        for pair in sample_task_batch(cfg, np.random.default_rng(task_ss)):
            traj = gd_adapt(pair.train, theta, cfg.alpha, cfg.K)
            g = validation_gradient(pair.val, traj)
            rescaled = binom_meta_gradient(traj, g, 2, rescale_alpha=True)
            errs.append(estimation_error(rescaled, full_meta_gradient(traj, g)))
        assert records[0].err_bin == float(np.mean(errs))

    def test_binom_full_order_matches_full_trajectory(self):
        common = dict(family="quadratic", iterations=100, meta_batch=4, dim=4, seed=3, beta=1e-3)
        _, theta_full = run_metatrain(MetaTrainConfig(estimator=EstimatorConfig(kind="full"), **common))
        _, theta_binom = run_metatrain(
            MetaTrainConfig(estimator=EstimatorConfig(kind="binom", L=5), **common)
        )
        assert np.linalg.norm(theta_full - theta_binom) <= 1e-8 * (1 + np.linalg.norm(theta_full))

    def test_fixed_batch_descent(self):
        cfg = MetaTrainConfig(
            estimator=EstimatorConfig(kind="full"),
            family="quadratic",
            iterations=200,
            meta_batch=4,
            dim=4,
            seed=11,
            beta=1e-3,
            resample=False,
        )
        records, _ = run_metatrain(cfg)
        losses = [r.meta_loss for r in records]
        for prev, cur in zip(losses, losses[1:]):
            assert cur <= prev + 1e-12 * abs(prev)

    def test_reptile_runs(self):
        cfg = MetaTrainConfig(
            estimator=EstimatorConfig(kind="reptile", reptile_eps=0.5),
            family="quadratic",
            iterations=10,
            meta_batch=2,
            dim=3,
            seed=1,
        )
        records, theta = run_metatrain(cfg)
        assert len(records) == 10
        assert np.all(np.isfinite(theta))

    def test_hvp_accounting(self):
        cfg = MetaTrainConfig(
            estimator=EstimatorConfig(kind="binom", L=2),
            family="quadratic",
            iterations=2,
            meta_batch=3,
            dim=3,
            K=5,
            seed=2,
        )
        records, _ = run_metatrain(cfg)
        assert all(r.hvp_total == 3 * 2 * (5 - 2 + 1) for r in records)


class TestSampling:
    @pytest.mark.parametrize("family", ["quadratic", "logistic", "sinusoid"])
    def test_families(self, family):
        cfg = MetaTrainConfig(family=family, meta_batch=2, dim=3, shots=4)
        tasks = sample_task_batch(cfg, np.random.default_rng(0))
        assert len(tasks) == 2
        for pair in tasks:
            assert pair.train.dim == pair.val.dim

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            MetaTrainConfig(family="images")

    def test_size_fields_validated(self):
        with pytest.raises(ValueError, match="dim"):
            MetaTrainConfig(dim=0)
        with pytest.raises(ValueError, match="hmax"):
            MetaTrainConfig(hmax=-1.0)
        # zero curvature and zero iterations stay valid
        records, _ = run_metatrain(MetaTrainConfig(hmax=0.0, iterations=0))
        assert records == []
        assert len(run_metatrain(MetaTrainConfig(hmax=0.0, iterations=1, meta_batch=2))[0]) == 1


class TestErrorExperiment:
    def test_l0_trunc_equals_binom(self):
        cfg = MetaTrainConfig(family="quadratic", meta_batch=5, dim=4, seed=5)
        per_batch, averaged = run_error_experiment(cfg, [0], batches=3)
        for row in per_batch + averaged:
            assert row.err_tr == row.err_bin == row.err_fo

    def test_full_order_error_vanishes(self):
        cfg = MetaTrainConfig(family="quadratic", meta_batch=5, dim=4, K=5, seed=6)
        _, averaged = run_error_experiment(cfg, [5], batches=2)
        assert averaged[0].err_bin <= 1e-10

    def test_single_batch_averages_trivially(self):
        cfg = MetaTrainConfig(family="quadratic", meta_batch=4, dim=3, seed=8)
        per_batch, averaged = run_error_experiment(cfg, [1, 2, 1], batches=1)
        assert len(per_batch) == len(averaged) == 3
        for pb, av in zip(per_batch, averaged):
            assert (pb.L, pb.err_fo, pb.err_tr, pb.err_bin) == (av.L, av.err_fo, av.err_tr, av.err_bin)

    def test_binom_beats_trunc_at_high_L(self):
        cfg = MetaTrainConfig(family="quadratic", meta_batch=10, dim=5, K=5, alpha=0.25, seed=9)
        _, averaged = run_error_experiment(cfg, [4], batches=10)
        row = averaged[0]
        assert row.err_bin < 1e-2 * row.err_tr

    def test_logistic_family_ordering(self):
        cfg = MetaTrainConfig(family="logistic", K=5, alpha=0.25, meta_batch=5, dim=4, seed=3)
        _, averaged = run_error_experiment(cfg, [1, 2, 3, 4], batches=4)
        for row in averaged:
            assert row.err_bin < row.err_tr < row.err_fo

    def test_csv_headers(self):
        cfg = MetaTrainConfig(family="quadratic", meta_batch=2, dim=2, seed=1)
        per_batch, averaged = run_error_experiment(cfg, [0, 1], batches=2)
        assert per_batch_csv(per_batch).splitlines()[0] == "batch,L,err_fo,err_tr,err_bin"
        assert averaged_csv(averaged).splitlines()[0] == "L,err_fo,err_tr,err_bin"
        assert TRAIN_CSV_HEADER.startswith("iter,meta_loss")

    def test_l_range_validated(self):
        cfg = MetaTrainConfig(family="quadratic", K=3)
        with pytest.raises(ValueError):
            run_error_experiment(cfg, [4], batches=1)
