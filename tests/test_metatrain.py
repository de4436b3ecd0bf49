import math

import numpy as np
import pytest

from conftest import logistic_trajectory, prescribed_trajectory, quadratic_trajectory, sine_trajectory
from metagrad import (
    CGBreakdownError,
    CostCounters,
    DivergenceError,
    ErrorRow,
    EstimatorConfig,
    MetaGradient,
    MetaTrainConfig,
    QuadraticTask,
    TaskPair,
    Trajectory,
    binom_meta_gradient,
    estimate,
    estimation_error,
    full_meta_gradient,
    gd_adapt,
    meta_step,
    run_error_experiment,
    run_metatrain,
    sample_task_batch,
    stack_objectives,
    validation_gradient,
)
from metagrad.estimators import _expansion
from metagrad.metatrain import (
    TRAIN_CSV_HEADER,
    _estimator_errors,
    averaged_csv,
    initial_theta,
    per_batch_csv,
    train_csv,
)


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

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_validation_loss_names_the_task(self):
        # task 1's iterate stays finite, but its validation loss overflows to Inf
        cfg = MetaTrainConfig(estimator=EstimatorConfig(kind="fo"), meta_batch=3)
        far = TaskPair(QuadraticTask(np.zeros((2, 2)), np.full(2, -1e200)), QuadraticTask(np.eye(2), np.zeros(2)))
        tasks = [TaskPair(_zero_task(), _zero_task()), far, far]
        with pytest.raises(DivergenceError, match=r"^task 1: validation loss is NaN/Inf$"):
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


def _errors_one_cascade_per_estimate(traj, g, l_values, rescale_alpha):
    """The sweep's errors composed estimate by estimate: the right edge of the
    order-K cascade for the exact and truncated products, then one whole binom
    cascade per L."""
    products = _expansion(traj, g, traj.K, traj.K)[1]
    exact = products[-1]
    e_fo = estimation_error(g, exact)
    return [
        (e_fo, estimation_error(products[L], exact),
         estimation_error(binom_meta_gradient(traj, g, L, rescale_alpha), exact))
        for L in l_values
    ]


class TestEstimatorErrors:
    @pytest.mark.parametrize("family", ["quadratic", "logistic", "sine", "prescribed"])
    def test_equal_to_one_cascade_per_estimate(self, family):
        # quadratic's alpha = 0.2 has K * alpha / K != alpha at K = 3, 6, where L = K keeps alpha
        make = {"quadratic": quadratic_trajectory, "logistic": logistic_trajectory,
                "sine": sine_trajectory, "prescribed": prescribed_trajectory}[family]
        rng = np.random.default_rng(43)
        for K in (1, 3, 6):
            traj, g = make(rng, K=K)
            for l_values in (list(range(K + 1)), [K // 2], [3, 1, 3, 0] if K >= 3 else [1, 0, 1]):
                for rescale in (False, True):
                    got = _estimator_errors(traj, g, l_values, rescale)
                    assert got == _errors_one_cascade_per_estimate(traj, g, l_values, rescale)

    def test_counted_hvps_without_rescale(self, stage_sizes):
        # one triangle per task: every order at K(K+1)/2 HVPs, a single L at L(K-L+1) + (K-L)
        rng = np.random.default_rng(44)
        for K in range(1, 7):
            traj, g = prescribed_trajectory(rng, d=2, K=K)
            stage_sizes.clear()
            _estimator_errors(traj, g, list(range(K + 1)), False)
            assert stage_sizes == list(range(K, 0, -1))
            for L in range(K + 1):
                stage_sizes.clear()
                _estimator_errors(traj, g, [L], False)
                assert (sum(stage_sizes), len(stage_sizes)) == (L * (K - L + 1) + (K - L), K)

    def test_counted_hvps_with_rescale(self, stage_sizes):
        # L = 0, L = K and the exact product share the base alpha; every other L runs its
        # own cascade, also at alpha = 0.2, K = 3 and 6, where K * alpha / K is not alpha
        rng = np.random.default_rng(45)
        for alpha in (0.25, 0.2):
            for K in range(1, 7):
                traj, g = prescribed_trajectory(rng, d=2, K=K, alpha=alpha)
                assert (alpha * K / K != alpha) == (alpha == 0.2 and K in (3, 6))
                for l_values in (list(range(K + 1)), [K], [0, K // 2, 0]):
                    stage_sizes.clear()
                    _estimator_errors(traj, g, l_values, True)
                    own = [L for L in set(l_values) if 0 < L < K]
                    assert sum(stage_sizes) == K + sum(L * (K - L + 1) for L in own)
                    assert len(stage_sizes) == K + sum(own)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_names_the_step(self):
        # only step 2 overflows; the triangle reaches it in its first stage
        flat, huge = np.zeros((1, 1)), np.array([[1e208]])
        traj = Trajectory(
            iterates=tuple(np.zeros(1) for _ in range(5)),
            alpha=1e200,
            step_hessians=(flat, flat, huge, flat),
        )
        for l_values in ([0, 1, 2, 3, 4], [1], [4]):
            for rescale in (False, True):
                with pytest.raises(DivergenceError, match=r"cascade stage \d, step k=2$"):
                    _estimator_errors(traj, np.ones(1), l_values, rescale)


def _reference_meta_step(theta, tasks, cfg):
    """meta_step run task by task through the single-task functions: (theta', row fields)."""
    est = cfg.estimator
    trajs = [gd_adapt(pair.train, theta, cfg.alpha, cfg.K) for pair in tasks]
    grads = [validation_gradient(pair.val, traj) for pair, traj in zip(tasks, trajs)]
    losses = [pair.val.value(traj.final) for pair, traj in zip(tasks, trajs)]
    mgs = [] if est.kind == "reptile" else [estimate(traj, g, est) for traj, g in zip(trajs, grads)]
    if est.kind == "reptile":
        step = sum(traj.final - theta for traj in trajs) / len(trajs)
        theta_next = theta + est.reptile_eps * step
    else:
        step = sum(mg.estimate for mg in mgs) / len(mgs)
        theta_next = theta - cfg.beta * step
    errs = [math.nan] * 3
    if cfg.track_errors:
        per_task = [_estimator_errors(traj, g, [est.L], est.rescale_alpha)[0] for traj, g in zip(trajs, grads)]
        errs = [float(np.mean(column)) for column in zip(*per_task)]
    return theta_next, (float(np.mean(losses)), float(np.linalg.norm(step)), *errs,
                        sum(mg.cost.hvp_total for mg in mgs))


def _reference_error_experiment(cfg, l_values, batches):
    """run_error_experiment run task by task: (per_batch_rows, averaged_rows)."""
    init_ss, task_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    theta = initial_theta(cfg, np.random.default_rng(init_ss))
    task_rng = np.random.default_rng(task_ss)
    per_batch, sums = [], [np.zeros(3) for _ in l_values]
    for b in range(batches):
        errs = []
        for pair in sample_task_batch(cfg, task_rng):
            traj = gd_adapt(pair.train, theta, cfg.alpha, cfg.K)
            errs.append(_estimator_errors(traj, validation_gradient(pair.val, traj), l_values,
                                          cfg.estimator.rescale_alpha))
        for L, per_task, total in zip(l_values, zip(*errs), sums):
            mean = np.mean(np.array(per_task), axis=0)
            total += mean
            per_batch.append(ErrorRow(b, L, *(float(x) for x in mean)))
    return per_batch, [ErrorRow(-1, L, *(float(x) for x in total / batches)) for L, total in zip(l_values, sums)]


_STACK_FAMILIES = {
    "quadratic": dict(family="quadratic", dim=4),
    "logistic": dict(family="logistic", dim=4, alpha=0.5),
    "sinusoid": dict(family="sinusoid", shots=5, alpha=1e-3, beta=2e-3),
}


class TestStackedBatch:
    """A meta-batch runs as one stack; every output equals the task-by-task run bit for bit."""

    @pytest.mark.parametrize("family", sorted(_STACK_FAMILIES))
    @pytest.mark.parametrize("batch", [1, 3])
    def test_meta_step_equals_task_by_task(self, family, batch):
        for kind in ("full", "fo", "trunc", "binom", "binom-trunc", "imaml", "reptile"):
            for track in (False, True):
                est = EstimatorConfig(kind=kind, L=2, C=3, rescale_alpha=kind == "binom",
                                      imaml_lambda=100.0 if family == "sinusoid" else 1.0)
                cfg = MetaTrainConfig(estimator=est, K=4, meta_batch=batch, seed=5, track_errors=track,
                                      **_STACK_FAMILIES[family])
                rng = np.random.default_rng(6)
                theta = initial_theta(cfg, rng)
                tasks = sample_task_batch(cfg, rng)
                theta_next, row = meta_step(theta, tasks, cfg)
                want_theta, want_row = _reference_meta_step(theta, tasks, cfg)
                assert np.array_equal(theta_next, want_theta), (kind, track)
                got_row = (row.meta_loss, row.grad_norm, row.err_fo, row.err_tr, row.err_bin, row.hvp_total)
                assert np.array_equal(got_row, want_row, equal_nan=True), (kind, track)

    @pytest.mark.parametrize("family", sorted(_STACK_FAMILIES))
    def test_error_experiment_equals_task_by_task(self, family):
        for rescale in (False, True):
            cfg = MetaTrainConfig(estimator=EstimatorConfig(rescale_alpha=rescale), K=4, meta_batch=3, seed=8,
                                  **_STACK_FAMILIES[family])
            assert run_error_experiment(cfg, [0, 1, 3, 4, 1], 2) == _reference_error_experiment(cfg, [0, 1, 3, 4, 1], 2)

    def test_one_stacked_adaptation_per_batch(self, monkeypatch):
        # the task-by-task replay runs only after a numerical failure
        shapes = []
        monkeypatch.setattr("metagrad.metatrain.gd_adapt", lambda *args: shapes.append(args[1].shape) or gd_adapt(*args))
        cfg = MetaTrainConfig(estimator=EstimatorConfig(kind="binom", L=1), K=3, meta_batch=4, track_errors=True)
        rng = np.random.default_rng(3)
        meta_step(initial_theta(cfg, rng), sample_task_batch(cfg, rng), cfg)
        run_error_experiment(cfg, [0, 1], 2)
        assert shapes == [(4, 6)] * 3

    def test_hvp_total_is_batch_times_per_task_count(self):
        rng = np.random.default_rng(9)
        for kind, per_task in (("full", 5), ("trunc", 2), ("binom", 2 * 4), ("binom-trunc", 2 * 2)):
            cfg = MetaTrainConfig(estimator=EstimatorConfig(kind=kind, L=2, C=3), K=5, meta_batch=4, dim=3)
            _, row = meta_step(rng.standard_normal(3), sample_task_batch(cfg, rng), cfg)
            assert row.hvp_total == 4 * per_task


def _line_task(h, beta):
    """d = 2: training curvature h along e1 only, validation gradient beta * e1 at every point.

    From theta = e2 the iterates stay at e2 and the validation loss is 0, while
    each cascade stage multiplies the validation gradient by about 1 - alpha * h."""
    train = QuadraticTask(np.diag([h, 0.0]), np.zeros(2))
    return TaskPair(train, QuadraticTask(np.zeros((2, 2)), np.array([beta, 0.0])))


def _alone(tasks, cfg, theta):
    with pytest.raises(DivergenceError) as info:
        meta_step(theta, tasks, cfg)
    return str(info.value)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
class TestStackedDivergence:
    """A later task failing earlier does not hide the failure of an earlier task."""

    def test_adaptation_names_the_first_task(self):
        # task 2 overflows its gradient at step 0, task 1 its iterate only at step 3
        cfg = MetaTrainConfig(estimator=EstimatorConfig(kind="fo"), alpha=1.0, K=5, meta_batch=3)
        fast = TaskPair(QuadraticTask(1e308 * np.eye(2), np.full(2, 1.7e308)), _zero_task())
        slow = TaskPair(QuadraticTask((1 + 1e80) * np.eye(2), np.zeros(2)), _zero_task())
        theta = np.ones(2)
        assert _alone([fast], cfg, theta) == "task 0: training gradient diverged (NaN/Inf) at step 0"
        slow_msg = _alone([slow], cfg, theta)
        assert slow_msg.endswith("at step 3")
        with pytest.raises(DivergenceError, match=r"^task 1: .* step 3$") as info:
            meta_step(theta, [TaskPair(_zero_task(), _zero_task()), slow, fast], cfg)
        assert str(info.value) == slow_msg.replace("task 0", "task 1")

    def test_stacked_calls_raise_the_first_failure(self):
        # a direct stacked call raises at the earliest step or stage of any row; naming the task is meta_step's
        slow = QuadraticTask((1 + 1e80) * np.eye(2), np.zeros(2))
        fast = QuadraticTask(1e308 * np.eye(2), np.full(2, 1.7e308))
        with pytest.raises(DivergenceError, match=r"^training gradient diverged \(NaN/Inf\) at step 0$") as info:
            gd_adapt(stack_objectives([_zero_task(), slow, fast]), np.ones((3, 2)), 1.0, 5)
        assert not hasattr(info.value, "row")
        tasks = [_line_task(0.0, 1.0), _line_task(1 + 1e160, 1.0), _line_task(1 + 1e160, 1e200)]
        traj = gd_adapt(stack_objectives([p.train for p in tasks]), np.tile([0.0, 1.0], (3, 1)), 1.0, 4)
        g = validation_gradient(stack_objectives([p.val for p in tasks]), traj)
        with pytest.raises(DivergenceError, match=r"^NaN/Inf at cascade stage 0, step k=3$") as info:
            full_meta_gradient(traj, g)
        assert not hasattr(info.value, "row")

    def test_validation_gradient_before_a_later_adaptation_failure(self):
        cfg = MetaTrainConfig(estimator=EstimatorConfig(kind="fo"), alpha=2.0, K=2, meta_batch=3)
        bad_val = TaskPair(_zero_task(), QuadraticTask(np.diag([0.0, 1e308]), np.array([0.0, 1e308])))
        bad_adapt = TaskPair(QuadraticTask(np.diag([1e308, 0.0]), np.array([1.7e308, 0.0])), _zero_task())
        tasks = [TaskPair(_zero_task(), _zero_task()), bad_val, bad_adapt]
        with pytest.raises(DivergenceError, match=r"^task 1: validation gradient is NaN/Inf$"):
            meta_step(np.ones(2), tasks, cfg)
        with pytest.raises(DivergenceError, match=r"^task 1: training gradient diverged \(NaN/Inf\) at step 0$"):
            meta_step(np.ones(2), [tasks[0], bad_adapt, bad_val], cfg)

    @pytest.mark.parametrize("kind", ["full", "binom"])
    def test_cascade_names_the_first_task(self, kind):
        # 1 - alpha * h = -1e160: task 2 (beta 1e200) overflows at stage 0, task 1 (beta 1) at stage 1
        cfg = MetaTrainConfig(estimator=EstimatorConfig(kind=kind, L=2), alpha=1.0, K=4, meta_batch=3)
        early, late = _line_task(1 + 1e160, 1e200), _line_task(1 + 1e160, 1.0)
        theta = np.array([0.0, 1.0])
        assert "cascade stage 0," in _alone([early], cfg, theta)
        late_msg = _alone([late], cfg, theta)
        assert "cascade stage 1," in late_msg
        tasks = [_line_task(0.0, 1.0), late, early]
        with pytest.raises(DivergenceError) as info:
            meta_step(theta, tasks, cfg)
        assert str(info.value) == late_msg.replace("task 0", "task 1")

    def test_tracked_errors_before_a_later_estimate_failure(self):
        # binom at L=1 fails for task 2 only; the order-K error cascade fails for task 1 as well
        cfg = MetaTrainConfig(estimator=EstimatorConfig(kind="binom", L=1), alpha=1.0, K=4, meta_batch=3,
                              track_errors=True)
        early, late = _line_task(1 + 1e160, 1e200), _line_task(1 + 1e160, 1.0)
        theta = np.array([0.0, 1.0])
        late_msg = _alone([late], cfg, theta)
        assert "cascade stage 1," in late_msg
        with pytest.raises(DivergenceError) as info:
            meta_step(theta, [_line_task(0.0, 1.0), late, early], cfg)
        assert str(info.value) == late_msg.replace("task 0", "task 1")

    def test_error_experiment_names_batch_and_task(self, monkeypatch):
        cfg = MetaTrainConfig(alpha=1.0, K=4, meta_batch=3, dim=2)
        tasks = [_line_task(0.0, 1.0), _line_task(1 + 1e160, 1.0), _line_task(1 + 1e160, 1e200)]
        monkeypatch.setattr("metagrad.metatrain.sample_task_batch", lambda cfg, rng: tasks)
        monkeypatch.setattr("metagrad.metatrain.initial_theta", lambda cfg, rng: np.array([0.0, 1.0]))
        with pytest.raises(DivergenceError, match=r"^batch 0, task 1: NaN/Inf at cascade stage 1, step k="):
            run_error_experiment(cfg, [1, 4], 1)

    def test_imaml_breakdown_names_the_task(self):
        cfg = MetaTrainConfig(estimator=EstimatorConfig(kind="imaml", imaml_lambda=1.0), alpha=0.1, K=2,
                              meta_batch=3)
        indefinite = TaskPair(QuadraticTask(np.diag([-5.0, 1.0]), np.zeros(2)), QuadraticTask(np.eye(2), np.ones(2)))
        tasks = [TaskPair(_zero_task(), _zero_task()), indefinite, indefinite]
        with pytest.raises(CGBreakdownError, match=r"^task 1: non-positive curvature"):
            meta_step(np.ones(2), tasks, cfg)

    def test_meta_gradient_check_rejects_a_non_finite_row(self):
        with pytest.raises(DivergenceError, match=r"^fo estimate contains NaN/Inf$"):
            MetaGradient(np.array([[1.0, 2.0], [1.0, np.nan], [np.inf, 0.0]]), "fo", 0, CostCounters(0, 0, 0))
