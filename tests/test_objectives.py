import numpy as np
import pytest

from metagrad import (
    LogisticTask,
    MlpObjective,
    PrescribedHessianSequence,
    QuadraticTask,
    mlp_init,
    sharpness_sequence,
)
from metagrad.objectives import SHARPNESS_KINDS
from conftest import dense_hessian, random_logistic, random_quadratic, sample_sinusoid_batch, stack_objectives


def hvp_finite_difference(obj, phi, v) -> np.ndarray:
    """Central-difference Hessian-vector product from two gradient calls.

    Differences along the unit direction u = v/||v|| and rescales by ||v||,
    so the result is exactly homogeneous in v. When ||v|| underflows, v is
    scaled by max|v| instead; a zero v gives a zero product. The step is
    eps = 1e-5 * (1 + ||phi||), balancing truncation against round-off. It is
    the reference the analytic products are tested against.
    """
    phi = np.asarray(phi, dtype=float)
    v = np.asarray(v, dtype=float)
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


def central_diff_gradient(obj, phi, eps=1e-6):
    grad = np.zeros_like(phi)
    for i in range(phi.size):
        step = np.zeros_like(phi)
        step[i] = eps
        grad[i] = (obj.value(phi + step) - obj.value(phi - step)) / (2 * eps)
    return grad


class TestQuadratic:
    def test_gradient_and_hessian(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        task = QuadraticTask(a, [1.0, -1.0])
        phi = np.array([0.3, 0.7])
        assert np.allclose(task.gradient(phi), a @ phi + [1.0, -1.0], atol=0)
        assert np.array_equal(dense_hessian(task, phi), a)
        assert np.array_equal(task.hvp(phi, [1.0, 2.0]), a @ [1.0, 2.0])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticTask([[1.0, 2.0], [0.0, 1.0]], [0.0, 0.0])


class TestFiniteDifferenceHvp:
    def test_constant_hessian_closed_form(self):
        task = QuadraticTask(np.diag([2.0, 3.0]), [0.0, 0.0])
        out = hvp_finite_difference(task, np.array([0.1, 0.2]), np.array([1.0, 0.0]))
        assert np.max(np.abs(out - [2.0, 0.0])) <= 1e-6

    def test_zero_direction_flagged(self):
        # a zero direction gives a zero product; a direction whose 2-norm
        # underflows is scaled by max|v| instead of ||v||
        task = QuadraticTask(np.diag([2.0, 3.0]), [0.0, 0.0])
        phi = np.array([0.1, 0.2])
        assert np.array_equal(hvp_finite_difference(task, phi, np.zeros(2)), np.zeros(2))
        out = hvp_finite_difference(task, phi, np.array([0.0, 1e-300]))
        assert np.max(np.abs(out - [0.0, 3e-300])) <= 1e-6 * 3e-300

    def test_matches_analytic_logistic(self):
        rng = np.random.default_rng(5)
        task = random_logistic(rng, rng.standard_normal(3), 20)
        phi = rng.standard_normal(3)
        v = rng.standard_normal(3)
        analytic = task.hvp(phi, v)
        approx = hvp_finite_difference(task, phi, v)
        assert np.linalg.norm(approx - analytic) <= 1e-5 * (1 + np.linalg.norm(analytic))

    def test_homogeneous_in_v(self):
        task = QuadraticTask(np.diag([2.0, 3.0]), [0.0, 0.0])
        phi = np.array([0.1, 0.2])
        v = np.array([0.4, -0.3])
        base = hvp_finite_difference(task, phi, v)
        assert np.allclose(hvp_finite_difference(task, phi, -2.0 * v), -2.0 * base, rtol=0, atol=1e-12)


class TestHvpHessianConsistency:
    @pytest.mark.parametrize("maker", ["quadratic", "logistic"])
    def test_hvp_equals_hessian_product(self, maker):
        rng = np.random.default_rng(42)
        for _ in range(100):
            if maker == "quadratic":
                task = random_quadratic(rng, 4, -1.0, 1.0)
            else:
                task = random_logistic(rng, rng.standard_normal(4), 15)
            phi = rng.standard_normal(4)
            v = rng.standard_normal(4)
            h = dense_hessian(task, phi)
            err = np.linalg.norm(task.hvp(phi, v) - h @ v)
            assert err <= 1e-10 * np.linalg.norm(v) * max(np.linalg.norm(h), 1e-30)


def _objective_and_point(family, rng):
    if family == "quadratic":
        return random_quadratic(rng, 5, -1.0, 1.0), rng.standard_normal(5)
    if family == "logistic":
        return random_logistic(rng, rng.standard_normal(5), 20), rng.standard_normal(5)
    x = rng.uniform(-5, 5, 10)
    obj = MlpObjective(x, rng.uniform(0.1, 5.0) * np.sin(x + rng.uniform(0, np.pi)))
    return obj, mlp_init(rng) + 0.1 * rng.standard_normal(obj.dim)


class TestHvpContract:
    """Every family's HVP is linear, symmetric and maps zero to an exact zero."""

    FAMILIES = ["quadratic", "logistic", "mlp"]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_linear(self, family):
        rng = np.random.default_rng(31)
        for _ in range(5):
            obj, phi = _objective_and_point(family, rng)
            u, v = rng.standard_normal((2, obj.dim))
            a, b = rng.standard_normal(2)
            hu, hv = obj.hvp(phi, u), obj.hvp(phi, v)
            err = np.linalg.norm(obj.hvp(phi, a * u + b * v) - (a * hu + b * hv))
            assert err <= 1e-12 * (abs(a) * np.linalg.norm(hu) + abs(b) * np.linalg.norm(hv))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_symmetric(self, family):
        rng = np.random.default_rng(32)
        for _ in range(5):
            obj, phi = _objective_and_point(family, rng)
            u, v = rng.standard_normal((2, obj.dim))
            hu, hv = obj.hvp(phi, u), obj.hvp(phi, v)
            scale = max(np.linalg.norm(u) * np.linalg.norm(hv), np.linalg.norm(v) * np.linalg.norm(hu))
            assert abs(u @ hv - v @ hu) <= 1e-12 * scale

    @pytest.mark.parametrize("family", FAMILIES)
    def test_zero_in_zero_out(self, family):
        rng = np.random.default_rng(33)
        obj, phi = _objective_and_point(family, rng)
        assert np.array_equal(obj.hvp(phi, np.zeros(obj.dim)), np.zeros(obj.dim))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_stacked_rows_equal_single_pair_hvp(self, family):
        # one stacked call per cascade stage must not change a single bit of any product
        rng = np.random.default_rng(35)
        for B in range(1, 7):
            obj, _ = _objective_and_point(family, rng)
            phis = np.array([_objective_and_point(family, rng)[1] for _ in range(B)])
            vs = rng.standard_normal((B, obj.dim))
            vs[B // 2] = 0.0
            rows = obj.hvp(phis, vs)
            assert rows.shape == (B, obj.dim)
            for phi, v, row in zip(phis, vs, rows):
                assert np.array_equal(row, obj.hvp(phi, v))
            assert np.array_equal(rows[B // 2], np.zeros(obj.dim))
            # a stage passes read-only views of the trajectory's iterates
            phis.flags.writeable = False
            assert np.array_equal(obj.hvp(phis, vs), rows)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_mismatched_shapes_rejected(self, family):
        # a (d,) point with a B x d stack of directions, and the reverse, break the contract
        rng = np.random.default_rng(36)
        obj, phi = _objective_and_point(family, rng)
        vs = rng.standard_normal((3, obj.dim))
        for args in ((phi, vs), (np.array([phi] * 3), vs[0]), (np.array([phi] * 2), vs)):
            with pytest.raises(ValueError, match="hvp takes phi and v of one shape"):
                obj.hvp(*args)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_linearize_equals_hvp(self, family):
        # one operator serves every direction at its point, each product bit for bit hvp's
        rng = np.random.default_rng(39)
        obj, phi = _objective_and_point(family, rng)
        for point in (phi, phi + 0.01 * rng.standard_normal((3, obj.dim))):
            op = obj.linearize(point)
            vs = rng.standard_normal((3,) + point.shape)
            vs[1] = 0.0
            for v in vs:
                assert np.array_equal(op(v), obj.hvp(point, v))
            assert np.array_equal(op(vs[1]), np.zeros(point.shape))
            with pytest.raises(ValueError, match="hvp takes phi and v of one shape"):
                op(vs)

    def test_mlp_matches_finite_difference(self):
        rng = np.random.default_rng(34)
        for _ in range(4):
            obj, theta = _objective_and_point("mlp", rng)
            v = rng.standard_normal(obj.dim)
            exact = obj.hvp(theta, v)
            approx = hvp_finite_difference(obj, theta, v)
            assert np.linalg.norm(exact - approx) <= 1e-6 * np.linalg.norm(approx)


class TestStackedObjectives:
    """stack_objectives puts B tasks on a leading axis; row t is task t's own result, bit for bit."""

    @pytest.mark.parametrize("family", TestHvpContract.FAMILIES)
    def test_rows_equal_single_task_calls(self, family):
        rng = np.random.default_rng(37)
        for B in (1, 4):
            pairs = [_objective_and_point(family, rng) for _ in range(B)]
            objs = [obj for obj, _ in pairs]
            stacked = stack_objectives(objs)
            phis = np.array([phi for _, phi in pairs])
            values, grads = stacked.value(phis), stacked.gradient(phis)
            assert values.shape == (B,) and grads.shape == (B, stacked.dim)
            for t, obj in enumerate(objs):
                assert np.array_equal(values[t], obj.value(phis[t]))
                assert np.array_equal(grads[t], obj.gradient(phis[t]))
            # a cascade stage sends width x B x d arrays of iterates and vectors
            stage = np.array([phis + 0.01 * rng.standard_normal(phis.shape) for _ in range(3)])
            vs = np.array([rng.standard_normal(phis.shape) for _ in range(3)])
            rows = stacked.hvp(stage, vs)
            assert rows.shape == (3, B, stacked.dim)
            for j in range(3):
                assert np.array_equal(stacked.hvp(stage[j], vs[j]), rows[j])
                for t, obj in enumerate(objs):
                    assert np.array_equal(rows[j, t], obj.hvp(stage[j][t], vs[j][t]))

    @pytest.mark.parametrize("as_array", [False, True], ids=["sequence", "array"])
    def test_mlp_stage_served_entry_by_entry(self, monkeypatch, as_array):
        # a width x B x d stage (or a sequence numpy reads as one) goes one B x d entry at a time,
        # straight into its row, equal to the per-pair products
        rng = np.random.default_rng(40)
        pairs = [_objective_and_point("mlp", rng) for _ in range(4)]
        stacked = stack_objectives([obj for obj, _ in pairs])
        phis = np.array([phi for _, phi in pairs])
        stage = tuple(phis + 0.01 * rng.standard_normal(phis.shape) for _ in range(3))
        vs = [rng.standard_normal(phis.shape) for _ in range(3)]
        vs[1][2] = 0.0
        if as_array:
            stage, vs = np.array(stage), np.array(vs)
        points = []
        linearize = MlpObjective.linearize
        monkeypatch.setattr(MlpObjective, "linearize", lambda self, p: points.append(p) or linearize(self, p))
        rows = stacked.hvp(stage, vs)
        assert len(points) == 3 and all(np.shares_memory(p, entry) for p, entry in zip(points, stage))
        assert rows.shape == (3, 4, stacked.dim)
        for j in range(3):
            for t, (obj, _) in enumerate(pairs):
                assert np.array_equal(rows[j, t], obj.hvp(stage[j][t], vs[j][t]))
        assert np.array_equal(rows[1, 2], np.zeros(stacked.dim))
        with pytest.raises(ValueError, match="hvp takes phi and v of one shape"):
            stacked.hvp(stage, vs[:2])

    def test_constructors_take_a_stack_and_check_every_task(self):
        rng = np.random.default_rng(39)
        a = np.stack([np.eye(3), np.diag([1.0, 2.0, 3.0])])
        assert QuadraticTask(a, np.ones((2, 3))).dim == 3
        a[1, 0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticTask(a, np.ones((2, 3)))
        with pytest.raises(ValueError, match="inconsistent"):
            QuadraticTask(np.stack([np.eye(3)] * 2), np.ones(3))
        x, y = rng.standard_normal((2, 3, 5)), np.ones((2, 5))
        task = LogisticTask(x, y)
        assert (task.dim, task.n) == (3, 5)
        y[1, 4] = 0.5
        with pytest.raises(ValueError, match="labels"):
            LogisticTask(x, y)
        with pytest.raises(ValueError, match="inconsistent"):
            LogisticTask(x, np.ones((3, 5)))
        with pytest.raises(ValueError, match="same shape"):
            MlpObjective(np.ones((2, 2, 3)), np.ones((2, 2, 3)))
        with pytest.raises(ValueError, match="NaN or Inf"):
            MlpObjective(np.ones((2, 3)), np.array([[0.0, 1.0, 2.0], [0.0, np.nan, 2.0]]))

    def test_one_family_only(self):
        rng = np.random.default_rng(38)
        with pytest.raises(ValueError, match="one family"):
            stack_objectives([random_quadratic(rng, 2), random_logistic(rng, np.ones(2), 20)])


class TestGradientsMatchValues:
    def test_quadratic(self):
        rng = np.random.default_rng(1)
        task = random_quadratic(rng, 4)
        phi = rng.standard_normal(4)
        g = task.gradient(phi)
        fd = central_diff_gradient(task, phi)
        assert np.linalg.norm(g - fd) <= 1e-5 * (1 + np.linalg.norm(g))

    def test_logistic(self):
        rng = np.random.default_rng(2)
        task = random_logistic(rng, rng.standard_normal(4), 25)
        phi = rng.standard_normal(4)
        g = task.gradient(phi)
        fd = central_diff_gradient(task, phi)
        assert np.linalg.norm(g - fd) <= 1e-5 * (1 + np.linalg.norm(g))

    def test_mlp_backprop(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-5, 5, 6)
        obj = MlpObjective(x, 2.0 * np.sin(x + 0.4))
        theta = mlp_init(np.random.default_rng(9))
        g = obj.gradient(theta)
        # spot-check a random subset of coordinates against central differences
        idx = rng.choice(theta.size, size=40, replace=False)
        eps = 1e-6
        for i in idx:
            step = np.zeros_like(theta)
            step[i] = eps
            fd = (obj.value(theta + step) - obj.value(theta - step)) / (2 * eps)
            assert abs(g[i] - fd) <= 1e-5 * (1 + abs(g[i]))


class TestLogistic:
    def test_hessian_psd(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            task = random_logistic(rng, rng.standard_normal(5), 30)
            h = dense_hessian(task, rng.standard_normal(5))
            assert np.linalg.eigvalsh(h).min() >= -1e-10

    def test_label_validation(self):
        with pytest.raises(ValueError, match="labels"):
            LogisticTask(np.eye(2), [0.5, 1.0])


class TestSinusoidSampling:
    def test_protocol_shape_and_ranges(self):
        tasks = sample_sinusoid_batch(np.random.default_rng(123), batch=10, shots=10)
        assert len(tasks) == 10
        for t in tasks:
            assert t.x_train.shape == (10,) and t.x_val.shape == (10,)
            assert 0.1 <= t.amplitude <= 5.0
            assert 0.0 <= t.phase <= np.pi
            assert np.all((t.x_train >= -5) & (t.x_train <= 5))

    def test_minimal_sizes(self):
        (task,) = sample_sinusoid_batch(np.random.default_rng(0), batch=1, shots=1)
        assert task.x_train.shape == (1,)

    def test_deterministic(self):
        a = sample_sinusoid_batch(np.random.default_rng(99), 4, 7)
        b = sample_sinusoid_batch(np.random.default_rng(99), 4, 7)
        for ta, tb in zip(a, b):
            assert ta.amplitude == tb.amplitude and ta.phase == tb.phase
            assert np.array_equal(ta.x_train, tb.x_train)
            assert np.array_equal(ta.y_val, tb.y_val)

    def test_targets_exact(self):
        for t in sample_sinusoid_batch(np.random.default_rng(5), 5, 8):
            assert np.max(np.abs(t.y_train - t.amplitude * np.sin(t.x_train + t.phase))) == 0.0

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            sample_sinusoid_batch(np.random.default_rng(0), 0, 3)


class TestSharpnessSequences:
    def test_all_negative(self):
        seq = sharpness_sequence("theorem2-neg", K=3, L=0, H=1.0, d=2)
        assert len(seq.hessians) == 3
        for h in seq.hessians:
            assert np.array_equal(h, -np.eye(2))

    def test_all_positive_scalar(self):
        seq = sharpness_sequence("theorem3-pos", K=2, L=0, H=0.5, d=1)
        assert [float(h[0, 0]) for h in seq.hessians] == [0.5, 0.5]

    def test_mixed(self):
        seq = sharpness_sequence("theorem3-trunc", K=4, L=1, H=1.0, d=1)
        assert [float(h[0, 0]) for h in seq.hessians] == [1.0, 1.0, 1.0, 0.0]

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            sharpness_sequence("nope", K=2, L=0, H=1.0, d=1)

    @pytest.mark.parametrize("kind", SHARPNESS_KINDS)
    def test_negative_k_rejected_first(self, kind):
        # before the L check, which would blame an L the caller may not have given
        with pytest.raises(ValueError, match="^K must be >= 0$"):
            sharpness_sequence(kind, K=-1, L=0, H=1.0, d=1)

    def test_empty_dimension_rejected(self):
        with pytest.raises(ValueError, match="d must be >= 1"):
            sharpness_sequence("theorem3-pos", K=2, L=0, H=1.0, d=0)

    def test_sequence_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            PrescribedHessianSequence(hessians=(np.array([[0.0, 1.0], [0.0, 0.0]]),), g=np.ones(2))

