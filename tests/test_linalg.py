import numpy as np
import pytest

from metagrad import CGBreakdownError, conjugate_gradient, is_symmetric


class TestSymmetry:
    def test_symmetric(self):
        assert is_symmetric(np.array([[1.0, 2.0], [2.0, 3.0]]))

    def test_asymmetric(self):
        assert not is_symmetric(np.array([[1.0, 2.0], [2.1, 3.0]]))

    def test_zero(self):
        assert is_symmetric(np.zeros((3, 3)))


def _matrix_map(a):
    """The map CG calls with (P, rows) when every system has the matrix a."""
    return lambda p, rows: (a @ p[..., None])[..., 0]


class TestConjugateGradient:
    """One system, given as a 1-row stack."""

    def test_identity_map_one_iteration(self):
        res = conjugate_gradient(lambda p, rows: p, [[5.0, -2.0]])
        assert res.converged[0]
        assert res.iterations == 1
        assert np.max(np.abs(res.x[0] - [5.0, -2.0])) <= 1e-14

    def test_diagonal_solve(self):
        res = conjugate_gradient(_matrix_map(np.diag([2.0, 4.0])), [[2.0, 4.0]])
        assert res.converged[0]
        assert np.max(np.abs(res.x[0] - [1.0, 1.0])) <= 1e-12

    def test_spd_matches_dense_solve_within_d_iterations(self):
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        a = q @ np.diag(rng.uniform(0.5, 3.0, 6)) @ q.T
        b = rng.standard_normal(6)
        res = conjugate_gradient(_matrix_map(a), b[None], tol=1e-12, max_iters=6)
        expected = np.linalg.solve(a, b)
        assert res.iterations <= 6
        assert np.linalg.norm(res.x[0] - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_nonconvergence_flag(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((20, 20))
        a = a @ a.T + 1e-6 * np.eye(20)
        res = conjugate_gradient(_matrix_map(a), rng.standard_normal((1, 20)), tol=1e-14, max_iters=2)
        assert not res.converged[0]
        assert res.iterations == 2
        assert np.all(np.isfinite(res.x))

    def test_breakdown_on_indefinite_map(self):
        with pytest.raises(CGBreakdownError):
            conjugate_gradient(lambda p, rows: -p, [[1.0, 2.0]])

    def test_zero_rhs(self):
        res = conjugate_gradient(lambda p, rows: p, [[0.0, 0.0]])
        assert res.converged[0] and res.iterations == 0

    def test_one_dimensional_rhs_rejected(self):
        with pytest.raises(ValueError, match=r"^expected a B x d stack, got shape \(2,\)$"):
            conjugate_gradient(lambda p, rows: p, [1.0, 2.0])


def _spd_maps(rng, d, count):
    """count random SPD d x d matrices and the stacked map CG calls with (P, rows)."""
    mats = []
    for _ in range(count):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        mats.append(q @ np.diag(rng.uniform(0.2, 5.0, d)) @ q.T)
    mats = np.array(mats)
    return mats, lambda p, rows: (mats[rows] @ p[..., None])[..., 0]


class TestStackedConjugateGradient:
    """A B x d right-hand side solves B systems at once, each row bit for bit its own 1-row solve."""

    @pytest.mark.parametrize("d", [6, 40])
    def test_rows_equal_one_dimensional_solves(self, d):
        rng = np.random.default_rng(14)
        mats, apply = _spd_maps(rng, d, 5)
        mats[0], mats[3] = 2.0 * np.eye(d), np.diag(np.resize([1.0, 3.0], d))  # 1 and 2 distinct eigenvalues
        b = rng.standard_normal((5, d)) * np.array([1.0, 1e-3, 10.0, 1.0, 1e2])[:, None]
        res = conjugate_gradient(apply, b, tol=1e-12)
        singles = [conjugate_gradient(_matrix_map(a), row[None], tol=1e-12) for a, row in zip(mats, b)]
        assert np.array_equal(res.x, [s.x[0] for s in singles])
        assert res.row_iterations.tolist() == [s.iterations for s in singles]
        assert res.residual.tolist() == [s.residual[0] for s in singles]
        assert res.converged.all() and res.iterations == max(s.iterations for s in singles)
        assert len(set(res.row_iterations.tolist())) > 1  # rows really leave at different times

    def test_finished_rows_leave_the_stack(self):
        rng = np.random.default_rng(15)
        mats, apply = _spd_maps(rng, 6, 3)
        sent = []
        b = rng.standard_normal((3, 6))
        b[1] = 0.0
        res = conjugate_gradient(lambda p, rows: sent.append(rows.tolist()) or apply(p, rows), b)
        assert res.row_iterations[1] == 0 and res.converged[1] and res.residual[1] == 0.0
        assert np.array_equal(res.x[1], np.zeros(6))
        assert min(res.row_iterations[[0, 2]]) > 0
        assert len(sent) == res.iterations
        assert all(1 not in rows for rows in sent)
        assert [len(rows) for rows in sent] == sorted((len(rows) for rows in sent), reverse=True)

    def test_max_iters_gives_per_row_flags(self):
        rng = np.random.default_rng(16)
        mats, apply = _spd_maps(rng, 20, 2)
        mats[0] = np.eye(20)  # the identity converges in one iteration, the other row does not in two
        res = conjugate_gradient(apply, rng.standard_normal((2, 20)), tol=1e-14, max_iters=2)
        assert res.converged.tolist() == [True, False]
        assert res.row_iterations.tolist() == [1, 2] and res.iterations == 2
        assert np.isfinite(res.x).all()

    def test_one_indefinite_row_breaks_down(self):
        rng = np.random.default_rng(17)
        mats, apply = _spd_maps(rng, 4, 3)
        mats[2] = -mats[2]
        with pytest.raises(CGBreakdownError, match="^non-positive curvature p\\^T A p = -"):
            conjugate_gradient(apply, rng.standard_normal((3, 4)))

    def test_non_finite_map_output_raises(self):
        with pytest.raises(ValueError, match="^vector contains NaN or Inf$"):
            conjugate_gradient(lambda p, rows: p * np.array([[1.0], [np.inf]]), np.ones((2, 3)))

    def test_map_output_of_another_shape_raises(self):
        # row 0's product alone would broadcast into row 1's update and solve row 1 wrongly
        with pytest.raises(ValueError, match=r"^map returned shape \(2,\) for input shape \(2, 2\)$"):
            conjugate_gradient(lambda p, rows: 2 * p[0], [[1.0, 2.0], [3.0, -1.0]])

    def test_rejects_a_nan_tolerance(self):
        with pytest.raises(ValueError, match="tol must be positive"):
            conjugate_gradient(lambda p, rows: p, [[1.0]], tol=float("nan"))
