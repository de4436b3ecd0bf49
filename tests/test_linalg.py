import numpy as np
import pytest

from conftest import strict_lower_ones
from metagrad import CGBreakdownError, conjugate_gradient, is_symmetric


class TestStrictLowerOnes:
    def test_smallest(self):
        assert np.array_equal(strict_lower_ones(1), [[0.0]])

    def test_two(self):
        assert np.array_equal(strict_lower_ones(2), [[0.0, 0.0], [1.0, 0.0]])

    def test_column_sums(self):
        assert np.array_equal(strict_lower_ones(4).sum(axis=0), [3.0, 2.0, 1.0, 0.0])

    @pytest.mark.parametrize("n", range(1, 12))
    def test_number_of_ones(self, n):
        assert strict_lower_ones(n).sum() == n * (n - 1) // 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            strict_lower_ones(0)


class TestSymmetry:
    def test_symmetric(self):
        assert is_symmetric(np.array([[1.0, 2.0], [2.0, 3.0]]))

    def test_asymmetric(self):
        assert not is_symmetric(np.array([[1.0, 2.0], [2.1, 3.0]]))

    def test_zero(self):
        assert is_symmetric(np.zeros((3, 3)))


class TestConjugateGradient:
    def test_identity_map_one_iteration(self):
        res = conjugate_gradient(lambda v: v, [5.0, -2.0])
        assert res.converged
        assert res.iterations == 1
        assert np.max(np.abs(res.x - [5.0, -2.0])) <= 1e-14

    def test_diagonal_solve(self):
        res = conjugate_gradient(lambda v: np.diag([2.0, 4.0]) @ v, [2.0, 4.0])
        assert res.converged
        assert np.max(np.abs(res.x - [1.0, 1.0])) <= 1e-12

    def test_spd_matches_dense_solve_within_d_iterations(self):
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        a = q @ np.diag(rng.uniform(0.5, 3.0, 6)) @ q.T
        b = rng.standard_normal(6)
        res = conjugate_gradient(lambda v: a @ v, b, tol=1e-12, max_iters=6)
        expected = np.linalg.solve(a, b)
        assert res.iterations <= 6
        assert np.linalg.norm(res.x - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_nonconvergence_flag(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((20, 20))
        a = a @ a.T + 1e-6 * np.eye(20)
        res = conjugate_gradient(lambda v: a @ v, rng.standard_normal(20), tol=1e-14, max_iters=2)
        assert not res.converged
        assert res.iterations == 2
        assert np.all(np.isfinite(res.x))

    def test_breakdown_on_indefinite_map(self):
        with pytest.raises(CGBreakdownError):
            conjugate_gradient(lambda v: -v, [1.0, 2.0])

    def test_zero_rhs(self):
        res = conjugate_gradient(lambda v: v, [0.0, 0.0])
        assert res.converged and res.iterations == 0
