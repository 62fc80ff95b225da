"""CG against frozen and dense-factorization oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinfluence.errors import NonFiniteEncountered, SpdViolation
from kinfluence.solvers import CgOptions, cg_solve, cholesky_in_place, kron_preconditioner


class TestCg:
    def test_identity_one_iteration(self):
        b = np.array([1.0, -2.0, 3.0])
        res = cg_solve(lambda v: v, b)
        assert res.iters == 1 and res.converged
        np.testing.assert_allclose(res.x, b, rtol=1e-14)

    def test_two_by_two_frozen(self):
        # A = [[4,1],[1,3]], b = (1,2): hand elimination gives x = (1/11, 7/11)
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        res = cg_solve(lambda v: a @ v, np.array([1.0, 2.0]))
        np.testing.assert_allclose(res.x, [1.0 / 11.0, 7.0 / 11.0], rtol=1e-12)

    def test_seeded_spd_matches_dense_solver(self):
        rng = np.random.default_rng(42)
        m = rng.standard_normal((50, 50))
        a = m @ m.T + 50 * np.eye(50)
        b = rng.standard_normal(50)
        res = cg_solve(lambda v: a @ v, b, CgOptions(rel_tol=1e-12, max_iters=500))
        oracle = np.linalg.solve(a, b)
        assert np.linalg.norm(res.x - oracle) / np.linalg.norm(oracle) < 1e-8
        assert res.residual <= 1e-12 * np.linalg.norm(b)

    def test_zero_rhs(self):
        res = cg_solve(lambda v: 2 * v, np.zeros(4))
        assert res.converged and res.iters == 0
        np.testing.assert_array_equal(res.x, np.zeros(4))

    def test_max_iters_soft(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((30, 30))
        a = m @ m.T + 1e-6 * np.eye(30)
        res = cg_solve(lambda v: a @ v, rng.standard_normal(30),
                       CgOptions(rel_tol=1e-14, max_iters=3))
        assert not res.converged and res.iters == 3
        assert np.all(np.isfinite(res.x))

    def test_spd_violation_aborts(self):
        a = np.diag([1.0, -1.0])
        with pytest.raises(SpdViolation):
            cg_solve(lambda v: a @ v, np.array([0.0, 1.0]))

    def test_non_finite_operator(self):
        with pytest.raises(NonFiniteEncountered):
            cg_solve(lambda v: v * np.nan, np.array([1.0]))

    def test_non_finite_output_where_direction_is_zero(self):
        # p = (1, 0) and Ap = (1, inf): p'Ap = 0 * inf is NaN, so Ap is scanned
        with pytest.raises(NonFiniteEncountered):
            cg_solve(lambda v: np.array([v[0], np.inf]), np.array([1.0, 0.0]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10 ** 6))
    def test_property_matches_dense(self, n, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n))
        a = m @ m.T + n * np.eye(n)
        b = rng.standard_normal(n)
        res = cg_solve(lambda v: a @ v, b, CgOptions(rel_tol=1e-13, max_iters=20 * n))
        assert np.linalg.norm(a @ res.x - b) <= 1e-10 * max(np.linalg.norm(b), 1e-12)


class TestPreconditionedCg:
    @staticmethod
    def near_kronecker(seed=0, n=30, d=4):
        """SPD (n d)^2 matrix sigma (x) I plus a small symmetric perturbation."""
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n))
        e = 0.05 * rng.standard_normal((n * d, n * d))
        a = np.kron(g @ g.T, np.eye(d)) + e @ e.T + np.eye(n * d)
        return a, g @ g.T, rng.standard_normal(n * d)

    def test_matches_dense_solver(self):
        a, sigma, b = self.near_kronecker()
        res = cg_solve(lambda v: a @ v, b, CgOptions(rel_tol=1e-13, max_iters=500),
                       kron_preconditioner(sigma, 1.0))
        oracle = np.linalg.solve(a, b)
        assert res.converged
        assert np.linalg.norm(res.x - oracle) <= 1e-10 * np.linalg.norm(oracle)
        assert np.linalg.norm(a @ res.x - b) <= 1e-12 * np.linalg.norm(b)

    def test_fewer_iterations_than_plain_cg(self):
        a, sigma, b = self.near_kronecker(1)
        opts = CgOptions(rel_tol=1e-12, max_iters=500)
        plain = cg_solve(lambda v: a @ v, b, opts)
        pcg = cg_solve(lambda v: a @ v, b, opts, kron_preconditioner(sigma, 1.0))
        assert pcg.iters <= plain.iters // 2

    def test_identity_preconditioner_is_plain_cg(self):
        a, _sigma, b = self.near_kronecker(2)
        opts = CgOptions(rel_tol=1e-12, max_iters=500)
        plain = cg_solve(lambda v: a @ v, b, opts)
        ident = cg_solve(lambda v: a @ v, b, opts, lambda r: r)
        assert np.array_equal(plain.x, ident.x) and plain.iters == ident.iters

    @pytest.mark.parametrize("iteration", [0, 1])
    def test_not_positive_definite_preconditioner(self, iteration):
        a, _sigma, b = self.near_kronecker(3)
        calls = []

        def flips(r):
            calls.append(1)
            return -r if len(calls) > iteration else r
        with pytest.raises(SpdViolation):
            cg_solve(lambda v: a @ v, b, CgOptions(rel_tol=1e-14), flips)

    def test_non_finite_preconditioner_output(self):
        with pytest.raises(NonFiniteEncountered):
            cg_solve(lambda v: v, np.ones(3), precondition=lambda r: r * np.nan)

    def test_kron_preconditioner_checks(self):
        with pytest.raises(SpdViolation):
            kron_preconditioner(-np.eye(3), 0.5)
        with pytest.raises(NonFiniteEncountered):
            kron_preconditioner(np.full((3, 3), np.inf), 0.5)
        sigma = np.array([[2.0, 1.0], [1.0, 2.0]])
        r = np.arange(6.0)
        want = np.linalg.solve(np.kron(sigma + 0.5 * np.eye(2), np.eye(3)), r)
        np.testing.assert_allclose(kron_preconditioner(sigma, 0.5)(r), want, rtol=1e-14, atol=1e-15)


class TestCholeskyInPlace:
    def test_factors_where_the_matrix_lies(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((6, 6))
        a = g @ g.T + 6 * np.eye(6)
        m = a.copy()
        factor, lower = cholesky_in_place(m)
        assert lower and np.shares_memory(factor, m)
        low = np.tril(factor)
        np.testing.assert_allclose(low @ low.T, a, rtol=1e-13)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries(self, bad):
        m = np.eye(3)
        m[1, 2] = m[2, 1] = bad
        with pytest.raises(NonFiniteEncountered):
            cholesky_in_place(m)

    def test_not_positive_definite(self):
        with pytest.raises(SpdViolation):
            cholesky_in_place(-10.0 * np.eye(3))
