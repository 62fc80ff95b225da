"""Coefficient-space influence: representer identities, block system, predictors.

The oracles here are computed from first principles with materialized
Jacobians and dense kernels: explicit loops for the hand-sized instances, the
unreduced coefficient system solved densely, finite differences of the
reparameterized risk, and exact retraining fits.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import kinfluence.dual
from kinfluence.datasets import LabeledDataset, SplitDataset, make_blobs, split_forget
from kinfluence.errors import DegenerateSplit, NonFiniteEncountered, NotAtOptimum, SpdViolation
from kinfluence.infinite import AnalyticNtkSpec, analytic_ntk
from kinfluence.kernels import KernelMatrix, empirical_ntk
from kinfluence.losses import CROSS_ENTROPY, SQUARED, loss_grad_batch, loss_value_batch
from kinfluence.models import (
    LinearizedModel,
    ModelSpec,
    model_outputs,
    stacked_jacobian,
)
from kinfluence.dual import (
    DENSE_SOLVE_MAX,
    DualUnlearner,
    _apply_blockdiag,
    _require_stationary,
    alpha_star_from_outputs,
    map_to_params,
    predict_changes_dual,
    retain_hessian_blocks,
)
from kinfluence.experiments import _make_unlearner
from kinfluence.primal import PrimalUnlearner, attach_test_predictions
from kinfluence.report import InfluenceReport
from kinfluence.solvers import CgOptions, cg_solve
from kinfluence.training import RiskConfig, fit_linearized_exact, risk_value


def quadratic_setup(seed=0, widths=(5, 24, 2), n_per_class=8, lam=0.3, percent=25.0):
    """Overparameterized linearized instance (full-row-rank Jacobian)."""
    spec = ModelSpec(widths, init_seed=seed)
    lin = LinearizedModel(spec, spec.init_params())
    ds = make_blobs(n_per_class, widths[-1], d_in=widths[0], seed=seed)
    split = split_forget(ds, percent, scope="all", seed=seed + 1)
    cfg = RiskConfig(lam=lam, loss=SQUARED)
    theta_hat = fit_linearized_exact(lin, split.full, cfg)
    kernel = empirical_ntk(spec, lin.theta_ref, split.full.features)
    f_vec = model_outputs(lin, theta_hat, split.full.features).ravel()
    return spec, lin, split, cfg, theta_hat, kernel, f_vec


def unreduced_solution(kernel, f_vec, split, cfg):
    """Oracle: solve the full coefficient system densely.

    H = (Nr/N)(Kr' Br Kr + lam K) over all coefficients with
    rhs = (Nf/N) (K[:, forget] grad_forget + lam K alpha).
    """
    n, d = split.n, split.full.d_out
    nf, nr = split.n_forget, split.n_retain
    k = kernel.to_dense()
    f = f_vec.reshape(n, d)
    g = loss_grad_batch(cfg.loss, f, split.full.targets)
    alpha = -(g.ravel() / n) / cfg.lam
    b_r = np.zeros((nr * d, nr * d))
    from kinfluence.losses import loss_hess_batch
    blocks = loss_hess_batch(cfg.loss, f[nf:], split.retain.targets) / nr
    for i in range(nr):
        b_r[i * d:(i + 1) * d, i * d:(i + 1) * d] = blocks[i]
    k_r = k[nf * d:, :]
    h = (nr / n) * (k_r.T @ b_r @ k_r + cfg.lam * k)
    g_f = g[:nf].ravel() / nf
    rhs = (nf / n) * (k[:, :nf * d] @ g_f + cfg.lam * (k @ alpha))
    return np.linalg.solve(h, rhs), alpha


def dual_hessian_block(kernel: KernelMatrix, b_r: np.ndarray, split: SplitDataset,
                       cfg: RiskConfig, i: str, j: str) -> np.ndarray:
    """Dense block H^{ij} = (|Dr|/|D|) (K_ir B_r K_rj + lambda K_ij)."""
    idx = {"f": np.arange(split.n_forget), "r": np.arange(split.n_forget, split.n)}
    if i not in idx or j not in idx:
        raise ValueError("block labels must be 'f' or 'r'")
    k_ir = kernel.submatrix(idx[i], idx["r"]).to_dense()
    k_rj = kernel.submatrix(idx["r"], idx[j]).to_dense()
    k_ij = kernel.submatrix(idx[i], idx[j]).to_dense()
    scale = split.n_retain / split.n
    return scale * (k_ir @ _apply_blockdiag(b_r, k_rj) + cfg.lam * k_ij)


def dual_rhs(kernel: KernelMatrix, f_vec: np.ndarray, split: SplitDataset,
             cfg: RiskConfig, i: str) -> np.ndarray:
    """Block i of the reparameterized forget-risk gradient at 0:
    K_if grad_f(forget risk) + lambda K_i alpha."""
    alpha = alpha_star_from_outputs(f_vec, split.full, cfg)
    idx = {"f": np.arange(split.n_forget), "r": np.arange(split.n_forget, split.n)}
    if i not in idx:
        raise ValueError("block label must be 'f' or 'r'")
    f = np.asarray(f_vec).reshape(split.n, split.full.d_out)
    g_f = loss_grad_batch(cfg.loss, f[: split.n_forget], split.forget.targets).ravel()
    g_f /= split.n_forget
    k_if = kernel.submatrix(idx[i], idx["f"])
    k_i = kernel.submatrix(idx[i], np.arange(split.n))
    return k_if.matvec(g_f) + cfg.lam * k_i.matvec(alpha)


class TestAlphaStar:
    def test_interpolation_gives_zero(self):
        spec = ModelSpec((2, 1), activation="identity", bias=False)
        theta_ref = np.array([2.0, -2.0])
        lin = LinearizedModel(spec, theta_ref)
        ds = LabeledDataset(np.array([[0.5, 0.0], [0.0, 0.5]] * 4),
                            np.array([[1.0], [-1.0]] * 4),
                            np.array([1, 0] * 4))
        cfg = RiskConfig(lam=0.2, loss=SQUARED)
        a = alpha_star_from_outputs(model_outputs(lin, theta_ref, ds.features).ravel(), ds, cfg)
        np.testing.assert_array_equal(a, np.zeros(8))

    def test_matches_classical_dual_ridge(self):
        spec, lin, split, cfg, theta_hat, kernel, f_vec = quadratic_setup(seed=1)
        a = alpha_star_from_outputs(f_vec, split.full, cfg)
        # oracle: (K + lam N I)^(-1) (y - f0)
        k = kernel.to_dense()
        f0 = model_outputs(lin, lin.theta_ref, split.full.features).ravel()
        oracle = np.linalg.solve(k + cfg.lam * split.n * np.eye(k.shape[0]),
                                 split.full.targets_vec - f0)
        np.testing.assert_allclose(a, oracle, rtol=1e-8, atol=1e-12)

    def test_representer_identity(self):
        # theta_hat - theta_ref = J' alpha at the optimum
        spec, lin, split, cfg, theta_hat, kernel, f_vec = quadratic_setup(seed=2)
        a = alpha_star_from_outputs(f_vec, split.full, cfg)
        jac = stacked_jacobian(spec, lin.theta_ref, split.full.features)
        lhs = theta_hat - lin.theta_ref
        assert np.linalg.norm(lhs - jac.T @ a) / np.linalg.norm(lhs) < 1e-6

    def test_not_at_optimum_hard_error(self):
        spec, lin, split, cfg, theta_hat, kernel, f_vec = quadratic_setup(seed=3)
        _require_stationary(lin, theta_hat, split.full, cfg)
        with pytest.raises(NotAtOptimum):
            _require_stationary(lin, theta_hat + 0.1, split.full, cfg)


class TestBlocks:
    def test_squared_loss_block_formula(self):
        # Br = I/Nr: H_rr = (Nr/N)(Krr^2/Nr + lam Krr)
        spec, lin, split, cfg, theta_hat, kernel, f_vec = quadratic_setup(seed=4)
        b_r = retain_hessian_blocks(f_vec, split, cfg)
        got = dual_hessian_block(kernel, b_r, split, cfg, "r", "r")
        ri = np.arange(split.n_forget, split.n)
        krr = kernel.submatrix(ri, ri).to_dense()
        expect = (split.n_retain / split.n) * (krr @ krr / split.n_retain + cfg.lam * krr)
        np.testing.assert_allclose(got, expect, rtol=1e-10)

    def test_four_blocks_assemble_unblocked_hessian(self):
        spec, lin, split, cfg, theta_hat, kernel, f_vec = quadratic_setup(seed=5)
        b_r = retain_hessian_blocks(f_vec, split, cfg)
        blocks = {(i, j): dual_hessian_block(kernel, b_r, split, cfg, i, j)
                  for i in "fr" for j in "fr"}
        top = np.hstack([blocks[("f", "f")], blocks[("f", "r")]])
        bot = np.hstack([blocks[("r", "f")], blocks[("r", "r")]])
        assembled = np.vstack([top, bot])
        # oracle: unblocked (Nr/N)(Kr' Br Kr + lam K)
        n, d = split.n, split.full.d_out
        nf, nr = split.n_forget, split.n_retain
        k = kernel.to_dense()
        bmat = np.zeros((nr * d, nr * d))
        for i in range(nr):
            bmat[i * d:(i + 1) * d, i * d:(i + 1) * d] = b_r[i]
        k_r = k[nf * d:, :]
        oracle = (nr / n) * (k_r.T @ bmat @ k_r + cfg.lam * k)
        np.testing.assert_allclose(assembled, oracle, rtol=1e-10, atol=1e-12)

    def test_hand_enumerated_three_points(self):
        # N=3, d_out=1, forget = first point, squared loss: scalar arithmetic
        spec = ModelSpec((2, 1), activation="identity", bias=False)
        lin = LinearizedModel(spec, np.zeros(2))
        x = np.array([[0.9, 0.1], [0.2, 0.7], [0.5, 0.5]])
        y = np.array([[1.0], [-1.0], [1.0]])
        ds = LabeledDataset(x, y, np.array([1, 0, 1]))
        cfg = RiskConfig(lam=0.5, loss=SQUARED, center="origin")
        split = split_forget(ds, 34.0, scope="all", seed=0)  # 1 of 3 points
        assert split.n_forget == 1
        xs = split.full.features
        theta_hat = fit_linearized_exact(lin, split.full, cfg)
        kernel = empirical_ntk(spec, lin.theta_ref, xs)
        f_vec = model_outputs(lin, theta_hat, xs).ravel()
        b_r = retain_hessian_blocks(f_vec, split, cfg)
        got = dual_hessian_block(kernel, b_r, split, cfg, "r", "r")
        # hand loops: K[a,b] = x_a . x_b; H[a,b] = (2/3)(sum_c K[a,c](1/2)K[c,b] + lam K[a,b])
        kk = np.empty((3, 3))
        for a in range(3):
            for b in range(3):
                kk[a, b] = float(xs[a] @ xs[b])
        hand = np.empty((2, 2))
        for a in range(2):
            for b in range(2):
                s = 0.0
                for c in range(2):
                    s += kk[a + 1, c + 1] * 0.5 * kk[c + 1, b + 1]
                hand[a, b] = (2.0 / 3.0) * (s + cfg.lam * kk[a + 1, b + 1])
        np.testing.assert_allclose(got, hand, rtol=1e-12)


class TestRhs:
    def test_zero_when_interpolating(self):
        spec = ModelSpec((2, 1), activation="identity", bias=False)
        theta_ref = np.array([2.0, -2.0])
        lin = LinearizedModel(spec, theta_ref)
        ds = LabeledDataset(np.array([[0.5, 0.0], [0.0, 0.5]] * 4),
                            np.array([[1.0], [-1.0]] * 4),
                            np.array([1, 0] * 4))
        cfg = RiskConfig(lam=0.2, loss=SQUARED)
        split = split_forget(ds, 25.0, scope="all", seed=0)
        kernel = empirical_ntk(spec, theta_ref, split.full.features)
        f_vec = model_outputs(lin, theta_ref, split.full.features).ravel()
        for blk in ("f", "r"):
            np.testing.assert_allclose(dual_rhs(kernel, f_vec, split, cfg, blk), 0.0,
                                       atol=1e-14)

    def test_concatenation_and_finite_differences(self):
        # FD oracle on the reparameterized forget risk
        # L~(da) = (1/Nf) sum_f loss(f_hat + (K da)_f, y) + (lam/2)||theta_hat + J'da - ref||^2
        spec, lin, split, cfg, theta_hat, kernel, f_vec = quadratic_setup(seed=6)
        jac = stacked_jacobian(spec, lin.theta_ref, split.full.features)
        k = kernel.to_dense()
        nf, d = split.n_forget, split.full.d_out

        def reparam_forget_risk(da):
            f = (f_vec + k @ da).reshape(split.n, d)[:nf]
            theta = theta_hat + jac.T @ da
            loss = loss_value_batch(cfg.loss, f, split.forget.targets).mean()
            return loss + 0.5 * cfg.lam * np.sum((theta - lin.theta_ref) ** 2)

        grad = np.concatenate([dual_rhs(kernel, f_vec, split, cfg, "f"),
                               dual_rhs(kernel, f_vec, split, cfg, "r")])
        rng = np.random.default_rng(0)
        h = 1e-6
        for _ in range(4):
            dvec = rng.standard_normal(grad.shape[0])
            dvec /= np.linalg.norm(dvec)
            fd = (reparam_forget_risk(h * dvec) - reparam_forget_risk(-h * dvec)) / (2 * h)
            assert abs(grad @ dvec - fd) / max(abs(fd), 1e-10) < 1e-6

    def test_hand_expansion_three_points(self):
        spec = ModelSpec((2, 1), activation="identity", bias=False)
        lin = LinearizedModel(spec, np.zeros(2))
        x = np.array([[0.9, 0.1], [0.2, 0.7], [0.5, 0.5]])
        y = np.array([[1.0], [-1.0], [1.0]])
        ds = LabeledDataset(x, y, np.array([1, 0, 1]))
        cfg = RiskConfig(lam=0.5, loss=SQUARED, center="origin")
        split = split_forget(ds, 34.0, scope="all", seed=0)
        xs = split.full.features
        ys = split.full.targets[:, 0]
        theta_hat = fit_linearized_exact(lin, split.full, cfg)
        kernel = empirical_ntk(spec, lin.theta_ref, xs)
        f_vec = model_outputs(lin, theta_hat, xs).ravel()
        # hand expansion: rhs_i = K[i,0] (f_0 - y_0) + lam sum_j K[i,j] a_j,
        # a_j = -(f_j - y_j)/(3 lam)
        kk = np.array([[float(xs[a] @ xs[b]) for b in range(3)] for a in range(3)])
        resid = f_vec - ys
        a_hand = -resid / (3 * cfg.lam)
        hand = np.array([kk[i, 0] * resid[0] + cfg.lam * (kk[i] @ a_hand) for i in range(3)])
        got_f = dual_rhs(kernel, f_vec, split, cfg, "f")
        got_r = dual_rhs(kernel, f_vec, split, cfg, "r")
        np.testing.assert_allclose(np.concatenate([got_f, got_r]), hand, rtol=1e-10)


class TestSolveReduced:
    def test_degenerate_split_rejected(self):
        spec, lin, split, cfg, theta_hat, kernel, f_vec = quadratic_setup(seed=7)
        with pytest.raises(DegenerateSplit):
            split_forget(split.full, 100.0, scope="all", seed=0)

    def test_forget_block_is_known_value(self):
        spec, lin, split, cfg, theta_hat, kernel, f_vec = quadratic_setup(seed=8)
        coeffs = DualUnlearner(kernel, f_vec, split, cfg).solve()
        g = loss_grad_batch(cfg.loss, f_vec.reshape(split.n, 2), split.full.targets)
        known = g[: split.n_forget].ravel() / (split.n * cfg.lam)
        np.testing.assert_array_equal(coeffs.delta_alpha[: split.n_forget * 2], known)

    def test_matches_unreduced_system(self):
        spec, lin, split, cfg, theta_hat, kernel, f_vec = quadratic_setup(seed=9)
        coeffs = DualUnlearner(kernel, f_vec, split, cfg).solve()
        oracle, alpha = unreduced_solution(kernel, f_vec, split, cfg)
        rel = np.linalg.norm(coeffs.delta_alpha - oracle) / np.linalg.norm(oracle)
        assert rel < 1e-8
        np.testing.assert_allclose(coeffs.alpha_star, alpha, atol=1e-15)

    def test_mapped_params_match_retraining(self):
        spec, lin, split, cfg, theta_hat, kernel, f_vec = quadratic_setup(seed=10)
        coeffs = DualUnlearner(kernel, f_vec, split, cfg).solve()
        theta_u = map_to_params(lin, theta_hat, coeffs.delta_alpha, split.full.features)
        retrained = fit_linearized_exact(lin, split.retain, cfg)
        rel = np.linalg.norm(theta_u - retrained) / np.linalg.norm(retrained)
        assert rel < 1e-8

    def test_cg_and_dense_paths_agree(self, monkeypatch):
        spec, lin, split, cfg, theta_hat, kernel, f_vec = quadratic_setup(seed=11)
        dense = DualUnlearner(kernel, f_vec, split, cfg).solve()
        monkeypatch.setattr(kinfluence.dual, "DENSE_SOLVE_MAX", 0)
        solver = DualUnlearner(kernel, f_vec, split, cfg,
                               CgOptions(rel_tol=1e-13, max_iters=5000))
        cgres = solver.solve()
        assert solver.diagnostics["solver"] == "cg"
        np.testing.assert_allclose(cgres.delta_alpha, dense.delta_alpha, rtol=1e-7, atol=1e-11)


def reduced_instance(loss, kron, percent, seed=0, d=3):
    """A split with a dense empirical or a Kronecker analytic kernel and
    arbitrary outputs: the reduced system is defined at any outputs."""
    ds = make_blobs(8, d, d_in=5, seed=seed)
    split = split_forget(ds, percent, scope="all", seed=seed + 1)
    if kron:
        kernel = analytic_ntk(AnalyticNtkSpec(hidden_layers=2, d_out=d), split.full.features)
    else:
        spec = ModelSpec((5, 16, d), init_seed=seed)
        kernel = empirical_ntk(spec, spec.init_params(), split.full.features)
    f_vec = np.random.default_rng(seed).normal(scale=0.5, size=split.n * d)
    return split, RiskConfig(lam=0.1, loss=loss), kernel, f_vec


class TestFactoredSolve:
    @pytest.mark.parametrize("percent", [10.0, 50.0, 90.0])
    @pytest.mark.parametrize("cap", [DENSE_SOLVE_MAX, 0], ids=["cholesky", "cg"])
    @pytest.mark.parametrize("kron", [False, True], ids=["dense", "kron"])
    @pytest.mark.parametrize("loss", [SQUARED, CROSS_ENTROPY])
    def test_solves_reduced_system(self, loss, kron, cap, percent, monkeypatch):
        split, cfg, kernel, f_vec = reduced_instance(loss, kron, percent)
        monkeypatch.setattr(kinfluence.dual, "DENSE_SOLVE_MAX", cap)
        solver = DualUnlearner(kernel, f_vec, split, cfg,
                               CgOptions(rel_tol=1e-13, max_iters=5000))
        coeffs = solver.solve()
        # the ids name the cap; a Kronecker kernel with cross-entropy blocks
        # runs CG under either
        factored = cap and not (kron and loss == CROSS_ENTROPY)
        assert solver.diagnostics["solver"] == ("dense" if factored else "cg")
        b_r = retain_hessian_blocks(f_vec, split, cfg)
        h_rr = dual_hessian_block(kernel, b_r, split, cfg, "r", "r")
        h_rf = dual_hessian_block(kernel, b_r, split, cfg, "r", "f")
        n_f = split.n_forget * kernel.d_out
        rhs = ((split.n_forget / split.n) * dual_rhs(kernel, f_vec, split, cfg, "r")
               - h_rf @ coeffs.delta_alpha[:n_f])
        resid = np.linalg.norm(h_rr @ coeffs.delta_alpha[n_f:] - rhs)
        assert resid <= 1e-10 * np.linalg.norm(rhs)
        g = loss_grad_batch(cfg.loss, f_vec.reshape(split.n, -1), split.full.targets)
        known = g[: split.n_forget].ravel() / (split.n * cfg.lam)
        np.testing.assert_array_equal(coeffs.delta_alpha[:n_f], known)

    def test_kronecker_squared_path_never_densifies(self, monkeypatch):
        split, cfg, kernel, f_vec = reduced_instance(SQUARED, True, 50.0)
        opts = CgOptions(rel_tol=1e-13, max_iters=5000)
        expect = {}
        for cap in (DENSE_SOLVE_MAX, 0):
            monkeypatch.setattr(kinfluence.dual, "DENSE_SOLVE_MAX", cap)
            expect[cap] = DualUnlearner(kernel, f_vec, split, cfg, opts).solve()

        def no_dense(self):
            raise AssertionError("Kronecker kernel densified")
        monkeypatch.setattr(KernelMatrix, "to_dense", no_dense)
        for cap, want in expect.items():
            monkeypatch.setattr(kinfluence.dual, "DENSE_SOLVE_MAX", cap)
            got = DualUnlearner(kernel, f_vec, split, cfg, opts).solve()
            np.testing.assert_array_equal(got.delta_alpha, want.delta_alpha)
        # the Cholesky path factors only the sigma-sized factor of M
        monkeypatch.setattr(kinfluence.dual, "DENSE_SOLVE_MAX", DENSE_SOLVE_MAX)
        solver = DualUnlearner(kernel, f_vec, split, cfg, opts)
        solver.prepare()
        assert solver._factor[0].shape == (split.n_retain, split.n_retain)
        # cross-entropy blocks: CG on Kronecker matvecs under the default cap
        split, cfg, kernel, f_vec = reduced_instance(CROSS_ENTROPY, True, 50.0)
        solver = DualUnlearner(kernel, f_vec, split, cfg, opts)
        solver.solve()
        assert solver.diagnostics["solver"] == "cg"

    def test_dense_cap_boundary(self, monkeypatch):
        # M of side DENSE_SOLVE_MAX is factored; one retain point more runs CG
        split, cfg, kernel, f_vec = reduced_instance(SQUARED, False, 50.0)
        monkeypatch.setattr(kinfluence.dual, "DENSE_SOLVE_MAX", split.n_retain * kernel.d_out)
        for n_forget, path in ((split.n_forget, "dense"), (split.n_forget - 1, "cg")):
            solver = DualUnlearner(kernel, f_vec, SplitDataset(split.full, n_forget), cfg)
            solver.solve()
            assert solver.diagnostics["solver"] == path


class TestPreconditionedCg:
    """Past DENSE_SOLVE_MAX, scalar blocks on a dense kernel run CG
    preconditioned with (lambda I + c sigma_rr c) (x) I."""

    @pytest.mark.parametrize("percent", [10.0, 50.0, 90.0])
    def test_matches_dense_factor(self, percent, monkeypatch):
        split, cfg, kernel, f_vec = reduced_instance(SQUARED, False, percent)
        dense = DualUnlearner(kernel, f_vec, split, cfg).solve()
        monkeypatch.setattr(kinfluence.dual, "DENSE_SOLVE_MAX", 0)
        solver = DualUnlearner(kernel, f_vec, split, cfg, CgOptions(rel_tol=1e-13))
        got = solver.solve()
        assert solver.diagnostics["solver"] == "cg" and solver._precondition is not None
        err = np.linalg.norm(got.delta_alpha - dense.delta_alpha)
        assert err <= 1e-10 * np.linalg.norm(dense.delta_alpha)

    @pytest.mark.parametrize("kron, loss", [(True, SQUARED), (False, CROSS_ENTROPY)],
                             ids=["kron_squared", "dense_cross_entropy"])
    def test_other_paths_stay_unpreconditioned(self, kron, loss, monkeypatch):
        split, cfg, kernel, f_vec = reduced_instance(loss, kron, 50.0)
        monkeypatch.setattr(kinfluence.dual, "DENSE_SOLVE_MAX", 0)
        solver = DualUnlearner(kernel, f_vec, split, cfg)
        solver.prepare()
        assert solver._precondition is None

    def test_halves_iterations_on_fig1_shaped_instance(self, monkeypatch):
        # fig1's make-up at desk scale: one wide ReLU layer, ten outputs,
        # squared loss; its empirical kernel is close to sigma (x) I
        ds = make_blobs(6, 10, d_in=40, seed=7)
        ds = LabeledDataset(0.3 * ds.features, ds.targets, ds.labels)
        split = split_forget(ds, 10.0, scope="all", seed=8)
        spec = ModelSpec((40, 512, 10), init_seed=7)
        lin = LinearizedModel(spec, spec.init_params())
        cfg = RiskConfig(lam=0.5, loss=SQUARED)
        kernel = empirical_ntk(spec, lin.theta_ref, split.full.features)
        theta_hat = fit_linearized_exact(lin, split.full, cfg, kernel=kernel)
        f_vec = model_outputs(lin, theta_hat, split.full.features).ravel()
        monkeypatch.setattr(kinfluence.dual, "DENSE_SOLVE_MAX", 0)
        opts = CgOptions(rel_tol=1e-12)
        solver = DualUnlearner(kernel, f_vec, split, cfg, opts)
        solver.solve()
        plain = cg_solve(solver._apply_m, solver.b, opts)
        assert solver.diagnostics["converged"] and plain.converged
        assert solver.diagnostics["iters"] <= plain.iters // 2


class TestPrepareMemory:
    """The dense reduced solve materializes M once and factors it in place."""

    @staticmethod
    def dense_solver():
        d = 4
        ds = make_blobs(75, d, d_in=5, seed=3)
        split = split_forget(ds, 10.0, scope="all", seed=4)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((split.n * d, 60))
        kernel = KernelMatrix(d, dense=a @ a.T)
        f_vec = rng.normal(scale=0.5, size=split.n * d)
        solver = DualUnlearner(kernel, f_vec, split, RiskConfig(lam=0.1))
        return solver, split.n_retain * d

    def test_dense_prepare_peak_is_one_matrix(self):
        solver, side = self.dense_solver()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solver.prepare()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert solver.use_dense
        assert peak <= 1.25 * side * side * 8

    def test_permuted_view_prepare_peak_is_one_matrix(self):
        # the callers' submatrix(perm, perm) copies nothing, and K_rr is
        # gathered into the buffer that becomes M
        solver, side = self.dense_solver()
        perm = solver.split.permutation
        out = []
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out.append(DualUnlearner(solver.kernel.submatrix(perm, perm), solver.f_vec,
                                     solver.split, solver.cfg))
            out[0].prepare()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out[0].use_dense
        assert peak <= 1.25 * side * side * 8

    def test_warm_dense_solve_does_not_rescan_factor(self):
        # a finiteness scan of the factor would allocate a side^2 bool mask
        solver, side = self.dense_solver()
        first = solver.solve()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            warm = solver.solve()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert solver.use_dense
        assert peak < side * side
        np.testing.assert_array_equal(warm.delta_alpha, first.delta_alpha)

    @pytest.mark.parametrize("cap", [DENSE_SOLVE_MAX, 0], ids=["cholesky", "cg"])
    @pytest.mark.parametrize("kron", [False, True], ids=["dense", "kron"])
    @pytest.mark.parametrize("loss", [SQUARED, CROSS_ENTROPY])
    def test_leaves_kernel_unchanged(self, loss, kron, cap, monkeypatch):
        split, cfg, kernel, f_vec = reduced_instance(loss, kron, 30.0)
        mat = kernel.sigma if kron else kernel.dense
        before = mat.copy()
        monkeypatch.setattr(kinfluence.dual, "DENSE_SOLVE_MAX", cap)
        DualUnlearner(kernel, f_vec, split, cfg).solve()
        np.testing.assert_array_equal(mat, before)


class TestMapAndPredict:
    def test_zero_delta_alpha_returns_theta_hat(self):
        spec, lin, split, cfg, theta_hat, kernel, f_vec = quadratic_setup(seed=14)
        theta = map_to_params(lin, theta_hat, np.zeros(split.n * 2), split.full.features)
        np.testing.assert_array_equal(theta, theta_hat)

    def test_unlearning_reduces_retain_risk(self):
        spec, lin, split, cfg, theta_hat, kernel, f_vec = quadratic_setup(seed=15)
        coeffs = DualUnlearner(kernel, f_vec, split, cfg).solve()
        theta_u = map_to_params(lin, theta_hat, coeffs.delta_alpha, split.full.features)
        assert (risk_value(lin, theta_u, split.retain, cfg)
                <= risk_value(lin, theta_hat, split.retain, cfg))

    def test_agrees_with_primal_influence(self):
        spec, lin, split, cfg, theta_hat, kernel, f_vec = quadratic_setup(seed=16)
        coeffs = DualUnlearner(kernel, f_vec, split, cfg).solve()
        theta_dual = map_to_params(lin, theta_hat, coeffs.delta_alpha, split.full.features)
        delta_primal = PrimalUnlearner(lin, theta_hat, split, cfg,
                                       CgOptions(rel_tol=1e-13, max_iters=5000)).solve().x
        rel = (np.linalg.norm((theta_dual - theta_hat) - delta_primal)
               / np.linalg.norm(delta_primal))
        assert rel < 1e-6

    def test_subspace_property(self):
        # retrained-minus-full optimum lies in the Jacobian row space
        spec, lin, split, cfg, theta_hat, kernel, f_vec = quadratic_setup(seed=17)
        retrained = fit_linearized_exact(lin, split.retain, cfg)
        w = retrained - theta_hat
        jac = stacked_jacobian(spec, lin.theta_ref, split.full.features)
        coef, *_ = np.linalg.lstsq(jac.T, w, rcond=None)
        resid = np.linalg.norm(jac.T @ coef - w) / np.linalg.norm(w)
        assert resid < 1e-6

    def test_predict_zero_delta(self):
        spec, lin, split, cfg, theta_hat, kernel, f_vec = quadratic_setup(seed=18)
        test = make_blobs(3, 2, d_in=5, seed=99)
        k_t = empirical_ntk(spec, lin.theta_ref, test.features, split.full.features)
        coeffs = alpha_star_from_outputs(f_vec, split.full, cfg)
        from kinfluence.dual import DualCoefficients
        zero = DualCoefficients(coeffs, np.zeros_like(coeffs))
        f_t = model_outputs(lin, theta_hat, test.features).ravel()
        df, raw, reg = predict_changes_dual(k_t, kernel, zero, f_t, test.targets, cfg)
        assert np.all(df == 0) and np.all(raw == 0) and np.all(reg == 0)

    def test_vectorized_equals_per_point_loop(self):
        spec, lin, split, cfg, theta_hat, kernel, f_vec = quadratic_setup(seed=19)
        coeffs = DualUnlearner(kernel, f_vec, split, cfg).solve()
        test = make_blobs(5, 2, d_in=5, seed=55)
        k_t = empirical_ntk(spec, lin.theta_ref, test.features, split.full.features)
        f_t = model_outputs(lin, theta_hat, test.features).ravel()
        df, raw, reg = predict_changes_dual(k_t, kernel, coeffs, f_t, test.targets, cfg)
        # per-point oracle: grad of the single-point reparameterized risk at 0,
        # dotted with delta_alpha
        k = kernel.to_dense()
        kt = k_t.to_dense()
        d = 2
        for t in range(test.n):
            g_t = loss_grad_batch(cfg.loss, f_t.reshape(-1, d)[t][None, :],
                                  test.targets[t][None, :])[0]
            grad_point = kt[t * d:(t + 1) * d].T @ g_t + cfg.lam * (k @ coeffs.alpha_star)
            loop_val = float(grad_point @ coeffs.delta_alpha)
            assert abs(loop_val - reg[t]) <= 1e-12 * max(1.0, abs(loop_val))

    def test_affine_exactness_of_output_changes(self):
        spec, lin, split, cfg, theta_hat, kernel, f_vec = quadratic_setup(seed=20)
        coeffs = DualUnlearner(kernel, f_vec, split, cfg).solve()
        test = make_blobs(4, 2, d_in=5, seed=77)
        k_t = empirical_ntk(spec, lin.theta_ref, test.features, split.full.features)
        f_t = model_outputs(lin, theta_hat, test.features).ravel()
        df, raw, reg = predict_changes_dual(k_t, kernel, coeffs, f_t, test.targets, cfg)
        retrained = fit_linearized_exact(lin, split.retain, cfg)
        exact = (model_outputs(lin, retrained, test.features)
                 - model_outputs(lin, theta_hat, test.features))
        np.testing.assert_allclose(df, exact, rtol=1e-6, atol=1e-10)


class TestEndToEnd:
    def test_unlearn_dual_report(self):
        # the dual report is the parameter-space predictor at J' delta_alpha:
        # J_t delta_theta = K_t delta_alpha, and at the stationary theta_hat
        # lambda (theta_hat - c)' delta_theta = lambda alpha_star' K delta_alpha
        spec, lin, split, cfg, theta_hat, kernel, f_vec = quadratic_setup(seed=21)
        test = make_blobs(3, 2, d_in=5, seed=31)
        solver = DualUnlearner(kernel, f_vec, split, cfg)
        solver.prepare()
        coeffs = solver.solve()
        theta_u = map_to_params(lin, theta_hat, coeffs.delta_alpha, split.full.features)
        h = solver.diagnostics
        rep = InfluenceReport(theta_u - theta_hat, h["residual"], h["iters"],
                              converged=h["converged"])
        attach_test_predictions(rep, lin, theta_hat, test, cfg)
        retrained = fit_linearized_exact(lin, split.retain, cfg)
        rel = (np.linalg.norm(theta_hat + rep.delta_theta - retrained)
               / np.linalg.norm(retrained))
        assert rel < 1e-7
        assert len(rep.per_test) == test.n
        assert rep.converged and rep.notes == []
        k_t = empirical_ntk(spec, lin.theta_ref, test.features, split.full.features)
        f_t = model_outputs(lin, theta_hat, test.features).ravel()
        df, raw, reg = predict_changes_dual(k_t, kernel, coeffs, f_t, test.targets, cfg)
        got = np.array([np.r_[p.output_change, p.loss_change_raw, p.loss_change_reg]
                        for p in rep.per_test])
        want = np.column_stack([df, raw, reg])
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_max_iters_noted(self, monkeypatch):
        spec, lin, split, cfg, theta_hat, kernel, f_vec = quadratic_setup(seed=22)
        monkeypatch.setattr(kinfluence.dual, "DENSE_SOLVE_MAX", 0)
        solver = DualUnlearner(kernel, f_vec, split, cfg, CgOptions(max_iters=1))
        solver.solve()
        health = solver.diagnostics
        rep = InfluenceReport(None, health["residual"], health["iters"],
                              converged=health["converged"])
        assert not rep.converged and rep.iters == 1
        assert [n.split(":")[0] for n in rep.notes] == ["MaxItersReached"]

    def test_not_at_optimum_raises(self):
        # the harness's coefficient-space unlearner refuses a non-stationary theta_hat
        spec, lin, split, cfg, theta_hat, kernel, f_vec = quadratic_setup(seed=22)
        exp_cfg = SimpleNamespace(risk=cfg, cg=CgOptions())
        ctx = SimpleNamespace(cfg=exp_cfg, model=lin, theta_hat=theta_hat, kernel=kernel)
        assert isinstance(_make_unlearner(ctx, split, "dual"), DualUnlearner)
        ctx.theta_hat = theta_hat + 0.05
        with pytest.raises(NotAtOptimum):
            _make_unlearner(ctx, split, "dual")


class TestRobustness:
    def test_duplicated_points_solve_succeeds(self):
        # exact duplicates make the kernel singular; the factored system
        # lambda I + C K_rr C stays positive definite without any jitter
        spec = ModelSpec((4, 20, 1), init_seed=30)
        lin = LinearizedModel(spec, spec.init_params())
        rng = np.random.default_rng(0)
        base = rng.uniform(0, 1, size=(6, 4))
        feats = np.vstack([base, base])  # every point twice
        y = np.where(feats.sum(axis=1) > 2.0, 1.0, -1.0)[:, None]
        ds = LabeledDataset(feats, y, (y[:, 0] > 0).astype(int))
        cfg = RiskConfig(lam=0.3, loss=SQUARED)
        split = split_forget(ds, 25.0, scope="all", seed=1)
        kernel = empirical_ntk(spec, lin.theta_ref, split.full.features)
        theta_hat = fit_linearized_exact(lin, split.full, cfg, kernel=kernel)
        f_vec = model_outputs(lin, theta_hat, split.full.features).ravel()
        solver = DualUnlearner(kernel, f_vec, split, cfg)
        coeffs = solver.solve()
        assert solver.diagnostics["solver"] == "dense"
        theta_u = map_to_params(lin, theta_hat, coeffs.delta_alpha, split.full.features)
        retrained = fit_linearized_exact(lin, split.retain, cfg)
        rel = np.linalg.norm(theta_u - retrained) / np.linalg.norm(retrained)
        assert rel < 1e-12

    @pytest.mark.parametrize("fill, error", [(np.nan, NonFiniteEncountered),
                                             (-10.0, SpdViolation)], ids=["nan", "negative"])
    def test_failed_factorization_raises_numerical_error(self, fill, error):
        split, cfg, kernel, f_vec = reduced_instance(SQUARED, False, 50.0)
        side = kernel.shape[0]
        dense = np.full((side, side), np.nan) if np.isnan(fill) else fill * np.eye(side)
        solver = DualUnlearner(KernelMatrix(kernel.d_out, dense=dense), f_vec, split, cfg)
        with pytest.raises(error):
            solver.prepare()

    @pytest.mark.parametrize("cap", [DENSE_SOLVE_MAX, 0], ids=["cholesky", "cg"])
    def test_non_finite_cross_block_raises_in_prepare(self, cap, monkeypatch):
        # K_rr, and so M, stays finite: only the right-hand side sees the NaN
        split, cfg, kernel, f_vec = reduced_instance(SQUARED, False, 50.0)
        dense = kernel.dense.copy()
        row, col = split.n_forget * kernel.d_out + 1, 0
        dense[row, col] = dense[col, row] = np.nan
        monkeypatch.setattr(kinfluence.dual, "DENSE_SOLVE_MAX", cap)
        solver = DualUnlearner(KernelMatrix(kernel.d_out, dense=dense), f_vec, split, cfg)
        with pytest.raises(NonFiniteEncountered):
            solver.prepare()
