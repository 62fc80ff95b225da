"""Analytic kernel recursion, function-space training (the exact Newton fit and
kernel gradient descent), infinite-width influence."""

from types import SimpleNamespace

import numpy as np
import pytest

from kinfluence import infinite
from kinfluence.datasets import LabeledDataset, make_blobs, split_forget
from kinfluence.errors import DivergenceDetected, NotConverged
from kinfluence.infinite import (
    AnalyticNtkSpec,
    analytic_ntk,
    fit_outputs,
    infinite_influence,
    infinite_predict,
    kgd_train,
    stable_kgd_lr,
)
from kinfluence.kernels import KernelMatrix, empirical_ntk
from kinfluence.losses import (CROSS_ENTROPY, SQUARED, loss_grad_batch, loss_hess_batch,
                               loss_value_batch)
from kinfluence.models import ModelSpec
from kinfluence.training import RiskConfig


def reference_ntk(spec: AnalyticNtkSpec, X1: np.ndarray, X2: np.ndarray | None = None):
    """The arc-cosine recursion with arccos, sin and cos on every entry and
    no diagonal fix: the form analytic_ntk is checked against."""
    X2 = X1 if X2 is None else X2
    sw2, sb2, d_in = spec.sigma_w2, spec.sigma_b2, X1.shape[1]
    sig = sw2 * (X1 @ X2.T) / d_in + sb2
    k1 = sw2 * np.einsum("ij,ij->i", X1, X1) / d_in + sb2
    k2 = sw2 * np.einsum("ij,ij->i", X2, X2) / d_in + sb2
    theta_kernel = sig.copy()
    for _ in range(spec.hidden_layers):
        norm = np.sqrt(np.outer(k1, k2))
        rho = np.clip(np.divide(sig, norm, out=np.zeros_like(sig), where=norm > 0), -1.0, 1.0)
        theta = np.arccos(rho)
        sig = sw2 * norm * (np.sin(theta) + (np.pi - theta) * np.cos(theta)) / (2 * np.pi) + sb2
        theta_kernel = sig + sw2 * (np.pi - theta) / (2 * np.pi) * theta_kernel
        k1, k2 = sw2 * k1 / 2.0 + sb2, sw2 * k2 / 2.0 + sb2
    return theta_kernel


def near_parallel_inputs(seed: int) -> np.ndarray:
    """Blob points followed by copies scaled or nudged by 1e-6 to 1e-10: rho
    near 1, where arccos magnifies any change in rho."""
    x = make_blobs(10, 3, d_in=5, seed=seed).features
    rng = np.random.default_rng(seed)
    nudged = [x[:5] * (1 + 1e-6), x[5:10] + 1e-8 * rng.standard_normal((5, 5)),
              x[10:15] * (1 - 1e-10), x[15:20] + 1e-10]
    return np.concatenate([x, *nudged])


def raw_targets_ds(targets: np.ndarray) -> SimpleNamespace:
    """Function-space training touches only targets/n/d_out."""
    t = np.atleast_2d(targets)
    return SimpleNamespace(targets=t, n=t.shape[0], d_out=t.shape[1],
                           features=np.zeros((t.shape[0], 1)))


class TestAnalyticKernel:
    def test_no_hidden_layer_closed_form(self):
        spec = AnalyticNtkSpec(hidden_layers=0, sigma_w2=1.5, sigma_b2=0.2)
        x = np.array([[0.1, 0.4], [0.8, 0.2]])
        k = analytic_ntk(spec, x)
        expect = 1.5 * (x @ x.T) / 2 + 0.2
        np.testing.assert_allclose(k.sigma, expect, rtol=1e-14)

    def test_identical_inputs_positive_diagonal(self):
        spec = AnalyticNtkSpec(hidden_layers=3)
        x = np.random.default_rng(0).uniform(0, 1, size=(6, 4))
        k = analytic_ntk(spec, x)
        assert np.all(np.diag(k.sigma) > 0)
        np.testing.assert_allclose(k.sigma, k.sigma.T, atol=1e-12)
        min_eig = np.linalg.eigvalsh((k.sigma + k.sigma.T) / 2.0).min()
        assert min_eig >= -1e-10 * np.trace(k.sigma) / 6

    def test_self_correlation_angle_zero(self):
        # x = x' keeps rho = 1 through every layer: the diagonal equals the
        # closed-form half-recursion k <- sw2 k/2 + sb2, theta <- k + (sw2/2) theta
        spec = AnalyticNtkSpec(hidden_layers=4, sigma_w2=2.0, sigma_b2=0.1)
        x = make_blobs(100, 4, d_in=3, seed=9101).features
        k = 2.0 * np.einsum("ij,ij->i", x, x) / 3 + 0.1
        theta = k
        for _ in range(4):
            k = 2.0 * k / 2 + 0.1
            theta = k + (2.0 / 2) * theta  # sig_dot at rho=1 is sw2/2
        np.testing.assert_allclose(np.diag(analytic_ntk(spec, x).sigma), theta, rtol=1e-14)

    @pytest.mark.parametrize("cross", [False, True], ids=["symmetric", "cross"])
    def test_matches_three_transcendental_recursion(self, cross):
        # sin(theta) = sqrt((1 - rho)(1 + rho)) and cos(theta) = rho agree with
        # evaluating both, off the diagonal, near-parallel pairs included
        spec = AnalyticNtkSpec(hidden_layers=4, sigma_w2=2.0, sigma_b2=0.05)
        x1 = near_parallel_inputs(12)
        x2 = near_parallel_inputs(12)[::-1] * (1 + 1e-9) if cross else None
        got = analytic_ntk(spec, x1, x2).sigma
        want = reference_ntk(spec, x1, x2)
        off = ~np.eye(*want.shape, dtype=bool) if x2 is None else np.ones(want.shape, dtype=bool)
        np.testing.assert_allclose(got[off], want[off], rtol=1e-13)

    def test_kron_structure(self):
        spec = AnalyticNtkSpec(hidden_layers=2, d_out=3)
        x = np.random.default_rng(1).uniform(0, 1, size=(4, 5))
        k = analytic_ntk(spec, x)
        dense = k.to_dense()
        np.testing.assert_array_equal(dense, np.kron(k.sigma, np.eye(3)))

    def test_monte_carlo_convergence_monotone(self):
        # empirical kernels of ntk-parameterized finite nets approach the
        # analytic values monotonically in median absolute deviation
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, size=(5, 4))
        a_spec = AnalyticNtkSpec(hidden_layers=2, sigma_w2=2.0, sigma_b2=0.01)
        target = analytic_ntk(a_spec, x).sigma
        devs = []
        for width in (256, 1024, 4096):
            samples = []
            for seed in range(3):
                m = ModelSpec((4, width, width, 1), parameterization="ntk",
                              init_seed=seed, sigma_w2=2.0, sigma_b2=0.01)
                samples.append(empirical_ntk(m, m.init_params(), x).dense)
            emp = np.mean(samples, axis=0)
            devs.append(np.median(np.abs(emp - target)))
        assert devs[0] > devs[1] > devs[2]


def dense_newton(sigma: np.ndarray, ds, cfg: RiskConfig) -> np.ndarray:
    """Newton on c for f = (sigma (x) I) c with the dense Hessian and full
    solves, halving the step while the risk grows by more than its rounding;
    the outputs f."""
    k = np.kron(sigma, np.eye(ds.d_out))
    coef = np.zeros(len(k))

    def parts(c):
        f = (k @ c).reshape(ds.n, ds.d_out)
        risk = loss_value_batch(cfg.loss, f, ds.targets).mean() + 0.5 * cfg.lam * c @ k @ c
        return f, risk, loss_grad_batch(cfg.loss, f, ds.targets).ravel() / ds.n + cfg.lam * c
    for _ in range(100):
        f, risk, r = parts(coef)
        if np.linalg.norm(k @ r) <= 1e-15 * (1 + np.linalg.norm(f)):
            break
        w = np.zeros_like(k)
        for i, block in enumerate(loss_hess_batch(cfg.loss, f, ds.targets) / ds.n):
            w[i * ds.d_out:(i + 1) * ds.d_out, i * ds.d_out:(i + 1) * ds.d_out] = block
        step, t = -np.linalg.solve(w @ k + cfg.lam * np.eye(len(k)), r), 1.0
        while parts(coef + t * step)[1] > risk + 1e-14 * abs(risk) and t > 1e-12:
            t /= 2
        coef = coef + t * step
    return k @ coef


class TestFitOutputs:
    @pytest.mark.parametrize("lam", [1e-4, 1e-3, 0.1, 10.0])
    @pytest.mark.parametrize("classes, encoding", [(2, "pm1"), (10, "onehot")],
                             ids=["d_out_1", "d_out_10"])
    def test_squared_loss_matches_closed_form(self, lam, classes, encoding):
        # c09's kernel-ridge form on N = 400, one step of iterative refinement
        # taking the oracle's own error well below the bound
        ds = make_blobs(400 // classes, classes, d_in=10, seed=3, encoding=encoding)
        kernel = analytic_ntk(AnalyticNtkSpec(hidden_layers=3, d_out=ds.d_out), ds.features)
        cfg = RiskConfig(lam=lam, loss=SQUARED)
        state = fit_outputs(kernel, ds, cfg)
        a = kernel.sigma / ds.n + lam * np.eye(ds.n)
        b = (kernel.sigma / ds.n) @ ds.targets
        oracle = np.linalg.solve(a, b)
        oracle += np.linalg.solve(a, b - a @ oracle)
        rel = np.linalg.norm(state.f_train - oracle.ravel()) / np.linalg.norm(oracle)
        assert rel <= 1e-12 and 1 <= state.epoch <= 2, (rel, state.epoch)

    @pytest.mark.parametrize("lam", [1e-4, 1e-3, 0.1])
    def test_cross_entropy_matches_dense_newton(self, lam):
        ds = make_blobs(20, 3, d_in=4, seed=14)
        kernel = analytic_ntk(AnalyticNtkSpec(hidden_layers=2, d_out=3), ds.features)
        cfg = RiskConfig(lam=lam, loss=CROSS_ENTROPY)
        state = fit_outputs(kernel, ds, cfg)
        grad = loss_grad_batch(CROSS_ENTROPY, state.f_train.reshape(ds.n, 3), ds.targets)
        stationarity = kernel.matvec(grad.ravel() / ds.n) + lam * state.f_train
        assert state.residual <= 1e-12 and np.linalg.norm(stationarity) <= 1e-12
        want = dense_newton(kernel.sigma, ds, cfg)
        assert np.linalg.norm(state.f_train - want) <= 1e-10 * np.linalg.norm(want)

    def test_step_cap_raises(self, monkeypatch):
        ds = make_blobs(10, 3, d_in=4, seed=15)
        kernel = analytic_ntk(AnalyticNtkSpec(hidden_layers=1, d_out=3), ds.features)
        cfg = RiskConfig(lam=0.1, loss=CROSS_ENTROPY)
        assert fit_outputs(kernel, ds, cfg).epoch > 1
        monkeypatch.setattr(infinite, "NEWTON_MAX_STEPS", 1)
        with pytest.raises(NotConverged, match="after 1 steps"):
            fit_outputs(kernel, ds, cfg)

    @pytest.mark.parametrize("loss, classes, lam", [(SQUARED, 2, 0.1), (SQUARED, 10, 1e-4),
                                                    (CROSS_ENTROPY, 3, 0.1)])
    def test_one_gradient_product_per_iterate(self, monkeypatch, loss, classes, lam):
        # outside CG: K r at the start, then per step K delta and K r at the
        # trial, which (at full steps) becomes the next iterate
        counts = {"matvec": 0, "cg": 0}
        matvec, solve = KernelMatrix.matvec, infinite.cg_solve

        def counted_matvec(self, v):
            counts["matvec"] += 1
            return matvec(self, v)

        def counted_solve(apply_a, *args):
            def apply(v):
                counts["cg"] += 1
                return apply_a(v)
            return solve(apply, *args)
        monkeypatch.setattr(KernelMatrix, "matvec", counted_matvec)
        monkeypatch.setattr(infinite, "cg_solve", counted_solve)
        ds = make_blobs(200 // classes, classes, d_in=10, seed=3,
                        encoding="pm1" if classes == 2 else "onehot")
        kernel = analytic_ntk(AnalyticNtkSpec(hidden_layers=3, d_out=ds.d_out), ds.features)
        state = fit_outputs(kernel, ds, RiskConfig(lam=lam, loss=loss))
        assert state.epoch >= 2 and counts["matvec"] - counts["cg"] == 1 + 2 * state.epoch

    def test_inner_cg_cap_raises(self, monkeypatch):
        ds = make_blobs(10, 3, d_in=4, seed=15)
        kernel = analytic_ntk(AnalyticNtkSpec(hidden_layers=1, d_out=3), ds.features)
        monkeypatch.setattr(infinite, "FIT_MAX_ITERS", 1)
        with pytest.raises(NotConverged, match="CG residual .* after 1 iterations"):
            fit_outputs(kernel, ds, RiskConfig(lam=0.1, loss=CROSS_ENTROPY))

    def test_zero_residual_returns_at_once(self, monkeypatch):
        # f = 0 is the optimum for zero targets; no step is taken, even with
        # a step cap of 0
        monkeypatch.setattr(infinite, "NEWTON_MAX_STEPS", 0)
        k = KernelMatrix(2, sigma=np.eye(4) + 0.3)
        state = fit_outputs(k, raw_targets_ds(np.zeros((4, 2))), RiskConfig(lam=0.2))
        assert state.epoch == 0 and state.residual == 0.0
        np.testing.assert_array_equal(state.f_train, np.zeros(8))


class TestKgd:
    def test_zero_targets_fixed_point(self):
        ds = raw_targets_ds(np.zeros((4, 1)))
        k = KernelMatrix(1, sigma=np.eye(4) + 0.3)
        cfg = RiskConfig(lam=0.2, loss=SQUARED)
        state = kgd_train(k, ds, cfg, epochs=50, tol=None)
        np.testing.assert_array_equal(state.f_train, np.zeros(4))
        assert state.residual == 0.0

    def test_closed_form_fixed_point(self):
        rng = np.random.default_rng(3)
        sigma = rng.standard_normal((8, 8))
        sigma = sigma @ sigma.T / 8 + np.eye(8)
        k = KernelMatrix(1, sigma=sigma)
        y = rng.choice([-1.0, 1.0], size=(8, 1))
        ds = raw_targets_ds(y)
        cfg = RiskConfig(lam=0.3, loss=SQUARED)
        state = kgd_train(k, ds, cfg, epochs=100000, tol=1e-12)
        oracle = np.linalg.solve(sigma / 8 + cfg.lam * np.eye(8), sigma / 8 @ y.ravel())
        assert np.linalg.norm(state.f_train - oracle) / np.linalg.norm(oracle) < 1e-6

    def test_missed_tol_raises(self):
        sigma = np.array([[2.0, 0.5, 0.1], [0.5, 1.5, 0.3], [0.1, 0.3, 1.0]])
        ds = raw_targets_ds(np.array([[1.0], [-1.0], [1.0]]))
        k = KernelMatrix(1, sigma=sigma)
        cfg = RiskConfig(lam=0.4, loss=SQUARED)
        with pytest.raises(NotConverged):
            kgd_train(k, ds, cfg, epochs=2, tol=1e-10)
        state = kgd_train(k, ds, cfg, epochs=2, tol=None)
        assert state.epoch == 2 and state.residual > 1e-10

    def test_one_epoch_matches_hand_loops(self):
        # term-by-term check of the update direction on a 3-point instance
        sigma = np.array([[2.0, 0.5, 0.1], [0.5, 1.5, 0.3], [0.1, 0.3, 1.0]])
        y = np.array([[1.0], [-1.0], [1.0]])
        cfg = RiskConfig(lam=0.4, loss=SQUARED)
        k = KernelMatrix(1, sigma=sigma)
        lr = stable_kgd_lr(k, 3, cfg)
        state = kgd_train(k, raw_targets_ds(y), cfg, epochs=1, tol=None)
        f_hand = np.zeros(3)
        for i in range(3):
            s = 0.0
            for j in range(3):
                s += sigma[i, j] * (0.0 - y[j, 0]) / 3.0
            s += cfg.lam * (0.0 - 0.0)
            f_hand[i] = 0.0 - lr * s
        np.testing.assert_allclose(state.f_train, f_hand, rtol=1e-14)

    def test_loss_monotone_under_stable_lr(self):
        rng = np.random.default_rng(4)
        sigma = rng.standard_normal((10, 10))
        sigma = sigma @ sigma.T / 10 + 0.5 * np.eye(10)
        k = KernelMatrix(1, sigma=sigma)
        y = rng.choice([-1.0, 1.0], size=(10, 1))
        cfg = RiskConfig(lam=0.2, loss=SQUARED)
        state = kgd_train(k, raw_targets_ds(y), cfg, epochs=500, tol=None)
        assert np.all(np.diff(state.loss_history) <= 1e-12)


class TestStableLr:
    @staticmethod
    def eig_lr(mat, n, cfg):
        h_max = 0.5 if cfg.loss == CROSS_ENTROPY else 1.0
        return 1.8 / (h_max * np.linalg.eigvalsh(mat).max() / n + cfg.lam)

    @pytest.mark.parametrize("loss", [SQUARED, CROSS_ENTROPY])
    def test_analytic_kernel_matches_eigvalsh(self, loss):
        ds = make_blobs(50, 4, d_in=8, seed=13)
        kernel = analytic_ntk(AnalyticNtkSpec(hidden_layers=3, d_out=4), ds.features)
        cfg = RiskConfig(lam=0.1, loss=loss)
        assert stable_kgd_lr(kernel, ds.n, cfg) == pytest.approx(
            self.eig_lr(kernel.sigma, ds.n, cfg), rel=1e-12)

    def test_close_top_eigenvalues_match_eigvalsh(self):
        # power iteration converges as (lam_2 / lam_1)^2k; at 0.9 its stop
        # rule still leaves the step within 1e-12
        rng = np.random.default_rng(21)
        q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        sigma = (q * np.concatenate([[2.0, 1.8], rng.uniform(0.1, 1.0, 8)])) @ q.T
        sigma = (sigma + sigma.T) / 2
        cfg = RiskConfig(lam=0.1, loss=SQUARED)
        assert stable_kgd_lr(KernelMatrix(1, sigma=sigma), 10, cfg) == pytest.approx(
            self.eig_lr(sigma, 10, cfg), rel=1e-12)

    def test_iteration_cap_raises(self, monkeypatch):
        sigma = np.diag([2.0, 1.8, 1.0])
        monkeypatch.setattr(infinite, "POWER_MAX_ITERS", 3)
        with pytest.raises(NotConverged, match="after 3 products"):
            stable_kgd_lr(KernelMatrix(1, sigma=sigma), 3, RiskConfig(lam=0.1))

    def test_zero_kernel_gives_regularizer_bound(self):
        # sigma q = 0 ends the iteration at lam_max = 0 instead of dividing by 0
        cfg = RiskConfig(lam=0.5, loss=SQUARED)
        assert stable_kgd_lr(KernelMatrix(2, sigma=np.zeros((3, 3))), 3, cfg) == 1.8 / 0.5

    def test_dense_kernel_raises(self):
        k = KernelMatrix(2, dense=np.eye(6))
        cfg = RiskConfig(lam=0.1, loss=SQUARED)
        with pytest.raises(ValueError, match="Kronecker"):
            stable_kgd_lr(k, 3, cfg)
        with pytest.raises(ValueError, match="Kronecker"):
            kgd_train(k, raw_targets_ds(np.ones((3, 2))), cfg)

    def test_non_finite_kernel_diverges(self):
        sigma = np.eye(300)
        sigma[3, 3] = np.nan
        cfg = RiskConfig(lam=0.1, loss=SQUARED)
        assert np.isnan(stable_kgd_lr(KernelMatrix(1, sigma=sigma), 300, cfg))
        with pytest.raises(DivergenceDetected):
            kgd_train(KernelMatrix(1, sigma=sigma), raw_targets_ds(np.ones((300, 1))), cfg)


class TestInfinitePredict:
    def test_zero_alpha(self):
        k = KernelMatrix(2, sigma=np.ones((3, 5)))
        np.testing.assert_array_equal(infinite_predict(k, np.zeros(10)), np.zeros((3, 2)))

    def test_single_point_closed_form(self):
        # one training point, squared loss: f = k y / (k + lam), a = y/(k + lam)
        sigma = np.array([[1.7]])
        k = KernelMatrix(1, sigma=sigma)
        y = np.array([[1.0]])
        cfg = RiskConfig(lam=0.3, loss=SQUARED)
        state = kgd_train(k, raw_targets_ds(y), cfg, epochs=100000, tol=1e-13)
        f_expect = 1.7 / (1.7 + 0.3)
        assert state.f_train[0] == pytest.approx(f_expect, abs=1e-10)
        from kinfluence.dual import alpha_star_from_outputs
        a = alpha_star_from_outputs(state.f_train, raw_targets_ds(y), cfg)
        assert a[0] == pytest.approx(1.0 / (1.7 + 0.3), abs=1e-10)
        pred = infinite_predict(k, a)
        assert pred[0, 0] == pytest.approx(f_expect, abs=1e-9)

    def test_training_inputs_self_consistent(self):
        spec = AnalyticNtkSpec(hidden_layers=2)
        ds = make_blobs(10, 2, d_in=3, seed=5, encoding="pm1")
        k = analytic_ntk(spec, ds.features)
        cfg = RiskConfig(lam=0.2, loss=SQUARED)
        state = kgd_train(k, ds, cfg, epochs=100000, tol=1e-10)
        from kinfluence.dual import alpha_star_from_outputs
        a = alpha_star_from_outputs(state.f_train, ds, cfg)
        pred = infinite_predict(k, a).ravel()
        assert np.linalg.norm(pred - state.f_train) / np.linalg.norm(state.f_train) < 1e-8


class TestInfiniteInfluence:
    def setup_instance(self, seed=6, n_per_class=20):
        spec = AnalyticNtkSpec(hidden_layers=3)
        ds = make_blobs(n_per_class, 2, d_in=4, seed=seed, encoding="pm1")
        split = split_forget(ds, 50.0, scope="all", seed=seed + 1)
        test = make_blobs(5, 2, d_in=4, seed=seed + 50, encoding="pm1")
        cfg = RiskConfig(lam=0.1, loss=SQUARED)
        return spec, split, test, cfg

    def test_estimates_match_actuals_quadratic(self):
        spec, split, test, cfg = self.setup_instance()
        res = infinite_influence(spec, split, test, cfg)
        np.testing.assert_allclose(res.est_output, res.act_output, atol=5e-7)
        r = np.corrcoef(res.est_loss_raw, res.act_loss)[0, 1]
        assert r > 0.99

    def test_not_converged_raises(self, monkeypatch):
        # a step cap of 1 stops the cross-entropy fit, which takes more steps
        split = split_forget(make_blobs(10, 2, d_in=4, seed=7), 50.0, scope="all", seed=8)
        test = make_blobs(2, 2, d_in=4, seed=57)
        monkeypatch.setattr(infinite, "NEWTON_MAX_STEPS", 1)
        with pytest.raises(NotConverged):
            infinite_influence(AnalyticNtkSpec(hidden_layers=3, d_out=2), split, test,
                               RiskConfig(lam=0.1, loss=CROSS_ENTROPY))

    def test_zero_residual_point_changes_tiny(self):
        # craft the first point's target so its training residual is exactly 0
        # (f_j is affine in y_j under squared loss, so one linear solve finds
        # the fixed point); removal then only rescales the loss/regularizer
        # balance by N/(N-1), so changes are O(1/N) rather than literally 0
        spec = AnalyticNtkSpec(hidden_layers=2)
        rng = np.random.default_rng(8)
        n = 24
        feats = rng.uniform(0, 1, size=(n, 3))
        k = analytic_ntk(spec, feats).sigma
        lam = 0.25
        solve = np.linalg.solve(k / n + lam * np.eye(n), k / n)
        y = rng.choice([-1.0, 1.0], size=n)
        # f_0(y_0) = m y_0 + c from the closed form; fixed point y_0 = c/(1-m)
        m = solve[0, 0]
        c = solve[0] @ y - m * y[0]
        y_star = c / (1.0 - m)
        y[0] = y_star
        f = solve @ y
        assert abs(f[0] - y[0]) < 1e-10

        # build the split by hand: forget = {0} already first
        from kinfluence.datasets import SplitDataset

        class _Raw(SimpleNamespace):
            def take(self, idx, name=None):
                return _Raw(features=self.features[idx], targets=self.targets[idx],
                            labels=self.labels[idx], n=len(idx),
                            d_in=self.features.shape[1], d_out=self.targets.shape[1],
                            name="raw")

        raw = _Raw(features=feats, targets=y[:, None], labels=np.zeros(n, dtype=int),
                   n=n, d_in=3, d_out=1, name="raw")
        split0 = SplitDataset(raw, 1)
        test = _Raw(features=rng.uniform(0, 1, size=(4, 3)),
                    targets=rng.choice([-1.0, 1.0], size=(4, 1)),
                    labels=np.zeros(4, dtype=int), n=4, d_in=3, d_out=1, name="t")
        cfg = RiskConfig(lam=lam, loss=SQUARED)
        res0 = infinite_influence(spec, split0, test, cfg)

        # compare with removing the highest-residual point instead
        resid = np.abs(f - y)
        j = int(np.argmax(resid))
        order = np.concatenate([[j], [i for i in range(n) if i != j]])
        raw_j = raw.take(order)
        split_j = SplitDataset(raw_j, 1)
        res_j = infinite_influence(spec, split_j, test, cfg)

        scale0 = np.abs(res0.act_output).max()
        scale_j = np.abs(res_j.act_output).max()
        assert scale0 < 0.1 * scale_j
        np.testing.assert_allclose(res0.est_output, res0.act_output, atol=1e-8)

    def test_kron_equals_dense_expansion(self):
        # running the solve with sigma (x) I against the expanded kernel
        spec = AnalyticNtkSpec(hidden_layers=2, d_out=3)
        rng = np.random.default_rng(9)
        feats = rng.uniform(0, 1, size=(9, 4))
        labels = rng.integers(0, 3, size=9)
        targets = np.eye(3)[labels]
        ds = LabeledDataset(feats, targets, labels)
        split = split_forget(ds, 33.0, scope="all", seed=1)
        cfg = RiskConfig(lam=0.2, loss=SQUARED)
        kron = analytic_ntk(spec, split.full.features)
        dense = KernelMatrix(3, dense=kron.to_dense())
        from kinfluence.dual import DualUnlearner
        f = np.zeros(27)
        state = kgd_train(kron, split.full, cfg, epochs=100000, tol=1e-12)
        a = DualUnlearner(kron, state.f_train, split, cfg).solve()
        b = DualUnlearner(dense, state.f_train, split, cfg).solve()
        assert np.max(np.abs(a.delta_alpha - b.delta_alpha)) <= 1e-12
