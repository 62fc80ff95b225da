"""Analytic kernel recursion, function-space training, infinite-width influence."""

from types import SimpleNamespace

import numpy as np
import pytest

from kinfluence.datasets import LabeledDataset, make_blobs, split_forget
from kinfluence.errors import DivergenceDetected, NotConverged
from kinfluence.infinite import (
    AnalyticNtkSpec,
    analytic_ntk,
    infinite_influence,
    infinite_predict,
    kgd_train,
    stable_kgd_lr,
)
from kinfluence.kernels import KernelMatrix, empirical_ntk
from kinfluence.losses import SQUARED
from kinfluence.models import ModelSpec
from kinfluence.training import RiskConfig


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
        # x = x' keeps rho = 1 through every layer: the cross entry equals the
        # self kernel computed from the closed-form half-recursion
        spec = AnalyticNtkSpec(hidden_layers=4, sigma_w2=2.0, sigma_b2=0.1)
        x = np.array([[0.3, 0.9, 0.2]])
        sig = 2.0 * float(x[0] @ x[0]) / 3 + 0.1
        theta = sig
        for _ in range(4):
            sig_next = 2.0 * sig / 2 + 0.1
            theta = sig_next + (2.0 / 2) * theta  # sig_dot at rho=1 is sw2/2
            sig = sig_next
        k = analytic_ntk(spec, x)
        assert k.sigma[0, 0] == pytest.approx(theta, rel=1e-12)

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


class TestKgd:
    def test_zero_targets_fixed_point(self):
        ds = raw_targets_ds(np.zeros((4, 1)))
        k = KernelMatrix(1, sigma=np.eye(4) + 0.3)
        cfg = RiskConfig(lam=0.2, loss=SQUARED)
        state = kgd_train(k, ds, cfg, lr=0.1, epochs=50, tol=None)
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
        lr = 0.05
        state = kgd_train(KernelMatrix(1, sigma=sigma), raw_targets_ds(y),
                          cfg, lr=lr, epochs=1, tol=None)
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

    def test_divergence_detected_above_bound(self):
        sigma = 5.0 * np.eye(4)
        k = KernelMatrix(1, sigma=sigma)
        y = np.ones((4, 1))
        cfg = RiskConfig(lam=1.0, loss=SQUARED)
        unstable = 2.5 * stable_kgd_lr(k, 4, cfg, safety=2.0)
        with pytest.raises(DivergenceDetected):
            kgd_train(k, raw_targets_ds(y), cfg, lr=unstable, epochs=5000, tol=None)


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
        res = infinite_influence(spec, split, test, cfg, tol=1e-9)
        np.testing.assert_allclose(res.est_output, res.act_output, atol=5e-7)
        r = np.corrcoef(res.est_loss_raw, res.act_loss)[0, 1]
        assert r > 0.99

    def test_not_converged_raises(self):
        spec, split, test, cfg = self.setup_instance(seed=7)
        with pytest.raises(NotConverged):
            infinite_influence(spec, split, test, cfg, epochs=2, tol=1e-10)

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
        res0 = infinite_influence(spec, split0, test, cfg, tol=1e-11)

        # compare with removing the highest-residual point instead
        resid = np.abs(f - y)
        j = int(np.argmax(resid))
        order = np.concatenate([[j], [i for i in range(n) if i != j]])
        raw_j = raw.take(order)
        split_j = SplitDataset(raw_j, 1)
        res_j = infinite_influence(spec, split_j, test, cfg, tol=1e-11)

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
