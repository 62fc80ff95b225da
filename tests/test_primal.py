"""Theta-space influence against retraining and dense-Hessian oracles."""

import numpy as np
import pytest

from kinfluence.datasets import LabeledDataset, make_blobs, split_forget
from kinfluence.errors import DegenerateSplit
from kinfluence.losses import CROSS_ENTROPY, SQUARED, loss_grad_batch
from kinfluence.models import LinearizedModel, ModelSpec, model_outputs, stacked_jacobian
from kinfluence.primal import (
    HESSIAN_FULL,
    HESSIAN_UPWEIGHTED,
    PrimalUnlearner,
    attach_test_predictions,
    predict_changes_primal,
    removal_system,
)
from kinfluence.report import InfluenceReport
from kinfluence.solvers import CgOptions
from kinfluence.training import RiskConfig, fit_linearized_exact


def quadratic_instance(seed=0, widths=(5, 24, 2), n_per_class=12, lam=0.3, percent=30.0):
    spec = ModelSpec(widths, init_seed=seed)
    lin = LinearizedModel(spec, spec.init_params())
    ds = make_blobs(n_per_class, widths[-1], d_in=widths[0], seed=seed)
    cfg = RiskConfig(lam=lam, loss=SQUARED)
    split = split_forget(ds, percent, scope="all", seed=seed + 1)
    theta_star = fit_linearized_exact(lin, split.full, cfg)
    return spec, lin, split, cfg, theta_star


def dense_hessian(spec, lin, ds, cfg):
    """Oracle: the squared-loss risk Hessian over ``ds``, (1/|ds|) J'J + lam*I,
    with explicit J."""
    jac = stacked_jacobian(spec, lin.theta_ref, ds.features)
    return jac.T @ jac / ds.n + cfg.lam * np.eye(spec.num_params)


class TestHessianOperator:
    def test_empty_forget_rejected(self):
        spec, lin, split, cfg, theta = quadratic_instance()
        bad = type(split)(split.full, split.forget_count)  # fine
        with pytest.raises(DegenerateSplit):
            split_forget(split.full, 0.01, scope="all", seed=0)  # rounds to 0 forget rows

    def test_matches_scaled_retain_dense_oracle(self):
        spec, lin, split, cfg, theta = quadratic_instance()
        op, _ = removal_system(lin, theta, split, cfg)
        h = dense_hessian(spec, lin, split.retain, cfg)
        rng = np.random.default_rng(0)
        for _ in range(4):
            v = rng.standard_normal(spec.num_params)
            np.testing.assert_allclose(op(v), h @ v, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("variant", [HESSIAN_UPWEIGHTED, HESSIAN_FULL])
    def test_rhs_is_scaled_forget_gradient(self, variant):
        # g = (|Df|/|set of H|) * ((1/|Df|) J_f'(f_f - y_f) + lam (theta - theta_ref))
        spec, lin, split, cfg, theta = quadratic_instance(seed=2)
        _, g = removal_system(lin, theta, split, cfg, variant)
        jac_f = stacked_jacobian(spec, lin.theta_ref, split.forget.features)
        f_f = jac_f @ (theta - lin.theta_ref) + model_outputs(spec, lin.theta_ref,
                                                             split.forget.features).ravel()
        grad_f = (jac_f.T @ (f_f - split.forget.targets.ravel()) / split.n_forget
                  + cfg.lam * (theta - lin.theta_ref))
        n_set = split.n_retain if variant == HESSIAN_UPWEIGHTED else split.n
        oracle = (split.n_forget / n_set) * grad_f
        assert np.linalg.norm(g - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_difference_form_identity(self):
        # (|Dr|/|D|) H_up v == full-data Hessian v - (|Df|/|D|) forget Hessian v to 1e-12
        spec, lin, split, cfg, theta = quadratic_instance(seed=3)
        op, _ = removal_system(lin, theta, split, cfg)
        jac_all = stacked_jacobian(spec, lin.theta_ref, split.full.features)
        jac_f = stacked_jacobian(spec, lin.theta_ref, split.forget.features)
        h_all = jac_all.T @ jac_all / split.n + cfg.lam * np.eye(spec.num_params)
        h_f = jac_f.T @ jac_f / split.n_forget + cfg.lam * np.eye(spec.num_params)
        h_diff = (split.n / split.n_retain) * (h_all - (split.n_forget / split.n) * h_f)
        v = np.random.default_rng(1).standard_normal(spec.num_params)
        scale = np.linalg.norm(h_diff @ v)
        assert np.linalg.norm(op(v) - h_diff @ v) <= 1e-12 * scale

    def test_null_direction_gets_lambda_only(self):
        spec, lin, split, cfg, theta = quadratic_instance(seed=4, widths=(4, 30, 2),
                                                          n_per_class=4)
        jac = stacked_jacobian(spec, lin.theta_ref, split.full.features)
        _, _, vt = np.linalg.svd(jac, full_matrices=True)
        null = vt[-1]
        assert np.linalg.norm(jac @ null) < 1e-8
        for variant in (HESSIAN_FULL, HESSIAN_UPWEIGHTED):
            op, _ = removal_system(lin, theta, split, cfg, variant)
            np.testing.assert_allclose(op(null), cfg.lam * null, atol=1e-10)

    def test_linearity(self):
        spec, lin, split, cfg, theta = quadratic_instance(seed=5)
        op, _ = removal_system(lin, theta, split, cfg)
        rng = np.random.default_rng(2)
        u, v = rng.standard_normal((2, spec.num_params))
        a, b = 0.7, -1.3
        lhs = op(a * u + b * v)
        rhs = a * op(u) + b * op(v)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1e-12)


class TestInfluence:
    def test_zero_rhs_gives_zero(self):
        # a reference model that interpolates the +-1 targets exactly makes
        # theta* = theta_ref stationary for every subset and zeroes the rhs
        spec = ModelSpec((2, 1), activation="identity", bias=False)
        theta_ref = np.array([2.0, -2.0])
        lin = LinearizedModel(spec, theta_ref)
        feats = np.array([[0.5, 0.0], [0.0, 0.5]] * 6)
        targets = np.array([[1.0], [-1.0]] * 6)
        labels = (targets[:, 0] > 0).astype(int)
        ds = LabeledDataset(feats, targets, labels)
        np.testing.assert_allclose(model_outputs(spec, theta_ref, feats), targets)
        cfg = RiskConfig(lam=0.2, loss=SQUARED)  # reference-centered: reg term 0 at theta_ref
        split = split_forget(ds, 25.0, scope="all", seed=1)
        res = PrimalUnlearner(lin, theta_ref, split, cfg).solve()
        np.testing.assert_allclose(res.x, 0.0, atol=1e-12)

    def test_ridge_refit_closed_form(self):
        # linear model: influence step must equal the exact ridge refit on Dr
        spec = ModelSpec((4, 1), activation="identity", bias=False)
        lin = LinearizedModel(spec, np.zeros(4))
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, size=(20, 4))
        y = np.where(x.sum(axis=1) > 2.0, 1.0, -1.0)[:, None]
        ds = LabeledDataset(x, y, (y[:, 0] > 0).astype(int))
        cfg = RiskConfig(lam=0.4, loss=SQUARED, center="origin")
        split = split_forget(ds, 30.0, scope="all", seed=2)
        theta_star = fit_linearized_exact(lin, split.full, cfg)
        res = PrimalUnlearner(lin, theta_star, split, cfg,
                              CgOptions(rel_tol=1e-13, max_iters=1000)).solve()
        # oracle: closed-form ridge on the retain rows
        xr, yr = split.retain.features, split.retain.targets[:, 0]
        nr = xr.shape[0]
        refit = np.linalg.solve(xr.T @ xr / nr + cfg.lam * np.eye(4), xr.T @ yr / nr)
        got = theta_star + res.x
        assert np.linalg.norm(got - refit) / np.linalg.norm(refit) < 1e-8

    def test_quadratic_exactness_vs_retraining(self):
        spec, lin, split, cfg, theta_star = quadratic_instance(seed=8)
        opts = CgOptions(rel_tol=1e-12, max_iters=4000)
        res = PrimalUnlearner(lin, theta_star, split, cfg, opts).solve()
        retrained = fit_linearized_exact(lin, split.retain, cfg)
        got = theta_star + res.x
        rel = np.linalg.norm(got - retrained) / np.linalg.norm(retrained)
        assert rel < 1e-8

    def test_cg_matches_dense_solve(self):
        spec, lin, split, cfg, theta_star = quadratic_instance(seed=9, widths=(4, 16, 2),
                                                               n_per_class=8)
        op, rhs = removal_system(lin, theta_star, split, cfg)
        h = dense_hessian(spec, lin, split.retain, cfg)
        oracle = np.linalg.solve(h, rhs)
        from kinfluence.solvers import cg_solve
        res = cg_solve(op, rhs, CgOptions(rel_tol=1e-13, max_iters=4000))
        assert np.linalg.norm(res.x - oracle) / np.linalg.norm(oracle) < 1e-8

    def test_not_at_optimum_warning(self):
        spec, lin, split, cfg, theta_star = quadratic_instance(seed=10)
        unlearner = PrimalUnlearner(lin, theta_star + 0.5, split, cfg,
                                    CgOptions(rel_tol=1e-8, max_iters=2000))
        unlearner.solve()
        assert any("NotAtOptimum" in note for note in unlearner.notes)

    def test_full_variant_close_for_small_forget(self):
        spec, lin, split, cfg, theta_star = quadratic_instance(seed=11, percent=10.0)
        opts = CgOptions(rel_tol=1e-12, max_iters=4000)
        up = PrimalUnlearner(lin, theta_star, split, cfg, opts).solve()
        full = PrimalUnlearner(lin, theta_star, split, cfg, opts, variant=HESSIAN_FULL).solve()
        rel = np.linalg.norm(up.x - full.x) / np.linalg.norm(up.x)
        assert 0 < rel < 0.5  # close but not identical


def held_out(d_in, d_out, seed, n=6):
    return make_blobs(n // d_out, d_out, d_in=d_in, seed=seed)


class TestPredictors:
    def test_zero_delta(self):
        spec, lin, split, cfg, theta_star = quadratic_instance(seed=12)
        test = held_out(5, 2, seed=30)
        df, raw, reg = predict_changes_primal(lin, theta_star, np.zeros(spec.num_params),
                                              test, cfg)
        np.testing.assert_array_equal(df, np.zeros((test.n, 2)))
        np.testing.assert_array_equal(raw, 0.0)
        np.testing.assert_array_equal(reg, 0.0)

    def test_affine_exactness_on_linearized(self):
        spec, lin, split, cfg, theta_star = quadratic_instance(seed=13)
        delta = PrimalUnlearner(lin, theta_star, split, cfg,
                                CgOptions(rel_tol=1e-12, max_iters=4000)).solve().x
        test = held_out(5, 2, seed=31)
        df, _, _ = predict_changes_primal(lin, theta_star, delta, test, cfg)
        exact = (model_outputs(lin, theta_star + delta, test.features)
                 - model_outputs(lin, theta_star, test.features))
        np.testing.assert_allclose(df, exact, rtol=1e-9, atol=1e-12)

    def test_first_order_shrinkage_nonlinear(self):
        spec = ModelSpec((4, 64, 2), init_seed=14)
        theta = spec.init_params()
        rng = np.random.default_rng(4)
        delta = rng.standard_normal(spec.num_params)
        delta /= np.linalg.norm(delta)
        test = held_out(4, 2, seed=32)
        cfg = RiskConfig(lam=0.1, loss=SQUARED, center="origin")
        errs = []
        for scale in (1e-2, 1e-3):
            pred, _, _ = predict_changes_primal(spec, theta, scale * delta, test, cfg)
            actual = (model_outputs(spec, theta + scale * delta, test.features)
                      - model_outputs(spec, theta, test.features))
            errs.append(np.linalg.norm(pred - actual) / np.linalg.norm(actual))
        assert errs[1] < errs[0]  # relative error shrinks with the step

    @pytest.mark.parametrize("loss", [SQUARED, CROSS_ENTROPY])
    @pytest.mark.parametrize("linearized", [True, False], ids=["linearized", "raw"])
    def test_batch_matches_explicit_oracles(self, loss, linearized):
        spec = ModelSpec((5, 24, 3), init_seed=15)
        theta_ref = spec.init_params()
        rng = np.random.default_rng(5)
        theta_star = theta_ref + 0.1 * rng.standard_normal(spec.num_params)
        delta = rng.standard_normal(spec.num_params)
        model = LinearizedModel(spec, theta_ref) if linearized else spec
        cfg = RiskConfig(lam=0.3, loss=loss)
        test = held_out(5, 3, seed=33, n=6)
        assert test.n >= 5
        df, raw, reg = predict_changes_primal(model, theta_star, delta, test, cfg)

        at = theta_ref if linearized else theta_star
        df_oracle = (stacked_jacobian(spec, at, test.features) @ delta).reshape(test.n, 3)
        np.testing.assert_allclose(df, df_oracle, rtol=1e-12, atol=1e-12)
        g_t = loss_grad_batch(loss, model_outputs(model, theta_star, test.features),
                              test.targets)
        raw_oracle = np.array([g_t[i] @ df_oracle[i] for i in range(test.n)])
        np.testing.assert_allclose(raw, raw_oracle, rtol=1e-12, atol=1e-12)
        reg_term = cfg.lam * (theta_star - theta_ref) @ delta
        np.testing.assert_allclose(reg, raw_oracle + reg_term, rtol=1e-12, atol=1e-12)

    def test_attach_appends_one_change_per_point(self):
        spec, lin, split, cfg, theta_star = quadratic_instance(seed=16)
        delta = np.random.default_rng(6).standard_normal(spec.num_params)
        test = held_out(5, 2, seed=34)
        report = InfluenceReport(delta_theta=delta, residual=0.0, iters=0)
        attach_test_predictions(report, lin, theta_star, test, cfg)
        df, raw, reg = predict_changes_primal(lin, theta_star, delta, test, cfg)
        assert len(report.per_test) == test.n
        for i, change in enumerate(report.per_test):
            np.testing.assert_array_equal(change.output_change, df[i])
            assert (change.loss_change_raw, change.loss_change_reg) == (raw[i], reg[i])


class TestBaselineRegime:
    def test_ten_percent_removal_beats_matched_noise_tenfold(self):
        # width-256 linearized net, N=200, 10% removed: the influence answer
        # sits at least an order of magnitude closer to the retrained model
        # than equal-norm random noise
        spec = ModelSpec((12, 256, 2), init_seed=21)
        lin = LinearizedModel(spec, spec.init_params())
        ds = make_blobs(100, 2, d_in=12, seed=21)
        cfg = RiskConfig(lam=0.1, loss=SQUARED)
        split = split_forget(ds, 10.0, scope="all", seed=22)
        theta_hat = fit_linearized_exact(lin, split.full, cfg)
        retrained = fit_linearized_exact(lin, split.retain, cfg)
        res = PrimalUnlearner(lin, theta_hat, split, cfg,
                              CgOptions(rel_tol=1e-10, max_iters=20000)).solve()
        rel = np.linalg.norm(theta_hat + res.x - retrained)
        rng = np.random.default_rng(23)
        radius = np.linalg.norm(theta_hat - retrained)
        noise = rng.standard_normal(spec.num_params)
        noise *= radius / np.linalg.norm(noise)
        baseline = np.linalg.norm(theta_hat + noise - retrained)
        assert rel * 10 < baseline
