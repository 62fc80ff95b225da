"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Every tolerance is pinned here; the expensive fixtures (the
width-256 quadratic instance and the overparameterized benchmark run) are
shared across the criteria that reuse them.
"""

import contextlib
import os
import time

import numpy as np
import pytest

from kinfluence.datasets import make_blobs, split_forget
from kinfluence.dual import (
    DualUnlearner,
    map_to_params,
    predict_changes_dual,
)
from kinfluence.experiments import (
    config_from_values,
    run_lambda_sweep,
    run_unlearning_experiment,
)
from kinfluence.infinite import AnalyticNtkSpec, analytic_ntk, infinite_influence, kgd_train
from kinfluence.kernels import empirical_ntk, even_shards, sharded_matvec
from kinfluence.losses import SQUARED, loss_grad_batch
from kinfluence.models import (
    LinearizedModel,
    ModelSpec,
    model_outputs,
    stacked_jacobian,
)
from kinfluence.primal import PrimalUnlearner
from kinfluence.solvers import CgOptions
from kinfluence.training import RiskConfig, fit_linearized_exact, risk_grad, risk_hessian_op


@contextlib.contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:2d} FAIL — {title}")
        raise
    print(f"ACCEPTANCE {num:2d} PASS — {title}")


# --------------------------------------------------------------------------
# Shared instances
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def quad_instance():
    """Width-256 linearized FCNN, d_out=2, N=200 blobs, squared, lam=1e-1,
    30% removed. Shared by criteria 1-3."""
    t0 = time.perf_counter()
    spec = ModelSpec((12, 256, 256, 256, 2), init_seed=0)
    lin = LinearizedModel(spec, spec.init_params())
    ds = make_blobs(100, 2, d_in=12, seed=0)
    split = split_forget(ds, 30.0, scope="all", seed=1)
    cfg = RiskConfig(lam=0.1, loss=SQUARED)
    kernel = empirical_ntk(spec, lin.theta_ref, split.full.features)
    theta_hat = fit_linearized_exact(lin, split.full, cfg, kernel=kernel)
    retain_idx = np.arange(split.n_forget, split.n)
    retrained = fit_linearized_exact(lin, split.retain, cfg,
                                     kernel=kernel.submatrix(retain_idx, retain_idx))
    unlearner = PrimalUnlearner(lin, theta_hat, split, cfg,
                                CgOptions(rel_tol=1e-10, max_iters=20000))
    unlearner.prepare()
    primal = unlearner.solve()
    setup_seconds = time.perf_counter() - t0
    return dict(spec=spec, lin=lin, split=split, cfg=cfg, kernel=kernel,
                theta_hat=theta_hat, retrained=retrained, primal=primal,
                setup_seconds=setup_seconds)


BENCH_VALUES = {
    "experiment.name": "fig1_regime",
    "dataset.per_class": "40", "dataset.classes": "0,1,2,3,4,5,6,7,8,9",
    "dataset.d_in": "400", "dataset.noise": "0.12", "dataset.feature_scale": "0.3",
    "model.widths": "400,1024,10",
    "risk.lambda": "0.5", "risk.loss": "squared",
    "unlearn.percents": "10,30,50,70,90", "unlearn.space": "both",
    "cg.rel_tol": "1e-8", "cg.max_iters": "20000",
    "bench.cold": "subprocess", "bench.test_size": "10",
    "seeds": "0",
}


@pytest.fixture(scope="module")
def bench_rows(tmp_path_factory):
    """Overparameterized benchmark (d_theta = 420874 >= 100 d_out N = 400000),
    all five removal percents, cold starts in fresh processes."""
    out = str(tmp_path_factory.mktemp("bench"))
    cfg = config_from_values({**BENCH_VALUES, "out": out})
    spec = ModelSpec(cfg.widths)
    assert spec.num_params >= 100 * 10 * 400
    return run_unlearning_experiment(cfg)


# --------------------------------------------------------------------------
# Criteria
# --------------------------------------------------------------------------

class TestAcceptance:
    def test_c01_quadratic_exactness(self, quad_instance):
        with criterion(1, "theta-space influence equals retraining on the quadratic instance"):
            q = quad_instance
            theta_u = q["theta_hat"] + q["primal"].x
            rel = np.linalg.norm(theta_u - q["retrained"]) / np.linalg.norm(q["retrained"])
            assert rel < 1e-6, f"rel l2 {rel:.3e}"
            assert q["setup_seconds"] < 60.0, f"took {q['setup_seconds']:.1f}s"

    def test_c02_primal_dual_equivalence(self, quad_instance):
        with criterion(2, "primal and coefficient-space estimates agree; subspace residual small"):
            q = quad_instance
            lin, split, cfg = q["lin"], q["split"], q["cfg"]
            f_vec = model_outputs(lin, q["theta_hat"], split.full.features).ravel()
            coeffs = DualUnlearner(q["kernel"], f_vec, split, cfg,
                                   CgOptions(rel_tol=1e-10, max_iters=20000)).solve()
            theta_dual = map_to_params(lin, q["theta_hat"], coeffs.delta_alpha,
                                       split.full.features)
            dp = q["primal"].x
            rel = np.linalg.norm((theta_dual - q["theta_hat"]) - dp) / np.linalg.norm(dp)
            assert rel < 1e-6, f"primal-dual rel {rel:.3e}"
            w = q["retrained"] - q["theta_hat"]
            jac = stacked_jacobian(q["spec"], lin.theta_ref, split.full.features)
            coef, *_ = np.linalg.lstsq(jac.T, w, rcond=None)
            resid = np.linalg.norm(jac.T @ coef - w) / np.linalg.norm(w)
            assert resid < 1e-6, f"subspace residual {resid:.3e}"

    def test_c03_reduced_system_correctness(self, quad_instance):
        with criterion(3, "reduced solve equals the unreduced system; forget block exact"):
            q = quad_instance
            lin, split, cfg, kernel = q["lin"], q["split"], q["cfg"], q["kernel"]
            n, d = split.n, 2
            nf, nr = split.n_forget, split.n_retain
            f_vec = model_outputs(lin, q["theta_hat"], split.full.features).ravel()
            coeffs = DualUnlearner(kernel, f_vec, split, cfg,
                                   CgOptions(rel_tol=1e-12, max_iters=20000)).solve()
            # dense unreduced oracle
            k = kernel.to_dense()
            f = f_vec.reshape(n, d)
            g = loss_grad_batch(cfg.loss, f, split.full.targets)
            alpha = -(g.ravel() / n) / cfg.lam
            bmat = np.zeros((nr * d, nr * d))
            for i in range(nr):
                bmat[i * d:(i + 1) * d, i * d:(i + 1) * d] = np.eye(d) / nr
            k_r = k[nf * d:, :]
            h_full = (nr / n) * (k_r.T @ bmat @ k_r + cfg.lam * k)
            rhs = (nf / n) * (k[:, :nf * d] @ (g[:nf].ravel() / nf) + cfg.lam * (k @ alpha))
            unreduced = np.linalg.solve(h_full, rhs)
            rel = (np.linalg.norm(coeffs.delta_alpha - unreduced)
                   / np.linalg.norm(unreduced))
            assert rel < 1e-8, f"reduced-vs-unreduced rel {rel:.3e}"
            known = g[:nf].ravel() / (n * cfg.lam)
            assert np.array_equal(coeffs.delta_alpha[:nf * d], known)

    @pytest.mark.parametrize("d_out", [1, 3])
    def test_c04_vectorization_identity(self, d_out):
        with criterion(4, f"vectorized loss changes equal the per-point loop (d_out={d_out})"):
            encoding = "pm1" if d_out == 1 else "onehot"
            n_classes = 2 if d_out == 1 else 3
            spec = ModelSpec((5, 48, d_out), init_seed=3 + d_out)
            lin = LinearizedModel(spec, spec.init_params())
            ds = make_blobs(30 // n_classes, n_classes, d_in=5, seed=4, encoding=encoding)
            split = split_forget(ds, 30.0, scope="all", seed=5)
            cfg = RiskConfig(lam=0.2, loss=SQUARED)
            kernel = empirical_ntk(spec, lin.theta_ref, split.full.features)
            theta_hat = fit_linearized_exact(lin, split.full, cfg, kernel=kernel)
            f_vec = model_outputs(lin, theta_hat, split.full.features).ravel()
            coeffs = DualUnlearner(kernel, f_vec, split, cfg).solve()
            test = make_blobs(10 // n_classes + 1, n_classes, d_in=5, seed=77,
                              encoding=encoding).take(np.arange(10))
            k_t = empirical_ntk(spec, lin.theta_ref, test.features, split.full.features)
            f_t = model_outputs(lin, theta_hat, test.features).ravel()
            _, _raw, reg = predict_changes_dual(k_t, kernel, coeffs, f_t, test.targets, cfg)
            kd = kernel.to_dense()
            ktd = k_t.to_dense()
            for t in range(10):
                g_t = loss_grad_batch(cfg.loss, f_t.reshape(-1, d_out)[t][None, :],
                                      test.targets[t][None, :])[0]
                grad0 = ktd[t * d_out:(t + 1) * d_out].T @ g_t + cfg.lam * (kd @ coeffs.alpha_star)
                loop = float(grad0 @ coeffs.delta_alpha)
                assert abs(loop - reg[t]) <= 1e-12 * max(1.0, abs(loop)), \
                    f"point {t}: {abs(loop - reg[t]):.2e}"

    def test_c05_benchmark_regime(self, bench_rows):
        with criterion(5, "coefficient space is faster warm and both methods track retraining"):
            by = {(r.percent, r.space): r for r in bench_rows}
            for percent in (10.0, 30.0, 50.0, 70.0, 90.0):
                theta_row = by[(percent, "theta")]
                dual_row = by[(percent, "dual")]
                assert dual_row.warm_runtime_mean_s < theta_row.warm_runtime_mean_s, (
                    f"p={percent}: dual {dual_row.warm_runtime_mean_s:.4f}s "
                    f">= theta {theta_row.warm_runtime_mean_s:.4f}s")
                for row in (theta_row, dual_row):
                    assert row.rel_l2 <= row.baseline_rel_l2 / 10.0, (
                        f"p={percent} {row.space}: rel {row.rel_l2:.2e} vs "
                        f"baseline {row.baseline_rel_l2:.2e}")
                    assert abs(row.forget_acc_unlearned - row.forget_acc_retrained) <= 0.02

    def test_c06_system_shrinkage(self, bench_rows):
        with criterion(6, "warm coefficient solve is faster at 90% removal than at 10%"):
            cfg = config_from_values({**BENCH_VALUES, "bench.cold": "skip",
                                      "out": "/tmp/unused_c6"})
            from kinfluence.experiments import _build_seed_context, _split_seed
            ctx = _build_seed_context(cfg, 0)
            medians = {}
            for percent in (10.0, 90.0):
                split = split_forget(ctx.train_ds, percent, scope="all",
                                     seed=_split_seed(0, percent))
                k_perm = ctx.kernel.submatrix(split.permutation, split.permutation)
                f_vec = model_outputs(ctx.model, ctx.theta_hat,
                                      split.full.features).ravel()
                solver = DualUnlearner(k_perm, f_vec, split, cfg.risk, cfg.cg)
                solver.prepare()
                times = []
                for _ in range(5):
                    t0 = time.perf_counter()
                    solver.solve()
                    times.append(time.perf_counter() - t0)
                medians[percent] = float(np.median(times))
            assert medians[90.0] < medians[10.0], f"{medians}"

    def test_c07_regularization_trends(self, tmp_path):
        with criterion(7, "stronger regularization tightens linearization and convergence"):
            vals = {
                "dataset.per_class": "100", "dataset.d_in": "10",
                "dataset.targets": "pm1", "dataset.feature_scale": "0.15",
                "dataset.noise": "0.12",
                "model.widths": "10,256,1", "risk.loss": "squared",
                "stop.max_epochs": "2000", "opt.lr": "0.1",
                "sweep.lambdas": "1e-3,1e-1,1e1",
                "bench.test_size": "100", "unlearn.percents": "50",
                "out": str(tmp_path),
            }
            res = run_lambda_sweep(config_from_values(vals), record_every=50)
            lams = sorted(res)
            dist = [res[l][-1, 1] for l in lams]
            gnorm_model = [res[l][-1, 5] for l in lams]
            gnorm_linear = [res[l][-1, 6] for l in lams]
            acc_model = [res[l][-1, 3] for l in lams]
            assert dist[0] >= dist[1] >= dist[2], f"param distance {dist}"
            assert gnorm_model[0] >= gnorm_model[1] >= gnorm_model[2], \
                f"model grad norms {gnorm_model}"
            assert gnorm_linear[0] >= gnorm_linear[1] >= gnorm_linear[2], \
                f"linearized grad norms {gnorm_linear}"
            assert acc_model[2] <= acc_model[0], f"accuracy {acc_model}"

    def test_c08_infinite_estimates_vs_actuals(self):
        with criterion(8, "infinite-width estimates track retrained actuals at 10 test points"):
            ds = make_blobs(200, 2, d_in=10, seed=3, encoding="pm1")
            test = make_blobs(5, 2, d_in=10, seed=53, encoding="pm1")
            assert test.n == 10
            split = split_forget(ds, 50.0, scope="all", seed=4)
            cfg = RiskConfig(lam=0.1, loss=SQUARED)
            spec = AnalyticNtkSpec(hidden_layers=3)
            res = infinite_influence(spec, split, test, cfg, tol=1e-6)
            assert res.diagnostics["kgd_residual_full"] < 1e-6
            assert res.diagnostics["kgd_residual_retain"] < 1e-6
            r_out = np.corrcoef(res.est_output.ravel(), res.act_output.ravel())[0, 1]
            r_loss = np.corrcoef(res.est_loss_raw, res.act_loss)[0, 1]
            assert r_out > 0.99, f"output pearson {r_out:.5f}"
            assert r_loss > 0.99, f"loss pearson {r_loss:.5f}"
            out_range = res.act_output.max() - res.act_output.min()
            loss_range = res.act_loss.max() - res.act_loss.min()
            out_err = np.abs(res.est_output - res.act_output).max()
            loss_err = np.abs(res.est_loss_raw - res.act_loss).max()
            assert out_err < 0.05 * out_range, f"out err {out_err:.3e} range {out_range:.3e}"
            assert loss_err < 0.05 * loss_range, f"loss err {loss_err:.3e} range {loss_range:.3e}"

    def test_c09_kgd_fixed_point(self):
        with criterion(9, "converged function state matches the closed-form stationary point"):
            ds = make_blobs(200, 2, d_in=10, seed=3, encoding="pm1")
            cfg = RiskConfig(lam=0.1, loss=SQUARED)
            spec = AnalyticNtkSpec(hidden_layers=3)
            kernel = analytic_ntk(spec, ds.features)
            state = kgd_train(kernel, ds, cfg, epochs=200000, tol=1e-9)
            oracle = np.linalg.solve(kernel.sigma / ds.n + cfg.lam * np.eye(ds.n),
                                     (kernel.sigma / ds.n) @ ds.targets_vec)
            rel = np.linalg.norm(state.f_train - oracle) / np.linalg.norm(oracle)
            assert rel < 1e-6, f"fixed-point rel {rel:.3e}"

    def test_c10_differential_suite(self):
        with criterion(10, "finite-difference checks and the wide-network kernel oracle"):
            rng = np.random.default_rng(0)
            # 100 seeded Jacobian directional checks (kink-avoiding draws)
            for case in range(100):
                spec = ModelSpec((4, 12, 2) if case % 2 else (5, 9, 3),
                                 activation="relu" if case % 3 else "identity",
                                 init_seed=case)
                theta = spec.init_params()
                for _ in range(5):
                    x = rng.uniform(0.1, 1.0, spec.d_in)
                    from kinfluence.models import _forward_cache
                    _, pres = _forward_cache(spec, theta, x[None, :])
                    if min(np.abs(z).min() for z in pres) > 1e-3:
                        break
                d = rng.standard_normal(spec.num_params)
                d /= np.linalg.norm(d)
                h = 1e-6
                fd = (model_outputs(spec, theta + h * d, x[None])[0]
                      - model_outputs(spec, theta - h * d, x[None])[0]) / (2 * h)
                jd = stacked_jacobian(spec, theta, x[None]) @ d
                rel = np.linalg.norm(jd - fd) / max(np.linalg.norm(fd), 1e-12)
                assert rel < 1e-6, f"jacobian case {case}: {rel:.2e}"
            # 100 seeded risk-gradient checks on linearized models (smooth in theta)
            from kinfluence.training import risk_value
            for case in range(100):
                spec = ModelSpec((4, 10, 2), init_seed=200 + case)
                lin = LinearizedModel(spec, spec.init_params())
                ds = make_blobs(6, 2, d_in=4, seed=case)
                loss = SQUARED if case % 2 else "cross_entropy"
                cfg = RiskConfig(lam=0.3, loss=loss)
                theta = lin.theta_ref + 0.1 * rng.standard_normal(spec.num_params)
                grad = risk_grad(lin, theta, ds, cfg)
                d = rng.standard_normal(spec.num_params)
                d /= np.linalg.norm(d)
                h = 1e-6
                fd = (risk_value(lin, theta + h * d, ds, cfg)
                      - risk_value(lin, theta - h * d, ds, cfg)) / (2 * h)
                assert abs(grad @ d - fd) / max(abs(fd), 1e-12) < 1e-6, f"grad case {case}"
            # 100 seeded HVP checks against gradient differences
            for case in range(100):
                spec = ModelSpec((4, 8, 2), init_seed=400 + case)
                lin = LinearizedModel(spec, spec.init_params())
                ds = make_blobs(5, 2, d_in=4, seed=1000 + case)
                cfg = RiskConfig(lam=0.2, loss=SQUARED)
                theta = lin.theta_ref + 0.05 * rng.standard_normal(spec.num_params)
                v = rng.standard_normal(spec.num_params)
                v /= np.linalg.norm(v)
                h = 1e-6
                fd = (risk_grad(lin, theta + h * v, ds, cfg)
                      - risk_grad(lin, theta - h * v, ds, cfg)) / (2 * h)
                hv = risk_hessian_op(lin, theta, ds, cfg)(v)
                rel = np.linalg.norm(hv - fd) / max(np.linalg.norm(fd), 1e-12)
                assert rel < 1e-6, f"hvp case {case}: {rel:.2e}"
            # analytic kernel vs a 20-seed width-8192 Monte-Carlo estimate
            probes = np.random.default_rng(1).uniform(0.3, 0.9, size=(5, 6))
            a_spec = AnalyticNtkSpec(hidden_layers=3, sigma_w2=2.0, sigma_b2=0.01)
            target = analytic_ntk(a_spec, probes).sigma
            acc = np.zeros_like(target)
            for seed in range(20):
                wide = ModelSpec((6, 8192, 8192, 8192, 1), parameterization="ntk",
                                 init_seed=seed, sigma_w2=2.0, sigma_b2=0.01)
                acc += empirical_ntk(wide, wide.init_params(), probes).dense
            mc = acc / 20
            rel = np.abs(mc - target) / np.abs(target)
            assert rel.max() < 0.02, f"monte-carlo kernel rel err {rel.max():.4f}"

    def test_c11_determinism_and_sharding(self, tmp_path):
        with criterion(11, "shard-count invariance and bit-identical experiment reruns"):
            spec = ModelSpec((6, 32, 2), init_seed=9)
            ds = make_blobs(30, 2, d_in=6, seed=9)
            kernel = empirical_ntk(spec, spec.init_params(), ds.features)
            v = np.random.default_rng(2).standard_normal(kernel.shape[1])
            results = [sharded_matvec(kernel.dense, v, even_shards(kernel.shape[0], c))[0]
                       for c in (1, 2, 4)]
            assert np.array_equal(results[0], results[1])
            assert np.array_equal(results[0], results[2])
            values = {
                "dataset.per_class": "20", "dataset.d_in": "6",
                "model.widths": "6,32,2", "risk.lambda": "0.2",
                "unlearn.percents": "30,70", "bench.cold": "inline",
                "bench.test_size": "6",
            }
            rows_a = run_unlearning_experiment(
                config_from_values({**values, "out": str(tmp_path / "a")}))
            rows_b = run_unlearning_experiment(
                config_from_values({**values, "out": str(tmp_path / "b")}))
            for ra, rb in zip(rows_a, rows_b):
                assert (ra.seed, ra.percent, ra.space) == (rb.seed, rb.percent, rb.space)
                assert ra.rel_l2 == rb.rel_l2
                assert ra.baseline_rel_l2 == rb.baseline_rel_l2
                assert ra.forget_acc_unlearned == rb.forget_acc_unlearned
                assert ra.forget_acc_retrained == rb.forget_acc_retrained
            for case in ("p30_theta", "p30_dual", "p70_theta", "p70_dual"):
                fa = (tmp_path / "a" / "seed_0" / case / "influence.csv").read_bytes()
                fb = (tmp_path / "b" / "seed_0" / case / "influence.csv").read_bytes()
                assert fa == fb, f"{case} influence outputs differ between reruns"
