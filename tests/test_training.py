"""Risk derivatives and trainers against closed-form and FD oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from kinfluence import models, training
from kinfluence.datasets import make_blobs, split_forget
from kinfluence.dual import map_to_params
from kinfluence.errors import DivergenceDetected, NonFiniteEncountered, NotConverged, SpdViolation
from kinfluence.kernels import KernelMatrix, empirical_ntk
from kinfluence.losses import CROSS_ENTROPY, SQUARED, loss_grad_batch, loss_hess_batch
from kinfluence.models import (
    LinearizedModel,
    ModelSpec,
    model_outputs,
    stacked_jacobian,
)
from kinfluence.primal import PrimalUnlearner
from kinfluence.solvers import CgOptions
from kinfluence.training import (
    Optimizer,
    RiskConfig,
    StopRule,
    fit_linearized_exact,
    risk_grad,
    risk_hessian_op,
    risk_value,
    risk_value_and_grad,
    train,
)


def small_lin(seed=0, widths=(4, 12, 2), n=16):
    spec = ModelSpec(widths, init_seed=seed)
    lin = LinearizedModel(spec, spec.init_params())
    ds = make_blobs(n // 2, 2, d_in=widths[0], seed=seed)
    return spec, lin, ds


class TestRiskValue:
    def test_regularizer_only(self):
        # zero-weight net, zero targets... squared loss on one-hot targets is
        # nonzero, so use the lambda term isolation: theta = 0 makes the loss
        # part constant and the lambda part 0; shifting theta adds exactly
        # (lam/2)||theta||^2 for an identity-free direction.
        spec = ModelSpec((3, 2), activation="identity", bias=False, init_seed=1)
        lin = LinearizedModel(spec, np.zeros(spec.num_params))
        ds = make_blobs(8, 2, d_in=3, seed=0)
        cfg = RiskConfig(lam=0.5, loss=SQUARED, center="origin")
        base = risk_value(lin, np.zeros(spec.num_params), ds, cfg)
        loss_part = 0.5 * np.sum(ds.targets ** 2, axis=1).mean()
        assert base == pytest.approx(loss_part, rel=1e-12)
        # pure-regularizer instance: targets equal the zero outputs
        ds0 = make_blobs(8, 2, d_in=3, seed=0)
        theta = np.full(spec.num_params, 0.3)
        got = risk_value(lin, theta, ds0, cfg) - risk_value(lin, np.zeros_like(theta), ds0, cfg)
        jac = stacked_jacobian(spec, np.zeros_like(theta), ds0.features)
        # remove the loss-change part computed independently
        f = (jac @ theta).reshape(ds0.n, 2)
        loss_change = (0.5 * np.sum((f - ds0.targets) ** 2, axis=1)
                       - 0.5 * np.sum(ds0.targets ** 2, axis=1)).mean()
        assert got - loss_change == pytest.approx(0.5 * cfg.lam * np.sum(theta ** 2), rel=1e-10)

    @pytest.mark.parametrize("kind", [SQUARED, CROSS_ENTROPY])
    def test_grad_finite_differences(self, kind):
        spec, lin, ds = small_lin(3)
        if kind == CROSS_ENTROPY:
            cfg = RiskConfig(lam=0.2, loss=kind)
        else:
            cfg = RiskConfig(lam=0.2, loss=kind)
        rng = np.random.default_rng(0)
        theta = lin.theta_ref + 0.1 * rng.standard_normal(spec.num_params)
        grad = risk_grad(lin, theta, ds, cfg)
        d = rng.standard_normal(spec.num_params)
        d /= np.linalg.norm(d)
        h = 1e-6
        fd = (risk_value(lin, theta + h * d, ds, cfg) - risk_value(lin, theta - h * d, ds, cfg)) / (2 * h)
        assert abs(grad @ d - fd) / max(abs(fd), 1e-12) < 1e-6

    def test_grad_at_trained_optimum_small(self):
        spec, lin, ds = small_lin(4)
        cfg = RiskConfig(lam=0.3, loss=SQUARED)
        theta = fit_linearized_exact(lin, ds, cfg)
        assert np.linalg.norm(risk_grad(lin, theta, ds, cfg)) < 1e-9


class TestRawNetworkCenter:
    def test_grad_regularizes_toward_initialization(self):
        # oracle: materialized J at theta; the raw risk's center is the
        # spec's own initialization, so the regularizer gradient is lam * v
        spec = ModelSpec((4, 12, 3), init_seed=3)
        ds = make_blobs(5, 3, d_in=4, seed=3)
        cfg = RiskConfig(lam=0.3, loss=CROSS_ENTROPY)
        v = 0.1 * np.random.default_rng(0).standard_normal(spec.num_params)
        theta = spec.init_params() + v
        jac = stacked_jacobian(spec, theta, ds.features)
        g_out = loss_grad_batch(cfg.loss, model_outputs(spec, theta, ds.features), ds.targets)
        oracle = jac.T @ g_out.ravel() / ds.n + cfg.lam * v
        grad = risk_grad(spec, theta, ds, cfg)
        assert np.linalg.norm(grad - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_training_draws_the_initialization_once(self, monkeypatch):
        calls = []
        real = ModelSpec.init_params

        def counting(self):
            calls.append(1)
            return real(self)
        monkeypatch.setattr(ModelSpec, "init_params", counting)
        ds = make_blobs(4, 2, d_in=3, seed=0)
        counts = []
        for epochs in (5, 50):
            calls.clear()
            spec = ModelSpec((3, 8, 2), init_seed=1)
            rep = train(spec, ds, RiskConfig(lam=0.1), Optimizer("gd", lr=0.05),
                        StopRule(epochs, 0.0))
            assert len(rep.grad_norm_history) == epochs
            counts.append(len(calls))
        assert counts[0] == counts[1] == 1
        assert not spec.theta_init.flags.writeable


class TestHvp:
    def test_zero_direction(self):
        spec, lin, ds = small_lin(5)
        cfg = RiskConfig(lam=0.1)
        np.testing.assert_array_equal(
            risk_hessian_op(lin, lin.theta_ref, ds, cfg)(np.zeros(spec.num_params)),
            np.zeros(spec.num_params),
        )

    @pytest.mark.parametrize("model_kind,activation,parameterization,bias,loss",
                             itertools.product(("linearized", "raw"), ("relu", "identity"),
                                               ("standard", "ntk"), (True, False),
                                               (SQUARED, CROSS_ENTROPY)),
                             ids=lambda v: ("bias" if v else "no_bias") if isinstance(v, bool) else v)
    def test_matches_explicit_gram(self, model_kind, activation, parameterization, bias, loss):
        # oracle: materialize J and form (1/N) J'BJ + lam I explicitly; the
        # linearized model is evaluated off its reference point, the raw
        # network away from its initialization (Gauss-Newton form at theta)
        spec = ModelSpec((4, 12, 7, 3), activation=activation, init_seed=6,
                         parameterization=parameterization, bias=bias)
        theta_ref = spec.init_params()
        ds = make_blobs(6, 3, d_in=4, seed=6)
        cfg = RiskConfig(lam=0.25, loss=loss)
        rng = np.random.default_rng(1)
        theta = theta_ref + 0.1 * rng.standard_normal(spec.num_params)
        linearized = model_kind == "linearized"
        at = theta_ref if linearized else theta
        jac = stacked_jacobian(spec, at, ds.features)
        f = model_outputs(spec, at, ds.features).ravel()
        if linearized:
            f += jac @ (theta - theta_ref)
        b = scipy.linalg.block_diag(*loss_hess_batch(loss, f.reshape(ds.n, 3), ds.targets))
        h = jac.T @ b @ jac / ds.n + cfg.lam * np.eye(spec.num_params)
        model = LinearizedModel(spec, theta_ref) if linearized else spec
        op = risk_hessian_op(model, theta, ds, cfg)
        for _ in range(5):
            v = rng.standard_normal(spec.num_params)
            assert np.linalg.norm(op(v) - h @ v) <= 1e-12 * np.linalg.norm(h @ v)

    def test_symmetry(self):
        spec, lin, ds = small_lin(7)
        cfg = RiskConfig(lam=0.15, loss=CROSS_ENTROPY)
        rng = np.random.default_rng(2)
        theta = lin.theta_ref + 0.05 * rng.standard_normal(spec.num_params)
        for _ in range(20):
            u = rng.standard_normal(spec.num_params)
            v = rng.standard_normal(spec.num_params)
            a = u @ risk_hessian_op(lin, theta, ds, cfg)(v)
            b = v @ risk_hessian_op(lin, theta, ds, cfg)(u)
            assert abs(a - b) / max(abs(a), 1e-300) < 1e-10

    def test_strict_convexity_floor(self):
        # min eigenvalue of the linearized risk Hessian >= lam (1 - 1e-10)
        spec, lin, ds = small_lin(8, widths=(3, 6, 2), n=10)
        cfg = RiskConfig(lam=0.4, loss=SQUARED)
        op = risk_hessian_op(lin, lin.theta_ref, ds, cfg)
        cols = [op(e) for e in np.eye(spec.num_params)]
        eig = np.linalg.eigvalsh(np.array(cols))
        assert eig.min() >= cfg.lam * (1 - 1e-10)

    @pytest.mark.parametrize("linearized", [True, False])
    def test_operator_does_not_alias_theta(self, linearized):
        # writing to the theta the operator was built from leaves its products
        spec, lin, ds = small_lin(9)
        cfg = RiskConfig(lam=0.2, loss=CROSS_ENTROPY)
        rng = np.random.default_rng(3)
        theta = lin.theta_ref + 0.1 * rng.standard_normal(spec.num_params)
        op = risk_hessian_op(lin if linearized else spec, theta, ds, cfg)
        v = rng.standard_normal(spec.num_params)
        before = op(v)
        theta *= -2.0
        assert np.array_equal(op(v), before)


@pytest.fixture
def forward_calls(monkeypatch):
    """Counts the network forward passes run through the models module."""
    calls = []
    real = models._forward_cache

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(models, "_forward_cache", counting)
    return calls


class TestForwardPassOnce:
    def test_hessian_operator(self, forward_calls):
        spec, lin, ds = small_lin(10)
        op = risk_hessian_op(lin, lin.theta_ref + 0.01, ds, RiskConfig(lam=0.1))
        assert len(forward_calls) == 1
        for _ in range(3):
            op(np.ones(spec.num_params))
        assert len(forward_calls) == 1

    def test_primal_solve_after_prepare(self, forward_calls):
        spec, lin, ds = small_lin(11)
        cfg = RiskConfig(lam=0.1)
        split = split_forget(ds, 25.0, scope="all", seed=0)
        unl = PrimalUnlearner(lin, fit_linearized_exact(lin, split.full, cfg), split, cfg,
                              CgOptions(rel_tol=1e-10))
        unl.prepare()
        forward_calls.clear()
        assert unl.solve().iters > 0
        assert len(forward_calls) == 0

    def test_linear_forward_and_risk_gradient(self, forward_calls):
        spec, lin, ds = small_lin(12)
        theta = lin.theta_ref + 0.01
        model_outputs(lin, theta, ds.features)
        assert len(forward_calls) == 1
        forward_calls.clear()
        risk_value_and_grad(lin, theta, ds, RiskConfig(lam=0.1))
        assert len(forward_calls) == 0  # the model remembers the pass on ds

    def test_repeated_map_to_params_runs_one_pass(self, forward_calls):
        spec, lin, ds = small_lin(13)
        delta = np.random.default_rng(0).standard_normal(ds.n * ds.d_out)
        model_outputs(lin, lin.theta_ref, ds.features)
        answers = [map_to_params(lin, lin.theta_ref, delta, ds.features) for _ in range(5)]
        assert len(forward_calls) == 1
        for theta_u in answers[1:]:
            assert np.array_equal(theta_u, answers[0])

    def test_writes_to_callers_inputs_are_seen(self):
        spec, lin, ds = small_lin(14)
        X = ds.features.copy()
        u = np.random.default_rng(1).standard_normal(ds.n * ds.d_out)
        v = np.random.default_rng(2).standard_normal(spec.num_params)
        lin.linearization(X)
        X[3] += 0.5
        X[0, 1] = -2.0
        lz, fresh = lin.linearization(X), models.Linearization(spec, lin.theta_ref, X.copy())
        assert np.array_equal(lz.outputs, fresh.outputs)
        assert np.array_equal(lz.vjp(u), fresh.vjp(u))
        assert np.array_equal(lz.jvp(v), fresh.jvp(v))
        assert np.array_equal(model_outputs(lin, lin.theta_ref + 0.01, X),
                              model_outputs(LinearizedModel(spec, lin.theta_ref),
                                            lin.theta_ref + 0.01, X))

    def test_remembered_state_is_read_only(self):
        spec, lin, ds = small_lin(15)
        out = model_outputs(lin, lin.theta_ref, ds.features)
        before = out.copy()
        with pytest.raises(ValueError):
            out[0, 0] = 1e3
        with pytest.raises(ValueError):
            out.ravel()[0] = 1e3
        with pytest.raises(ValueError):
            lin.theta_ref[0] = 1e3
        assert np.array_equal(model_outputs(lin, lin.theta_ref, ds.features), before)

    def test_theta_ref_is_copied_when_writeable(self):
        spec = ModelSpec((4, 12, 2), init_seed=16)
        theta = spec.init_params()
        lin = LinearizedModel(spec, theta)
        theta[:] = 0.0
        assert np.array_equal(lin.theta_ref, spec.init_params())
        assert LinearizedModel(spec, spec.theta_init).theta_ref is spec.theta_init
        view = theta[:]
        view.flags.writeable = False
        lin = LinearizedModel(spec, view)
        theta[:] = 1.0
        assert not lin.theta_ref.any()

    def test_raw_network_runs_one_pass_per_call(self, forward_calls):
        spec, _lin, ds = small_lin(17)
        theta = spec.theta_init
        for _ in range(3):
            model_outputs(spec, theta, ds.features)
            risk_value_and_grad(spec, theta, ds, RiskConfig(lam=0.1))
        assert len(forward_calls) == 6


class TestTrain:
    def test_one_dim_ridge_closed_form(self):
        # linear 1-d model, one point: min (1/2)(t x - y)^2 + (lam/2) t^2
        # => t* = x y / (x^2 + lam)
        spec = ModelSpec((1, 1), activation="identity", bias=False)
        lin = LinearizedModel(spec, np.zeros(1))
        x, y = 0.8, 1.0
        from kinfluence.datasets import LabeledDataset
        ds = LabeledDataset(np.array([[x]]), np.array([[y]]), np.array([1]))
        cfg = RiskConfig(lam=0.5, loss=SQUARED, center="origin")
        rep = train(lin, ds, cfg, Optimizer("gd", lr=0.5), StopRule(20000, 1e-14))
        t_star = x * y / (x ** 2 + cfg.lam)
        assert rep.final_params[0] == pytest.approx(t_star, abs=1e-10)

    def test_divergence_above_stability_bound(self):
        spec = ModelSpec((1, 1), activation="identity", bias=False)
        lin = LinearizedModel(spec, np.zeros(1))
        from kinfluence.datasets import LabeledDataset
        ds = LabeledDataset(np.array([[1.0]]), np.array([[1.0]]), np.array([1]))
        cfg = RiskConfig(lam=1.0, loss=SQUARED, center="origin")
        # curvature L = x^2 + lam = 2 -> lr above 2/L = 1 diverges
        with pytest.raises(DivergenceDetected):
            train(lin, ds, cfg, Optimizer("gd", lr=2.5), StopRule(5000, 0.0))

    def test_stronger_regularization_converges_faster(self):
        # width-256 scalar net: final grad norm under lam=1e1 beats lam=1e-3.
        # Features are shrunk so lr=0.1 sits below the stability bound even
        # with the lam=1e1 curvature floor.
        from kinfluence.datasets import LabeledDataset
        spec = ModelSpec((6, 256, 1), init_seed=0)
        raw = make_blobs(40, 2, d_in=6, seed=1, encoding="pm1")
        ds = LabeledDataset(raw.features * 0.2, raw.targets, raw.labels, raw.name)
        finals = {}
        for lam in (1e-3, 1e1):
            cfg = RiskConfig(lam=lam, loss=SQUARED, center="reference")
            rep = train(spec, ds, cfg, Optimizer("gd", lr=0.1), StopRule(800, 0.0))
            finals[lam] = rep.grad_norm_history[-1]
        assert finals[1e1] < finals[1e-3]

    def test_grad_norm_tail_nonincreasing_quadratic(self):
        spec, lin, ds = small_lin(9)
        cfg = RiskConfig(lam=0.2, loss=SQUARED)
        rep = train(lin, ds, cfg, Optimizer("gd", lr=0.05), StopRule(400, 0.0))
        tail = rep.grad_norm_history[-40:]
        assert np.all(np.diff(tail) <= 1e-14)

    def test_momentum_reaches_lower_grad_than_epochs_budget_gd(self):
        spec, lin, ds = small_lin(10)
        cfg = RiskConfig(lam=0.05, loss=SQUARED)
        gd = train(lin, ds, cfg, Optimizer("gd", lr=0.02), StopRule(150, 0.0))
        mom = train(lin, ds, cfg, Optimizer("momentum", lr=0.02, beta=0.9), StopRule(150, 0.0))
        assert mom.grad_norm_history[-1] < gd.grad_norm_history[-1]

    @pytest.mark.parametrize("linearized", [True, False], ids=["linearized", "raw"])
    def test_gd_is_the_plain_gradient_step(self, linearized):
        # heavy ball at beta = 0 takes exactly theta - lr g, bit for bit
        spec, lin, ds = small_lin(12)
        model = lin if linearized else spec
        cfg, lr = RiskConfig(lam=0.1, loss=CROSS_ENTROPY), 0.3
        theta, gnorms = spec.init_params().copy(), []
        for _ in range(50):
            grad = risk_grad(model, theta, ds, cfg)
            gnorms.append(np.linalg.norm(grad))
            theta = theta - lr * grad
        rep = train(model, ds, cfg, Optimizer("gd", lr=lr, beta=0.9), StopRule(51, 0.0))
        np.testing.assert_array_equal(rep.final_params, theta)
        np.testing.assert_array_equal(rep.grad_norm_history[:50], gnorms)

    @pytest.mark.parametrize("kind", ["gd", "momentum"])
    def test_exhausted_run_returns_its_last_measured_iterate(self, kind):
        # the history ends with the gradient norm of the returned parameters
        spec, lin, ds = small_lin(13)
        cfg = RiskConfig(lam=0.1)
        rep = train(spec, ds, cfg, Optimizer(kind, lr=0.05), StopRule(30, 0.0))
        assert len(rep.grad_norm_history) == 30
        final = risk_grad(spec, rep.final_params, ds, cfg)
        assert np.linalg.norm(final) == rep.grad_norm_history[-1]

    def test_stops_at_the_first_iterate_within_grad_tol(self):
        spec, lin, ds = small_lin(14)
        cfg = RiskConfig(lam=0.2)
        full = train(lin, ds, cfg, Optimizer("gd", lr=0.05), StopRule(400, 0.0))
        tol = full.grad_norm_history[99]
        rep = train(lin, ds, cfg, Optimizer("gd", lr=0.05), StopRule(400, tol))
        assert len(rep.grad_norm_history) == 1 + np.argmax(full.grad_norm_history <= tol)
        np.testing.assert_array_equal(rep.grad_norm_history,
                                      full.grad_norm_history[:len(rep.grad_norm_history)])

    def test_deterministic(self):
        spec, lin, ds = small_lin(11)
        cfg = RiskConfig(lam=0.1, loss=CROSS_ENTROPY)
        a = train(lin, ds, cfg, Optimizer("gd", lr=0.1), StopRule(50, 0.0))
        b = train(lin, ds, cfg, Optimizer("gd", lr=0.1), StopRule(50, 0.0))
        np.testing.assert_array_equal(a.final_params, b.final_params)


class TestExactFit:
    @pytest.mark.parametrize("d_out", [1, 3], ids=["d_out1", "d_out3"])
    @pytest.mark.parametrize("center, at_init", [("reference", True), ("origin", False),
                                                  ("origin", True)],
                             ids=["reference", "origin", "origin_at_init"])
    @pytest.mark.parametrize("parameterization", ["standard", "ntk"])
    @pytest.mark.parametrize("hidden", [(12,), (12, 7)], ids=["one_hidden", "two_hidden"])
    def test_matches_normal_equations_oracle(self, hidden, parameterization, center, at_init,
                                             d_out):
        # oracle: dense primal normal equations on materialized J, solved by
        # LAPACK; it shares no code with the fit's CG. The model is expanded
        # at the initialization or at 0, and the regularizer pulls toward the
        # center c, so at theta_ref its gradient is lambda (theta_ref - c).
        spec = ModelSpec((4, *hidden, d_out), parameterization=parameterization, init_seed=12)
        theta_ref = spec.init_params() if at_init else np.zeros(spec.num_params)
        center_vec = theta_ref if center == "reference" else np.zeros(spec.num_params)
        lin = LinearizedModel(spec, theta_ref)
        ds = (make_blobs(8, 2, d_in=4, seed=12, encoding="pm1") if d_out == 1
              else make_blobs(6, d_out, d_in=4, seed=12))
        cfg = RiskConfig(lam=0.3, loss=SQUARED, center=center)
        theta = fit_linearized_exact(lin, ds, cfg)
        jac = stacked_jacobian(spec, theta_ref, ds.features)
        f0 = model_outputs(spec, theta_ref, ds.features).ravel()
        lhs = jac.T @ jac / ds.n + cfg.lam * np.eye(spec.num_params)
        rhs = -jac.T @ (f0 - ds.targets_vec) / ds.n - cfg.lam * (theta_ref - center_vec)
        u = np.linalg.solve(lhs, rhs)
        np.testing.assert_allclose(theta, theta_ref + u, rtol=1e-8, atol=1e-10)

    def test_leaves_callers_kernel_unchanged(self):
        spec, lin, ds = small_lin(15)
        cfg = RiskConfig(lam=0.3, loss=SQUARED)
        kernel = empirical_ntk(spec, lin.theta_ref, ds.features)
        before = kernel.dense.copy()
        theta = fit_linearized_exact(lin, ds, cfg, kernel=kernel)
        np.testing.assert_array_equal(kernel.dense, before)
        np.testing.assert_allclose(theta, fit_linearized_exact(lin, ds, cfg), rtol=1e-12)

    def test_train_to_convergence_agrees(self):
        spec, lin, ds = small_lin(13, widths=(3, 8, 2), n=10)
        cfg = RiskConfig(lam=0.5, loss=SQUARED)
        exact = fit_linearized_exact(lin, ds, cfg)
        rep = train(lin, ds, cfg, Optimizer("gd", lr=0.05), StopRule(60000, 1e-12))
        rel = np.linalg.norm(rep.final_params - exact) / np.linalg.norm(exact)
        assert rel < 1e-8

    def test_rejects_cross_entropy(self):
        spec, lin, ds = small_lin(14)
        with pytest.raises(ValueError):
            fit_linearized_exact(lin, ds, RiskConfig(lam=0.1, loss=CROSS_ENTROPY))

    @pytest.mark.parametrize("fill, error", [(np.nan, NonFiniteEncountered),
                                             (-10.0, SpdViolation)], ids=["nan", "negative"])
    def test_non_finite_or_indefinite_kernel_raises_numerical_error(self, fill, error):
        spec, lin, ds = small_lin(16)
        side = ds.n * ds.d_out
        dense = np.full((side, side), np.nan) if np.isnan(fill) else fill * np.eye(side)
        with pytest.raises(error):
            fit_linearized_exact(lin, ds, RiskConfig(lam=0.3, loss=SQUARED),
                                 kernel=KernelMatrix(ds.d_out, dense=dense))

    def test_indefinite_kernel_off_its_kronecker_part_raises_spd_violation(self):
        # sigma = 0 passes the preconditioner's check; CG meets p'Ap <= 0
        spec, lin, ds = small_lin(16)
        side = ds.n * ds.d_out
        dense = np.zeros((side, side))
        dense[0, 1] = dense[1, 0] = 100.0
        with pytest.raises(SpdViolation):
            fit_linearized_exact(lin, ds, RiskConfig(lam=0.3, loss=SQUARED),
                                 kernel=KernelMatrix(ds.d_out, dense=dense))

    def test_missed_tolerance_raises_not_converged(self, monkeypatch):
        spec, lin, ds = small_lin(18)
        monkeypatch.setattr(training, "FIT_MAX_ITERS", 2)
        with pytest.raises(NotConverged):
            fit_linearized_exact(lin, ds, RiskConfig(lam=0.3, loss=SQUARED))

    def test_kronecker_kernel_takes_one_iteration(self, monkeypatch):
        # the preconditioner is the exact inverse of (lambda N I + sigma) (x) I
        spec, lin, ds = small_lin(19)
        rng = np.random.default_rng(0)
        g = rng.standard_normal((ds.n, ds.n))
        kernel = KernelMatrix(ds.d_out, sigma=g @ g.T)
        monkeypatch.setattr(training, "FIT_MAX_ITERS", 1)
        cfg = RiskConfig(lam=0.3, loss=SQUARED)
        theta = fit_linearized_exact(lin, ds, cfg, kernel=kernel)
        lz = lin.linearization(ds.features)
        sys_ = kernel.to_dense() + cfg.lam * ds.n * np.eye(ds.n * ds.d_out)
        beta = np.linalg.solve(sys_, ds.targets_vec - lz.outputs.ravel())
        np.testing.assert_allclose(theta, lin.theta_ref + lz.vjp(beta), rtol=1e-12, atol=1e-14)

    def test_allocates_no_kernel_copy(self):
        # many points, few parameters: the kernel dwarfs every other buffer
        spec = ModelSpec((4, 8, 3), init_seed=20)
        lin = LinearizedModel(spec, spec.init_params())
        ds = make_blobs(100, 3, d_in=4, seed=20)
        kernel = empirical_ntk(spec, lin.theta_ref, ds.features)
        cfg = RiskConfig(lam=0.3, loss=SQUARED)
        lin.linearization(ds.features)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fit_linearized_exact(lin, ds, cfg, kernel=kernel)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * kernel.dense.nbytes

    @pytest.mark.parametrize("hidden, d_out", [((12,), 2), ((12, 7), 3)],
                             ids=["one_hidden", "two_hidden"])
    def test_kernel_free_fit_equals_assembled_kernel_fit(self, monkeypatch, hidden, d_out):
        # the implicit kernel (one VJP and one JVP per matvec, sigma from the
        # layer factors) runs the same preconditioned CG as a stored kernel
        iters = []

        def counted(*args, _cg=training.cg_solve):
            res = _cg(*args)
            iters.append(res.iters)
            return res
        monkeypatch.setattr(training, "cg_solve", counted)
        spec = ModelSpec((4, *hidden, d_out), init_seed=21)
        lin = LinearizedModel(spec, spec.init_params())
        ds = make_blobs(6, d_out, d_in=4, seed=21)
        cfg = RiskConfig(lam=0.3, loss=SQUARED)
        given = fit_linearized_exact(lin, ds, cfg,
                                     kernel=empirical_ntk(spec, lin.theta_ref, ds.features))
        implicit = fit_linearized_exact(lin, ds, cfg)
        assert np.linalg.norm(implicit - given) <= 1e-12 * np.linalg.norm(given)
        assert abs(iters[0] - iters[1]) <= 1

    def test_kernel_free_fit_allocates_no_kernel(self):
        # test_allocates_no_kernel_copy's instance with no kernel given: the
        # largest buffers are point-side, N x N each, 1/d_out^2 of the kernel;
        # three live at once (sigma, its eigenvectors scaled in place, the
        # preconditioner; inside eigh, its working copy of sigma)
        spec = ModelSpec((4, 8, 3), init_seed=20)
        lin = LinearizedModel(spec, spec.init_params())
        ds = make_blobs(100, 3, d_in=4, seed=20)
        cfg = RiskConfig(lam=0.3, loss=SQUARED)
        lin.linearization(ds.features)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fit_linearized_exact(lin, ds, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * ds.n ** 2 * 8

    def test_non_finite_reference_outputs_raise(self):
        spec, lin, ds = small_lin(17)
        kernel = empirical_ntk(spec, lin.theta_ref, ds.features)
        huge = LinearizedModel(spec, np.full(spec.num_params, 1e200))  # outputs overflow
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteEncountered):
            fit_linearized_exact(huge, ds, RiskConfig(lam=0.3, loss=SQUARED), kernel=kernel)
