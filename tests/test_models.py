"""Forward/Jacobian/JVP/VJP correctness against independent oracles."""

import numpy as np
import pytest

from kinfluence.errors import CheckpointMismatch, DimensionMismatch
from kinfluence.losses import (
    CROSS_ENTROPY,
    SQUARED,
    loss_grad_batch,
    loss_hess_batch,
    loss_value_batch,
)
from kinfluence.models import (
    Linearization,
    LinearizedModel,
    ModelSpec,
    load_params,
    model_outputs,
    save_params,
    stacked_jacobian,
)


def straight_line_forward(spec, theta, x):
    """Independent oracle: scalar loops, no shared code with the library."""
    off = 0
    a = [float(v) for v in x]
    widths = spec.layer_widths
    for layer in range(len(widths) - 1):
        w_in, w_out = widths[layer], widths[layer + 1]
        if spec.parameterization == "standard":
            sw, sb = 1.0, 1.0
        else:
            sw, sb = (spec.sigma_w2 / w_in) ** 0.5, spec.sigma_b2 ** 0.5
        z = []
        for j in range(w_out):
            s = 0.0
            for i in range(w_in):
                s += theta[off + j * w_in + i] * a[i]
            z.append(sw * s)
        off += w_in * w_out
        if spec.bias:
            for j in range(w_out):
                z[j] += sb * theta[off + j]
            off += w_out
        if layer < len(widths) - 2:
            if spec.activation == "relu":
                a = [max(v, 0.0) for v in z]
            else:
                a = z
        else:
            a = z
    return np.array(a)


def seeded_theta(spec, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(spec.num_params)


class TestForward:
    def test_identity_single_layer_is_matrix(self):
        spec = ModelSpec((3, 3), activation="identity", bias=False)
        theta = np.eye(3).ravel()
        x = np.array([0.3, -1.2, 2.0])
        np.testing.assert_array_equal(model_outputs(spec, theta, x[None])[0], x)

    def test_zero_weights_relu_output_zero(self):
        spec = ModelSpec((4, 8, 8, 2))
        theta = np.zeros(spec.num_params)
        np.testing.assert_array_equal(model_outputs(spec, theta, np.ones((1, 4)))[0], np.zeros(2))

    @pytest.mark.parametrize("param", ["standard", "ntk"])
    @pytest.mark.parametrize("act", ["relu", "identity"])
    def test_matches_straight_line_evaluator(self, act, param):
        spec = ModelSpec((5, 8, 3), activation=act, parameterization=param, init_seed=11)
        theta = spec.init_params() + 0.1 * seeded_theta(spec, 3)
        x = np.random.default_rng(4).standard_normal(5)
        np.testing.assert_allclose(
            model_outputs(spec, theta, x[None])[0], straight_line_forward(spec, theta, x),
            rtol=1e-13, atol=1e-13,
        )

    def test_dimension_mismatch(self):
        spec = ModelSpec((4, 2))
        with pytest.raises(DimensionMismatch):
            model_outputs(spec, np.zeros(spec.num_params), np.zeros((1, 5)))
        with pytest.raises(DimensionMismatch):
            model_outputs(spec, np.zeros(3), np.zeros((1, 4)))

    def test_param_count_formula(self):
        spec = ModelSpec((7, 5, 3))
        assert spec.num_params == (7 + 1) * 5 + (5 + 1) * 3


class TestJacobian:
    def test_linear_model_jacobian_is_input(self):
        spec = ModelSpec((4, 1), activation="identity", bias=False)
        x = np.array([1.0, -2.0, 0.5, 3.0])
        np.testing.assert_array_equal(stacked_jacobian(spec, np.zeros(4), x[None]), x[None, :])

    def test_directional_finite_difference(self):
        rng = np.random.default_rng(0)
        for case in range(20):
            spec = ModelSpec((4, 9, 3), activation="relu", init_seed=case)
            theta = spec.init_params()
            x = rng.standard_normal(4)
            d = rng.standard_normal(spec.num_params)
            d /= np.linalg.norm(d)
            h = 1e-6
            fd = (model_outputs(spec, theta + h * d, x[None])[0]
                  - model_outputs(spec, theta - h * d, x[None])[0]) / (2 * h)
            jd = stacked_jacobian(spec, theta, x[None]) @ d
            assert np.linalg.norm(jd - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-6

    def test_relu_kink_uses_zero_subgradient(self):
        # first hidden unit gets pre-activation exactly 0
        spec = ModelSpec((1, 1, 1), activation="relu", bias=True)
        theta = np.array([1.0, 0.0, 2.0, 0.5])  # W1=1, b1=0, W2=2, b2=0.5
        x = np.array([0.0])
        jac = stacked_jacobian(spec, theta, x[None])
        assert np.all(np.isfinite(jac))
        # d f / d b1 = W2 * relu'(0) = 0 under the fixed convention
        assert jac[0, 1] == 0.0

    def test_stacked_matches_per_row(self):
        spec = ModelSpec((3, 6, 2), init_seed=5)
        theta = spec.init_params()
        X = np.random.default_rng(1).standard_normal((4, 3))
        stack = stacked_jacobian(spec, theta, X)
        assert stack.shape == (8, spec.num_params)
        for i in range(4):
            np.testing.assert_allclose(
                stack[i * 2:(i + 1) * 2], stacked_jacobian(spec, theta, X[i][None]), atol=1e-14
            )


class TestJvpVjp:
    def test_consistency_bilinear_form(self):
        rng = np.random.default_rng(9)
        for case in range(10):
            spec = ModelSpec((5, 7, 4, 2), init_seed=100 + case)
            theta = spec.init_params()
            X = rng.standard_normal((6, 5))
            v = rng.standard_normal(spec.num_params)
            u = rng.standard_normal(6 * 2)
            lz = Linearization(spec, theta, X)
            lhs = u @ lz.jvp(v)
            rhs = lz.vjp(u) @ v
            assert abs(lhs - rhs) / max(abs(lhs), 1e-300) < 1e-12

    def test_against_dense_jacobian(self):
        spec = ModelSpec((4, 6, 3), init_seed=2)
        theta = spec.init_params()
        X = np.random.default_rng(3).standard_normal((5, 4))
        jac = stacked_jacobian(spec, theta, X)
        v = np.random.default_rng(4).standard_normal(spec.num_params)
        u = np.random.default_rng(5).standard_normal(15)
        lz = Linearization(spec, theta, X)
        np.testing.assert_allclose(lz.jvp(v), jac @ v, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(lz.vjp(u), jac.T @ u, rtol=1e-12, atol=1e-12)


class TestLinearized:
    def test_at_reference_equals_base_bitwise(self):
        spec = ModelSpec((4, 10, 3), init_seed=8)
        theta = spec.init_params()
        lin = LinearizedModel(spec, theta)
        X = np.random.default_rng(0).standard_normal((7, 4))
        a = model_outputs(lin, theta, X)
        b = model_outputs(spec, theta, X)
        assert np.array_equal(a, b)

    def test_linear_base_model_equals_own_linearization(self):
        spec = ModelSpec((3, 2), activation="identity")
        theta0 = spec.init_params()
        lin = LinearizedModel(spec, theta0)
        theta = theta0 + np.random.default_rng(1).standard_normal(spec.num_params)
        x = np.array([0.1, 0.7, -0.3])
        np.testing.assert_allclose(
            model_outputs(lin, theta, x[None])[0], model_outputs(spec, theta, x[None])[0],
            rtol=1e-12
        )

    def test_perturbation_matches_jacobian_product(self):
        spec = ModelSpec((5, 9, 2), init_seed=3)
        theta0 = spec.init_params()
        lin = LinearizedModel(spec, theta0)
        delta = np.random.default_rng(2).standard_normal(spec.num_params)
        x = np.random.default_rng(3).standard_normal(5)
        expected = (model_outputs(spec, theta0, x[None])[0]
                    + stacked_jacobian(spec, theta0, x[None]) @ delta)
        np.testing.assert_allclose(model_outputs(lin, theta0 + delta, x[None])[0], expected,
                                   rtol=1e-13)


class TestLosses:
    def test_squared_at_target(self):
        f = np.array([[0.2, -1.0]])
        assert loss_value_batch(SQUARED, f, f)[0] == 0.0
        np.testing.assert_array_equal(loss_grad_batch(SQUARED, f, f)[0], np.zeros(2))
        np.testing.assert_array_equal(loss_hess_batch(SQUARED, f, f)[0], np.eye(2))

    def test_cross_entropy_symmetric_logits(self):
        g = loss_grad_batch(CROSS_ENTROPY, np.zeros((1, 2)), np.array([[1.0, 0.0]]))[0]
        np.testing.assert_allclose(g, [-0.5, 0.5])

    @pytest.mark.parametrize("kind", [SQUARED, CROSS_ENTROPY])
    def test_grad_hess_finite_differences(self, kind):
        rng = np.random.default_rng(12)
        for _ in range(20):
            f = rng.standard_normal((1, 3))
            y = (np.array([[0.0, 1.0, 0.0]]) if kind == CROSS_ENTROPY
                 else rng.standard_normal((1, 3)))
            h = 1e-6
            grad = loss_grad_batch(kind, f, y)[0]
            hess = loss_hess_batch(kind, f, y)[0]
            for i in range(3):
                e = np.zeros((1, 3))
                e[0, i] = h
                fd_g = (loss_value_batch(kind, f + e, y) - loss_value_batch(kind, f - e, y))[0] / (2 * h)
                assert abs(fd_g - grad[i]) / max(abs(grad[i]), 1.0) < 1e-6
                fd_h = (loss_grad_batch(kind, f + e, y) - loss_grad_batch(kind, f - e, y))[0] / (2 * h)
                np.testing.assert_allclose(fd_h, hess[:, i], rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("kind", [SQUARED, CROSS_ENTROPY])
    def test_hessian_symmetric_psd(self, kind):
        rng = np.random.default_rng(77)
        F = rng.standard_normal((50, 4))
        Y = np.eye(4)[rng.integers(0, 4, 50)] if kind == CROSS_ENTROPY else rng.standard_normal((50, 4))
        H = loss_hess_batch(kind, F, Y)
        np.testing.assert_allclose(H, np.swapaxes(H, 1, 2), atol=1e-14)
        eig = np.linalg.eigvalsh(H)
        assert eig.min() >= -1e-12

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        F, Y = rng.standard_normal((6, 3)), np.eye(3)[rng.integers(0, 3, 6)]
        vals = loss_value_batch(CROSS_ENTROPY, F, Y)
        grads = loss_grad_batch(CROSS_ENTROPY, F, Y)
        for i in range(6):
            assert vals[i] == pytest.approx(
                loss_value_batch(CROSS_ENTROPY, F[i][None], Y[i][None])[0], rel=1e-14)
            np.testing.assert_allclose(grads[i],
                                       loss_grad_batch(CROSS_ENTROPY, F[i][None], Y[i][None])[0])


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        spec = ModelSpec((6, 4, 2), init_seed=9)
        theta = spec.init_params()
        p = str(tmp_path / "theta.bin")
        save_params(p, spec, theta)
        np.testing.assert_array_equal(load_params(p, spec), theta)

    def test_hash_mismatch(self, tmp_path):
        spec = ModelSpec((6, 4, 2), init_seed=9)
        p = str(tmp_path / "theta.bin")
        save_params(p, spec, spec.init_params())
        other = ModelSpec((6, 4, 2), init_seed=10)
        with pytest.raises(CheckpointMismatch):
            load_params(p, other)

    def test_little_endian_layout(self, tmp_path):
        spec = ModelSpec((1, 1), bias=False)
        p = str(tmp_path / "theta.bin")
        save_params(p, spec, np.array([1.0]))
        raw = (tmp_path / "theta.bin").read_bytes()
        assert raw[:8] == (1).to_bytes(8, "little")
        assert raw[40:] == np.array([1.0], dtype="<f8").tobytes()

    @pytest.mark.parametrize("change", [-8, 8], ids=["truncated", "overlong"])
    def test_payload_length_checked(self, tmp_path, change):
        spec = ModelSpec((6, 4, 2), init_seed=9)
        p = tmp_path / "theta.bin"
        save_params(str(p), spec, spec.init_params())
        raw = p.read_bytes()
        p.write_bytes(raw[:change] if change < 0 else raw + bytes(change))
        with pytest.raises(CheckpointMismatch, match="payload length"):
            load_params(str(p), spec)

    def test_short_header_rejected(self, tmp_path):
        spec = ModelSpec((6, 4, 2), init_seed=9)
        p = tmp_path / "theta.bin"
        save_params(str(p), spec, spec.init_params())
        p.write_bytes(p.read_bytes()[:39])  # the header is a u64 count and a 32-byte hash
        with pytest.raises(CheckpointMismatch, match="too short"):
            load_params(str(p), spec)

    def test_count_mismatch_rejected(self, tmp_path):
        # the count is read before the hash: a file of another width fails on it
        wider = ModelSpec((6, 5, 2), init_seed=9)
        p = str(tmp_path / "theta.bin")
        save_params(p, wider, wider.init_params())
        with pytest.raises(CheckpointMismatch, match="stores 47 params, spec has 38"):
            load_params(p, ModelSpec((6, 4, 2), init_seed=9))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_params_not_written(self, tmp_path, bad):
        spec = ModelSpec((6, 4, 2), init_seed=9)
        theta = spec.init_params().copy()
        theta[3] = bad
        p = tmp_path / "theta.bin"
        with pytest.raises(ValueError, match="non-finite"):
            save_params(str(p), spec, theta)
        assert not p.exists()

    def test_spec_hash_is_stable(self):
        # stored kernels and checkpoints carry this hash: it must not move
        assert (ModelSpec((400, 1024, 10)).spec_hash().hex()
                == "4b978e0737a934acace27ce3ab36ea89d54030c95605eaa2f58a0453b7d7663f")
        every_field = ModelSpec((3, 5, 7, 2), activation="identity", init_seed=9,
                                parameterization="ntk", bias=False, sigma_w2=1.5, sigma_b2=0.2)
        assert (every_field.spec_hash().hex()
                == "358dd4265e2df853b3943f222e19050d918ef63268d5011957fff6c176c11072")

    def test_negative_init_seed_rejected(self):
        with pytest.raises(ValueError, match="init_seed"):
            ModelSpec((6, 4, 2), init_seed=-1)
