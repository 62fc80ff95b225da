"""Feedforward networks: forward passes, Jacobians, JVP/VJP, linearization.

Parameters live in a flat float64 vector, laid out layer by layer as the
row-major weight matrix followed by the bias (when present). Vectorized model
outputs are point-major, output-dim-minor: row i*d_out + k is output dim k of
point i. All derivative code treats ReLU'(0) as 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CheckpointMismatch, DimensionMismatch

ACTIVATIONS = ("relu", "identity")
PARAMETERIZATIONS = ("standard", "ntk")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture + initialization scheme of a fully connected network.

    ``layer_widths`` is (d_in, hidden..., d_out). Hidden layers use the
    activation; the output layer is affine. In the ``ntk`` parameterization
    the forward pass scales layer l by sigma_w/sqrt(fan_in) on weights and
    sigma_b on biases, with N(0,1) initialization, so the empirical tangent
    kernel has a finite infinite-width limit.
    """

    layer_widths: tuple[int, ...]
    activation: str = "relu"
    init_seed: int = 0
    parameterization: str = "standard"
    bias: bool = True
    sigma_w2: float = 2.0
    sigma_b2: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 2:
            raise ValueError("need at least an input and an output width")
        if any(w < 1 for w in self.layer_widths):
            raise ValueError("layer widths must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.parameterization not in PARAMETERIZATIONS:
            raise ValueError(f"unknown parameterization {self.parameterization!r}")
        if self.sigma_w2 <= 0 or self.sigma_b2 < 0:
            raise ValueError("sigma_w2 must be > 0 and sigma_b2 >= 0")

    @property
    def d_in(self) -> int:
        return self.layer_widths[0]

    @property
    def d_out(self) -> int:
        return self.layer_widths[-1]

    @property
    def n_layers(self) -> int:
        return len(self.layer_widths) - 1

    @cached_property
    def num_params(self) -> int:
        extra = 1 if self.bias else 0
        return sum((w_in + extra) * w_out for w_in, w_out in zip(self.layer_widths, self.layer_widths[1:]))

    @cached_property
    def param_slices(self) -> tuple:
        """Per layer: (weight slice, (w_out, w_in), bias slice or None)."""
        out, off = [], 0
        for w_in, w_out in zip(self.layer_widths, self.layer_widths[1:]):
            w_slice = slice(off, off + w_in * w_out)
            off += w_in * w_out
            if self.bias:
                b_slice = slice(off, off + w_out)
                off += w_out
            else:
                b_slice = None
            out.append((w_slice, (w_out, w_in), b_slice))
        return tuple(out)

    def layer_scales(self, layer: int) -> tuple[float, float]:
        """(weight multiplier, bias multiplier) applied in the forward pass."""
        if self.parameterization == "standard":
            return 1.0, 1.0
        fan_in = self.layer_widths[layer]
        return float(np.sqrt(self.sigma_w2 / fan_in)), float(np.sqrt(self.sigma_b2))

    def init_params(self) -> np.ndarray:
        """Seeded initialization: zero biases + Gaussian(0, 2/fan_in) weights
        in the standard scheme, N(0,1) everywhere in the ntk scheme."""
        rng = np.random.default_rng(self.init_seed)
        theta = np.zeros(self.num_params)
        for layer, (w_sl, (w_out, w_in), b_sl) in enumerate(self.param_slices):
            if self.parameterization == "standard":
                theta[w_sl] = rng.standard_normal(w_out * w_in) * np.sqrt(2.0 / w_in)
            else:
                theta[w_sl] = rng.standard_normal(w_out * w_in)
                if b_sl is not None:
                    theta[b_sl] = rng.standard_normal(w_out)
        return theta

    def spec_hash(self) -> bytes:
        payload = json.dumps({
            "layer_widths": list(self.layer_widths),
            "activation": self.activation,
            "init_seed": self.init_seed,
            "parameterization": self.parameterization,
            "bias": self.bias,
            "sigma_w2": self.sigma_w2,
            "sigma_b2": self.sigma_b2,
        }, sort_keys=True).encode()
        return hashlib.sha256(payload).digest()


@dataclass(frozen=True)
class LinearizedModel:
    """First-order expansion of the network around ``theta_ref``."""

    spec: ModelSpec
    theta_ref: np.ndarray

    def __post_init__(self):
        ref = np.asarray(self.theta_ref, dtype=np.float64)
        if ref.shape != (self.spec.num_params,):
            raise DimensionMismatch(
                f"theta_ref length {ref.shape} != parameter count {self.spec.num_params}"
            )
        object.__setattr__(self, "theta_ref", ref)


Model = ModelSpec | LinearizedModel


def _spec_of(model: Model) -> ModelSpec:
    return model.spec if isinstance(model, LinearizedModel) else model


def _unpack(spec: ModelSpec, theta: np.ndarray):
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (spec.num_params,):
        raise DimensionMismatch(f"theta length {theta.shape} != {spec.num_params}")
    layers = []
    for w_sl, shape, b_sl in spec.param_slices:
        w = theta[w_sl].reshape(shape)
        b = theta[b_sl] if b_sl is not None else None
        layers.append((w, b))
    return layers


def _forward_cache(spec: ModelSpec, theta: np.ndarray, X: np.ndarray):
    """Returns (layer inputs A[0..L-1], pre-activations Z[0..L-1])."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != spec.d_in:
        raise DimensionMismatch(f"input width {X.shape[1]} != d_in {spec.d_in}")
    acts, pres, a = [], [], X
    for layer, (w, b) in enumerate(_unpack(spec, theta)):
        s_w, s_b = spec.layer_scales(layer)
        acts.append(a)
        z = s_w * (a @ w.T)
        if b is not None:
            z = z + s_b * b
        pres.append(z)
        if layer < spec.n_layers - 1:
            a = np.maximum(z, 0.0) if spec.activation == "relu" else z
    return acts, pres


def batch_forward(spec: ModelSpec, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Network outputs for a batch, shape (N, d_out)."""
    _, pres = _forward_cache(spec, theta, X)
    return pres[-1]


def forward(spec: ModelSpec, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    return batch_forward(spec, theta, np.asarray(x)[None, :])[0]


def _act_grad(spec: ModelSpec, z: np.ndarray) -> np.ndarray:
    if spec.activation == "relu":
        return (z > 0.0).astype(np.float64)  # subgradient 0 at exactly 0
    return np.ones_like(z)


def jvp(spec: ModelSpec, theta: np.ndarray, X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """J(theta) @ v over the batch, flattened point-major (N*d_out,)."""
    v = np.asarray(v, dtype=np.float64)
    acts, pres = _forward_cache(spec, theta, X)
    dlayers = _unpack(spec, v)
    tangent = None
    for layer, ((w, _b), (dw, db)) in enumerate(zip(_unpack(spec, theta), dlayers)):
        s_w, s_b = spec.layer_scales(layer)
        t = s_w * (acts[layer] @ dw.T)
        if tangent is not None:
            t = t + s_w * (tangent @ w.T)
        if db is not None:
            t = t + s_b * db
        if layer < spec.n_layers - 1:
            t = t * _act_grad(spec, pres[layer])
        tangent = t
    return tangent.ravel()


def vjp(spec: ModelSpec, theta: np.ndarray, X: np.ndarray, u: np.ndarray) -> np.ndarray:
    """J(theta)' @ u for a point-major flattened cotangent u (N*d_out,)."""
    acts, pres = _forward_cache(spec, theta, X)
    n = acts[0].shape[0]
    u = np.asarray(u, dtype=np.float64).reshape(n, spec.d_out)
    layers = _unpack(spec, theta)
    grad = np.zeros(spec.num_params)
    delta = u
    for layer in range(spec.n_layers - 1, -1, -1):
        w_sl, _shape, b_sl = spec.param_slices[layer]
        s_w, s_b = spec.layer_scales(layer)
        grad[w_sl] = (s_w * (delta.T @ acts[layer])).ravel()
        if b_sl is not None:
            grad[b_sl] = s_b * delta.sum(axis=0)
        if layer > 0:
            delta = s_w * (delta @ layers[layer][0]) * _act_grad(spec, pres[layer - 1])
    return grad


def activations_and_deltas(spec: ModelSpec, theta: np.ndarray, X: np.ndarray):
    """Per-layer inputs A[l] (N, w_l) and signals D[l] (N, d_out, w_{l+1}).

    D[l][i, k] is the gradient of output k at point i w.r.t. the layer-l
    pre-activation; together with A these determine every Jacobian block and
    the tangent-kernel contraction without materializing the Jacobian.
    """
    acts, pres = _forward_cache(spec, theta, X)
    n = acts[0].shape[0]
    layers = _unpack(spec, theta)
    deltas = [None] * spec.n_layers
    deltas[-1] = np.broadcast_to(np.eye(spec.d_out), (n, spec.d_out, spec.d_out)).copy()
    for layer in range(spec.n_layers - 1, 0, -1):
        s_w, _ = spec.layer_scales(layer)
        w = layers[layer][0]
        deltas[layer - 1] = s_w * (deltas[layer] @ w) * _act_grad(spec, pres[layer - 1])[:, None, :]
    return acts, deltas


def stacked_jacobian(spec: ModelSpec, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Dense Jacobian (N*d_out, d_theta), rows point-major. Desk scale only."""
    acts, deltas = activations_and_deltas(spec, theta, X)
    n = acts[0].shape[0]
    jac = np.empty((n * spec.d_out, spec.num_params))
    for layer, (w_sl, (w_out, w_in), b_sl) in enumerate(spec.param_slices):
        s_w, s_b = spec.layer_scales(layer)
        block = s_w * np.einsum("nkj,ni->nkji", deltas[layer], acts[layer])
        jac[:, w_sl] = block.reshape(n * spec.d_out, w_out * w_in)
        if b_sl is not None:
            jac[:, b_sl] = s_b * deltas[layer].reshape(n * spec.d_out, w_out)
    return jac


def jacobian(spec: ModelSpec, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Jacobian of a single point, shape (d_out, d_theta)."""
    return stacked_jacobian(spec, theta, np.asarray(x)[None, :]).reshape(spec.d_out, spec.num_params)


# --------------------------------------------------------------------------
# Linearized-model evaluation
# --------------------------------------------------------------------------

def linear_batch_forward(lin: LinearizedModel, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """f(X, theta_ref) + J(theta_ref) (theta - theta_ref), shape (N, d_out)."""
    theta = np.asarray(theta, dtype=np.float64)
    base = batch_forward(lin.spec, lin.theta_ref, X)
    if theta.shape != lin.theta_ref.shape:
        raise DimensionMismatch("theta length mismatch")
    if theta is lin.theta_ref or np.array_equal(theta, lin.theta_ref):
        return base
    corr = jvp(lin.spec, lin.theta_ref, X, theta - lin.theta_ref).reshape(base.shape)
    return base + corr


def model_outputs(model: Model, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Batch outputs of either a raw network or its linearization."""
    if isinstance(model, LinearizedModel):
        return linear_batch_forward(model, theta, X)
    return batch_forward(model, theta, X)


def jacobian_point(model: Model, theta: np.ndarray) -> np.ndarray:
    """Where Jacobians of this model are evaluated: theta_ref if linearized."""
    return model.theta_ref if isinstance(model, LinearizedModel) else theta


# --------------------------------------------------------------------------
# Parameter-vector checkpoints
# --------------------------------------------------------------------------

def save_params(path: str, spec: ModelSpec, theta: np.ndarray) -> None:
    """Little-endian float64 payload prefixed by u64 length and spec hash."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (spec.num_params,):
        raise DimensionMismatch(f"theta length {theta.shape} != {spec.num_params}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("refusing to serialize non-finite parameters")
    with open(path, "wb") as f:
        f.write(struct.pack("<Q", spec.num_params))
        f.write(spec.spec_hash())
        f.write(theta.astype("<f8").tobytes())


def load_params(path: str, spec: ModelSpec) -> np.ndarray:
    """Checks the header and the file size, then reads the payload straight
    into an array."""
    with open(path, "rb") as f:
        head = f.read(8 + 32)
        if len(head) < 8 + 32:
            raise CheckpointMismatch(f"{path}: file too short for header")
        (count,) = struct.unpack("<Q", head[:8])
        if count != spec.num_params:
            raise CheckpointMismatch(f"{path}: stores {count} params, spec has {spec.num_params}")
        if head[8:] != spec.spec_hash():
            raise CheckpointMismatch(f"{path}: spec hash mismatch")
        payload = os.fstat(f.fileno()).st_size - len(head)
        if payload != 8 * count:
            raise CheckpointMismatch(f"{path}: payload length {payload} != {8 * count}")
        theta = np.fromfile(f, dtype="<f8", count=count)
    return theta.astype(np.float64, copy=False)
