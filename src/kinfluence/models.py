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
from dataclasses import asdict, dataclass, field
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
        if self.init_seed < 0:
            raise ValueError("init_seed must be >= 0")
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
        for w_sl, (_w_out, w_in), b_sl in self.param_slices:
            weights = rng.standard_normal(out=theta[w_sl])  # drawn in place: no temporary
            if self.parameterization == "standard":
                weights *= np.sqrt(2.0 / w_in)
            elif b_sl is not None:
                rng.standard_normal(out=theta[b_sl])
        return theta

    @cached_property
    def theta_init(self) -> np.ndarray:
        """``init_params()``, drawn once and read-only: where a raw network
        starts training and the center its risk regularizes toward."""
        theta = self.init_params()
        theta.flags.writeable = False
        return theta

    def spec_hash(self) -> bytes:
        return hashlib.sha256(json.dumps(asdict(self), sort_keys=True).encode()).digest()


@dataclass(frozen=True)
class LinearizedModel:
    """First-order expansion of the network around ``theta_ref``.

    ``theta_ref`` is held read-only, so the forward pass at it can be kept:
    the model remembers the Linearization of the last inputs it was asked
    about, one slot, and reuses it for equal inputs. An array that is
    writeable, or a view whose base may be, is copied.
    """

    spec: ModelSpec
    theta_ref: np.ndarray
    _last: Linearization | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        ref = self.theta_ref
        if not (isinstance(ref, np.ndarray) and ref.dtype == np.float64
                and ref.flags.owndata and not ref.flags.writeable):
            ref = np.array(ref, dtype=np.float64)
            ref.flags.writeable = False
        if ref.shape != (self.spec.num_params,):
            raise DimensionMismatch(
                f"theta_ref length {ref.shape} != parameter count {self.spec.num_params}"
            )
        object.__setattr__(self, "theta_ref", ref)

    def linearization(self, X: np.ndarray) -> Linearization:
        """The Linearization at theta_ref over ``X``; the last one when ``X``
        equals its inputs. The slot keeps its own read-only copy of ``X``, so
        later writes to the caller's array cannot reach it."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        lz = self._last
        if lz is None or not np.array_equal(lz.acts[0], X):
            X = X.copy(order="K")  # X's memory order, so the products round alike
            X.flags.writeable = False
            lz = Linearization(self.spec, self.theta_ref, X)
            object.__setattr__(self, "_last", lz)
        return lz


Model = ModelSpec | LinearizedModel


def spec_of(model: Model) -> ModelSpec:
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
        z = a @ w.T
        z *= s_w
        if b is not None:
            z += s_b * b
        pres.append(z)
        if layer < spec.n_layers - 1:
            a = np.maximum(z, 0.0) if spec.activation == "relu" else z
    return acts, pres


class Linearization:
    """One forward pass of the network at ``theta`` over the inputs ``X``, kept
    for Jacobian products at that point.

    The layer inputs, the hidden-layer activation derivatives (ReLU'(0) = 0)
    and the outputs are evaluated once, so each ``jvp`` is one tangent sweep
    and each ``vjp`` one cotangent sweep over the layers. The weights the
    products read are copied, so later writes to the caller's ``theta`` cannot
    reach the cache; ``X`` is read in place as the first layer's input. The
    outputs are read-only.
    """

    def __init__(self, spec: ModelSpec, theta: np.ndarray, X: np.ndarray):
        acts, pres = _forward_cache(spec, theta, X)
        self.spec = spec
        self.acts = acts
        self.masks = [(z > 0.0).astype(np.float64) if spec.activation == "relu"
                      else np.ones_like(z) for z in pres[:-1]]
        # no product reads the first layer's weights
        self.weights = [None] + [w.copy() for w, _b in _unpack(spec, theta)[1:]]
        self.outputs = pres[-1]
        self.outputs.flags.writeable = False  # returned as is by linearize

    def jvp(self, v: np.ndarray) -> np.ndarray:
        """J @ v over the batch, flattened point-major (N*d_out,)."""
        spec = self.spec
        tangent = None
        for layer, (dw, db) in enumerate(_unpack(spec, v)):
            s_w, s_b = spec.layer_scales(layer)
            t = self.acts[layer] @ dw.T
            if s_w != 1.0:  # 1.0 in the standard parameterization
                t *= s_w
            if tangent is not None:
                t += s_w * (tangent @ self.weights[layer].T)
            if db is not None:
                t += s_b * db
            if layer < spec.n_layers - 1:
                t *= self.masks[layer]
            tangent = t
        return tangent.ravel()

    def vjp(self, u: np.ndarray) -> np.ndarray:
        """J' @ u for a point-major flattened cotangent u (N*d_out,)."""
        spec = self.spec
        delta = np.asarray(u, dtype=np.float64).reshape(self.acts[0].shape[0], spec.d_out)
        grad = np.empty(spec.num_params)  # every slice is written below
        for layer in range(spec.n_layers - 1, -1, -1):
            w_sl, shape, b_sl = spec.param_slices[layer]
            s_w, s_b = spec.layer_scales(layer)
            block = grad[w_sl].reshape(shape)
            np.matmul(delta.T, self.acts[layer], out=block)
            if s_w != 1.0:
                block *= s_w
            if b_sl is not None:
                grad[b_sl] = s_b * delta.sum(axis=0)
            if layer > 0:
                delta = delta @ self.weights[layer]
                if s_w != 1.0:
                    delta *= s_w
                delta *= self.masks[layer - 1]
        return grad

    def signals(self) -> list[np.ndarray]:
        """Per-layer signals D[l] (N, d_out, w_{l+1}): D[l][i, k] is the gradient of
        output k at point i w.r.t. the layer-l pre-activation. With the layer inputs
        ``acts`` A[l] (N, w_l) they determine every Jacobian block and the
        tangent-kernel contraction without materializing the Jacobian."""
        spec, n = self.spec, self.acts[0].shape[0]
        deltas = [None] * spec.n_layers
        deltas[-1] = np.broadcast_to(np.eye(spec.d_out), (n, spec.d_out, spec.d_out)).copy()
        for layer in range(spec.n_layers - 1, 0, -1):
            dw = deltas[layer] @ self.weights[layer]  # scaled in place: one buffer per layer
            deltas[layer - 1] = np.multiply(dw, spec.layer_scales(layer)[0]
                                            * self.masks[layer - 1][:, None, :], out=dw)
        return deltas


def stacked_jacobian(spec: ModelSpec, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Dense Jacobian (N*d_out, d_theta), rows point-major. Desk scale only."""
    lz = Linearization(spec, theta, X)
    acts, deltas = lz.acts, lz.signals()
    n = acts[0].shape[0]
    jac = np.empty((n * spec.d_out, spec.num_params))
    for layer, (w_sl, (w_out, w_in), b_sl) in enumerate(spec.param_slices):
        s_w, s_b = spec.layer_scales(layer)
        block = s_w * np.einsum("nkj,ni->nkji", deltas[layer], acts[layer])
        jac[:, w_sl] = block.reshape(n * spec.d_out, w_out * w_in)
        if b_sl is not None:
            jac[:, b_sl] = s_b * deltas[layer].reshape(n * spec.d_out, w_out)
    return jac


# --------------------------------------------------------------------------
# Model outputs
# --------------------------------------------------------------------------

def linearize(model: Model, theta: np.ndarray, X: np.ndarray) -> tuple[Linearization, np.ndarray]:
    """From one forward pass: the Jacobian products of ``model`` over ``X``
    (taken at theta_ref if linearized, else at ``theta``) and its outputs at
    ``theta``, shape (N, d_out). A linearized model reuses its remembered
    forward pass when ``X`` equals the last inputs it saw."""
    if not isinstance(model, LinearizedModel):
        lz = Linearization(model, theta, X)
        return lz, lz.outputs
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != model.theta_ref.shape:
        raise DimensionMismatch("theta length mismatch")
    lz = model.linearization(X)
    if theta is model.theta_ref or np.array_equal(theta, model.theta_ref):
        return lz, lz.outputs
    return lz, lz.outputs + lz.jvp(theta - model.theta_ref).reshape(lz.outputs.shape)


def model_outputs(model: Model, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Batch outputs, shape (N, d_out): the raw network at ``theta``, or the
    linearization f(X, theta_ref) + J(theta_ref) (theta - theta_ref)."""
    if isinstance(model, LinearizedModel):
        return linearize(model, theta, X)[1]
    return _forward_cache(model, theta, X)[1][-1]


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
        f.write(memoryview(np.ascontiguousarray(theta, dtype="<f8")))


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
