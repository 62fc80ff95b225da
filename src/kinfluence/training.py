"""Regularized empirical risk: value/gradient/HVP and full-batch training.

The risk is mean per-point loss plus (lambda/2) ||theta - c||^2, where the
center c is 0 in ``origin`` mode and, in ``reference`` mode, the linearization
point of a linearized model or the initialization of a raw network. For
linearized models the risk is quadratic in theta whenever the loss is squared
error, which is what makes the exact fit below (a Kronecker-preconditioned CG
solve of the dual system) a legitimate retrain-from-scratch oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset
from .errors import DimensionMismatch, DivergenceDetected, EmptyDataset, NonFiniteEncountered, NotConverged
from .kernels import KernelMatrix, empirical_ntk
from .losses import LOSS_KINDS, SQUARED, loss_grad_batch, loss_hess_batch, loss_value_batch
from .models import LinearizedModel, Model, _spec_of, linearize, model_outputs
from .solvers import CgOptions, cg_solve, kron_preconditioner

CENTER_REFERENCE = "reference"
CENTER_ORIGIN = "origin"

STATIONARITY_TOL = 1e-6  # gradient norm above which theta is not an optimum
FIT_REL_TOL, FIT_MAX_ITERS = 1e-13, 1000  # the exact fit's CG: relative residual, iteration cap


@dataclass(frozen=True)
class RiskConfig:
    lam: float
    loss: str = SQUARED
    center: str = CENTER_REFERENCE

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be strictly positive")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss!r}")
        if self.center not in (CENTER_REFERENCE, CENTER_ORIGIN):
            raise ValueError(f"unknown center {self.center!r}")


@dataclass(frozen=True)
class Optimizer:
    kind: str = "gd"  # gd | momentum
    lr: float = 0.1
    beta: float = 0.9

    def __post_init__(self):
        if self.kind not in ("gd", "momentum"):
            raise ValueError(f"unknown optimizer {self.kind!r}")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")


@dataclass(frozen=True)
class StopRule:
    max_epochs: int = 1000
    grad_tol: float = 1e-10


@dataclass
class TrainReport:
    final_params: np.ndarray
    epochs_run: int
    grad_norm_history: np.ndarray
    loss_history: np.ndarray


def resolve_center(model: Model, cfg: RiskConfig) -> np.ndarray:
    """The vector c in the (lambda/2)||theta - c||^2 term."""
    spec = _spec_of(model)
    if cfg.center == CENTER_ORIGIN:
        return np.zeros(spec.num_params)
    return model.theta_ref if isinstance(model, LinearizedModel) else spec.theta_init


def _check_ds(ds: LabeledDataset, model: Model) -> None:
    if ds.n < 1:
        raise EmptyDataset("risk needs a nonempty dataset")
    spec = _spec_of(model)
    if ds.d_in != spec.d_in or ds.d_out != spec.d_out:
        raise DimensionMismatch(
            f"dataset ({ds.d_in}->{ds.d_out}) incompatible with model ({spec.d_in}->{spec.d_out})"
        )


def risk_value(model: Model, theta: np.ndarray, ds: LabeledDataset, cfg: RiskConfig) -> float:
    _check_ds(ds, model)
    f = model_outputs(model, theta, ds.features)
    c = resolve_center(model, cfg)
    return float(loss_value_batch(cfg.loss, f, ds.targets).mean()
                 + 0.5 * cfg.lam * np.sum((theta - c) ** 2))


def risk_value_and_grad(model: Model, theta: np.ndarray, ds: LabeledDataset,
                        cfg: RiskConfig) -> tuple[float, np.ndarray]:
    _check_ds(ds, model)
    theta = np.asarray(theta, dtype=np.float64)
    lz, f = linearize(model, theta, ds.features)
    c = resolve_center(model, cfg)
    value = float(loss_value_batch(cfg.loss, f, ds.targets).mean()
                  + 0.5 * cfg.lam * np.sum((theta - c) ** 2))
    g_out = loss_grad_batch(cfg.loss, f, ds.targets).ravel()
    grad = lz.vjp(g_out)
    grad /= ds.n
    grad += cfg.lam * (theta - c)
    return value, grad


def risk_grad(model: Model, theta: np.ndarray, ds: LabeledDataset, cfg: RiskConfig) -> np.ndarray:
    return risk_value_and_grad(model, theta, ds, cfg)[1]


def stationarity_gap(model: Model, theta: np.ndarray, ds: LabeledDataset,
                     cfg: RiskConfig) -> str | None:
    """Why ``theta`` is not a stationary point of the risk, or None if it is.

    Influence estimates assume a stationary theta; callers decide whether a
    gap is an error or a note on the report.
    """
    gnorm = float(np.linalg.norm(risk_grad(model, theta, ds, cfg)))
    return f"||grad|| = {gnorm:.3e} exceeds {STATIONARITY_TOL}" if gnorm > STATIONARITY_TOL else None


def risk_hessian_op(model: Model, theta: np.ndarray, ds: LabeledDataset, cfg: RiskConfig):
    """The operator v -> (1/N) J' B J v + lambda v.

    The forward pass (layer inputs, activation masks, outputs) and the
    per-point loss Hessians B are evaluated once, here; each product then
    costs one tangent and one cotangent sweep over the layers. For linearized
    models this is the risk Hessian. For raw networks it is the Gauss-Newton
    matrix with J at theta: it drops the loss-gradient-weighted second
    derivatives of the outputs, which products of weights make nonzero even
    for piecewise-linear activations.
    """
    _check_ds(ds, model)
    lz, f = linearize(model, theta, ds.features)
    blocks = loss_hess_batch(cfg.loss, f, ds.targets)
    lam_v = np.empty(_spec_of(model).num_params)  # scratch for lambda v

    def apply_h(v: np.ndarray) -> np.ndarray:
        u = lz.jvp(v).reshape(ds.n, ds.d_out)
        hv = lz.vjp(np.einsum("nij,nj->ni", blocks, u).ravel())
        hv /= ds.n
        hv += np.multiply(cfg.lam, v, out=lam_v)
        return hv

    return apply_h


def train(model: Model, ds: LabeledDataset, cfg: RiskConfig, opt: Optimizer,
          stop: StopRule) -> TrainReport:
    """Deterministic full-batch gradient descent / heavy-ball training,
    started at the linearization point or the initialization."""
    theta = np.array(model.theta_ref if isinstance(model, LinearizedModel) else model.theta_init,
                     dtype=np.float64)
    velocity = np.zeros_like(theta)
    losses, gnorms = [], []
    epochs = 0
    for epoch in range(stop.max_epochs):
        with np.errstate(over="ignore", invalid="ignore"):
            value, grad = risk_value_and_grad(model, theta, ds, cfg)
        if not np.isfinite(value):
            raise DivergenceDetected(f"loss became non-finite at epoch {epoch}")
        # an overflowing norm means divergence, which the finiteness checks report
        with np.errstate(over="ignore"):
            gn = float(np.linalg.norm(grad))
        losses.append(value)
        gnorms.append(gn)
        epochs = epoch + 1
        if gn <= stop.grad_tol:
            break
        if opt.kind == "momentum":
            velocity = opt.beta * velocity - opt.lr * grad
            theta = theta + velocity
        else:
            theta = theta - opt.lr * grad
    if not np.all(np.isfinite(theta)):
        raise DivergenceDetected("parameters became non-finite")
    return TrainReport(theta, epochs, np.array(gnorms), np.array(losses))


def fit_linearized_exact(lin: LinearizedModel, ds: LabeledDataset, cfg: RiskConfig,
                         kernel: KernelMatrix | None = None) -> np.ndarray:
    """Exact minimizer of the squared-error linearized risk (retraining oracle).

    Solves (K + lambda N I) beta = Y - f0 on the Gram side by CG to relative
    residual FIT_REL_TOL (1e-13; NotConverged if FIT_MAX_ITERS miss it),
    preconditioned by (lambda N I + sigma)^{-1} (x) I for sigma =
    K.kron_factor(), then maps back through J'. Nothing is factored, so
    positive definiteness is not proven: SpdViolation comes only from
    lambda N + min eig(sigma) <= 0 or non-positive CG curvature. A stored
    kernel is used as it is; an index view is gathered once, since CG reads
    the kernel once per iteration.
    Requires center == linearization point (origin mode needs theta_ref = 0).
    """
    if cfg.loss != SQUARED:
        raise ValueError("exact fit needs the squared-error risk (quadratic objective)")
    _check_ds(ds, lin)
    if cfg.center == CENTER_ORIGIN and np.any(lin.theta_ref != 0.0):
        raise ValueError("origin-centered risk requires linearization around 0")
    if kernel is None:
        kernel = empirical_ntk(lin.spec, lin.theta_ref, ds.features)
    if kernel.shape != (ds.n * ds.d_out,) * 2:
        raise DimensionMismatch("kernel does not match dataset size")
    kernel = kernel.gather()
    lz = lin.linearization(ds.features)
    rhs = ds.targets_vec - lz.outputs.ravel()
    if not np.all(np.isfinite(rhs)):
        raise NonFiniteEncountered("reference outputs are non-finite")
    shift = cfg.lam * ds.n
    res = cg_solve(lambda p: kernel.matvec(p) + shift * p, rhs, CgOptions(FIT_REL_TOL, FIT_MAX_ITERS),
                   kron_preconditioner(kernel.kron_factor(), shift))
    if not res.converged:
        raise NotConverged(f"exact fit: CG residual {res.residual:.3e} after {res.iters} iterations")
    return lin.theta_ref + lz.vjp(res.x)
