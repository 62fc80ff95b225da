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
from itertools import count, islice

import numpy as np

from .datasets import LabeledDataset
from .errors import DimensionMismatch, DivergenceDetected, EmptyDataset, NonFiniteEncountered, NotConverged
from .kernels import KernelMatrix, empirical_kron_factor
from .losses import LOSS_KINDS, SQUARED, loss_grad_batch, loss_hess_batch, loss_value_batch
from .models import LinearizedModel, Model, linearize, spec_of
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
        if self.lr <= 0 or not 0 <= self.beta < 1:
            raise ValueError("learning rate must be positive and momentum beta in [0, 1)")


@dataclass(frozen=True)
class StopRule:
    max_epochs: int = 1000
    grad_tol: float = 1e-10

    def __post_init__(self):
        if self.max_epochs < 1 or self.grad_tol < 0:
            raise ValueError("max_epochs must be at least 1 and grad_tol non-negative")


@dataclass
class TrainReport:
    final_params: np.ndarray
    grad_norm_history: np.ndarray
    loss_history: np.ndarray


def resolve_center(model: Model, cfg: RiskConfig) -> np.ndarray:
    """The vector c in the (lambda/2)||theta - c||^2 term."""
    spec = spec_of(model)
    if cfg.center == CENTER_ORIGIN:
        return np.zeros(spec.num_params)
    return model.theta_ref if isinstance(model, LinearizedModel) else spec.theta_init


def _check_ds(ds: LabeledDataset, model: Model) -> None:
    if ds.n < 1:
        raise EmptyDataset("risk needs a nonempty dataset")
    spec = spec_of(model)
    if ds.d_in != spec.d_in or ds.d_out != spec.d_out:
        raise DimensionMismatch(
            f"dataset ({ds.d_in}->{ds.d_out}) incompatible with model ({spec.d_in}->{spec.d_out})"
        )


def risk_value(model: Model, theta: np.ndarray, ds: LabeledDataset, cfg: RiskConfig) -> float:
    return risk_value_and_grad(model, theta, ds, cfg)[0]


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


def stationarity_gap(gnorm: float) -> str | None:
    """Why a point whose risk gradient has norm ``gnorm`` is not stationary,
    or None if it is.

    Influence estimates assume a stationary theta; callers measure the
    gradient and decide whether a gap is an error or a note on the report.
    """
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
    lam_v = np.empty(spec_of(model).num_params)  # scratch for lambda v

    def apply_h(v: np.ndarray) -> np.ndarray:
        u = lz.jvp(v).reshape(ds.n, ds.d_out)
        hv = lz.vjp(np.einsum("nij,nj->ni", blocks, u).ravel())
        hv /= ds.n
        hv += np.multiply(cfg.lam, v, out=lam_v)
        return hv

    return apply_h


def descend(model: Model, ds: LabeledDataset, cfg: RiskConfig, opt: Optimizer):
    """Deterministic full-batch heavy-ball descent from the linearization point or
    the initialization: yields (theta, risk, ||grad||), theta a new array at each
    iterate, then steps v = beta v - lr g, theta = theta + v (beta = 0 for gd).
    DivergenceDetected on a non-finite risk, which every non-finite theta has."""
    theta = np.array(model.theta_ref if isinstance(model, LinearizedModel) else model.theta_init,
                     dtype=np.float64)
    beta = opt.beta if opt.kind == "momentum" else 0.0
    velocity = np.zeros_like(theta)
    for epoch in count():
        with np.errstate(over="ignore", invalid="ignore"):
            value, grad = risk_value_and_grad(model, theta, ds, cfg)
        if not np.isfinite(value):
            raise DivergenceDetected(f"loss became non-finite at epoch {epoch}")
        # an overflowing norm or step means divergence, which the next risk reports
        with np.errstate(over="ignore"):
            gn = float(np.linalg.norm(grad))
        yield theta, value, gn
        with np.errstate(over="ignore"):
            velocity = beta * velocity - opt.lr * grad
            theta = theta + velocity


def train(model: Model, ds: LabeledDataset, cfg: RiskConfig, opt: Optimizer,
          stop: StopRule) -> TrainReport:
    """``descend`` for at most stop.max_epochs iterates, ending at the first whose
    gradient norm is at most stop.grad_tol; returns the last iterate evaluated,
    whose gradient norm ends the history."""
    losses, gnorms = [], []
    for theta, value, gn in islice(descend(model, ds, cfg, opt), stop.max_epochs):
        losses.append(value)
        gnorms.append(gn)
        if gn <= stop.grad_tol:
            break
    return TrainReport(theta, np.array(gnorms), np.array(losses))


def fit_linearized_exact(lin: LinearizedModel, ds: LabeledDataset, cfg: RiskConfig,
                         kernel: KernelMatrix | None = None) -> np.ndarray:
    """Exact minimizer of the squared-error linearized risk (retraining oracle).

    Solves (K + lambda N I) beta = Y - f(c), c the risk's center, on the Gram
    side by CG to relative residual FIT_REL_TOL (1e-13; NotConverged if
    FIT_MAX_ITERS miss it), preconditioned by (lambda N I + sigma)^{-1} (x) I
    for sigma = K.kron_factor(), and returns c + J' beta. Nothing is factored, so
    positive definiteness is not proven: SpdViolation comes only from
    lambda N + min eig(sigma) <= 0 or non-positive CG curvature. Without a
    ``kernel`` K is implicit: each matvec is one VJP and one JVP, and sigma
    comes from the layer factors (``empirical_kron_factor``). A given stored
    kernel is used as it is; an index view is gathered once, since CG reads
    the kernel once per iteration.
    """
    if cfg.loss != SQUARED:
        raise ValueError("exact fit needs the squared-error risk (quadratic objective)")
    _check_ds(ds, lin)
    if kernel is not None and kernel.shape != (ds.n * ds.d_out,) * 2:
        raise DimensionMismatch("kernel does not match dataset size")
    c = resolve_center(lin, cfg)
    lz, f_c = linearize(lin, c, ds.features)
    rhs = ds.targets_vec - f_c.ravel()
    if not np.all(np.isfinite(rhs)):
        raise NonFiniteEncountered("outputs at the center are non-finite")
    if kernel is None:
        matvec, factor = (lambda p: lz.jvp(lz.vjp(p))), (lambda: empirical_kron_factor(lz))
    else:
        kernel = kernel.gather()
        matvec, factor = kernel.matvec, kernel.kron_factor
    shift = cfg.lam * ds.n
    # sigma lives only while the preconditioner is built
    res = cg_solve(lambda p: matvec(p) + shift * p, rhs, CgOptions(FIT_REL_TOL, FIT_MAX_ITERS),
                   kron_preconditioner(factor(), shift))
    if not res.converged:
        raise NotConverged(f"exact fit: CG residual {res.residual:.3e} after {res.iters} iterations")
    return c + lz.vjp(res.x)
