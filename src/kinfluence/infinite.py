"""Infinite-width ReLU networks: analytic tangent kernel and function-space
training.

The kernel follows the layerwise arc-cosine recursion for fully connected
ReLU stacks; with a fully connected readout it factors as sigma (x) I_{d_out}.
Training happens directly on the output vector f = K c: fit_outputs reaches
the exact optimum by Newton steps, kgd_train descends with a fixed step.
Influence estimation reuses the coefficient machinery with the exact fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datasets import LabeledDataset, SplitDataset
from .errors import DimensionMismatch, DivergenceDetected, NotConverged
from .kernels import KernelMatrix
from .losses import CROSS_ENTROPY, loss_grad_batch, loss_hess_batch, loss_value_batch
from .solvers import CgOptions, cg_solve, kron_preconditioner
from .training import FIT_MAX_ITERS, FIT_REL_TOL, RiskConfig
from .dual import (DualUnlearner, alpha_star_from_outputs, apply_sqrt, predict_changes_dual,
                   psd_sqrt_blocks)

NEWTON_STOP, NEWTON_MAX_STEPS = 1e-15, 50  # fit_outputs: relative stop, step cap
POWER_MAX_ITERS = 10000  # stable_kgd_lr: power-iteration products


@dataclass(frozen=True)
class AnalyticNtkSpec:
    """Infinitely wide ReLU stack: L hidden layers + fully connected readout."""

    hidden_layers: int
    sigma_w2: float = 2.0
    sigma_b2: float = 0.01
    d_out: int = 1

    def __post_init__(self):
        if self.hidden_layers < 0:
            raise ValueError("hidden_layers must be >= 0")
        if self.sigma_w2 <= 0 or self.sigma_b2 < 0:
            raise ValueError("sigma_w2 must be > 0 and sigma_b2 >= 0")
        if self.d_out < 1:
            raise ValueError("d_out must be >= 1")


def _relu_arc_step(sig: np.ndarray, theta_kernel: np.ndarray, k1: np.ndarray, k2: np.ndarray,
                   sw2: float, sb2: float, symmetric: bool, work: tuple):
    """One hidden layer of the arc-cosine recursion, in place.

    Given the previous-layer covariances (cross ``sig``, self k1/k2), turns
    ``sig`` into the next cross covariance and ``theta_kernel`` into
    sig_next + sig_dot * theta_kernel, and returns the next self covariances.
    With rho = cos(theta), sin(theta) = sqrt((1 - rho)(1 + rho)), so arccos is
    the one transcendental per entry. ``work`` holds three scratch arrays of
    sig's shape. A symmetric kernel's diagonal has rho = 1 exactly: sqrt(k k)
    may round below k, and arccos would turn the 1-ulp gap into theta ~ 1e-8.
    """
    norm, a, b = work
    np.outer(k1, k2, out=norm)
    np.sqrt(norm, out=norm)
    rho = np.divide(sig, norm, out=sig, where=norm > 0)  # where norm is 0, so is sig
    np.clip(rho, -1.0, 1.0, out=rho)
    if symmetric:
        np.fill_diagonal(rho, 1.0)
    np.add(rho, 1.0, out=a)
    sin = np.subtract(1.0, rho, out=b)
    sin *= a
    np.sqrt(sin, out=sin)
    pi_minus = np.arccos(rho, out=a)
    np.subtract(np.pi, pi_minus, out=pi_minus)
    # sig <- sw2 norm (sin + (pi - theta) rho) / (2 pi) + sb2
    rho *= pi_minus
    rho += sin
    norm *= sw2
    rho *= norm
    rho /= 2 * np.pi
    rho += sb2
    # theta_kernel <- sig + sig_dot theta_kernel, sig_dot = sw2 (pi - theta) / (2 pi)
    pi_minus *= sw2
    pi_minus /= 2 * np.pi
    theta_kernel *= pi_minus
    theta_kernel += rho
    return sw2 * k1 / 2.0 + sb2, sw2 * k2 / 2.0 + sb2


def analytic_ntk(spec: AnalyticNtkSpec, X1: np.ndarray, X2: np.ndarray | None = None) -> KernelMatrix:
    """Tangent kernel of the infinitely wide ReLU network on two input batches.

    Base case sigma_w2 x'x / d_in + sigma_b2; each hidden layer applies the
    arc-cosine covariance map and accumulates theta_kernel = sig + sig_dot *
    theta_kernel, in place in a fixed set of (N1, N2) arrays. The result is the
    (N1, N2) Kronecker factor.
    """
    X1 = np.atleast_2d(np.asarray(X1, dtype=np.float64))
    X2v = X1 if X2 is None else np.atleast_2d(np.asarray(X2, dtype=np.float64))
    if X1.shape[1] != X2v.shape[1]:
        raise DimensionMismatch("input widths differ")
    d_in = X1.shape[1]
    sig = X1 @ X2v.T
    sig *= spec.sigma_w2
    sig /= d_in
    sig += spec.sigma_b2
    k1 = spec.sigma_w2 * np.einsum("ij,ij->i", X1, X1) / d_in + spec.sigma_b2
    k2 = spec.sigma_w2 * np.einsum("ij,ij->i", X2v, X2v) / d_in + spec.sigma_b2
    theta_kernel = sig.copy()
    work = tuple(np.empty_like(sig) for _ in range(3))
    for _ in range(spec.hidden_layers):
        k1, k2 = _relu_arc_step(sig, theta_kernel, k1, k2, spec.sigma_w2, spec.sigma_b2,
                                X2 is None, work)
    return KernelMatrix(spec.d_out, sigma=theta_kernel)


# --------------------------------------------------------------------------
# Training in function space: exact Newton fit, kernel gradient descent
# --------------------------------------------------------------------------

@dataclass
class FunctionState:
    f_train: np.ndarray          # (d_out*N,), point-major
    epoch: int                   # kgd_train's epochs, fit_outputs' Newton steps
    residual: float              # ||K grad_f risk + lambda f||
    loss_history: np.ndarray = field(default=None, repr=False)


def stable_kgd_lr(kernel: KernelMatrix, n: int, cfg: RiskConfig) -> float:
    """Step size 1.8 / (h_max lam_max(sigma)/N + lam), 0.9 of the quadratic
    stability bound; sigma (x) I has sigma's eigenvalues. lam_max is the
    Rayleigh quotient of power iteration from a fixed random start, stopped
    once it moves by at most 1e-13 relative, and at once on a non-finite value
    (kgd_train then reports divergence); NotConverged after POWER_MAX_ITERS
    products."""
    if not kernel.kron:
        raise ValueError("kernel gradient descent needs a Kronecker kernel sigma (x) I")
    sigma = kernel.sigma
    q = np.random.default_rng(0).standard_normal(len(sigma))
    q /= np.linalg.norm(q)
    top = np.inf
    for _ in range(POWER_MAX_ITERS):
        w = sigma @ q
        prev, top = top, float(q @ w)
        norm = float(np.linalg.norm(w))
        if not np.isfinite(top) or norm == 0.0 or abs(top - prev) <= 1e-13 * abs(top):
            h_max = 0.5 if cfg.loss == CROSS_ENTROPY else 1.0
            return 1.8 / (h_max * top / n + cfg.lam)
        q = w / norm
    raise NotConverged(f"power iteration: lam_max(sigma) still moving after "
                       f"{POWER_MAX_ITERS} products")


def kgd_train(kernel: KernelMatrix, ds: LabeledDataset, cfg: RiskConfig,
              epochs: int = 5000, tol: float | None = None) -> FunctionState:
    """Full-batch function-space descent of the regularized risk on a
    Kronecker kernel, with stable_kgd_lr's step.

    The iterate starts at 0 and stays in the span of kernel columns, f = K c,
    so the reproducing-norm regularizer is tracked exactly as (lam/2) c'f.
    Stops when the stationarity residual drops below ``tol`` and raises
    NotConverged when the epochs run out first; raises DivergenceDetected
    when the loss stops being finite. An index view is gathered once, since
    every epoch reads the kernel.
    """
    d = kernel.d_out
    if kernel.shape[0] != ds.n * d or ds.d_out != d:
        raise DimensionMismatch("kernel does not match the dataset")
    kernel = kernel.gather()
    lr = stable_kgd_lr(kernel, ds.n, cfg)
    f = np.zeros(ds.n * d)
    coef = np.zeros_like(f)
    losses = []
    residual = np.inf
    epoch = 0
    for epoch in range(1, epochs + 1):
        fm = f.reshape(ds.n, d)
        loss = float(loss_value_batch(cfg.loss, fm, ds.targets).mean()
                     + 0.5 * cfg.lam * float(coef @ f))
        grad = loss_grad_batch(cfg.loss, fm, ds.targets).ravel() / ds.n
        step = kernel.matvec(grad) + cfg.lam * f
        residual = float(np.linalg.norm(step))
        losses.append(loss)
        if not np.isfinite(loss) or not np.all(np.isfinite(step)):
            raise DivergenceDetected(f"function-space loss diverged at epoch {epoch}")
        if tol is not None and residual <= tol:
            break
        f = f - lr * step
        coef = coef - lr * (grad + cfg.lam * coef)
    if tol is not None and residual > tol:
        raise NotConverged(f"stationarity residual {residual:.3e} exceeds {tol} "
                           f"after {epoch} epochs")
    return FunctionState(f, epoch, residual, np.asarray(losses))


def fit_outputs(kernel: KernelMatrix, ds: LabeledDataset, cfg: RiskConfig) -> FunctionState:
    """Exact minimizer f = K c of the regularized risk, by damped Newton on c:
    with r = grad_f risk + lambda c (K r is the gradient in c), C the blockwise
    root of the loss Hessians / N and M = lambda I + C K C, the step
    (C M^-1 C K r - r) / lambda (GPML Alg. 3.1, from the current gradient, so
    rounding does not accumulate) is halved until ||K r|| falls. CG solves M,
    exactly preconditioned for scalar blocks on a Kronecker kernel. Stops at
    ||K r|| <= NEWTON_STOP (1 + ||f||), zero included; NotConverged after
    NEWTON_MAX_STEPS steps."""
    d, lam = kernel.d_out, cfg.lam
    if kernel.shape[0] != ds.n * d or ds.d_out != d:
        raise DimensionMismatch("kernel does not match the dataset")
    kernel = kernel.gather()

    def gradient(f, coef):
        r = loss_grad_batch(cfg.loss, f.reshape(ds.n, d), ds.targets).ravel() / ds.n + lam * coef
        kr = kernel.matvec(r)
        return f, coef, r, kr, float(np.linalg.norm(kr))
    f, coef, r, kr, residual = gradient(np.zeros(ds.n * d), np.zeros(ds.n * d))
    for step in range(NEWTON_MAX_STEPS + 1):
        if residual <= NEWTON_STOP * (1.0 + float(np.linalg.norm(f))):
            return FunctionState(f, step, residual)
        if step == NEWTON_MAX_STEPS:
            raise NotConverged(f"Newton fit: residual {residual:.3e} after {step} steps")
        c = psd_sqrt_blocks(loss_hess_batch(cfg.loss, f.reshape(ds.n, d), ds.targets) / ds.n)
        pre = None if c.ndim > 1 else kron_preconditioner(c[:, None] * kernel.kron_factor() * c, lam)
        sol = cg_solve(lambda v: lam * v + apply_sqrt(c, kernel.matvec(apply_sqrt(c, v))),
                       apply_sqrt(c, kr), CgOptions(FIT_REL_TOL, FIT_MAX_ITERS), pre)
        if not sol.converged:
            raise NotConverged(f"Newton fit: CG residual {sol.residual:.3e} after {sol.iters} "
                               "iterations")
        delta = (apply_sqrt(c, sol.x) - r) / lam
        k_delta, t = kernel.matvec(delta), 1.0
        # the accepted trial, with its gradient, is the next iterate
        while (trial := gradient(f + t * k_delta, coef + t * delta))[-1] >= residual and t > 1e-10:
            t /= 2
        f, coef, r, kr, residual = trial


def infinite_predict(k_test_train: KernelMatrix, alpha: np.ndarray) -> np.ndarray:
    """Converged outputs at test points: K(x_t, X) alpha (training starts at f = 0)."""
    return k_test_train.matvec(alpha).reshape(-1, k_test_train.d_out)


@dataclass
class InfiniteInfluenceResult:
    est_output: np.ndarray   # (T, d_out)
    act_output: np.ndarray
    est_loss_raw: np.ndarray
    est_loss_reg: np.ndarray
    act_loss: np.ndarray
    kernel: KernelMatrix     # the training kernel the estimates were solved against
    diagnostics: dict = field(default_factory=dict)


def infinite_influence(spec: AnalyticNtkSpec, split: SplitDataset, test_ds: LabeledDataset,
                       cfg: RiskConfig, opts: CgOptions = CgOptions()) -> InfiniteInfluenceResult:
    """Estimated vs actual changes at test points after removing the forget set.

    Estimates: reduced coefficient solve with the analytic kernel and the
    exactly fitted outputs. Actuals: an exact refit on the retain set, both
    models evaluated at the test points through their kernel expansions.
    """
    full = split.full
    kernel = analytic_ntk(spec, full.features)
    state = fit_outputs(kernel, full, cfg)
    alpha = alpha_star_from_outputs(state.f_train, full, cfg)

    retain = slice(split.n_forget, split.n)
    k_retain = kernel.submatrix(retain, retain)
    state_r = fit_outputs(k_retain, split.retain, cfg)
    alpha_r = alpha_star_from_outputs(state_r.f_train, split.retain, cfg)

    solver = DualUnlearner(kernel, state.f_train, split, cfg, opts)
    coeffs = solver.solve()

    k_test = analytic_ntk(spec, test_ds.features, full.features)
    k_test_retain = k_test.submatrix(slice(0, test_ds.n), retain)
    f_test = infinite_predict(k_test, alpha)
    f_test_r = infinite_predict(k_test_retain, alpha_r)

    est_out, est_raw, est_reg = predict_changes_dual(
        k_test, kernel, coeffs, f_test.ravel(), test_ds.targets, cfg)
    act_out = f_test_r - f_test
    act_loss = (loss_value_batch(cfg.loss, f_test_r, test_ds.targets)
                - loss_value_batch(cfg.loss, f_test, test_ds.targets))
    return InfiniteInfluenceResult(
        est_output=est_out, act_output=act_out,
        est_loss_raw=est_raw, est_loss_reg=est_reg, act_loss=act_loss,
        kernel=kernel,
        diagnostics={
            "fit_steps_full": state.epoch, "fit_residual_full": state.residual,
            "fit_steps_retain": state_r.epoch, "fit_residual_retain": state_r.residual,
            **solver.diagnostics,
        },
    )
