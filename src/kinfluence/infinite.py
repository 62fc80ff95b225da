"""Infinite-width ReLU networks: analytic tangent kernel and function-space
training.

The kernel follows the layerwise arc-cosine recursion for fully connected
ReLU stacks; with a fully connected readout it factors as sigma (x) I_{d_out}.
Training happens directly on the output vector, starting from f = 0: each
step moves f by -lr (K grad_f risk + lambda f), whose fixed point under
squared loss is the kernel-ridge interpolant. Influence estimation reuses the
coefficient machinery verbatim with the analytic kernel and KGD outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datasets import LabeledDataset, SplitDataset
from .errors import DimensionMismatch, DivergenceDetected, NotConverged
from .kernels import KernelMatrix
from .losses import CROSS_ENTROPY, loss_grad_batch, loss_value_batch
from .solvers import CgOptions
from .training import RiskConfig
from .dual import DENSE_SOLVE_MAX, DualUnlearner, alpha_star_from_outputs, predict_changes_dual


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


def _relu_arc_step(sig: np.ndarray, k1: np.ndarray, k2: np.ndarray, sw2: float, sb2: float):
    """One hidden layer of the arc-cosine recursion.

    Given the previous-layer covariances (cross sig, self k1/k2), returns the
    next covariances and the derivative kernel sig_dot.
    """
    norm = np.sqrt(np.outer(k1, k2))
    rho = np.clip(np.divide(sig, norm, out=np.zeros_like(sig), where=norm > 0), -1.0, 1.0)
    theta = np.arccos(rho)
    sig_next = sw2 * norm * (np.sin(theta) + (np.pi - theta) * np.cos(theta)) / (2 * np.pi) + sb2
    sig_dot = sw2 * (np.pi - theta) / (2 * np.pi)
    k1_next = sw2 * k1 / 2.0 + sb2
    k2_next = sw2 * k2 / 2.0 + sb2
    return sig_next, sig_dot, k1_next, k2_next


def analytic_ntk(spec: AnalyticNtkSpec, X1: np.ndarray, X2: np.ndarray | None = None) -> KernelMatrix:
    """Tangent kernel of the infinitely wide ReLU network on two input batches.

    Base case sigma_w2 x'x / d_in + sigma_b2; each hidden layer applies the
    arc-cosine covariance map and accumulates theta_kernel = sig + sig_dot *
    theta_kernel. The result is the (N1, N2) Kronecker factor.
    """
    X1 = np.atleast_2d(np.asarray(X1, dtype=np.float64))
    X2v = X1 if X2 is None else np.atleast_2d(np.asarray(X2, dtype=np.float64))
    if X1.shape[1] != X2v.shape[1]:
        raise DimensionMismatch("input widths differ")
    d_in = X1.shape[1]
    sig = spec.sigma_w2 * (X1 @ X2v.T) / d_in + spec.sigma_b2
    k1 = spec.sigma_w2 * np.einsum("ij,ij->i", X1, X1) / d_in + spec.sigma_b2
    k2 = spec.sigma_w2 * np.einsum("ij,ij->i", X2v, X2v) / d_in + spec.sigma_b2
    theta_kernel = sig.copy()
    for _ in range(spec.hidden_layers):
        sig, sig_dot, k1, k2 = _relu_arc_step(sig, k1, k2, spec.sigma_w2, spec.sigma_b2)
        theta_kernel = sig + sig_dot * theta_kernel
    return KernelMatrix(spec.d_out, sigma=theta_kernel)


# --------------------------------------------------------------------------
# Kernel gradient descent in function space
# --------------------------------------------------------------------------

@dataclass
class FunctionState:
    f_train: np.ndarray          # (d_out*N,), point-major
    epoch: int
    residual: float              # ||K grad_f risk + lambda f||
    loss_history: np.ndarray = field(default=None, repr=False)


def stable_kgd_lr(kernel: KernelMatrix, n: int, cfg: RiskConfig, safety: float = 1.8) -> float:
    """Step size from the quadratic stability bound 2 / (h_max lam_max(K)/N + lam)."""
    mat = kernel.sigma if kernel.sigma is not None else kernel.dense
    lam_max = float(np.linalg.eigvalsh((mat + mat.T) / 2.0).max())
    h_max = 0.5 if cfg.loss == CROSS_ENTROPY else 1.0
    return safety / (h_max * lam_max / n + cfg.lam)


def kgd_train(kernel: KernelMatrix, ds: LabeledDataset, cfg: RiskConfig,
              lr: float | None = None, epochs: int = 5000,
              tol: float | None = None) -> FunctionState:
    """Full-batch function-space descent of the regularized risk.

    The iterate starts at 0 and stays in the span of kernel columns, f = K c,
    so the reproducing-norm regularizer is tracked exactly as (lam/2) c'f.
    Stops early when the stationarity residual drops below ``tol``; raises
    DivergenceDetected when the loss stops being finite or grows without
    bound (the empirical stability check of the step size).
    """
    d = kernel.d_out
    if kernel.shape[0] != ds.n * d or ds.d_out != d:
        raise DimensionMismatch("kernel does not match the dataset")
    if lr is None:
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
        if len(losses) > 10 and losses[-1] > 1e6 * (abs(losses[0]) + 1.0):
            raise DivergenceDetected(f"function-space loss grew unboundedly at epoch {epoch}")
        if tol is not None and residual <= tol:
            break
        f = f - lr * step
        coef = coef - lr * (grad + cfg.lam * coef)
    return FunctionState(f, epoch, residual, np.asarray(losses))


def require_converged(state: FunctionState, tol: float) -> None:
    if state.residual > tol:
        raise NotConverged(
            f"stationarity residual {state.residual:.3e} exceeds {tol} after {state.epoch} epochs"
        )


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
                       cfg: RiskConfig, opts: CgOptions = CgOptions(),
                       lr: float | None = None, epochs: int = 20000,
                       tol: float = 1e-6, dense_threshold: int = DENSE_SOLVE_MAX) -> InfiniteInfluenceResult:
    """Estimated vs actual changes at test points after removing the forget set.

    Estimates: reduced coefficient solve with the analytic kernel and the
    fully trained outputs. Actuals: a second function-space training run on
    the retain set, with both models evaluated at the test points through
    their kernel expansions.
    """
    full = split.full
    kernel = analytic_ntk(spec, full.features)
    state = kgd_train(kernel, full, cfg, lr=lr, epochs=epochs, tol=tol)
    require_converged(state, tol)
    alpha = alpha_star_from_outputs(state.f_train, full, cfg)

    retain_idx = np.arange(split.n_forget, split.n)
    k_retain = kernel.submatrix(retain_idx, retain_idx)
    state_r = kgd_train(k_retain, split.retain, cfg, lr=lr, epochs=epochs, tol=tol)
    require_converged(state_r, tol)
    alpha_r = alpha_star_from_outputs(state_r.f_train, split.retain, cfg)

    solver = DualUnlearner(kernel, state.f_train, split, cfg, opts,
                           dense_threshold=dense_threshold)
    coeffs = solver.solve()

    k_test = analytic_ntk(spec, test_ds.features, full.features)
    k_test_retain = k_test.submatrix(np.arange(test_ds.n), retain_idx)
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
            "kgd_epochs_full": state.epoch, "kgd_residual_full": state.residual,
            "kgd_epochs_retain": state_r.epoch, "kgd_residual_retain": state_r.residual,
            **solver.diagnostics,
        },
    )
