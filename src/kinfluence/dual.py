"""Kernel-space influence: the reduced coefficient system and its predictors.

Unlearning in coefficient space rests on the representer structure of the
linearized optimum: theta_hat - theta_ref = J' alpha with
alpha = -(1/lambda) grad_f risk. Removing the forget block fixes the forget
coefficients analytically, so only the retain-block system

    H_rr x = (|Df|/|D|) g_r - H_rf x_f

has to be solved, and every matrix in it is a slice of the precomputed kernel.
Substituting the known forget coefficients turns it into a system in
M = lambda I + B_r^{1/2} K_rr B_r^{1/2}, whose eigenvalues are at least
lambda however singular K_rr is (see DualUnlearner).
The same machinery runs against analytic infinite-width kernels, where model
outputs come from function-space training instead of a parameter vector.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

from .datasets import SplitDataset
from .errors import DegenerateSplit, DimensionMismatch, NotAtOptimum
from .kernels import KernelMatrix, empirical_ntk
from .losses import loss_grad_batch, loss_hess_batch
from .models import LinearizedModel, model_outputs, vjp
from .report import InfluenceReport, PerTestChange
from .solvers import CgOptions, cg_solve
from .training import CENTER_ORIGIN, RiskConfig, stationarity_gap

DENSE_SOLVE_MAX = 512


class DualCoefficients:
    """alpha_star and delta_alpha over the whole dataset, forget block first."""

    def __init__(self, alpha_star: np.ndarray, delta_alpha: np.ndarray,
                 d_out: int, n_forget: int):
        if alpha_star.shape != delta_alpha.shape:
            raise DimensionMismatch("alpha/delta length mismatch")
        self.alpha_star = alpha_star
        self.delta_alpha = delta_alpha
        self.d_out = d_out
        self.n_forget = n_forget

    @property
    def delta_forget(self) -> np.ndarray:
        return self.delta_alpha[: self.n_forget * self.d_out]

    @property
    def delta_retain(self) -> np.ndarray:
        return self.delta_alpha[self.n_forget * self.d_out:]


def _require_stationary(lin: LinearizedModel, theta_hat: np.ndarray, ds, cfg: RiskConfig) -> None:
    # the representer identity theta_hat - theta_ref = J' alpha fails away
    # from the optimum, so coefficient space hard-errors there
    gap = stationarity_gap(lin, theta_hat, ds, cfg)
    if gap is not None:
        raise NotAtOptimum(gap)


def alpha_star(lin: LinearizedModel, theta_hat: np.ndarray, ds, cfg: RiskConfig) -> np.ndarray:
    """-(1/lambda) grad of the risk w.r.t. vectorized outputs at the optimum.

    Hard-errors when theta_hat is not stationary.
    """
    if cfg.center == CENTER_ORIGIN and np.any(lin.theta_ref != 0.0):
        raise ValueError("origin-centered risk requires linearization around 0")
    _require_stationary(lin, theta_hat, ds, cfg)
    return alpha_star_from_outputs(model_outputs(lin, theta_hat, ds.features), ds, cfg)


def alpha_star_from_outputs(f_vec: np.ndarray, ds, cfg: RiskConfig) -> np.ndarray:
    """Same map given vectorized outputs directly (function-space callers)."""
    f = np.asarray(f_vec, dtype=np.float64).reshape(ds.n, ds.d_out)
    g = loss_grad_batch(cfg.loss, f, ds.targets).ravel()
    # single fused denominator so -alpha's forget block reproduces the known
    # value grad/(N lam) bitwise
    return -g / (cfg.lam * ds.n)


def representer_residual(lin: LinearizedModel, theta_hat: np.ndarray, ds,
                         alpha: np.ndarray) -> float:
    """Relative residual of theta_hat - theta_ref = J' alpha (rank diagnostic)."""
    lhs = theta_hat - lin.theta_ref
    rhs = vjp(lin.spec, lin.theta_ref, ds.features, alpha)
    denom = np.linalg.norm(lhs)
    return float(np.linalg.norm(lhs - rhs) / denom) if denom > 0 else float(np.linalg.norm(rhs))


def _apply_blockdiag(blocks: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """(blockdiag B) @ mat for per-point (d,d) blocks; mat has N*d rows."""
    n, d, _ = blocks.shape
    return np.einsum("nij,njc->nic", blocks, mat.reshape(n, d, -1)).reshape(n * d, -1)


def _psd_sqrt_blocks(blocks: np.ndarray) -> np.ndarray:
    """Blockwise PSD square root of blockdiag(blocks): per-point scalars, shape
    (N,), when every block is a multiple of I, else symmetric (N, d, d) blocks."""
    scale = blocks[:, 0, 0]
    if np.array_equal(blocks, scale[:, None, None] * np.eye(blocks.shape[1])):
        return np.sqrt(scale)
    w, v = np.linalg.eigh(blocks)
    return np.einsum("nij,nj,nkj->nik", v, np.sqrt(np.clip(w, 0.0, None)), v)


def _apply_sqrt(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """C v for either form that _psd_sqrt_blocks returns."""
    if c.ndim == 1:
        return (v.reshape(c.shape[0], -1) * c[:, None]).ravel()
    return np.einsum("nij,nj->ni", c, v.reshape(c.shape[:2])).ravel()


def retain_hessian_blocks(f_vec: np.ndarray, split: SplitDataset, cfg: RiskConfig) -> np.ndarray:
    """Per-point output Hessians of the retain risk: (1/|Dr|) hess blocks."""
    retain = split.retain
    f = np.asarray(f_vec).reshape(split.n, split.full.d_out)[split.n_forget:]
    return loss_hess_batch(cfg.loss, f, retain.targets) / split.n_retain


def dual_hessian_block(kernel: KernelMatrix, b_r: np.ndarray, split: SplitDataset,
                       cfg: RiskConfig, i: str, j: str) -> np.ndarray:
    """Dense block H^{ij} = (|Dr|/|D|) (K_ir B_r K_rj + lambda K_ij)."""
    idx = {"f": np.arange(split.n_forget), "r": np.arange(split.n_forget, split.n)}
    if i not in idx or j not in idx:
        raise ValueError("block labels must be 'f' or 'r'")
    k_ir = kernel.submatrix(idx[i], idx["r"]).to_dense()
    k_rj = kernel.submatrix(idx["r"], idx[j]).to_dense()
    k_ij = kernel.submatrix(idx[i], idx[j]).to_dense()
    scale = split.n_retain / split.n
    return scale * (k_ir @ _apply_blockdiag(b_r, k_rj) + cfg.lam * k_ij)


def dual_rhs(kernel: KernelMatrix, f_vec: np.ndarray, split: SplitDataset,
             cfg: RiskConfig, i: str) -> np.ndarray:
    """Block i of the reparameterized forget-risk gradient at 0:
    K_if grad_f(forget risk) + lambda K_i alpha."""
    alpha = alpha_star_from_outputs(f_vec, split.full, cfg)
    idx = {"f": np.arange(split.n_forget), "r": np.arange(split.n_forget, split.n)}
    if i not in idx:
        raise ValueError("block label must be 'f' or 'r'")
    f = np.asarray(f_vec).reshape(split.n, split.full.d_out)
    g_f = loss_grad_batch(cfg.loss, f[: split.n_forget], split.forget.targets).ravel()
    g_f /= split.n_forget
    k_if = kernel.submatrix(idx[i], idx["f"])
    k_i = kernel.submatrix(idx[i], np.arange(split.n))
    return k_if.matvec(g_f) + cfg.lam * k_i.matvec(alpha)


class DualUnlearner:
    """Prepares the reduced system once; repeated reduced solves reuse it.

    With a = (|Df|/|Dr|) alpha_r, C = B_r^{1/2} (blockwise PSD square root),
    M = lambda I + C K_rr C and b = C (K_rf alpha_f - K_rr a), the retain
    block x_r = a + C M^{-1} b solves the reduced system exactly (the
    symmetric form of GPML Alg. 3.2). M is Cholesky-factored when its side is
    at most ``dense_threshold``, else solved by CG with one K_rr matvec per
    iteration. For scalar blocks (squared loss) and a Kronecker kernel,
    M = (lambda I + c sigma_rr c) (x) I and only the sigma-sized factor is formed.
    """

    def __init__(self, kernel: KernelMatrix, f_vec: np.ndarray, split: SplitDataset,
                 cfg: RiskConfig, opts: CgOptions = CgOptions(),
                 dense_threshold: int = DENSE_SOLVE_MAX, materialize_hrr: bool = False):
        # materialize_hrr selects nothing; it stays for callers that still pass it
        if split.n_forget < 1 or split.n_retain < 1:
            raise DegenerateSplit("both partitions must be nonempty")
        if kernel.n_rows != split.n or kernel.n_cols != split.n:
            raise DimensionMismatch("kernel size does not match the split")
        self.kernel = kernel
        self.f_vec = np.asarray(f_vec, dtype=np.float64)
        self.split = split
        self.cfg = cfg
        self.opts = opts
        self.dense_threshold = dense_threshold
        self.diagnostics: dict = {}
        self._prepared = False

    # -- cold work ----------------------------------------------------------
    def prepare(self) -> None:
        split, cfg = self.split, self.cfg
        d = self.kernel.d_out
        n_f = split.n_forget * d
        self.alpha = alpha_star_from_outputs(self.f_vec, split.full, cfg)
        self.delta_f = -self.alpha[:n_f]
        self.c = _psd_sqrt_blocks(retain_hessian_blocks(self.f_vec, split, cfg))
        fi, ri = np.arange(split.n_forget), np.arange(split.n_forget, split.n)
        k_rr = self.kernel.submatrix(ri, ri)
        self.a = (split.n_forget / split.n_retain) * self.alpha[n_f:]
        self.b = _apply_sqrt(self.c, self.kernel.submatrix(ri, fi).matvec(self.alpha[:n_f])
                             - k_rr.matvec(self.a))
        kron = k_rr.sigma is not None and self.c.ndim == 1
        self.use_dense = split.n_retain * (1 if kron else d) <= self.dense_threshold
        if self.use_dense:
            # the factorization is part of operator construction (cold work);
            # warm solves reuse it
            if self.c.ndim == 1:
                mat, cf = ((k_rr.sigma, self.c) if kron else
                           (k_rr.to_dense(), np.repeat(self.c, d)))
                m = mat * cf[:, None]
                m *= cf
            else:
                m = _apply_blockdiag(self.c, _apply_blockdiag(self.c, k_rr.to_dense()).T)
            m[np.diag_indices_from(m)] += cfg.lam
            self._factor = scipy.linalg.cho_factor(m, overwrite_a=True)
        else:
            self.k_rr = k_rr
        self._prepared = True

    def _apply_m(self, v: np.ndarray) -> np.ndarray:
        return self.cfg.lam * v + _apply_sqrt(self.c, self.k_rr.matvec(_apply_sqrt(self.c, v)))

    # -- warm work ----------------------------------------------------------
    def solve(self) -> DualCoefficients:
        if not self._prepared:
            self.prepare()
        if self.use_dense:
            side = self._factor[0].shape[0]
            y = scipy.linalg.cho_solve(self._factor, self.b.reshape(side, -1)).ravel()
            self.diagnostics.update({"solver": "dense", "iters": 0, "residual": 0.0,
                                     "converged": True})
        else:
            res = cg_solve(self._apply_m, self.b, self.opts)
            y = res.x
            self.diagnostics.update({"solver": "cg", "iters": res.iters,
                                     "residual": res.residual, "converged": res.converged})
        delta = np.concatenate([self.delta_f, self.a + _apply_sqrt(self.c, y)])
        return DualCoefficients(self.alpha, delta, self.kernel.d_out, self.split.n_forget)


def solve_reduced(kernel: KernelMatrix, f_vec: np.ndarray, split: SplitDataset,
                  cfg: RiskConfig, opts: CgOptions = CgOptions(),
                  dense_threshold: int = DENSE_SOLVE_MAX) -> tuple[DualCoefficients, dict]:
    """One-shot reduced-system solve; returns coefficients and diagnostics."""
    solver = DualUnlearner(kernel, f_vec, split, cfg, opts, dense_threshold)
    coeffs = solver.solve()
    return coeffs, solver.diagnostics


def map_to_params(lin: LinearizedModel, theta_hat: np.ndarray, delta_alpha: np.ndarray,
                  X: np.ndarray) -> np.ndarray:
    """theta_hat + J(theta_ref)' delta_alpha over the full training inputs."""
    if delta_alpha.shape[0] != X.shape[0] * lin.spec.d_out:
        raise DimensionMismatch("delta_alpha length does not match the dataset")
    return theta_hat + vjp(lin.spec, lin.theta_ref, X, delta_alpha)


def predict_changes_dual(k_test: KernelMatrix, kernel: KernelMatrix,
                         coeffs: DualCoefficients, f_test_vec: np.ndarray,
                         test_targets: np.ndarray, cfg: RiskConfig):
    """Vectorized output/loss changes at test points.

    Output changes are K_t delta; per-point loss changes row-sum the d_out
    consecutive entries of grad_f loss (*) (K_t delta) and the regularizer
    variant adds the constant lambda alpha' K delta.
    """
    d = kernel.d_out
    n_t = test_targets.shape[0]
    if k_test.shape != (n_t * d, coeffs.delta_alpha.shape[0]):
        raise DimensionMismatch("test kernel shape mismatch")
    df = k_test.matvec(coeffs.delta_alpha).reshape(n_t, d)
    f_t = np.asarray(f_test_vec).reshape(n_t, d)
    g_t = loss_grad_batch(cfg.loss, f_t, test_targets)
    raw = np.einsum("td,td->t", g_t, df)
    reg_term = cfg.lam * float(coeffs.alpha_star @ kernel.matvec(coeffs.delta_alpha))
    return df, raw, raw + reg_term


def dual_report(solver: DualUnlearner, coeffs: DualCoefficients, lin: LinearizedModel,
                theta_hat: np.ndarray, theta_u: np.ndarray, test_ds=None) -> InfluenceReport:
    """The report of one reduced solve whose map to parameters is ``theta_u``:
    solver health, a representer-identity note, and the test-point changes
    when ``test_ds`` is given."""
    split = solver.split
    notes = []
    resid = representer_residual(lin, theta_hat, split.full, coeffs.alpha_star)
    if resid > 1e-6:
        notes.append(f"representer identity residual {resid:.3e} (rank-deficiency diagnostic)")
    report = InfluenceReport(
        delta_theta=theta_u - theta_hat,
        residual=solver.diagnostics.get("residual", 0.0),
        iters=solver.diagnostics.get("iters", 0),
        converged=solver.diagnostics.get("converged", True),
        notes=notes,
    )
    if test_ds is not None:
        k_t = empirical_ntk(lin.spec, lin.theta_ref, test_ds.features, split.full.features)
        f_t = model_outputs(lin, theta_hat, test_ds.features).ravel()
        df, raw, reg = predict_changes_dual(k_t, solver.kernel, coeffs, f_t, test_ds.targets,
                                            solver.cfg)
        report.per_test = [PerTestChange(df[i], float(raw[i]), float(reg[i]))
                           for i in range(test_ds.n)]
    return report


def unlearn_dual(lin: LinearizedModel, theta_hat: np.ndarray, split: SplitDataset,
                 cfg: RiskConfig, opts: CgOptions = CgOptions(),
                 kernel: KernelMatrix | None = None, test_ds=None,
                 dense_threshold: int = DENSE_SOLVE_MAX) -> InfluenceReport:
    """End-to-end coefficient-space unlearning for a linearized model."""
    t0 = time.perf_counter()
    if kernel is None:
        kernel = empirical_ntk(lin.spec, lin.theta_ref, split.full.features)
    _require_stationary(lin, theta_hat, split.full, cfg)
    f_vec = model_outputs(lin, theta_hat, split.full.features).ravel()
    solver = DualUnlearner(kernel, f_vec, split, cfg, opts, dense_threshold)
    coeffs = solver.solve()
    theta_u = map_to_params(lin, theta_hat, coeffs.delta_alpha, split.full.features)
    wall = time.perf_counter() - t0
    report = dual_report(solver, coeffs, lin, theta_hat, theta_u, test_ds)
    report.wall_cold = wall
    return report
