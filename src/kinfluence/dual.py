"""Kernel-space influence: the reduced coefficient system and its predictors.

Unlearning in coefficient space rests on the representer structure of the
linearized optimum: theta_hat - c = J' alpha, c the risk's center, with
alpha = -(1/lambda) grad_f risk. Removing the forget block fixes the forget
coefficients analytically, so only the retain-block system

    H_rr x = (|Df|/|D|) g_r - H_rf x_f

has to be solved, and every matrix in it is a slice of the precomputed kernel.
Substituting the known forget coefficients turns it into a system in
M = lambda I + B_r^{1/2} K_rr B_r^{1/2}, whose eigenvalues are at least
lambda however singular K_rr is (see DualUnlearner).
At finite width the answer ends at delta_alpha and its parameter change
J' delta_alpha (map_to_params); test-point changes are then those of parameter
space. The same machinery runs against analytic infinite-width kernels, where
model outputs come from function-space training instead of a parameter vector
and predict_changes_dual forms the test-point changes from kernels.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .datasets import SplitDataset
from .errors import DimensionMismatch, NonFiniteEncountered
from .kernels import KernelMatrix
from .losses import loss_grad_batch, loss_hess_batch
from .models import LinearizedModel
from .solvers import (CgOptions, block_cholesky, block_solve, cg_solve, cho_solve,
                      cholesky_in_place, kron_preconditioner)
from .training import RiskConfig

DENSE_SOLVE_MAX = 4096


class DualCoefficients(NamedTuple):
    """alpha_star and delta_alpha over the whole dataset, forget block first."""

    alpha_star: np.ndarray
    delta_alpha: np.ndarray


def alpha_star_from_outputs(f_vec: np.ndarray, ds, cfg: RiskConfig) -> np.ndarray:
    """-(1/lambda) grad of the risk w.r.t. the vectorized outputs ``f_vec``: the
    representer coefficients when the outputs are those of the optimum."""
    f = np.asarray(f_vec, dtype=np.float64).reshape(ds.n, ds.d_out)
    g = loss_grad_batch(cfg.loss, f, ds.targets).ravel()
    # single fused denominator so -alpha's forget block reproduces the known
    # value grad/(N lam) bitwise
    return -g / (cfg.lam * ds.n)


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


def _packed_system(kernel: KernelMatrix, n_forget: int, c: np.ndarray, lam: float,
                   v: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """M = lam I + C K_rr C as its upper block rows (solvers.block_cholesky) and
    K_r. v: K_rf v_f from one product through the kernel, the rest from one
    pass over a dense kernel's retain rows from the diagonal block on, a few
    points at a time: at most 20 block rows of whole points, each of at least
    64 rows but the last. C scales rows, then columns, so each entry is
    bitwise the same however the rows chunk."""
    d, n_f = kernel.d_out, n_forget * kernel.d_out
    n = kernel.shape[0] - n_f
    size = max(-(-64 // d), -(-n // (20 * d)))  # points per block row
    rows, kv = [], kernel.submatrix(slice(n_forget, None), slice(n_forget)).matvec(v[:n_f])
    # each of a chunk's two buffers holds up to 1/64 of M's entries, or one point
    step = max(1, n * n // (64 * d * kernel.shape[1]))
    for e in range(0, n // d, size):
        row = np.empty((min(size * d, n - e * d), n - e * d))
        for p0 in range(e, e + len(row) // d, step):
            p1 = min(p0 + step, e + len(row) // d)
            r0, r1, o = p0 * d, p1 * d, (p0 - e) * d
            ku = kernel.rows_block(np.arange(n_forget + p0, n_forget + p1),
                                   slice(n_forget + e, None))  # K_rr[r0:r1, e d:]
            kv[r0:r1] += ku[:, o:] @ v[n_f + r0:]
            kv[r1:] += ku[:, o + r1 - r0:].T @ v[n_f + r0:n_f + r1]  # K_rr's other triangle
            k4 = ku.reshape(p1 - p0, d, -1, d)
            if c.ndim == 1:
                k4 *= c[p0:p1, None, None, None]
                k4 *= c[e:, None]
            else:
                k4 = sum(c[p0:p1, :, j, None, None] * k4[:, None, j] for j in range(d))
                k4 = sum(k4[..., j, None] * c[e:, :, j] for j in range(d))
            row[o:o + r1 - r0] = k4.reshape(r1 - r0, -1)
        row[np.arange(len(row)), np.arange(len(row))] += lam
        rows.append(row)
    return rows, kv


class DualUnlearner:
    """Prepares the reduced system once; repeated reduced solves reuse it.

    With a = (|Df|/|Dr|) alpha_r, C = B_r^{1/2} (blockwise PSD square root),
    M = lambda I + C K_rr C and b = C (K_rf alpha_f - K_rr a), the retain
    block x_r = a + C M^{-1} b solves the reduced system exactly (the
    symmetric form of GPML Alg. 3.2). M is Cholesky-factored when its side is
    at most DENSE_SOLVE_MAX, else solved by CG with one K_rr matvec per
    iteration, preconditioned by (lambda I + c K_rr.kron_factor() c) (x) I for
    scalar blocks on a dense kernel. For scalar blocks and a Kronecker kernel,
    M = (lambda I + c sigma_rr c) (x) I and only the sigma-sized factor is formed;
    with full blocks, forming M would densify the kernel, so CG always runs.

    ``kernel`` is the training kernel in split order, forget block first;
    an index view of the stored kernel (``submatrix(perm, perm)``) serves and
    copies nothing. On a dense kernel, prepare() builds M as its upper block
    rows (about n(n+1)/2 entries) from one pass over the retain rows and
    factors them in place, so the dense solve holds only the stored kernel
    and half of M, and a warm solve runs in numpy alone. Otherwise it
    gathers K_rr (sigma_rr for a Kronecker kernel) once, and K_rf for the
    one product it takes part in; the CG path keeps the gathered K_rr for
    its matvecs. A factored solve records cond_lower = (max L_ii / min L_ii)^2
    <= cond(M) in ``diagnostics``, and no iters or residual: it measures none.
    """

    def __init__(self, kernel: KernelMatrix, f_vec: np.ndarray, split: SplitDataset,
                 cfg: RiskConfig, opts: CgOptions = CgOptions(),
                 dense_threshold: int | None = None, materialize_hrr: bool = False):
        # dense_threshold and materialize_hrr select nothing; kept for old callers
        if kernel.n_rows != split.n or kernel.n_cols != split.n:
            raise DimensionMismatch("kernel size does not match the split")
        self.kernel = kernel
        self.f_vec = np.asarray(f_vec, dtype=np.float64)
        self.split = split
        self.cfg = cfg
        self.opts = opts
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
        self.a = (split.n_forget / split.n_retain) * self.alpha[n_f:]
        kron = self.kernel.kron
        self.use_dense = ((not kron or self.c.ndim == 1)
                          and split.n_retain * (1 if kron else d) <= DENSE_SOLVE_MAX)
        # the kernel is forget block first. A dense M is built in block rows
        # from the retain rows, which also give - K_rr a; K_rf alpha_f is one
        # product through the view. Otherwise K_rr is gathered once, and K_rf
        # for its one product: that reads |Dr| |Df| entries, where a product
        # through the view would run over the whole stored kernel
        if self.use_dense and not kron:
            rows, kv = _packed_system(self.kernel, split.n_forget, self.c, cfg.lam,
                                      np.concatenate([self.alpha[:n_f], -self.a]))
        else:
            fi, ri = slice(0, split.n_forget), slice(split.n_forget, split.n)
            k_rr = self.kernel.submatrix(ri, ri).gather()
            kv = (self.kernel.submatrix(ri, fi).gather().matvec(self.alpha[:n_f])
                  - k_rr.matvec(self.a))
        self.b = _apply_sqrt(self.c, kv)
        # checked once here: the dense solves do not rescan b or the factor
        if not np.all(np.isfinite(self.b)):
            raise NonFiniteEncountered("reduced right-hand side has non-finite entries")
        # the factorization is part of operator construction (cold work);
        # warm solves reuse it
        if not self.use_dense:
            self.k_rr = k_rr
            self._precondition = (None if kron or self.c.ndim > 1 else kron_preconditioner(
                self.c[:, None] * k_rr.kron_factor() * self.c, cfg.lam))
        elif kron:
            m = k_rr.sigma
            m *= self.c[:, None]
            m *= self.c
            m[np.diag_indices_from(m)] += cfg.lam
            self._factor = cholesky_in_place(m)
            diag = self._factor[0].diagonal()
        else:
            block_cholesky(rows)
            self._factor = rows
            diag = np.concatenate([p.diagonal() for p in rows])  # 1/U_ii: the same max/min
        if self.use_dense:  # cond(M) = cond(L)^2 >= (max L_ii / min L_ii)^2
            self.diagnostics["cond_lower"] = float((diag.max() / diag.min()) ** 2)
        self._prepared = True

    def _apply_m(self, v: np.ndarray) -> np.ndarray:
        return self.cfg.lam * v + _apply_sqrt(self.c, self.k_rr.matvec(_apply_sqrt(self.c, v)))

    # -- warm work ----------------------------------------------------------
    def solve(self) -> DualCoefficients:
        if not self._prepared:
            self.prepare()
        if self.use_dense:
            # the factor of a checked finite M: no second scan
            y = (cho_solve(self._factor, self.b.reshape(len(self._factor[0]), -1)).ravel()
                 if self.kernel.kron else block_solve(self._factor, self.b))
            self.diagnostics.update({"solver": "dense", "converged": True})
        else:
            res = cg_solve(self._apply_m, self.b, self.opts, self._precondition)
            y = res.x
            self.diagnostics.update({"solver": "cg", "iters": res.iters,
                                     "residual": res.residual, "converged": res.converged})
        delta = np.concatenate([self.delta_f, self.a + _apply_sqrt(self.c, y)])
        return DualCoefficients(self.alpha, delta)


def map_to_params(lin: LinearizedModel, theta_hat: np.ndarray, delta_alpha: np.ndarray,
                  X: np.ndarray) -> np.ndarray:
    """theta_hat + J(theta_ref)' delta_alpha over the full training inputs; a
    repeat on the same inputs runs no forward pass."""
    if delta_alpha.shape[0] != X.shape[0] * lin.spec.d_out:
        raise DimensionMismatch("delta_alpha length does not match the dataset")
    theta_u = lin.linearization(X).vjp(delta_alpha)
    theta_u += theta_hat
    return theta_u


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

