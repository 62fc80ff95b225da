"""Solvers for SPD systems: conjugate gradients given only a matvec, optionally
Kronecker-preconditioned, and an in-place dense Cholesky factorization.

CG is hand-rolled rather than scipy's so the influence paths get the
diagnostics they are contracted to report: exact iteration counts, the p'Ap
positivity abort, non-finite detection, and soft max-iteration behavior that
returns the best iterate flagged instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NonFiniteEncountered, SpdViolation


@dataclass(frozen=True)
class CgOptions:
    rel_tol: float = 1e-10
    max_iters: int = 10000

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class CgResult:
    x: np.ndarray
    residual: float          # final ||A x - b||
    iters: int
    converged: bool


def cg_solve(apply_a, rhs: np.ndarray, opts: CgOptions = CgOptions(),
             precondition=None) -> CgResult:
    """Solve A x = rhs for an SPD operator ``apply_a``, optionally preconditioned
    by an SPD r -> P r with P ~ A^{-1} (the stopping test is on r itself).
    Hitting max_iters is soft: the best iterate is returned with converged=False.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if not np.all(np.isfinite(rhs)):
        raise NonFiniteEncountered("rhs contains non-finite entries")
    b_norm = float(np.linalg.norm(rhs))
    if b_norm == 0.0:
        return CgResult(np.zeros_like(rhs), 0.0, 0, True)

    x = np.zeros_like(rhs)
    r = rhs.copy()
    z, rz = (r, float(r @ r)) if precondition is None else _preconditioned(precondition, r, 0)
    p = z.copy()
    step = np.empty_like(rhs)  # scratch for alpha p, alpha Ap
    res_norm = b_norm
    iters = 0
    for k in range(1, opts.max_iters + 1):
        ap = np.asarray(apply_a(p))
        with np.errstate(invalid="ignore"):  # a non-finite Ap is reported below
            pap = float(p @ ap)
        # a non-finite entry of Ap makes p'Ap non-finite, so Ap is scanned
        # only then
        if not np.isfinite(pap) and not np.all(np.isfinite(ap)):
            raise NonFiniteEncountered(f"operator output non-finite at iteration {k}")
        if pap <= 0.0:
            raise SpdViolation(f"p'Ap = {pap:.3e} <= 0 at iteration {k}: operator not SPD")
        alpha = rz / pap
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, ap, out=step)
        iters = k
        rr_next = float(r @ r)
        res_norm = float(np.sqrt(rr_next))  # what np.linalg.norm(r) computes
        if res_norm <= opts.rel_tol * b_norm:
            return CgResult(x, res_norm, iters, True)
        z, rz_next = (r, rr_next) if precondition is None else _preconditioned(precondition, r, k)
        p *= rz_next / rz
        p += z
        rz = rz_next
    return CgResult(x, res_norm, iters, False)


def _preconditioned(precondition, r: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """z = P r and r'z, checked positive and finite."""
    z = np.asarray(precondition(r))
    with np.errstate(invalid="ignore"):  # a non-finite z is reported below
        rz = float(r @ z)
    if not rz > 0.0:
        raise (SpdViolation if np.isfinite(rz) else NonFiniteEncountered)(
            f"r'Pr = {rz:.3e} at iteration {k}: preconditioner not SPD and finite")
    return z, rz


def kron_preconditioner(sigma: np.ndarray, shift: float):
    """r -> ((shift I + sigma)^{-1} (x) I) r: one eigendecomposition of the
    symmetric point-side ``sigma``, then one numpy GEMM per application."""
    if not np.all(np.isfinite(sigma)):
        raise NonFiniteEncountered("Kronecker preconditioner factor has non-finite entries")
    w, v = np.linalg.eigh(sigma)
    if w[0] + shift <= 0.0:
        raise SpdViolation(f"shift + min eig(sigma) = {w[0] + shift:.3e} <= 0: not positive definite")
    inv = (v / (w + shift)) @ v.T
    return lambda r: (inv @ r.reshape(inv.shape[0], -1)).ravel()


def cholesky_in_place(m: np.ndarray):
    """Cholesky factor of the symmetric C-ordered matrix ``m``, for cho_solve.

    m.T is m in Fortran order, so LAPACK factors it where it lies, reading
    its lower triangle (m's upper one); m's buffer is overwritten. Raises
    NonFiniteEncountered for non-finite entries and SpdViolation when m is
    not positive definite.
    """
    try:
        return scipy.linalg.cho_factor(m.T, lower=True, overwrite_a=True)
    except np.linalg.LinAlgError as e:  # a subclass of ValueError, so caught first
        raise SpdViolation(f"Cholesky factorization failed: {e}") from e
    except ValueError as e:  # check_finite found a NaN or Inf
        raise NonFiniteEncountered("matrix to factor has non-finite entries") from e
