"""Solvers for SPD systems, in numpy: conjugate gradients given only a matvec,
optionally Kronecker-preconditioned, and a blocked Cholesky factorization of a
matrix held as its upper block rows, with its solves. Only cholesky_in_place
and cho_solve, for the Kronecker factor, call scipy; each imports it when
called.

CG is hand-rolled rather than scipy's so the influence paths get the
diagnostics they are contracted to report: exact iteration counts, the p'Ap
positivity abort, non-finite detection, and soft max-iteration behavior that
returns the best iterate flagged instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    v *= (w + shift) ** -0.5  # in place: sigma, v and inv are the N x N buffers
    inv = v @ v.T
    return lambda r: (inv @ r.reshape(inv.shape[0], -1)).ravel()


def block_cholesky(rows: list[np.ndarray]) -> None:
    """Cholesky factor U, M = U^T U, in place, of the n x n SPD matrix M held as
    its upper block rows: rows[k] = M[e:e + b, e:], C-ordered, with
    e = n - rows[k].shape[1]. Row k then holds U[e:e + b, e + b:] and, in place
    of the diagonal block U_kk, its inverse, for block_solve. Blocked and
    left-looking, in numpy (Golub & Van Loan 4.2): a block row takes one GEMM
    update from each row above it, np.linalg.cholesky factors its diagonal
    block from the upper triangle, and the rest of the row is one GEMM with
    that block's inverse. Raises NonFiniteEncountered for non-finite entries,
    else SpdViolation."""
    try:  # a non-finite entry ends as a failed block or on the factor's diagonal
        with np.errstate(invalid="ignore", over="ignore"):
            for k, p in enumerate(rows):
                b = len(p)
                for q in rows[:k]:
                    u = q[:, q.shape[1] - p.shape[1]:]  # U[rows of q, e:]
                    p -= u[:, :b].T @ u
                ukk = np.linalg.cholesky(p[:, :b].T).T
                if not np.isfinite(ukk.trace()):
                    raise np.linalg.LinAlgError("non-finite diagonal")
                p[:, :b] = np.triu(np.linalg.inv(ukk))
                p[:, b:] = p[:, :b].T @ p[:, b:]
    except np.linalg.LinAlgError as e:
        if all(np.all(np.isfinite(p)) for p in rows):
            raise SpdViolation(f"block Cholesky factorization failed: {e}") from e
        raise NonFiniteEncountered("matrix to factor has non-finite entries") from e


def block_solve(rows: list[np.ndarray], b: np.ndarray) -> np.ndarray:
    """M^{-1} b for M = U^T U factored by block_cholesky: one forward block
    substitution with U^T and one backward with U, numpy GEMVs only."""
    x, n = b.copy(), len(b)
    for p in rows:  # U^T y = b; each solved block updates the rest
        e, k = n - p.shape[1], len(p)
        x[e:e + k] = p[:, :k].T @ x[e:e + k]
        x[e + k:] -= p[:, k:].T @ x[e:e + k]
    for p in rows[::-1]:  # U x = y
        e, k = n - p.shape[1], len(p)
        x[e:e + k] = p[:, :k] @ (x[e:e + k] - p[:, k:] @ x[e + k:])
    return x


def cholesky_in_place(m: np.ndarray):
    """Cholesky factor of the symmetric C-ordered matrix ``m``, for cho_solve.

    m.T is m in Fortran order, so LAPACK factors it where it lies, reading
    its lower triangle (m's upper one); m's buffer is overwritten. Raises
    NonFiniteEncountered for non-finite entries and SpdViolation when m is
    not positive definite.
    """
    import scipy.linalg
    try:
        return scipy.linalg.cho_factor(m.T, lower=True, overwrite_a=True)
    except np.linalg.LinAlgError as e:  # a subclass of ValueError, so caught first
        raise SpdViolation(f"Cholesky factorization failed: {e}") from e
    except ValueError as e:  # check_finite found a NaN or Inf
        raise NonFiniteEncountered("matrix to factor has non-finite entries") from e


def cho_solve(factor, b: np.ndarray) -> np.ndarray:
    """M^{-1} b for the cholesky_in_place factor of a finite M; b is not scanned."""
    import scipy.linalg
    return scipy.linalg.cho_solve(factor, b, check_finite=False)
