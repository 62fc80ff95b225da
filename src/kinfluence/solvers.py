"""Solvers for SPD systems, in numpy: conjugate gradients given only a matvec,
optionally Kronecker-preconditioned, and a blocked Cholesky factorization of a
matrix held packed, with its solves. Only cholesky_in_place and cho_solve, for
the Kronecker factor, call scipy; each imports it when called.

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
    inv = (v / (w + shift)) @ v.T
    return lambda r: (inv @ r.reshape(inv.shape[0], -1)).ravel()


def rfp_place(packed: np.ndarray, n: int, r0: int, rows: np.ndarray) -> None:
    """Writes ``rows`` = M[r0:r1, r0:], of the n x n symmetric M, into
    ``packed``, M in LAPACK's lower RFP layout (TRANSR='N'; Gustavson et al.
    2010). The layout is a C-ordered (R, n + s) matrix, R = ceil(n/2) and
    s = 1 for even n. It holds M[j, j:] from column s + j of row j < R, and
    M[R + t, R:R + t + 1] from column 0 of row t + 1 - s. So the given rows
    below R land as one rectangle and one triangle, and those from R on too,
    transposed.
    """
    r, s = n - n // 2, 1 - n % 2
    rfp, r1 = packed.reshape(r, n + s), r0 + len(rows)
    o = 1 - s - r  # the RFP row of M's row c >= R is c + o
    for a, b in ((r0, min(r1, r)), (max(r0, r), r1)):
        if a < b:
            rect, tri = ((rfp[a:b, s + b:], rfp[a:b, s + a:s + b]) if a < r else
                         (rfp[b + o:, a - r:b - r].T, rfp[a + o:b + o, a - r:b - r].T))
            rect[...] = rows[a - r0:b - r0, b - r0:]
            np.copyto(tri, rows[a - r0:b - r0, a - r0:b - r0],
                      where=~np.tri(b - a, k=-1, dtype=bool))


def rfp_cholesky(packed: np.ndarray, n: int):
    """Cholesky factor L, in place, of the n x n SPD matrix ``packed`` holds in
    lower RFP layout, for rfp_solve: the views L11^T, L21^T and L22 of
    ``packed`` and the inverted diagonal blocks of L11^T and L22. Blocked and
    left-looking, in numpy (Golub & Van Loan 4.2): a block column takes its GEMM
    update on the stored triangle only, np.linalg.cholesky factors its diagonal
    block, and its panel is a GEMM with that block's inverse. Raises
    NonFiniteEncountered for non-finite entries, else SpdViolation."""
    r, s = n - n // 2, 1 - n % 2  # rfp_place's layout
    rfp = packed.reshape(r, n + s)
    u11, l21t, l22 = rfp[:, s:s + r], rfp[:, s + r:], rfp[1 - s:1 - s + n // 2, :n // 2]

    def part(c0, c1, r0, r1):  # L[r0:r1, c0:c1], each range on one side of r
        if c0 >= r:
            return l22[r0 - r:r1 - r, c0 - r:c1 - r]
        return (u11[c0:c1, r0:r1] if r1 <= r else l21t[c0:c1, r0 - r:r1 - r]).T

    nb = max(64, n // 16)  # at most 16 blocks; their inverses hold n nb entries
    edges, inverses = [*range(0, r, nb), *range(r, n, nb), n], []
    try:  # a non-finite entry ends as a failed block or on the factor's diagonal
        with np.errstate(invalid="ignore", over="ignore"):
            for k0, k1 in zip(edges, edges[1:]):
                rows = [(a, b, part(k0, k1, a, b)) for a, b in ((k0, r), (max(k0, r), n)) if a < b]
                for c0, c1 in ((0, min(k0, r)), (r, k0)):
                    for a, b, t in rows if c0 < c1 else ():
                        np.subtract(t, part(c0, c1, a, b) @ part(c0, c1, k0, k1).T, out=t,
                                    where=np.tri(b - a, k1 - k0, a - k0, dtype=bool))
                diag = part(k0, k1, k0, k1)
                lkk = np.linalg.cholesky(diag)
                np.copyto(diag, lkk, where=np.tri(k1 - k0, dtype=bool))
                inverses.append(np.tril(np.linalg.inv(lkk)))
                for a, b, t in rows:  # the panel, below the diagonal block
                    t[max(k1 - a, 0):] = t[max(k1 - a, 0):] @ inverses[-1].T
            if not np.isfinite(u11.diagonal().sum() + l22.diagonal().sum()):
                raise np.linalg.LinAlgError("non-finite diagonal")
    except np.linalg.LinAlgError as e:
        if np.all(np.isfinite(packed)):
            raise SpdViolation(f"packed Cholesky factorization failed: {e}") from e
        raise NonFiniteEncountered("matrix to factor has non-finite entries") from e
    return u11, l21t, l22, [t.T for t in inverses[:edges.index(r)]], inverses[edges.index(r):]


def _substitute(t: np.ndarray, inverses, x: np.ndarray, forward: bool) -> np.ndarray:
    """x <- T^{-1} x in place, T triangular (lower when ``forward``), by block
    substitution with T's inverted diagonal blocks: numpy GEMVs only."""
    nb = len(inverses[0]) if inverses else 0
    for k in range(len(inverses))[::1 if forward else -1]:
        i0, i1 = k * nb, min((k + 1) * nb, len(x))
        done = slice(0, i0) if forward else slice(i1, None)
        x[i0:i1] = inverses[k] @ (x[i0:i1] - t[i0:i1, done] @ x[done])
    return x


def rfp_solve(factor, b: np.ndarray) -> np.ndarray:
    """M^{-1} b for the rfp_cholesky factor of M = L L^T."""
    u11, l21t, l22, inv11, inv22 = factor
    y1 = _substitute(u11.T, [i.T for i in inv11], b[:len(u11)].copy(), True)
    y2 = _substitute(l22, inv22, b[len(u11):] - l21t.T @ y1, True)
    _substitute(l22.T, [i.T for i in inv22], y2, False)
    return np.concatenate([_substitute(u11, inv11, y1 - l21t @ y2, False), y2])


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
