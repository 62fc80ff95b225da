"""Correctness checks, written apart from the unlearning code.

Every reference here is computed with numpy from the generated inputs: a
hand-written forward pass and JVP of the 400-1024-10 ReLU net, kernel-ridge
retrains with ``numpy.linalg``, and a function-space Newton retrain for
cross-entropy. Each check returns a list of failure messages (empty when the
answer passes) and runs outside the timed regions.
"""

from __future__ import annotations

import numpy as np

# squared loss makes the first-order correction exact, so the fig1 answers
# are held to what CG at rel_tol 1e-8 and the dense solves deliver
FIG1_REL_TOL = 1e-6
# infinite width: the estimate rests on KGD outputs stopped at residual 1e-6,
# which leaves output errors near 2e-7 relative
KRON_REL_TOL = 1e-5
# loss-change identities are algebraic, so only rounding separates them
LOSS_REL_TOL = 1e-8
# cross-entropy: the first-order error grows with the forget share (1-3% at
# 10% forget, 2-5% at 50% over seeds 0-15), so the bound is affine in it; the
# error must also beat a norm-matched random direction 10x
CE_BOUND_BASE = 0.03
CE_BOUND_SLOPE = 0.15
BASELINE_MARGIN = 10.0


def rel(a: np.ndarray, b: np.ndarray, scale: float | None = None) -> float:
    denom = float(np.linalg.norm(b)) if scale is None else scale
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))) / max(denom, 1e-300)


def _layers(widths, theta):
    out, off = [], 0
    for w_in, w_out in zip(widths, widths[1:]):
        w = theta[off:off + w_in * w_out].reshape(w_out, w_in)
        off += w_in * w_out
        out.append((w, theta[off:off + w_out]))
        off += w_out
    return out


def mlp_forward(widths, theta, X) -> np.ndarray:
    """Outputs (N, d_out) of the standard-parameterised ReLU net with biases."""
    a = X
    layers = _layers(widths, theta)
    for i, (w, b) in enumerate(layers):
        z = a @ w.T + b
        a = np.maximum(z, 0.0) if i < len(layers) - 1 else z
    return a


def mlp_jvp(widths, theta, X, v) -> np.ndarray:
    """J(theta) v at the inputs X, shape (N, d_out)."""
    a, t = X, np.zeros((X.shape[0], widths[0]))
    layers, dlayers = _layers(widths, theta), _layers(widths, v)
    for i, ((w, b), (dw, db)) in enumerate(zip(layers, dlayers)):
        z = a @ w.T + b
        dz = a @ dw.T + t @ w.T + db
        if i < len(layers) - 1:
            mask = z > 0.0
            a, t = np.where(mask, z, 0.0), np.where(mask, dz, 0.0)
        else:
            t = dz
    return t


def linearized_outputs(widths, theta_ref, X, theta) -> np.ndarray:
    return mlp_forward(widths, theta_ref, X) + mlp_jvp(widths, theta_ref, X, theta - theta_ref)


def point_rows(points: np.ndarray, d_out: int) -> np.ndarray:
    return (np.asarray(points)[:, None] * d_out + np.arange(d_out)).ravel()


# --------------------------------------------------------------------------
# fig1: linearised network, squared loss
# --------------------------------------------------------------------------

def fig1_retrain_outputs(K, Kt, f0, f0t, Y, retain, lam) -> np.ndarray:
    """Test outputs of the retrain on ``retain``: f0_t + K_tR (K_RR + lam N_r I)^-1 (Y_R - f0_R)."""
    d = Y.shape[1]
    rows = point_rows(retain, d)
    k_rr = K[np.ix_(rows, rows)]
    c = np.linalg.solve(k_rr + lam * retain.size * np.eye(rows.size),
                        Y[retain].ravel() - f0[retain].ravel())
    return f0t + (Kt[:, rows] @ c).reshape(f0t.shape)


def check_split(perm: np.ndarray, n_forget: int, n: int, percent: float) -> list[str]:
    fails = []
    if sorted(perm.tolist()) != list(range(n)):
        fails.append("split permutation is not a permutation of the training set")
    if n_forget != int(np.floor(percent / 100.0 * n + 0.5)):
        fails.append(f"forget count {n_forget} does not match {percent}% of {n}")
    return fails


def check_fig1_answer(ans: dict, ref: dict, lam: float) -> list[str]:
    """One space's answer to one request against the kernel-ridge retrain.

    ``ans``: theta_u, df (T, d), raw (T,), reg (T,).
    ``ref``: widths, theta_ref, theta_hat, Xt, Yt, f_hat_t (outputs of theta_hat
    at the test points), f_retrain_t.
    """
    fails = []
    true_df = ref["f_retrain_t"] - ref["f_hat_t"]
    scale = float(np.linalg.norm(true_df))
    f_u = linearized_outputs(ref["widths"], ref["theta_ref"], ref["Xt"], ans["theta_u"])
    err = rel(f_u, ref["f_retrain_t"], scale)
    if not err <= FIG1_REL_TOL:
        fails.append(f"unlearned-model test outputs off the retrain by {err:.2e} (relative)")
    err = rel(ans["df"], true_df, scale)
    if not err <= FIG1_REL_TOL:
        fails.append(f"output changes off the retrain by {err:.2e} (relative)")
    g = ref["f_hat_t"] - ref["Yt"]
    raw = np.einsum("td,td->t", g, ans["df"])
    reg = raw + lam * float((ref["theta_hat"] - ref["theta_ref"]) @ (ans["theta_u"] - ref["theta_hat"]))
    fails += _loss_fails(ans, raw, reg)
    return fails


def _loss_fails(ans: dict, raw: np.ndarray, reg: np.ndarray) -> list[str]:
    fails = []
    scale = max(float(np.abs(raw).max()), float(np.abs(reg).max()), 1e-300)
    if not np.max(np.abs(ans["raw"] - raw)) <= LOSS_REL_TOL * scale:
        fails.append("raw loss changes differ from grad_f loss . output change")
    if not np.max(np.abs(ans["reg"] - reg)) <= LOSS_REL_TOL * scale:
        fails.append("regularised loss changes differ from raw + lambda reg term")
    return fails


def check_spaces_agree(theta_dual: np.ndarray, theta_primal: np.ndarray,
                       theta_hat: np.ndarray) -> list[str]:
    err = rel(theta_dual - theta_hat, theta_primal - theta_hat)
    if not err <= FIG1_REL_TOL:
        return [f"primal and dual parameter updates differ by {err:.2e} (relative)"]
    return []


def check_fit(f_hat_t: np.ndarray, f_full_t: np.ndarray) -> list[str]:
    err = rel(f_hat_t, f_full_t)
    if not err <= FIG1_REL_TOL:
        return [f"fitted model test outputs off the full-data ridge fit by {err:.2e}"]
    return []


def check_kernel_blocks(stored_blocks: np.ndarray, jac: np.ndarray) -> list[str]:
    """Stored kernel rows/cols of a few points against J J' from the Jacobian."""
    gram = jac @ jac.T
    err = rel(stored_blocks, gram)
    if not err <= 1e-10:
        return [f"stored kernel blocks differ from J J' by {err:.2e} (relative)"]
    return []


def read_stored_blocks(path: str, n: int, d_out: int, points: np.ndarray) -> np.ndarray:
    """Rows and columns of ``points`` from a dense kernel cache file, parsed
    here from the documented layout: 58 header bytes then row-major f64."""
    with open(path, "rb") as f:
        if f.read(8) != b"KINFKER1":
            raise ValueError("kernel cache magic missing")
    side = n * d_out
    mat = np.memmap(path, dtype="<f8", mode="r", offset=58, shape=(side, side))
    rows = point_rows(points, d_out)
    return np.array(mat[np.ix_(rows, rows)])


# --------------------------------------------------------------------------
# infinite width: Kronecker kernel sigma (x) I, outputs trained from f0 = 0
# --------------------------------------------------------------------------

def kron_retrain_outputs(sigma, sigma_t, Y, idx, lam):
    """Test outputs sigma_tI C of the closed-form squared-loss fit on the
    points ``idx``, where (sigma_II + lam n I) C = Y_I."""
    s = sigma[np.ix_(idx, idx)]
    return sigma_t[:, idx] @ np.linalg.solve(s + lam * idx.size * np.eye(idx.size), Y[idx])


def _softmax(f):
    z = np.exp(f - f.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def _softmax_hessians(p):
    """Per-point softmax cross-entropy Hessians diag(p) - p p'."""
    h = -p[:, :, None] * p[:, None, :]
    h[:, np.arange(p.shape[1]), np.arange(p.shape[1])] += p
    return h


def _sqrt_blocks(h):
    """Per-point square roots of symmetric PSD blocks."""
    vals, vecs = np.linalg.eigh(h)
    return np.einsum("nij,nj,nkj->nik", vecs, np.sqrt(np.clip(vals, 0.0, None)), vecs)


def _cg(apply_a, b, tol=1e-13, max_iters=2000):
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = r @ r
    bn = np.sqrt(b @ b)
    for _ in range(max_iters):
        if np.sqrt(rr) <= tol * bn:
            break
        ap = apply_a(p)
        a = rr / (p @ ap)
        x += a * p
        r -= a * ap
        rr_new = r @ r
        p = r + (rr_new / rr) * p
        rr = rr_new
    return x


def ce_newton_retrain(sigma, Y, idx, lam, iters=50, tol=1e-12):
    """Cross-entropy minimiser of (1/n) sum loss(f_i) + (lam/2) c'Kc with
    f = K c on the points ``idx`` (K = sigma_II (x) I).

    Newton in function space in the symmetric form of Rasmussen & Williams,
    GPML Alg. 3.1: with W = B/n, the step is c = (b - W^1/2 M^-1 W^1/2 K b)/lam,
    b = W f - g/n and M = lam I + W^1/2 K W^1/2 (eigenvalues >= lam, solved by
    CG). Returns the coefficients (n, d).
    """
    s = sigma[np.ix_(idx, idx)]
    y = Y[idx]
    n, d = y.shape
    coef = np.zeros((n, d))

    def objective(c):
        f = s @ c
        z = f - f.max(axis=1, keepdims=True)
        loss = np.log(np.exp(z).sum(axis=1)) - np.sum(z * y, axis=1)
        return loss.mean() + 0.5 * lam * float(np.sum(c * f))

    for _ in range(iters):
        f = s @ coef
        p = _softmax(f)
        grad_c = (p - y) / n + lam * coef          # K^-1 times the gradient in f
        if np.sqrt(np.sum(grad_c ** 2)) <= tol:
            break
        hess = _softmax_hessians(p)
        w_half = _sqrt_blocks(hess) / np.sqrt(n)
        b = np.einsum("nij,nj->ni", hess / n, f) - (p - y) / n
        kb = s @ b
        wkb = np.einsum("nij,nj->ni", w_half, kb)

        def apply_m(v):
            v = v.reshape(n, d)
            kv = s @ np.einsum("nij,nj->ni", w_half, v)
            return (lam * v + np.einsum("nij,nj->ni", w_half, kv)).ravel()

        sol = _cg(apply_m, wkb.ravel()).reshape(n, d)
        target = (b - np.einsum("nij,nj->ni", w_half, sol)) / lam
        step = target - coef
        base = objective(coef)
        t = 1.0
        while objective(coef + t * step) > base and t > 1e-8:
            t *= 0.5
        coef = coef + t * step
    return coef


def check_kron_answer(ans: dict, ref: dict) -> list[str]:
    """Estimated test outputs against the closed-form retrain.

    ``ans``: df (T, d), raw, reg. ``ref``: f_t (program outputs at the test
    points), f_retrain_t, g_t (loss gradient at f_t), reg_term.
    """
    fails = []
    est = ref["f_t"] + ans["df"]
    err = rel(est, ref["f_retrain_t"])
    if not err <= KRON_REL_TOL:
        fails.append(f"estimated test outputs off the ridge retrain by {err:.2e} (relative)")
    raw = np.einsum("td,td->t", ref["g_t"], ans["df"])
    fails += _loss_fails(ans, raw, raw + ref["reg_term"])
    return fails


def check_ce_answer(ans: dict, ref: dict, percent: float, seed: int) -> list[str]:
    """Estimated output changes against the Newton retrain: within the
    first-order bound and 10x better than a norm-matched random direction.

    ``ref``: true_df (T, d), g_t, reg_term (lam alpha' K delta_alpha of the
    estimate, recomputed from its coefficients).
    """
    fails = []
    true_df = ref["true_df"]
    err = rel(ans["df"], true_df)
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(true_df.shape)
    baseline = direction * (np.linalg.norm(true_df) / np.linalg.norm(direction))
    base_err = rel(baseline, true_df)
    bound = CE_BOUND_BASE + CE_BOUND_SLOPE * percent / 100.0
    if not err <= bound:
        fails.append(f"output changes off the Newton retrain by {err:.2e} > {bound:.2e}")
    if not err * BASELINE_MARGIN <= base_err:
        fails.append(f"output-change error {err:.2e} not 10x below the random baseline {base_err:.2e}")
    raw = np.einsum("td,td->t", ref["g_t"], ans["df"])
    fails += _loss_fails(ans, raw, raw + ref["reg_term"])
    return fails


# --------------------------------------------------------------------------
# fig1_protocol: the files `kinf unlearn` writes
# --------------------------------------------------------------------------

def check_protocol_rows(rows: list[dict], percents, spaces=("theta", "dual")) -> list[str]:
    fails = []
    seen = {(float(r["percent"]), r["space"]) for r in rows}
    for p in percents:
        for s in spaces:
            if (float(p), s) not in seen:
                fails.append(f"metrics.csv has no row for percent {p:g}, space {s}")
    for r in rows:
        rel_l2, base = float(r["rel_l2"]), float(r["baseline_rel_l2"])
        if not rel_l2 * BASELINE_MARGIN <= base:
            fails.append(f"percent {r['percent']} {r['space']}: rel_l2 {rel_l2:.2e} "
                         f"not 10x below baseline {base:.2e}")
    return fails


def check_influence_agree(theta_rows: np.ndarray, dual_rows: np.ndarray,
                          tol: float = FIG1_REL_TOL) -> list[str]:
    """theta and dual influence.csv bodies (test_index, output changes, raw, reg).
    The theta rows carry the CG error (rel_tol 1e-8 in the config), about 1e-8."""
    if theta_rows.shape != dual_rows.shape:
        return [f"influence.csv shapes differ: {theta_rows.shape} vs {dual_rows.shape}"]
    err = rel(dual_rows[:, 1:], theta_rows[:, 1:])
    if not err <= tol:
        return [f"theta and dual influence.csv differ by {err:.2e} (relative)"]
    return []
