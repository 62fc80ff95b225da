"""Parameter-space influence: the removal system solved by CG.

Removing the forget block moves the optimum of the risk; to first order the
change s solves H s = g, where H is the retain-set risk Hessian (the exact
removal Hessian, ``upweighted``) or the full-data one (the small-|Df|
approximation, ``full``) and g is the forget-set risk gradient scaled by
|Df| over the size of H's set. Both come from the risk's own derivatives in
training.py. For quadratic risks the correction is exact, which is what
every retraining-oracle test leans on.
"""

from __future__ import annotations

import numpy as np

from .datasets import SplitDataset
from .losses import loss_grad_batch
from .models import Model, linearize
from .report import InfluenceReport, PerTestChange
from .solvers import CgOptions, CgResult, cg_solve
from .training import RiskConfig, resolve_center, risk_grad, risk_hessian_op, stationarity_gap

HESSIAN_UPWEIGHTED = "upweighted"
HESSIAN_FULL = "full"
HESSIAN_VARIANTS = (HESSIAN_UPWEIGHTED, HESSIAN_FULL)


def removal_system(model: Model, theta_star: np.ndarray, split: SplitDataset,
                   cfg: RiskConfig, variant: str = HESSIAN_UPWEIGHTED):
    """(H, g): the risk-Hessian operator on the retain set (``upweighted``)
    or the full set (``full``), and (|Df|/|set|) grad of the forget-set risk.

    The scale rides on g, not on H, so each CG iteration is one bare HVP.
    """
    if variant not in HESSIAN_VARIANTS:
        raise ValueError(f"unknown hessian variant {variant!r}")
    ds = split.retain if variant == HESSIAN_UPWEIGHTED else split.full
    g = risk_grad(model, theta_star, split.forget, cfg)
    return risk_hessian_op(model, theta_star, ds, cfg), (split.n_forget / ds.n) * g


class PrimalUnlearner:
    """Prepares the theta-space system once; repeated solves reuse it.

    ``prepare()`` builds the operator and right-hand side (cold work);
    ``solve()`` runs CG. Cold timing covers prepare + first solve, warm
    timing covers a solve alone. ``grad_norm``, ||grad R(theta_star)|| over
    the full set when the caller has measured it, spares prepare() that
    gradient.
    """

    def __init__(self, model: Model, theta_star: np.ndarray, split: SplitDataset,
                 cfg: RiskConfig, opts: CgOptions = CgOptions(),
                 variant: str = HESSIAN_UPWEIGHTED, grad_norm: float | None = None):
        self.model = model
        self.theta_star = np.asarray(theta_star, dtype=np.float64)
        self.split = split
        self.cfg = cfg
        self.opts = opts
        self.variant = variant
        self.grad_norm = grad_norm
        self.notes: list[str] = []
        self._op = None
        self._rhs = None

    def prepare(self) -> None:
        if self.grad_norm is None:
            self.grad_norm = float(np.linalg.norm(
                risk_grad(self.model, self.theta_star, self.split.full, self.cfg)))
        gap = stationarity_gap(self.grad_norm)
        if gap is not None:
            self.notes.append(f"NotAtOptimum: {gap}")
        self._op, self._rhs = removal_system(self.model, self.theta_star, self.split,
                                             self.cfg, self.variant)

    def solve(self) -> CgResult:
        if self._op is None:
            self.prepare()
        return cg_solve(self._op, self._rhs, self.opts)


def predict_changes_primal(model: Model, theta_star: np.ndarray, delta_theta: np.ndarray,
                           test_ds, cfg: RiskConfig):
    """First-order output/loss changes at every test point in one batch.

    Output changes are J(X_t) delta; the raw loss change of a point is
    grad_f loss ' (J delta), and the regularizer variant adds the
    lambda (theta_star - c)' delta term of the single-point risk.
    """
    lz, f_t = linearize(model, theta_star, test_ds.features)
    df = lz.jvp(delta_theta).reshape(test_ds.n, test_ds.d_out)
    g_t = loss_grad_batch(cfg.loss, f_t, test_ds.targets)
    raw = np.einsum("td,td->t", g_t, df)
    c = resolve_center(model, cfg)
    return df, raw, raw + float(cfg.lam * (theta_star - c) @ delta_theta)


def attach_test_predictions(report: InfluenceReport, model: Model, theta_star: np.ndarray,
                            test_ds, cfg: RiskConfig) -> None:
    """Add the test-point changes of ``report.delta_theta``. Coefficient space
    passes J' delta_alpha: then J_t delta_theta = K_t delta_alpha, and at a stationary
    theta_star lambda (theta_star - c)' delta_theta = lambda alpha_star' K delta_alpha."""
    df, raw, reg = predict_changes_primal(model, theta_star, report.delta_theta, test_ds, cfg)
    report.per_test.extend(PerTestChange(df[i], float(raw[i]), float(reg[i]))
                           for i in range(test_ds.n))
