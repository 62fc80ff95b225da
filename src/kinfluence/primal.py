"""Parameter-space influence: upweighted Hessian system solved by CG.

Removing the forget block perturbs the stationarity condition; the first-order
correction solves H s = (|Df|/|D|) grad_forget with H either the upweighted
Hessian (default, equal to the scaled retain-set Hessian) or the full-data
Hessian approximation. For quadratic risks the correction is exact, which is
what every retraining-oracle test leans on.
"""

from __future__ import annotations

import time

import numpy as np

from .datasets import SplitDataset
from .errors import DegenerateSplit
from .losses import loss_grad_batch, loss_hess_batch
from .models import (
    Model,
    _spec_of,
    jacobian_point,
    jvp,
    model_outputs,
    vjp,
)
from .report import InfluenceReport, PerTestChange
from .solvers import CgOptions, CgResult, cg_solve
from .training import RiskConfig, resolve_center, stationarity_gap

HESSIAN_UPWEIGHTED = "upweighted"
HESSIAN_FULL = "full"


def upweighted_hessian_op(model: Model, theta_star: np.ndarray, split: SplitDataset,
                          cfg: RiskConfig, variant: str = HESSIAN_UPWEIGHTED):
    """Linear operator v -> H v.

    ``upweighted`` implements the exact removal Hessian via its scaled-retain
    form (1/|D|) sum_retain J'BJ v + (|Dr|/|D|) lambda v; ``full`` keeps every
    point and the full lambda, the small-|Df| approximation.
    """
    if split.n_forget < 1 or split.n_retain < 1:
        raise DegenerateSplit("both partitions must be nonempty")
    if variant not in (HESSIAN_UPWEIGHTED, HESSIAN_FULL):
        raise ValueError(f"unknown hessian variant {variant!r}")
    spec = _spec_of(model)
    at = jacobian_point(model, theta_star)
    ds = split.retain if variant == HESSIAN_UPWEIGHTED else split.full
    lam_scale = split.n_retain / split.n if variant == HESSIAN_UPWEIGHTED else 1.0
    x = ds.features
    f = model_outputs(model, theta_star, x)
    blocks = loss_hess_batch(cfg.loss, f, ds.targets)
    n_full = split.n

    def apply_h(v: np.ndarray) -> np.ndarray:
        u = jvp(spec, at, x, v).reshape(ds.n, ds.d_out)
        bu = np.einsum("nij,nj->ni", blocks, u).ravel()
        return vjp(spec, at, x, bu) / n_full + lam_scale * cfg.lam * v

    return apply_h


def forget_gradient_rhs(model: Model, theta_star: np.ndarray, split: SplitDataset,
                        cfg: RiskConfig, center: np.ndarray | None = None) -> np.ndarray:
    """(|Df|/|D|) grad of the forget-set risk at theta_star."""
    spec = _spec_of(model)
    at = jacobian_point(model, theta_star)
    fds = split.forget
    g = loss_grad_batch(cfg.loss, model_outputs(model, theta_star, fds.features), fds.targets)
    c = resolve_center(model, cfg, center)
    return (vjp(spec, at, fds.features, g.ravel()) / split.n
            + (split.n_forget / split.n) * cfg.lam * (theta_star - c))


class PrimalUnlearner:
    """Prepares the theta-space system once; repeated solves reuse it.

    ``prepare()`` builds the operator and right-hand side (cold work);
    ``solve()`` runs CG. Cold timing covers prepare + first solve, warm
    timing covers a solve alone.
    """

    def __init__(self, model: Model, theta_star: np.ndarray, split: SplitDataset,
                 cfg: RiskConfig, opts: CgOptions = CgOptions(),
                 variant: str = HESSIAN_UPWEIGHTED, center: np.ndarray | None = None):
        self.model = model
        self.theta_star = np.asarray(theta_star, dtype=np.float64)
        self.split = split
        self.cfg = cfg
        self.opts = opts
        self.variant = variant
        self.center = center
        self.notes: list[str] = []
        self._op = None
        self._rhs = None

    def prepare(self) -> None:
        gap = stationarity_gap(self.model, self.theta_star, self.split.full, self.cfg,
                               self.center)
        if gap is not None:
            self.notes.append(f"NotAtOptimum: {gap}")
        self._op = upweighted_hessian_op(self.model, self.theta_star, self.split,
                                         self.cfg, self.variant)
        self._rhs = forget_gradient_rhs(self.model, self.theta_star, self.split,
                                        self.cfg, self.center)

    def solve(self) -> CgResult:
        if self._op is None:
            self.prepare()
        return cg_solve(self._op, self._rhs, self.opts)

    def report(self, res: CgResult, test_ds=None) -> InfluenceReport:
        """The report of one solve, with the test-point changes when
        ``test_ds`` is given."""
        notes = list(self.notes)
        if not res.converged:
            notes.append(f"MaxItersReached: residual {res.residual:.3e} after {res.iters} iters")
        report = InfluenceReport(delta_theta=res.x, residual=res.residual, iters=res.iters,
                                 converged=res.converged, notes=notes)
        if test_ds is not None:
            attach_test_predictions(report, self.model, self.theta_star, test_ds, self.cfg,
                                    self.center)
        return report

    def run(self) -> InfluenceReport:
        t0 = time.perf_counter()
        self.prepare()
        res = self.solve()
        wall = time.perf_counter() - t0
        report = self.report(res)
        report.wall_cold = wall
        return report


def influence_params_primal(model: Model, theta_star: np.ndarray, split: SplitDataset,
                            cfg: RiskConfig, opts: CgOptions = CgOptions(),
                            variant: str = HESSIAN_UPWEIGHTED,
                            center: np.ndarray | None = None) -> InfluenceReport:
    """One-shot theta-space influence estimate; theta_u = theta_star + delta."""
    return PrimalUnlearner(model, theta_star, split, cfg, opts, variant, center).run()


def predict_output_change_primal(model: Model, theta_star: np.ndarray,
                                 delta_theta: np.ndarray, x_t: np.ndarray) -> np.ndarray:
    """First-order output change J(x_t) delta at the test input."""
    spec = _spec_of(model)
    at = jacobian_point(model, theta_star)
    return jvp(spec, at, np.asarray(x_t)[None, :], delta_theta)


def predict_loss_change_primal(model: Model, theta_star: np.ndarray, delta_theta: np.ndarray,
                               x_t: np.ndarray, y_t: np.ndarray, cfg: RiskConfig,
                               center: np.ndarray | None = None) -> tuple[float, float]:
    """First-order loss change at a test point: (raw, regularizer-included).

    The raw variant is grad_f loss ' (J delta); the second adds the
    lambda (theta_star - c)' delta term from the single-point risk.
    """
    f_t = model_outputs(model, theta_star, np.asarray(x_t)[None, :])[0]
    g = loss_grad_batch(cfg.loss, f_t[None, :], np.asarray(y_t)[None, :])[0]
    df = predict_output_change_primal(model, theta_star, delta_theta, x_t)
    raw = float(g @ df)
    c = resolve_center(model, cfg, center)
    return raw, raw + float(cfg.lam * (theta_star - c) @ delta_theta)


def attach_test_predictions(report: InfluenceReport, model: Model, theta_star: np.ndarray,
                            test_ds, cfg: RiskConfig, center: np.ndarray | None = None) -> None:
    for i in range(test_ds.n):
        out = predict_output_change_primal(model, theta_star, report.delta_theta,
                                           test_ds.features[i])
        raw, reg = predict_loss_change_primal(model, theta_star, report.delta_theta,
                                              test_ds.features[i], test_ds.targets[i],
                                              cfg, center)
        report.per_test.append(PerTestChange(out, raw, reg))
