"""The program's work, one public call per span, in the harness's order.

Set-up turns generated arrays into a servable state (kernels, fitted model,
stored kernel and checkpoint). A request is one (percent, split seed) pair;
its answer in each space holds the unlearned parameters (finite width only),
the output changes at the test points and both loss-change variants. The
main benchmark process and the cold-start child both use these functions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from kinfluence import (
    AnalyticNtkSpec,
    CgOptions,
    DualUnlearner,
    KernelMatrix,
    LabeledDataset,
    LinearizedModel,
    ModelSpec,
    PrimalUnlearner,
    RiskConfig,
    analytic_ntk,
    empirical_ntk,
    fit_linearized_exact,
    infinite_predict,
    kgd_train,
    load_params,
    map_to_params,
    predict_changes_dual,
    read_kernel_cache,
    save_params,
    split_forget,
    write_kernel_cache,
)
from kinfluence.dual import alpha_star_from_outputs
from kinfluence.errors import NotConverged
from kinfluence.models import model_outputs
from kinfluence.primal import attach_test_predictions
from kinfluence.report import InfluenceReport

from inputs import (
    FIG1_CG_MAX_ITERS,
    FIG1_CG_REL_TOL,
    FIG1_DENSE_THRESHOLD,
    Arrays,
    Workload,
)

KERNEL_FILE = "kernel.bin"
CHECKPOINT_FILE = "theta_hat.bin"
OUTPUTS_FILE = "f_train.npy"   # function-space "checkpoint" of the infinite models


@dataclass
class State:
    wl: Workload
    risk: RiskConfig
    train: LabeledDataset
    test: LabeledDataset
    kernel: KernelMatrix
    k_test: KernelMatrix
    lin: LinearizedModel | None = None       # fig1
    theta_hat: np.ndarray | None = None      # fig1
    f_train: np.ndarray | None = None        # infinite: KGD outputs, point-major
    f_test: np.ndarray | None = None         # infinite: outputs at the test points
    kgd_epochs: int = 0


def datasets(arrays: Arrays) -> tuple[LabeledDataset, LabeledDataset]:
    return (LabeledDataset(arrays.X, arrays.Y, arrays.labels, "train"),
            LabeledDataset(arrays.Xt, arrays.Yt, arrays.labels_t, "test"))


def fig1_cg() -> CgOptions:
    return CgOptions(rel_tol=FIG1_CG_REL_TOL, max_iters=FIG1_CG_MAX_ITERS)


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------

def setup(wl: Workload, arrays: Arrays, init_seed: int, workdir: str, tr) -> State:
    train, test = datasets(arrays)
    risk = RiskConfig(lam=wl.lam, loss=wl.loss)
    if wl.kind == "fig1":
        with tr.span("models.init"):
            spec = ModelSpec(wl.widths, init_seed=init_seed)
            lin = LinearizedModel(spec, spec.init_params())
        with tr.span("kernels.assembly"):
            kernel = empirical_ntk(spec, lin.theta_ref, train.features)
        with tr.span("kernels.test_assembly"):
            k_test = empirical_ntk(spec, lin.theta_ref, test.features, train.features)
        with tr.span("training.fit_exact"):
            theta_hat = fit_linearized_exact(lin, train, risk, kernel=kernel)
        with tr.span("kernels.cache_write"):
            write_kernel_cache(os.path.join(workdir, KERNEL_FILE), kernel)
        with tr.span("models.checkpoint_write"):
            save_params(os.path.join(workdir, CHECKPOINT_FILE), spec, theta_hat)
        return State(wl, risk, train, test, kernel, k_test, lin=lin, theta_hat=theta_hat)
    spec = AnalyticNtkSpec(hidden_layers=wl.hidden_layers, d_out=train.d_out)
    with tr.span("infinite.analytic_ntk"):
        kernel = analytic_ntk(spec, train.features)
        k_test = analytic_ntk(spec, test.features, train.features)
    with tr.span("infinite.kgd_train"):
        state = kgd_train(kernel, train, risk, tol=wl.kgd_tol)
    tr.count("infinite.kgd_epochs", state.epoch)
    if state.residual > wl.kgd_tol:
        raise NotConverged(f"KGD residual {state.residual:.3e} after {state.epoch} epochs")
    with tr.span("infinite.predict"):
        f_test = infinite_predict(k_test, alpha_star_from_outputs(state.f_train, train, risk))
    with tr.span("kernels.cache_write"):
        write_kernel_cache(os.path.join(workdir, KERNEL_FILE), kernel)
    with tr.span("models.checkpoint_write"):
        np.save(os.path.join(workdir, OUTPUTS_FILE), state.f_train)
    return State(wl, risk, train, test, kernel, k_test, f_train=state.f_train,
                 f_test=f_test.ravel(), kgd_epochs=state.epoch)


def load_state(wl: Workload, arrays: Arrays, init_seed: int, workdir: str, tr) -> State:
    """What a fresh process needs before its first answer: the stored kernel
    and checkpoint, plus the test kernel computed from the inputs."""
    train, test = datasets(arrays)
    risk = RiskConfig(lam=wl.lam, loss=wl.loss)
    if wl.kind == "fig1":
        spec = ModelSpec(wl.widths, init_seed=init_seed)
        with tr.span("models.init"):
            lin = LinearizedModel(spec, spec.init_params())
        with tr.span("kernels.cache_read"):
            kernel = read_kernel_cache(os.path.join(workdir, KERNEL_FILE),
                                       expect_hash=spec.spec_hash())
        with tr.span("models.checkpoint_read"):
            theta_hat = load_params(os.path.join(workdir, CHECKPOINT_FILE), spec)
        with tr.span("kernels.test_assembly"):
            k_test = empirical_ntk(spec, lin.theta_ref, test.features, train.features)
        return State(wl, risk, train, test, kernel, k_test, lin=lin, theta_hat=theta_hat)
    spec = AnalyticNtkSpec(hidden_layers=wl.hidden_layers, d_out=train.d_out)
    with tr.span("kernels.cache_read"):
        kernel = read_kernel_cache(os.path.join(workdir, KERNEL_FILE))
    with tr.span("models.checkpoint_read"):
        f_train = np.load(os.path.join(workdir, OUTPUTS_FILE))
    with tr.span("infinite.analytic_ntk"):
        k_test = analytic_ntk(spec, test.features, train.features)
    with tr.span("infinite.predict"):
        f_test = infinite_predict(k_test, alpha_star_from_outputs(f_train, train, risk))
    return State(wl, risk, train, test, kernel, k_test, f_train=f_train, f_test=f_test.ravel())


# --------------------------------------------------------------------------
# requests
# --------------------------------------------------------------------------

def split(st: State, percent: float, split_seed: int, tr):
    with tr.span("datasets.split"):
        return split_forget(st.train, percent, scope="all", seed=split_seed)


def dual_answer(st: State, sp, tr) -> tuple[dict, DualUnlearner, dict]:
    """First coefficient-space answer; returns it with the prepared unlearner
    and the per-request operands the warm repeats reuse."""
    with tr.span("kernels.gather"):
        k_perm = st.kernel.submatrix(sp.permutation, sp.permutation)
        k_test = st.k_test.submatrix(np.arange(st.test.n), sp.permutation)
    if st.lin is not None:
        with tr.span("models.outputs"):
            f_vec = model_outputs(st.lin, st.theta_hat, sp.full.features).ravel()
            f_test = model_outputs(st.lin, st.theta_hat, st.test.features).ravel()
        unl = DualUnlearner(k_perm, f_vec, sp, st.risk, fig1_cg(),
                            dense_threshold=FIG1_DENSE_THRESHOLD, materialize_hrr=True)
    else:
        f_vec = st.f_train.reshape(st.train.n, -1)[sp.permutation].ravel()
        f_test = st.f_test
        unl = DualUnlearner(k_perm, f_vec, sp, st.risk)
    with tr.span("dual.prepare"):
        unl.prepare()
    with tr.span("dual.solve"):
        coeffs = unl.solve()
    tr.count("dual.cg_iters", unl.diagnostics.get("iters", 0))
    ans = {"perm": sp.permutation, "n_forget": sp.n_forget, "delta_alpha": coeffs.delta_alpha}
    if st.lin is not None:
        with tr.span("dual.map_to_params"):
            ans["theta_u"] = map_to_params(st.lin, st.theta_hat, coeffs.delta_alpha,
                                           sp.full.features)
    with tr.span("dual.predict"):
        df, raw, reg = predict_changes_dual(k_test, k_perm, coeffs, f_test,
                                            st.test.targets, st.risk)
    ans.update(df=df, raw=raw, reg=reg)
    return ans, unl, {"k_perm": k_perm, "k_test": k_test, "f_test": f_test}


def dual_warm(st: State, sp, unl: DualUnlearner, operands: dict, tr) -> None:
    """A warm repeat as the harness times it: the solve plus the map back to
    parameters (finite width) or the test-point changes (infinite width)."""
    with tr.span("dual.solve"):
        coeffs = unl.solve()
    tr.count("dual.cg_iters", unl.diagnostics.get("iters", 0))
    if st.lin is not None:
        with tr.span("dual.map_to_params"):
            map_to_params(st.lin, st.theta_hat, coeffs.delta_alpha, sp.full.features)
    else:
        with tr.span("dual.predict"):
            predict_changes_dual(operands["k_test"], operands["k_perm"], coeffs,
                                 operands["f_test"], st.test.targets, st.risk)


def theta_answer(st: State, sp, tr) -> tuple[dict, PrimalUnlearner]:
    unl = PrimalUnlearner(st.lin, st.theta_hat, sp, st.risk, fig1_cg())
    with tr.span("primal.prepare"):
        unl.prepare()
    with tr.span("primal.cg"):
        res = unl.solve()
    tr.count("primal.cg_iters", res.iters)
    report = InfluenceReport(delta_theta=res.x, residual=res.residual, iters=res.iters,
                             converged=res.converged)
    with tr.span("primal.predict"):
        attach_test_predictions(report, st.lin, st.theta_hat, st.test, st.risk)
    ans = {"perm": sp.permutation, "n_forget": sp.n_forget, "theta_u": st.theta_hat + res.x,
           "df": np.array([p.output_change for p in report.per_test]).reshape(st.test.n, -1),
           "raw": np.array([p.loss_change_raw for p in report.per_test]),
           "reg": np.array([p.loss_change_reg for p in report.per_test])}
    return ans, unl


def theta_warm(unl: PrimalUnlearner, tr) -> None:
    with tr.span("primal.cg"):
        res = unl.solve()
    tr.count("primal.cg_iters", res.iters)
