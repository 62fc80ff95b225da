"""The paper's identity as a property over the settings the code supports.

For a linearized network under the squared-loss risk, the parameter-space
estimate (CG on the removal Hessian) and the coefficient-space estimate (the
reduced system, mapped back through J') are one vector, and so are the
test-point changes they predict. c02 checks this on one instance; here it is
drawn over the parameterization, the activation, the risk's center, the
output width (+-1 and one-hot targets), the hidden widths, the unlearning
scope and the removal percent. Every network is expanded at its
initialization, whatever the center, so no drawn change is zero and the
agreement is relative only. At infinite width the identity is between the
estimate and the actual change: with exact fits on the full and the retain
set, squared-loss test-point output changes agree, drawn over the analytic
kernel's depth and variances, the output width, the percent and lambda.

Not drawn: cross-entropy, whose theta_hat has no exact fit yet (it needs a
Newton fit), and the full-data Hessian, since coefficient space solves the
retain-Hessian system only.
"""

import pathlib
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kinfluence.datasets import make_blobs, split_forget
from kinfluence.dual import DualUnlearner, map_to_params
from kinfluence.infinite import AnalyticNtkSpec, infinite_influence
from kinfluence.kernels import empirical_ntk
from kinfluence.losses import SQUARED
from kinfluence.models import LinearizedModel, ModelSpec, model_outputs
from kinfluence.primal import PrimalUnlearner, attach_test_predictions
from kinfluence.report import InfluenceReport
from kinfluence.solvers import CgOptions
from kinfluence.training import RiskConfig, fit_linearized_exact

PER_CLASS = 8
D_IN = 4


def agree(a, b) -> bool:
    """Within 1e-8 relative, with no absolute floor."""
    return bool(np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b))


def changes_at_test_points(lin, theta_hat, delta, test_ds, risk) -> np.ndarray:
    """Output, raw-loss and regularized-loss changes at the test points, one row each."""
    report = InfluenceReport(delta, 0.0, 0)
    attach_test_predictions(report, lin, theta_hat, test_ds, risk)
    return np.array([[*c.output_change, c.loss_change_raw, c.loss_change_reg]
                     for c in report.per_test])


@settings(max_examples=100, deadline=None)
@given(parameterization=st.sampled_from(["standard", "ntk"]),
       activation=st.sampled_from(["relu", "identity"]),
       center=st.sampled_from(["reference", "origin"]),
       classes_targets=st.sampled_from([(2, "pm1"), (2, "onehot"), (3, "onehot")]),
       hidden=st.lists(st.integers(3, 10), min_size=1, max_size=2),
       scope=st.sampled_from(["all", 0, 1]),
       percent=st.integers(10, 90),
       seed=st.integers(0, 10 ** 4))
def test_primal_and_dual_estimates_agree(parameterization, activation, center,
                                         classes_targets, hidden, scope, percent, seed):
    n_classes, targets = classes_targets
    ds = make_blobs(PER_CLASS, n_classes, D_IN, seed=seed, encoding=targets)
    test_ds = make_blobs(2, n_classes, D_IN, seed=seed + 1, encoding=targets)
    spec = ModelSpec((D_IN, *hidden, ds.d_out), activation=activation, init_seed=seed,
                     parameterization=parameterization)
    # expanded at the initialization, as the harness does; the center moves only
    # the regularizer
    lin = LinearizedModel(spec, spec.init_params())
    risk = RiskConfig(lam=0.3, loss=SQUARED, center=center)
    theta_hat = fit_linearized_exact(lin, ds, risk)
    split = split_forget(ds, percent, scope=scope, seed=seed)

    primal = PrimalUnlearner(lin, theta_hat, split, risk,
                             CgOptions(rel_tol=1e-12, max_iters=20000)).solve()
    assert primal.converged
    kernel = empirical_ntk(spec, lin.theta_ref, split.full.features)
    f_vec = model_outputs(lin, theta_hat, split.full.features).ravel()
    coeffs = DualUnlearner(kernel, f_vec, split, risk).solve()
    delta_dual = map_to_params(lin, theta_hat, coeffs.delta_alpha,
                               split.full.features) - theta_hat

    assert agree(delta_dual, primal.x)
    assert agree(changes_at_test_points(lin, theta_hat, delta_dual, test_ds, risk),
                 changes_at_test_points(lin, theta_hat, primal.x, test_ds, risk))


@settings(max_examples=100, deadline=None)
@given(hidden_layers=st.integers(0, 3),
       sigma_w2=st.floats(0.5, 4.0),
       sigma_b2=st.floats(0.0, 0.5),
       classes_targets=st.sampled_from([(2, "pm1"), (2, "onehot"), (3, "onehot")]),
       percent=st.integers(10, 90),
       lam=st.floats(1e-3, 1.0),
       seed=st.integers(0, 10 ** 4))
def test_infinite_width_estimates_equal_actuals(hidden_layers, sigma_w2, sigma_b2,
                                                classes_targets, percent, lam, seed):
    # squared loss on the analytic kernel: the estimate is exact, and both fits are
    n_classes, targets = classes_targets
    ds = make_blobs(PER_CLASS, n_classes, D_IN, seed=seed, encoding=targets)
    test_ds = make_blobs(2, n_classes, D_IN, seed=seed + 1, encoding=targets)
    spec = AnalyticNtkSpec(hidden_layers, sigma_w2, sigma_b2, d_out=ds.d_out)
    res = infinite_influence(spec, split_forget(ds, percent, seed=seed), test_ds,
                             RiskConfig(lam=lam, loss=SQUARED))
    assert agree(res.est_output, res.act_output)


FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 5
"""


def test_failing_property_reports_its_example(tmp_path):
    # under the suite's warning filters, a failing @given test ends in its
    # falsifying example, not in an INTERNALERROR from hypothesis's plugin
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    config = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(config), "test_failing.py"],
                          cwd=tmp_path, capture_output=True, text=True)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out
