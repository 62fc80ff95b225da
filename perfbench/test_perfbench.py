"""Tests of the benchmark itself: every check rejects a perturbed answer, the
tracer's arithmetic, and the printed metric names and units match
BENCHMARK.json.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import runner  # noqa: E402
import spans  # noqa: E402
import work  # noqa: E402
from inputs import Workload, make_arrays, request_list  # noqa: E402

SMALL_FIG1 = Workload(name="small_fig1", kind="fig1", lam=0.5, classes=3, per_class=12,
                      d_in=6, feature_scale=0.3, widths=(6, 32, 3), test_per_class=2)
SMALL_KRON = Workload(name="small_kron", kind="infinite", loss="squared", lam=0.1, classes=3,
                      per_class=12, d_in=5, test_per_class=2)
SMALL_CE = Workload(name="small_ce", kind="infinite", loss="cross_entropy", lam=0.1, classes=3,
                    per_class=12, d_in=5, test_per_class=2, percents=(10.0, 30.0))


@pytest.fixture
def workdir():
    path = os.path.join(BENCH, "out", f"test-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def perturbed(ans: dict, key: str, scale: float = 1e-3) -> dict:
    """The answer with one field moved by ``scale`` of its norm."""
    value = np.asarray(ans[key], dtype=float)
    rng = np.random.default_rng(0)
    bump = rng.standard_normal(value.shape)
    size = max(float(np.linalg.norm(value)), 1.0)
    return dict(ans, **{key: value + scale * size * bump / np.linalg.norm(bump)})


# --------------------------------------------------------------------------
# fig1 checks
# --------------------------------------------------------------------------

@pytest.fixture
def fig1_case(workdir):
    off = spans.Tracer(False)
    arrays = make_arrays(SMALL_FIG1, 0)
    st = work.setup(SMALL_FIG1, arrays, 0, workdir, off)
    percent, split_seed = request_list(SMALL_FIG1, 0)[0]
    sp = work.split(st, percent, split_seed, off)
    dual, _, _ = work.dual_answer(st, sp, off)
    theta, _ = work.theta_answer(st, sp, off)
    refs, run_fails = runner.fig1_references(SMALL_FIG1, st, [(percent, split_seed)], arrays, workdir)
    return st, sp, dual, theta, refs[0], run_fails, arrays


def test_fig1_correct_answers_pass(fig1_case):
    st, sp, dual, theta, ref, run_fails, arrays = fig1_case
    assert run_fails == []
    assert checks.check_fig1_answer(dual, ref, SMALL_FIG1.lam) == []
    assert checks.check_fig1_answer(theta, ref, SMALL_FIG1.lam) == []
    assert checks.check_spaces_agree(dual["theta_u"], theta["theta_u"], st.theta_hat) == []
    percent = request_list(SMALL_FIG1, 0)[0][0]
    assert checks.check_split(sp.permutation, sp.n_forget, arrays.X.shape[0], percent) == []


@pytest.mark.parametrize("space", ["dual", "theta"])
@pytest.mark.parametrize("key", ["theta_u", "df", "raw", "reg"])
def test_fig1_check_rejects_perturbed_answer(fig1_case, space, key):
    st, sp, dual, theta, ref, _, _ = fig1_case
    ans = dual if space == "dual" else theta
    # the parameter update is small next to theta itself, so move it by a
    # share of the update rather than of the parameters
    if key == "theta_u":
        step = ans["theta_u"] - st.theta_hat
        bad = dict(ans, theta_u=st.theta_hat + step * (1 + 1e-3))
    else:
        bad = perturbed(ans, key)
    assert checks.check_fig1_answer(bad, ref, SMALL_FIG1.lam) != []


def test_spaces_agree_rejects_perturbed_update(fig1_case):
    st, _, dual, theta, _, _, _ = fig1_case
    step = theta["theta_u"] - st.theta_hat
    assert checks.check_spaces_agree(st.theta_hat + step * (1 + 1e-4), theta["theta_u"],
                                     st.theta_hat) != []


def test_fit_and_kernel_checks_reject_perturbations(fig1_case, workdir):
    st, _, _, _, ref, _, arrays = fig1_case
    f_full = ref["f_hat_t"]
    assert checks.check_fit(f_full * (1 + 1e-4), f_full) != []
    from kinfluence import stacked_jacobian
    pts = np.array([0, 5])
    jac = stacked_jacobian(st.lin.spec, st.lin.theta_ref, arrays.X[pts])
    blocks = checks.read_stored_blocks(os.path.join(workdir, work.KERNEL_FILE),
                                       arrays.X.shape[0], arrays.Y.shape[1], pts)
    assert checks.check_kernel_blocks(blocks, jac) == []
    blocks[0, 1] += 1e-6 * np.abs(blocks).max()
    assert checks.check_kernel_blocks(blocks, jac) != []


def test_split_check_rejects_wrong_count_and_duplicate_rows():
    perm = np.arange(10)
    assert checks.check_split(perm, 3, 10, 30.0) == []
    assert checks.check_split(perm, 2, 10, 30.0) != []
    assert checks.check_split(np.r_[perm[:-1], 0], 3, 10, 30.0) != []


# --------------------------------------------------------------------------
# infinite-width checks
# --------------------------------------------------------------------------

def infinite_case(wl, workdir):
    off = spans.Tracer(False)
    arrays = make_arrays(wl, 0)
    st = work.setup(wl, arrays, 0, workdir, off)
    reqs = request_list(wl, 0)
    refs, run_fails = runner.infinite_references(wl, st, reqs, arrays)
    out = []
    for (percent, split_seed), ref in zip(reqs, refs):
        ans, _, _ = work.dual_answer(st, work.split(st, percent, split_seed, off), off)
        out.append((percent, split_seed, ans,
                    runner.infinite_answer_ref(wl, st, ref, ans)))
    return run_fails, out


@pytest.mark.parametrize("key", ["df", "raw", "reg"])
def test_kron_check_rejects_perturbed_answer(workdir, key):
    run_fails, cases = infinite_case(SMALL_KRON, workdir)
    assert run_fails == []
    for _, _, ans, ref in cases:
        assert checks.check_kron_answer(ans, ref) == []
        assert checks.check_kron_answer(perturbed(ans, key), ref) != []


@pytest.mark.parametrize("key,scale", [("df", 0.3), ("raw", 1e-3), ("reg", 1e-3)])
def test_ce_check_rejects_perturbed_answer(workdir, key, scale):
    run_fails, cases = infinite_case(SMALL_CE, workdir)
    assert run_fails == []
    for percent, seed, ans, ref in cases:
        assert checks.check_ce_answer(ans, ref, percent, seed) == []
        assert checks.check_ce_answer(perturbed(ans, key, scale), ref, percent, seed) != []


def test_ce_check_needs_a_margin_over_the_random_baseline():
    true_df = np.ones((20, 10))
    ref = {"true_df": true_df, "g_t": np.zeros((20, 10)), "reg_term": 0.0}
    ans = {"df": true_df * 1.16, "raw": np.zeros(20), "reg": np.zeros(20)}
    # 16% error: inside the affine bound at 90% forget (16.5%), but not ten
    # times below a random direction of the same norm (about 1.4)
    fails = checks.check_ce_answer(ans, ref, 90.0, 0)
    assert fails and all("random baseline" in f for f in fails)


# --------------------------------------------------------------------------
# fig1_protocol checks
# --------------------------------------------------------------------------

def protocol_rows():
    return [{"percent": p, "space": s, "rel_l2": "1e-12", "baseline_rel_l2": "1e-3"}
            for p in ("10.0", "90.0") for s in ("theta", "dual")]


def test_protocol_rows_checks():
    rows = protocol_rows()
    assert checks.check_protocol_rows(rows, (10.0, 90.0)) == []
    assert checks.check_protocol_rows(rows[:-1], (10.0, 90.0)) != []
    rows[0]["rel_l2"] = "2e-4"
    assert checks.check_protocol_rows(rows, (10.0, 90.0)) != []


def test_influence_agreement_check():
    body = np.c_[np.arange(5), np.random.default_rng(1).standard_normal((5, 12))]
    assert checks.check_influence_agree(body, body.copy()) == []
    bad = body.copy()
    bad[2, 3] *= 1 + 1e-4
    assert checks.check_influence_agree(body, bad) != []
    assert checks.check_influence_agree(body, body[:4]) != []


# --------------------------------------------------------------------------
# tracer arithmetic
# --------------------------------------------------------------------------

def test_self_time_and_coverage():
    s = [{"name": "request", "phase": "round", "parent": None, "start": 0.0, "end": 10.0},
         {"name": "dual.prepare", "phase": "round", "parent": 0, "start": 1.0, "end": 5.0},
         {"name": "dual.solve", "phase": "round", "parent": 0, "start": 5.0, "end": 9.5},
         {"name": "inner", "phase": "round", "parent": 2, "start": 6.0, "end": 7.0}]
    assert spans.self_times(s) == [1.5, 4.0, 3.5, 1.0]
    assert spans.min_request_coverage(s, "request", "round") == pytest.approx(0.85)


def test_disabled_tracer_records_nothing():
    tr = spans.Tracer(False)
    with tr.span("x"):
        tr.count("n", 3)
    assert tr.spans == [] and tr.counts == []


# --------------------------------------------------------------------------
# the command: names and units, and refusal outside a checkout
# --------------------------------------------------------------------------

def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_declared_metrics_match_the_code():
    bench = benchmark_json()
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == runner.END_TO_END
    code_layer = {k: v[0] for k, v in runner.PER_LAYER.items()}
    code_layer.update(runner.DERIVED_LAYER)
    assert layer == code_layer
    assert {w["name"] for w in bench["workloads"]} == set(runner.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_declared_names_and_units(trace, section):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "infinite_kron",
                           "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in benchmark_json()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_command_refuses_a_directory_without_the_program():
    bare = os.path.join(BENCH, "out", f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fig1_requests",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
