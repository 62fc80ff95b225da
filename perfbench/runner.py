"""How each workload runs: set-up, cold start, closed-loop rounds, checks, metrics.

Timer boundaries (all ``time.perf_counter`` in this process):

- set-up: from the generated arrays to a servable state (kernels, fit or
  KGD training, stored kernel and checkpoint written); repeated
  ``setup_repeats`` times, median reported;
- cold start: from spawning the child to its exit, as seen by this process;
- a request's answer in one space: from the call that starts it to the
  return of the last part of its answer; the split is counted in the
  coefficient-space answer;
- a warm repeat: one reuse of the prepared operator;
- a round: every request of the list once, answers and warm repeats in both
  spaces; checks run after the last round and are never timed.
"""

from __future__ import annotations

import csv
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import checks
import spans
import work
from inputs import FIG1_CONFIG, WARM_REPEATS, WORKLOADS, init_seed, make_arrays, request_list

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")

END_TO_END = {
    "setup_s": "s",
    "dual.cold_start_s": "s",
    "dual.requests_per_s": "1/s",
    "dual.warm_solves_per_s": "1/s",
    "requests_per_s": "1/s",
    "warm_solves_per_s": "1/s",
    "peak_rss_mb": "MB",
    "stored_kernel_mb": "MB",
    "protocol_s": "s",
}

# per-layer metric -> (unit, span or counter name, phase it is summed over)
PER_LAYER = {
    "kernels.assembly_s": ("s", "kernels.assembly", "setup"),
    "kernels.test_assembly_s": ("s", "kernels.test_assembly", "setup"),
    "kernels.cache_write_s": ("s", "kernels.cache_write", "setup"),
    "kernels.cache_read_s": ("s", "kernels.cache_read", "cold"),
    "kernels.gather_s": ("s", "kernels.gather", "round"),
    "models.checkpoint_write_s": ("s", "models.checkpoint_write", "setup"),
    "models.checkpoint_read_s": ("s", "models.checkpoint_read", "cold"),
    "training.fit_exact_s": ("s", "training.fit_exact", "setup"),
    "infinite.analytic_ntk_s": ("s", "infinite.analytic_ntk", "setup"),
    "infinite.kgd_train_s": ("s", "infinite.kgd_train", "setup"),
    "infinite.kgd_epochs": ("count", "infinite.kgd_epochs", "setup"),
    "datasets.split_s": ("s", "datasets.split", "round"),
    "models.outputs_s": ("s", "models.outputs", "round"),
    "dual.prepare_s": ("s", "dual.prepare", "round"),
    "dual.solve_s": ("s", "dual.solve", "round"),
    "dual.cg_iters": ("count", "dual.cg_iters", "round"),
    "dual.map_to_params_s": ("s", "dual.map_to_params", "round"),
    "dual.predict_s": ("s", "dual.predict", "round"),
    "primal.prepare_s": ("s", "primal.prepare", "round"),
    "primal.cg_s": ("s", "primal.cg", "round"),
    "primal.cg_iters": ("count", "primal.cg_iters", "round"),
    "primal.predict_s": ("s", "primal.predict", "round"),
    "experiments.cold_child_s": ("s", "experiments.cold_child", "cold"),
    "experiments.cold_reported_s": ("s", "experiments.cold_reported_s", "cold"),
    "experiments.cold_children": ("count", "experiments.cold_children", "round"),
}
DERIVED_LAYER = {"primal.hvp_s": "s", "trace.overhead_s": "s", "trace.coverage_pct": "%"}


@dataclass
class Ops:
    """Operations attempted and failed; failure messages are kept for the record."""
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def record(self, label: str, fails: list[str]) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            self.messages.extend(f"{label}: {m}" for m in fails)


def spawn(cmd: list[str], cwd: str, log_path: str) -> tuple[float, float, int]:
    """Run one child to completion; returns (wall seconds, peak RSS in MB, exit code).
    Children inherit the BLAS pins and PYTHONPATH that run.py set."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=log, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def make_workdir(name: str) -> str:
    path = os.path.join(OUT_DIR, f"work-{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


# --------------------------------------------------------------------------
# request workloads: fig1_requests, infinite_kron, infinite_ce
# --------------------------------------------------------------------------

TIMED = ("dual", "dual_warm", "theta", "theta_warm")


@dataclass
class Round:
    """Seconds per request of the round, by kind: first answers and the five
    warm repeats, in each space (theta stays 0 on infinite width)."""
    wall: float = 0.0
    seconds: dict = field(default_factory=lambda: {k: [] for k in TIMED})
    answers: list = field(default_factory=list)   # per request: {"dual": ans | exc, "theta": ...}


def warm_seconds(repeat) -> float:
    """Time of WARM_REPEATS repeats, each taken at the median repeat's time so
    that one stalled repeat does not move the figure."""
    times = []
    for _ in range(WARM_REPEATS):
        t0 = time.perf_counter()
        repeat()
        times.append(time.perf_counter() - t0)
    return WARM_REPEATS * statistics.median(times)


def run_round(st, reqs, tr, round_index: int) -> Round:
    rnd = Round()
    start = time.perf_counter()
    for i, (percent, split_seed) in enumerate(reqs):
        tr.request = round_index * len(reqs) + i
        rec = {}
        took = dict.fromkeys(TIMED, 0.0)
        with tr.span("request"):
            t0 = time.perf_counter()
            try:
                sp = work.split(st, percent, split_seed, tr)
                rec["dual"], unl, operands = work.dual_answer(st, sp, tr)
                took["dual"] = time.perf_counter() - t0
                took["dual_warm"] = warm_seconds(lambda: work.dual_warm(st, sp, unl, operands, tr))
                del unl, operands
            except Exception:
                rec["dual"] = traceback.format_exc(limit=3)
                sp = None
            if st.lin is not None:
                try:
                    t0 = time.perf_counter()
                    if sp is None:
                        sp = work.split(st, percent, split_seed, tr)
                    rec["theta"], punl = work.theta_answer(st, sp, tr)
                    took["theta"] = time.perf_counter() - t0
                    took["theta_warm"] = warm_seconds(lambda: work.theta_warm(punl, tr))
                    del punl
                except Exception:
                    rec["theta"] = traceback.format_exc(limit=3)
        rnd.answers.append(rec)
        for k in TIMED:
            rnd.seconds[k].append(took[k])
    rnd.wall = time.perf_counter() - start
    tr.request = None
    return rnd


def run_rounds(st, reqs, tr, seconds: float | None = None, count: int | None = None) -> list[Round]:
    """Whole rounds: until ``seconds`` have been measured, or exactly ``count``."""
    rounds: list[Round] = []
    elapsed = 0.0
    while True:
        rounds.append(run_round(st, reqs, tr, len(rounds)))
        elapsed += rounds[-1].wall
        if (count is not None and len(rounds) >= count) or (count is None and elapsed >= seconds):
            return rounds


def cold_start(wl, workdir: str, traced: bool) -> tuple[float, dict | str]:
    answer_path = os.path.join(workdir, "cold_answer.npz")
    if os.path.exists(answer_path):
        os.remove(answer_path)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "cold_child.py"), wl.name, workdir,
           "1" if traced else "0"]
    wall, _, code = spawn(cmd, workdir, os.path.join(workdir, "cold_child.log"))
    if code != 0:
        with open(os.path.join(workdir, "cold_child.log")) as f:
            return wall, f"cold child exit {code}: {f.read()[-2000:]}"
    with np.load(answer_path) as z:
        return wall, {k: z[k] for k in z.files}


def run_requests(wl, seed: int, seconds: float, traced: bool, blas_threads: int) -> dict:
    arrays = make_arrays(wl, seed)
    reqs = request_list(wl, seed)
    iseed = init_seed(seed)
    workdir = make_workdir(wl.name)
    np.savez(os.path.join(workdir, "inputs.npz"), X=arrays.X, Y=arrays.Y, labels=arrays.labels,
             Xt=arrays.Xt, Yt=arrays.Yt, labels_t=arrays.labels_t, init_seed=iseed,
             percent=reqs[0][0], split_seed=reqs[0][1])
    off = spans.Tracer(False)

    setup_times = []
    for _ in range(wl.setup_repeats):
        st = None   # release the previous state before building the next one
        t0 = time.perf_counter()
        st = work.setup(wl, arrays, iseed, workdir, off)
        setup_times.append(time.perf_counter() - t0)
    stored_mb = os.path.getsize(os.path.join(workdir, work.KERNEL_FILE)) / 1e6

    cold = [cold_start(wl, workdir, False) for _ in range(wl.cold_repeats)]
    rounds = run_rounds(st, reqs, off, seconds=seconds)
    peak = peak_rss_mb()

    layer = None
    if traced:
        on = spans.Tracer(True, phase="setup")
        st = None
        st = work.setup(wl, arrays, iseed, workdir, on)
        on.phase = "cold"
        with on.span("cold_start"):
            cold.append(cold_start(wl, workdir, True))
        traced_spans = os.path.join(workdir, "cold_spans.json")
        if os.path.exists(traced_spans):
            with open(traced_spans) as f:
                child = json.load(f)
            on.merge(child["spans"], child["counts"], "cold")
        on.phase = "round"
        traced_rounds = run_rounds(st, reqs, on, count=len(rounds))
        overhead = (sum(r.wall for r in traced_rounds) - sum(r.wall for r in rounds)) / len(rounds)
        layer = layer_metrics(on, overhead, len(traced_rounds))
        rounds += traced_rounds
        on.dump(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.json"))

    ops = Ops()
    correct = check_requests(wl, st, reqs, rounds, [c for _, c in cold], arrays, workdir, ops)
    shutil.rmtree(workdir, ignore_errors=True)

    measured = rounds[:len(rounds) // 2] if traced else rounds
    n_req = len(reqs)
    # each request's seconds are the median over the measured rounds
    per_req = {k: [statistics.median(r.seconds[k][i] for r in measured) for i in range(n_req)]
               for k in TIMED}
    spaces = 2 if st.lin is not None else 1
    e2e = {
        "setup_s": statistics.median(setup_times),
        "dual.cold_start_s": statistics.median(w for w, _ in cold[:wl.cold_repeats]),
        "dual.requests_per_s": rate(n_req, sum(per_req["dual"])),
        "dual.warm_solves_per_s": rate(n_req * WARM_REPEATS, sum(per_req["dual_warm"])),
        "requests_per_s": rate(n_req, sum(per_req["dual"]) + sum(per_req["theta"])),
        "warm_solves_per_s": rate(n_req * WARM_REPEATS * spaces,
                                  sum(per_req["dual_warm"]) + sum(per_req["theta_warm"])),
        "peak_rss_mb": peak,
        "stored_kernel_mb": stored_mb,
        "protocol_s": statistics.median(r.wall for r in measured),
    }
    info = {"rounds": len(measured), "requests_per_round": len(reqs),
            "setup_times_s": setup_times, "cold_times_s": [w for w, _ in cold],
            "round_walls_s": [r.wall for r in rounds]}
    return finish(wl.name, seed, traced, blas_threads, correct, ops, e2e, layer, info)


def check_requests(wl, st, reqs, rounds, cold_answers, arrays, workdir, ops: Ops) -> bool:
    """Checks every answer; returns False when a run-level check fails."""
    if wl.kind == "fig1":
        refs, run_fails = fig1_references(wl, st, reqs, arrays, workdir)
    else:
        refs, run_fails = infinite_references(wl, st, reqs, arrays)
    ops.messages.extend(f"run: {m}" for m in run_fails)

    def answer_fails(ans, k: int) -> list[str]:
        if isinstance(ans, str):   # the traceback of a request that raised
            return [ans.strip().splitlines()[-1]]
        percent, split_seed = reqs[k]
        fails = checks.check_split(np.asarray(ans["perm"]), int(ans["n_forget"]),
                                   arrays.X.shape[0], percent)
        if wl.kind == "fig1":
            return fails + checks.check_fig1_answer(ans, refs[k], wl.lam)
        ref = infinite_answer_ref(wl, st, refs[k], ans)
        if wl.loss == "squared":
            return fails + checks.check_kron_answer(ans, ref)
        return fails + checks.check_ce_answer(ans, ref, percent, split_seed)

    for r, rnd in enumerate(rounds):
        for k, rec in enumerate(rnd.answers):
            ops.record(f"round {r} request {k} dual", answer_fails(rec["dual"], k))
            if "theta" in rec:
                fails = answer_fails(rec["theta"], k)
                if not fails and not isinstance(rec["dual"], str):
                    fails = checks.check_spaces_agree(rec["dual"]["theta_u"],
                                                      rec["theta"]["theta_u"], st.theta_hat)
                ops.record(f"round {r} request {k} theta", fails)
    for c, ans in enumerate(cold_answers):
        ops.record(f"cold start {c}", answer_fails(ans, 0))
    return not run_fails


def fig1_references(wl, st, reqs, arrays, workdir):
    widths = wl.widths
    theta_ref = st.lin.theta_ref
    f0 = checks.mlp_forward(widths, theta_ref, arrays.X)
    f0t = checks.mlp_forward(widths, theta_ref, arrays.Xt)
    K, Kt = st.kernel.dense, st.k_test.dense
    n = arrays.X.shape[0]
    f_hat_t = checks.linearized_outputs(widths, theta_ref, arrays.Xt, st.theta_hat)
    fails = checks.check_fit(f_hat_t, checks.fig1_retrain_outputs(
        K, Kt, f0, f0t, arrays.Y, np.arange(n), wl.lam))
    # a few kernel blocks, from the stored file and from memory, against J J'
    from kinfluence import stacked_jacobian
    pts = np.array([0, n // 2, n - 1])
    tpts = np.array([0, arrays.Xt.shape[0] - 1])
    jac = stacked_jacobian(st.lin.spec, theta_ref, np.concatenate([arrays.X[pts], arrays.Xt[tpts]]))
    d = arrays.Y.shape[1]
    j_train, j_test = jac[:pts.size * d], jac[pts.size * d:]
    stored = checks.read_stored_blocks(os.path.join(workdir, work.KERNEL_FILE), n, d, pts)
    fails += checks.check_kernel_blocks(stored, j_train)
    rows = checks.point_rows(pts, d)
    fails += checks.check_kernel_blocks(K[np.ix_(rows, rows)], j_train)
    test_block = Kt[np.ix_(checks.point_rows(tpts, d), rows)]
    if not checks.rel(test_block, j_test @ j_train.T) <= 1e-10:
        fails.append("test kernel blocks differ from J_t J'")
    del jac, j_train, j_test
    refs = []
    base = {"widths": widths, "theta_ref": theta_ref, "theta_hat": st.theta_hat,
            "Xt": arrays.Xt, "Yt": arrays.Yt, "f_hat_t": f_hat_t}
    for percent, split_seed in reqs:
        sp = work.split(st, percent, split_seed, spans.Tracer(False))
        retain = sp.permutation[sp.n_forget:]
        refs.append(dict(base, f_retrain_t=checks.fig1_retrain_outputs(
            K, Kt, f0, f0t, arrays.Y, retain, wl.lam)))
    return refs, fails


def infinite_references(wl, st, reqs, arrays):
    sigma, sigma_t = st.kernel.sigma, st.k_test.sigma
    n = arrays.X.shape[0]
    everyone = np.arange(n)
    if wl.loss == "squared":
        f_full_t = checks.kron_retrain_outputs(sigma, sigma_t, arrays.Y, everyone, wl.lam)
    else:
        f_full_t = sigma_t @ checks.ce_newton_retrain(sigma, arrays.Y, everyone, wl.lam)
    fails = []
    err = checks.rel(st.f_test.reshape(f_full_t.shape), f_full_t)
    if not err <= checks.KRON_REL_TOL:
        fails.append(f"trained test outputs off the full-data optimum by {err:.2e}")
    refs = []
    for percent, split_seed in reqs:
        sp = work.split(st, percent, split_seed, spans.Tracer(False))
        retain = sp.permutation[sp.n_forget:]
        if wl.loss == "squared":
            f_r_t = checks.kron_retrain_outputs(sigma, sigma_t, arrays.Y, retain, wl.lam)
        else:
            f_r_t = sigma_t[:, retain] @ checks.ce_newton_retrain(sigma, arrays.Y, retain, wl.lam)
        refs.append({"f_retrain_t": f_r_t, "true_df": f_r_t - f_full_t, "perm": sp.permutation})
    return refs, fails


def infinite_answer_ref(wl, st, ref, ans) -> dict:
    """The parts of an infinite-width reference that depend on the answer's
    coefficients: the loss gradient at the test points and lam alpha' K dalpha."""
    n, d = st.train.n, st.train.d_out
    f = st.f_train.reshape(n, d)
    y = st.train.targets
    g = f - y if wl.loss == "squared" else checks._softmax(f) - y
    alpha = (-g / (wl.lam * n))
    perm = np.asarray(ans["perm"])
    dalpha = np.asarray(ans["delta_alpha"]).reshape(n, d)
    k_dalpha = st.kernel.sigma[np.ix_(perm, perm)] @ dalpha
    reg_term = wl.lam * float(np.sum(alpha[perm] * k_dalpha))
    f_t = st.f_test.reshape(-1, d)
    g_t = f_t - st.test.targets if wl.loss == "squared" else checks._softmax(f_t) - st.test.targets
    return dict(ref, f_t=f_t, g_t=g_t, reg_term=reg_term)


# --------------------------------------------------------------------------
# fig1_protocol: the shipped `kinf unlearn` command
# --------------------------------------------------------------------------

def run_protocol(wl, seed: int, seconds: float, traced: bool, root: str, blas_threads: int) -> dict:
    workdir = make_workdir(wl.name)
    log = os.path.join(workdir, "children.log")
    config = os.path.join(root, FIG1_CONFIG)
    kinf = [sys.executable, "-m", "kinfluence"]
    cold_percent = wl.percents[0]

    def train():
        return spawn(kinf + ["train", "--config", config, "--seed", str(seed),
                             "--out", os.path.join(workdir, "train")], root, log)

    def cold_child():
        path = os.path.join(workdir, "cold.json")
        wall, _, code = spawn(kinf + ["unlearn", "--config", config, "--seed", str(seed), "--cold",
                                      "--percent", f"{cold_percent:g}", "--space", "dual",
                                      "--out", path], root, log)
        reported = None
        if code == 0:
            with open(path) as f:
                reported = float(json.load(f)["cold_runtime_s"])
        return wall, code, reported

    def protocol(tag: str):
        out = os.path.join(workdir, f"protocol-{tag}")
        shutil.rmtree(out, ignore_errors=True)
        wall, rss, code = spawn(kinf + ["unlearn", "--config", config, "--seed", str(seed),
                                        "--percent", ",".join(f"{p:g}" for p in wl.percents),
                                        "--out", out], root, log)
        return wall, rss, code, os.path.join(out, f"seed_{seed}")

    ops = Ops()
    setup = [train() for _ in range(wl.setup_repeats)]
    for i, (_, _, code) in enumerate(setup):
        ops.record(f"kinf train {i}", [] if code == 0 else [f"exit {code}"])
    colds = [cold_child() for _ in range(wl.cold_repeats)]
    runs = []
    elapsed = 0.0
    while not runs or elapsed < seconds:
        runs.append(protocol(str(len(runs))))
        elapsed += runs[-1][0]

    layer = None
    if traced:
        on = spans.Tracer(True, phase="setup")
        with on.span("cli.train"):
            train()
        on.phase = "cold"
        with on.span("experiments.cold_child"):
            wall, code, reported = cold_child()
        if reported is not None:
            on.count("experiments.cold_reported_s", reported)
        on.phase = "round"
        on.request = 0
        with on.span("request"):
            with on.span("cli.unlearn"):
                traced_run = protocol("traced")
        on.request = None
        on.count("experiments.cold_children", len(
            [f for f in os.listdir(traced_run[3]) if f.startswith("cold_")]))
        layer = layer_metrics(on, traced_run[0] - runs[0][0], 1)
        on.dump(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.json"))

    for i, (_, code, reported) in enumerate(colds):
        ok = code == 0 and reported is not None and np.isfinite(reported) and reported > 0
        ops.record(f"kinf unlearn --cold {i}", [] if ok else [f"exit {code}"])
    cases = []
    for i, (_, _, code, seed_dir) in enumerate(runs):
        rows = []
        if code == 0:
            with open(os.path.join(seed_dir, "metrics.csv")) as f:
                rows = list(csv.DictReader(f))
        fails = checks.check_protocol_rows(rows, wl.percents) if code == 0 else [f"exit {code}"]
        # one operation per (percent, space) case the command was asked for
        for p in wl.percents:
            case_fails = list(fails)
            if not fails:
                theta, dual = (np.loadtxt(os.path.join(seed_dir, f"p{p:g}_{s}", "influence.csv"),
                                          delimiter=",", skiprows=1, ndmin=2)
                               for s in ("theta", "dual"))
                case_fails += checks.check_influence_agree(theta, dual)
            for s in ("theta", "dual"):
                ops.record(f"protocol {i} percent {p:g} {s}", case_fails)
        cases.extend(rows)

    # the command's per-case timers are its own and move with its timer
    # boundaries; the rates here use the benchmark's wall clock: requests and
    # warm repeats the command answered per second it ran
    n_req = len(runs) * len(wl.percents)
    wall = sum(w for w, _, _, _ in runs)
    seed_dir = runs[0][3]
    e2e = {
        "setup_s": statistics.median(w for w, _, _ in setup),
        "dual.cold_start_s": statistics.median(w for w, _, _ in colds),
        "dual.requests_per_s": rate(n_req, wall),
        "dual.warm_solves_per_s": rate(n_req * WARM_REPEATS, wall),
        "requests_per_s": rate(n_req, wall),
        "warm_solves_per_s": rate(2 * n_req * WARM_REPEATS, wall),
        "peak_rss_mb": max(rss for _, rss, _, _ in runs),
        "stored_kernel_mb": os.path.getsize(os.path.join(seed_dir, "kernel.bin")) / 1e6
        if os.path.exists(os.path.join(seed_dir, "kernel.bin")) else 0.0,
        "protocol_s": statistics.median(w for w, _, _, _ in runs),
    }
    info = {"setup_times_s": [w for w, _, _ in setup], "cold_times_s": [w for w, _, _ in colds],
            "cold_reported_s": [r for _, _, r in colds], "protocol_walls_s": [w for w, _, _, _ in runs],
            "metrics_csv": cases}
    shutil.rmtree(workdir, ignore_errors=True)
    return finish(wl.name, seed, traced, blas_threads, True, ops, e2e, layer, info)


# --------------------------------------------------------------------------
# metrics and the result line
# --------------------------------------------------------------------------

def layer_metrics(tr: spans.Tracer, overhead_s: float, rounds: int) -> dict:
    """Self time or count per layer: over the traced set-up and cold start,
    and per round for the request phase."""
    own = spans.self_times(tr.spans)
    out = {}
    for name, (unit, key, phase) in PER_LAYER.items():
        if unit == "count" or key == "experiments.cold_reported_s":
            value = spans.counter_total(tr.counts, key, phase)
        else:
            value = sum(t for s, t in zip(tr.spans, own) if s["name"] == key and s["phase"] == phase)
        out[name] = (value / rounds if phase == "round" else value, unit)
    iters = out["primal.cg_iters"][0]
    derived = {"primal.hvp_s": out["primal.cg_s"][0] / iters if iters else 0.0,
               "trace.overhead_s": overhead_s,
               "trace.coverage_pct": 100.0 * spans.min_request_coverage(tr.spans, "request", "round")}
    out.update((k, (v, DERIVED_LAYER[k])) for k, v in derived.items())
    return out


def finish(name, seed, traced, blas_threads, correct, ops: Ops, e2e, layer, info) -> dict:
    chosen = layer if traced else {k: (v, END_TO_END[k]) for k, v in e2e.items()}
    metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in chosen.items()}
    result = {"correct": bool(correct), "attempted": ops.attempted, "failed": ops.failed,
              "metrics": metrics}
    record = dict(result, workload=name, seed=seed, trace=traced, blas_threads=blas_threads,
                  end_to_end=e2e, failures=ops.messages[:50], **info)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{name}-seed{seed}-trace{int(traced)}.json"), "w") as f:
        json.dump(record, f, indent=1, default=float)
    print(f"{name} seed {seed}: blas_threads={blas_threads} attempted={ops.attempted} "
          f"failed={ops.failed} correct={correct}", file=sys.stderr)
    for m in ops.messages[:10]:
        print(f"  {m}", file=sys.stderr)
    return result


def run(name: str, seed: int, seconds: float, traced: bool, root: str, blas_threads: int) -> dict:
    wl = WORKLOADS[name]
    if wl.kind == "protocol":
        return run_protocol(wl, seed, seconds, traced, root, blas_threads)
    return run_requests(wl, seed, seconds, traced, blas_threads)
