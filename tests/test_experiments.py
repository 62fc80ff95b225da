"""Harness protocol, baselines, sweep trends, CSV schemas, CLI behavior."""

import csv
import glob
import json
import os
import pathlib
import re
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import replace
from operator import attrgetter

import numpy as np
import pytest

import kinfluence.dual
from kinfluence import cli, experiments, primal, training
from kinfluence.datasets import make_blobs, split_forget
from kinfluence.dual import DualUnlearner, predict_changes_dual
from kinfluence.errors import CheckpointMismatch, ConfigError
from kinfluence.experiments import (
    CONFIG_KEYS,
    ExperimentConfig,
    accuracy,
    config_from_values,
    dump_config,
    make_experiment_data,
    parse_config_text,
    random_perturbation_baseline,
    run_infinite_experiment,
    run_lambda_sweep,
    run_unlearning_experiment,
    stored_paths,
)
from kinfluence.infinite import AnalyticNtkSpec
from kinfluence.kernels import KernelMatrix, empirical_ntk, write_kernel_cache
from kinfluence.losses import SQUARED, loss_value_batch
from kinfluence.models import LinearizedModel, ModelSpec, model_outputs, save_params
from kinfluence.primal import PrimalUnlearner
from kinfluence.report import (INFINITE_LOSS_HEADER, INFINITE_OUT_HEADER, METRICS_HEADER,
                               SWEEP_HEADER, TRAIN_HEADER, influence_csv_header)
from kinfluence.training import RiskConfig, fit_linearized_exact


def tiny_values(out, **extra):
    base = {
        "dataset.per_class": "20", "dataset.d_in": "6",
        "model.widths": "6,32,2", "risk.lambda": "0.2",
        "unlearn.percents": "50", "bench.cold": "skip",
        "bench.test_size": "6", "out": out,
    }
    base.update(extra)
    return base


# a value for every key but risk.loss that differs from ExperimentConfig()'s
# default; cross-entropy needs one-hot targets, so it gets a config of its own
NON_DEFAULT = {
    "experiment.name": "other", "dataset.kind": "mnist", "dataset.classes": "3,5",
    "dataset.per_class": "17", "dataset.d_in": "9", "dataset.noise": "0.0123456789",
    "dataset.feature_scale": "0.5", "dataset.targets": "pm1", "dataset.seed": "4",
    "model.widths": "784,33,1", "model.activation": "identity",
    "model.parameterization": "ntk", "model.init_seed": "2", "model.linearized": "false",
    "risk.lambda": "0.00123456789", "risk.center": "origin",
    "train.kind": "momentum", "opt.lr": "0.05", "opt.beta": "0.8",
    "stop.max_epochs": "77", "stop.grad_tol": "1e-9",
    "unlearn.percents": "12.3456789,50", "unlearn.scope": "5", "unlearn.space": "theta",
    "unlearn.hessian": "full",
    "cg.rel_tol": "1e-7", "cg.max_iters": "99",
    "bench.cold": "skip", "bench.test_size": "7", "seeds": "1,2",
    "ntk.hidden_layers": "2", "ntk.sigma_w2": "1.5", "ntk.sigma_b2": "0.02",
    "sweep.lambdas": "0.00123456789,1", "out": "elsewhere",
}
NON_DEFAULT_CE = {**NON_DEFAULT, "dataset.targets": "onehot", "model.widths": "784,33,2",
                  "risk.loss": "cross_entropy"}
# dump_config(config_from_values(NON_DEFAULT)): each value written as its
# default's type, floats with repr, bools in lower case, tuples comma-joined
NON_DEFAULT_TEXT = """\
experiment.name = other
dataset.kind = mnist
dataset.classes = 3,5
dataset.per_class = 17
dataset.d_in = 9
dataset.noise = 0.0123456789
dataset.feature_scale = 0.5
dataset.targets = pm1
dataset.seed = 4
model.widths = 784,33,1
model.activation = identity
model.parameterization = ntk
model.init_seed = 2
model.linearized = false
risk.lambda = 0.00123456789
risk.loss = squared
risk.center = origin
train.kind = momentum
opt.lr = 0.05
opt.beta = 0.8
stop.max_epochs = 77
stop.grad_tol = 1e-09
unlearn.percents = 12.3456789,50.0
unlearn.scope = 5
unlearn.space = theta
unlearn.hessian = full
cg.rel_tol = 1e-07
cg.max_iters = 99
bench.cold = skip
bench.test_size = 7
seeds = 1,2
ntk.hidden_layers = 2
ntk.sigma_w2 = 1.5
ntk.sigma_b2 = 0.02
sweep.lambdas = 0.00123456789,1.0
out = elsewhere
"""


SHIPPED_CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                               "configs", "*.cfg")))


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = config_from_values(tiny_values(str(tmp_path)))
        text = dump_config(cfg)
        again = config_from_values(parse_config_text(text))
        assert again == cfg

        assert set(NON_DEFAULT_CE) == {key.name for key in CONFIG_KEYS}
        cfgs = [config_from_values(NON_DEFAULT), config_from_values(NON_DEFAULT_CE)]
        default = ExperimentConfig()
        for key in CONFIG_KEYS:
            get = attrgetter(key.path)
            assert any(get(cfg) != get(default) for cfg in cfgs), key.name
        for cfg in cfgs:
            assert cfg.percents[0] == 12.3456789 and cfg.risk.lam == 0.00123456789
            assert config_from_values(parse_config_text(dump_config(cfg))) == cfg

    def test_dump_golden(self):
        assert dump_config(config_from_values(NON_DEFAULT)) == NON_DEFAULT_TEXT

    @pytest.mark.parametrize("key, value", [
        ("dataset.per_class", "1.5"), ("risk.lambda", "x"), ("model.linearized", "maybe"),
        ("model.widths", "6,x,2"), ("unlearn.percents", "50,x"), ("seeds", "0,x"),
        ("unlearn.scope", "x")])
    def test_bad_value_names_its_key(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=re.escape(key)):
            config_from_values(tiny_values(str(tmp_path), **{key: value}))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_text("not.a.key = 3")
        for key in ("bogus.key", "dual.dense_threshold", "ntk.lr"):
            with pytest.raises(ConfigError):
                parse_config_text(f"{key} = 1")
            with pytest.raises(ConfigError):
                config_from_values(tiny_values(str(tmp_path), **{key: "1"}))

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=os.path.basename)
    def test_shipped_config_loads_and_round_trips(self, path):
        cfg = experiments.load_config(path)
        assert config_from_values(parse_config_text(dump_config(cfg))) == cfg

    def test_readme_lists_every_key(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        section = pathlib.Path(readme).read_text().split("### Config keys", 1)[1]
        table = [line for line in section.split("\n\n")[1].splitlines()
                 if line.startswith("|")]
        listed = set(re.findall(r"`([^`]+)`", "\n".join(table)))
        assert listed == ({key.name for key in CONFIG_KEYS}
                          | {key.alias for key in CONFIG_KEYS if key.alias})

    def test_opt_kind_follows_trainer(self):
        cfg = ExperimentConfig(trainer="momentum")
        assert cfg.opt.kind == "momentum"
        assert "train.kind = momentum" in dump_config(cfg)
        assert replace(cfg, trainer="gd").opt.kind == "gd"
        assert replace(cfg, trainer="direct").opt.kind == "gd"

    def test_empty_percents_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            config_from_values(tiny_values(str(tmp_path), **{"unlearn.percents": ""}))

    def test_percent_bounds(self, tmp_path):
        with pytest.raises(ConfigError):
            config_from_values(tiny_values(str(tmp_path), **{"unlearn.percents": "0"}))
        with pytest.raises(ConfigError):
            config_from_values(tiny_values(str(tmp_path), **{"unlearn.percents": "100"}))

    def test_empty_seeds_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            config_from_values(tiny_values(str(tmp_path), seeds=""))

    @pytest.mark.parametrize("unset", [{"bias": False}, {"sigma_w2": 1.0}, {"sigma_b2": 0.0}])
    def test_model_setting_without_a_key_rejected(self, unset):
        # config.cfg could not record it, so the config refuses to hold it
        cfg = config_from_values(NON_DEFAULT)
        assert cfg.model == ModelSpec((784, 33, 1), activation="identity", init_seed=2,
                                      parameterization="ntk")
        assert cfg.ntk == AnalyticNtkSpec(2, sigma_w2=1.5, sigma_b2=0.02)
        with pytest.raises(ConfigError, match="sigma_w2"):
            ExperimentConfig(model=ModelSpec((20, 64, 2), **unset))

    def test_dual_requires_linearized(self, tmp_path):
        with pytest.raises(ConfigError):
            config_from_values(tiny_values(
                str(tmp_path), **{"model.linearized": "false", "train.kind": "gd",
                                  "unlearn.space": "both"}))

    def test_comments_and_blanks(self):
        vals = parse_config_text("# comment\n\nrisk.lambda = 0.5  # inline\n")
        assert vals["risk.lambda"] == "0.5"

    def test_line_without_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
            parse_config_text("risk.lambda = 0.5\nrisk.loss squared\n")


class TestData:
    def test_blob_train_test_disjoint_same_distribution(self, tmp_path):
        cfg = config_from_values(tiny_values(str(tmp_path)))
        train, test = make_experiment_data(cfg)
        assert train.n == 40 and test.n >= 6
        both = np.vstack([train.features, test.features])
        assert np.unique(both, axis=0).shape[0] == both.shape[0]

    def test_accuracy_onehot_and_pm1(self):
        out = np.array([[0.2, 0.7], [0.9, 0.1]])
        tgt = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert accuracy(out, tgt) == 0.5
        out1 = np.array([[0.3], [-0.2], [0.0]])
        tgt1 = np.array([[1.0], [1.0], [1.0]])
        assert accuracy(out1, tgt1) == pytest.approx(2.0 / 3.0)


class TestBaseline:
    def test_zero_displacement(self):
        theta = np.arange(5.0)
        np.testing.assert_array_equal(random_perturbation_baseline(theta, theta, 0), theta)

    def test_exact_norm(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(40), rng.standard_normal(40)
        pert = random_perturbation_baseline(a, b, 7)
        assert abs(np.linalg.norm(pert - a) - np.linalg.norm(a - b)) < 1e-12

    def test_baseline_worse_than_influence_in_19_of_20(self):
        # quadratic instance: the influence answer is exact, the equal-norm
        # random direction almost never lands near the retrained optimum
        spec = ModelSpec((5, 24, 2), init_seed=0)
        lin = LinearizedModel(spec, spec.init_params())
        ds = make_blobs(15, 2, d_in=5, seed=1)
        cfg = RiskConfig(lam=0.3)
        split = split_forget(ds, 30.0, scope="all", seed=2)
        theta_hat = fit_linearized_exact(lin, split.full, cfg)
        # an assembled kernel keeps the oracle off the JVP/VJP products the
        # parameter-space estimate runs
        retrained = fit_linearized_exact(lin, split.retain, cfg,
                                         kernel=empirical_ntk(spec, lin.theta_ref,
                                                              split.retain.features))
        res = PrimalUnlearner(lin, theta_hat, split, cfg).solve()
        infl_rel = np.linalg.norm(theta_hat + res.x - retrained)
        wins = sum(
            np.linalg.norm(random_perturbation_baseline(theta_hat, retrained, s) - retrained)
            > infl_rel
            for s in range(20)
        )
        assert wins >= 19


class TestUnlearningProtocol:
    def test_quadratic_both_spaces_match_retraining(self, tmp_path):
        cfg = config_from_values(tiny_values(str(tmp_path)))
        rows = run_unlearning_experiment(cfg)
        assert {r.space for r in rows} == {"theta", "dual"}
        for r in rows:
            assert r.rel_l2 < 1e-6
            assert r.forget_acc_unlearned == r.forget_acc_retrained
            assert r.rel_l2 <= r.baseline_rel_l2

    def test_warm_stats_over_five_runs(self, tmp_path):
        cfg = config_from_values(tiny_values(str(tmp_path), **{"unlearn.space": "dual"}))
        run_unlearning_experiment(cfg)
        with open(os.path.join(str(tmp_path), "seed_0", "p50_dual", "influence.csv")) as f:
            rows = list(csv.reader(f))
        assert rows[0] == influence_csv_header(2)
        with open(os.path.join(str(tmp_path), "metrics.csv")) as f:
            header = f.readline().strip().split(",")
        assert header == METRICS_HEADER

    def test_dual_influence_matches_kernel_formula(self, tmp_path):
        # the harness's dual column is K_t delta_alpha with the raw loss term
        # and lambda alpha_star' K delta_alpha, formed here from kernels
        cfg = config_from_values(tiny_values(str(tmp_path), **{"unlearn.space": "dual"}))
        run_unlearning_experiment(cfg)
        ctx = experiments._build_seed_context(cfg, 0)
        split = split_forget(ctx.train_ds, 50.0, scope=cfg.scope,
                             seed=experiments._split_seed(0, 50.0))
        unlearner = experiments._make_unlearner(ctx, split, "dual")
        coeffs = unlearner.solve()
        test = ctx.test_ds
        k_t = empirical_ntk(ctx.model.spec, ctx.model.theta_ref, test.features,
                            split.full.features)
        f_t = model_outputs(ctx.model, ctx.theta_hat, test.features).ravel()
        df, raw, reg = predict_changes_dual(k_t, unlearner.kernel, coeffs, f_t, test.targets,
                                            cfg.risk)
        path = os.path.join(str(tmp_path), "seed_0", "p50_dual", "influence.csv")
        got = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1:]
        want = np.column_stack([df, raw, reg])
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_max_iters_noted_in_both_spaces(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kinfluence.dual, "DENSE_SOLVE_MAX", 0)
        cfg = config_from_values(tiny_values(str(tmp_path), **{"cg.max_iters": "1"}))
        run_unlearning_experiment(cfg)
        for space in ("theta", "dual"):
            diag = os.path.join(str(tmp_path), "seed_0", f"p50_{space}", "diagnostics.jsonl")
            (record,) = [json.loads(line) for line in pathlib.Path(diag).read_text().splitlines()]
            assert not record["converged"] and record["iters"] == 1
            assert [n.split(":")[0] for n in record["notes"]] == ["MaxItersReached"]

    def test_factored_solve_records_cond_lower(self, tmp_path):
        cfg = config_from_values(tiny_values(str(tmp_path), **{"bench.cold": "skip"}))
        run_unlearning_experiment(cfg)
        records = {}
        for space in ("theta", "dual"):
            diag = os.path.join(str(tmp_path), "seed_0", f"p50_{space}", "diagnostics.jsonl")
            (records[space],) = [json.loads(line)
                                 for line in pathlib.Path(diag).read_text().splitlines()]
        assert records["dual"]["solver"] == "dense" and records["dual"]["cond_lower"] >= 1.0
        assert "cond_lower" not in records["theta"]
        # a factor measures no iterations and no residual, and the record claims none;
        # the gradient of the retain risk at theta_u is measured in both spaces
        assert records["dual"]["residual"] is None and records["dual"]["iters"] is None
        assert records["theta"]["iters"] > 0
        assert all(0 <= r["retain_grad_norm"] < 1e-8 for r in records.values())

    def test_retain_grad_norm_bounds_the_distance_to_retraining(self, tmp_path):
        # R_r is lambda-strongly convex, so ||theta_u - theta_r|| <= ||grad R_r(theta_u)|| /
        # lambda; a loose CG tolerance leaves a distance for the bound to cover
        cfg = config_from_values(tiny_values(str(tmp_path), **{
            "cg.rel_tol": "1e-3", "unlearn.space": "theta", "unlearn.percents": "30,70"}))
        run_unlearning_experiment(cfg)
        ctx = experiments._build_seed_context(cfg, 0)
        for percent in cfg.percents:
            split = split_forget(ctx.train_ds, percent, scope=cfg.scope,
                                 seed=experiments._split_seed(0, percent))
            theta_r, _ = experiments._fit(cfg, ctx.model, split.retain)
            record = json.loads((tmp_path / "seed_0" / f"p{percent:g}_theta"
                                 / "diagnostics.jsonl").read_text())
            distance = record["rel_l2"] * np.linalg.norm(theta_r)
            assert 0 < distance <= record["retain_grad_norm"] / cfg.risk.lam
            # squared loss: CG's residual g - H s is -grad R_r(theta_hat + s)
            assert record["retain_grad_norm"] == pytest.approx(record["residual"], rel=1e-6)

    def test_single_class_scope(self, tmp_path):
        cfg = config_from_values(tiny_values(str(tmp_path), **{"unlearn.scope": "1",
                                                               "unlearn.percents": "40"}))
        rows = run_unlearning_experiment(cfg)
        assert all(r.rel_l2 < 1e-6 for r in rows)
        # blobs are labelled 0..len(classes)-1, mnist keeps its digits
        for scope, kind in (("2", "blobs"), ("7", "blobs"), ("1", "mnist")):
            with pytest.raises(ConfigError, match="unlearn.scope"):
                config_from_values(tiny_values(str(tmp_path), **{
                    "unlearn.scope": scope, "dataset.kind": kind, "dataset.classes": "3,5"}))
        assert config_from_values(tiny_values(str(tmp_path), **{
            "unlearn.scope": "5", "dataset.kind": "mnist", "dataset.classes": "3,5"})).scope == 5

    def test_determinism_across_reruns(self, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        rows_a = run_unlearning_experiment(config_from_values(tiny_values(out_a)))
        rows_b = run_unlearning_experiment(config_from_values(tiny_values(out_b)))
        for ra, rb in zip(rows_a, rows_b):
            assert (ra.seed, ra.percent, ra.space) == (rb.seed, rb.percent, rb.space)
            assert ra.rel_l2 == rb.rel_l2
            assert ra.baseline_rel_l2 == rb.baseline_rel_l2
            assert ra.forget_acc_unlearned == rb.forget_acc_unlearned
        for case in ("p50_theta", "p50_dual"):
            fa = pathlib.Path(out_a, "seed_0", case, "influence.csv").read_bytes()
            fb = pathlib.Path(out_b, "seed_0", case, "influence.csv").read_bytes()
            assert fa == fb

    def test_five_solves_per_case(self, tmp_path, monkeypatch):
        # the report of each case comes from the last of the five warm solves
        solved = []
        for cls in (DualUnlearner, PrimalUnlearner):
            def counted(self, _solve=cls.solve):
                solved.append(self)
                return _solve(self)
            monkeypatch.setattr(cls, "solve", counted)
        cfg = config_from_values(tiny_values(str(tmp_path), **{"bench.cold": "skip",
                                                               "unlearn.percents": "30,70"}))
        run_unlearning_experiment(cfg)
        # one unlearner per (percent, space); `solved` keeps them alive, so ids differ
        assert sorted(Counter(map(id, solved)).values()) == [5, 5, 5, 5]

    def test_stationarity_measured_once_per_seed(self, tmp_path, monkeypatch):
        # full-set gradients only: parameter space also takes one over each
        # forget set for its right-hand side
        calls = []

        def counted(model, theta, ds, cfg, _grad=training.risk_grad):
            calls.append(ds.n)
            return _grad(model, theta, ds, cfg)
        for module in (training, experiments, primal):
            monkeypatch.setattr(module, "risk_grad", counted)
        for space in ("dual", "both"):
            calls.clear()
            cfg = config_from_values(tiny_values(str(tmp_path / space), **{
                "unlearn.space": space, "unlearn.percents": "30,50,70", "bench.cold": "skip"}))
            run_unlearning_experiment(cfg)
            assert calls.count(max(calls)) == 1, space

    def test_origin_centered_linearized_model_is_expanded_at_init(self, tmp_path):
        # risk.center = origin moves only the regularizer: the network is still
        # expanded at its initialization. At 0 a ReLU net's linearization is a
        # constant, and its kernel has rank d_out.
        cfg = config_from_values(tiny_values(str(tmp_path), **{
            "risk.center": "origin", "unlearn.percents": "30", "bench.cold": "skip"}))
        ctx = experiments._build_seed_context(cfg, 0)
        np.testing.assert_array_equal(ctx.model.theta_ref, ctx.model.spec.init_params())
        assert np.linalg.matrix_rank(ctx.kernel.to_dense()) == ctx.train_ds.n * 2 == 80
        rows = run_unlearning_experiment(cfg)
        assert [r.space for r in rows] == ["theta", "dual"]
        assert all(r.rel_l2 < 1e-8 for r in rows)

    def test_cold_start_ends_at_theta_u(self, tmp_path, monkeypatch):
        # the cold timer covers the answer a warm repeat times: in coefficient
        # space, the solve and its map to parameters
        mapped = []

        def counted(*args, _map=experiments.map_to_params):
            mapped.append(1)
            return _map(*args)
        monkeypatch.setattr(experiments, "map_to_params", counted)
        cfg = config_from_values(tiny_values(str(tmp_path), **{"unlearn.space": "dual"}))
        assert experiments.measure_cold(cfg, 0, 50.0, "dual") > 0
        assert len(mapped) == 1

    def test_gd_trainer_path(self, tmp_path):
        cfg = config_from_values(tiny_values(
            str(tmp_path), **{"train.kind": "gd", "opt.lr": "0.05",
                              "stop.max_epochs": "30000", "stop.grad_tol": "1e-9",
                              "dataset.per_class": "10", "model.widths": "6,16,2",
                              "risk.lambda": "0.5"}))
        rows = run_unlearning_experiment(cfg)
        for r in rows:
            assert r.rel_l2 < 1e-4  # iterative optimum, looser than the exact fit


class TestRawNetworkOrigin:
    def test_origin_centered_raw_network_trains(self, tmp_path):
        # training starts at the initialization, not at the center 0, where
        # every weight gradient of a ReLU network vanishes
        cfg = config_from_values(tiny_values(
            str(tmp_path), **{"model.linearized": "false", "train.kind": "gd",
                              "risk.center": "origin", "opt.lr": "0.1",
                              "stop.max_epochs": "200", "unlearn.space": "theta"}))
        ctx = experiments._build_seed_context(cfg, 0)
        spec = ctx.model
        for w_sl, _shape, _b_sl in spec.param_slices:
            assert np.any(ctx.theta_hat[w_sl] != 0.0)
        y = ctx.train_ds.targets
        fitted = loss_value_batch(SQUARED, model_outputs(spec, ctx.theta_hat,
                                                         ctx.train_ds.features), y).mean()
        constant = loss_value_batch(SQUARED, np.broadcast_to(y.mean(axis=0), y.shape), y).mean()
        assert fitted < constant


class TestSweep:
    def test_linear_model_tracks_itself(self, tmp_path):
        vals = tiny_values(str(tmp_path), **{
            "model.widths": "6,1", "model.activation": "identity",
            "dataset.targets": "pm1", "risk.loss": "squared",
            "stop.max_epochs": "50", "opt.lr": "0.05",
            "sweep.lambdas": "1e-2,1e-1,1e0",
        })
        res = run_lambda_sweep(config_from_values(vals), record_every=10)
        for lam, arr in res.items():
            assert np.all(arr[:, 1] < 1e-14)

    def test_trends_in_lambda(self, tmp_path):
        vals = tiny_values(str(tmp_path), **{
            "model.widths": "6,64,1", "dataset.targets": "pm1",
            "dataset.per_class": "30", "dataset.feature_scale": "0.25",
            "stop.max_epochs": "400", "opt.lr": "0.1",
            "sweep.lambdas": "1e-3,1e-1,1e1", "bench.test_size": "40",
        })
        res = run_lambda_sweep(config_from_values(vals), record_every=20)
        lams = sorted(res)
        final_dist = [res[l][-1, 1] for l in lams]
        final_gnorm = [res[l][-1, 5] for l in lams]
        assert final_dist[0] >= final_dist[1] >= final_dist[2]
        assert final_gnorm[0] >= final_gnorm[1] >= final_gnorm[2]
        assert res[lams[2]][-1, 3] <= res[lams[0]][-1, 3]
        assert os.path.exists(os.path.join(str(tmp_path), "sweep_lambda_0.001.csv"))

    @pytest.mark.parametrize("extra", [{"train.kind": "momentum", "opt.beta": "0.5"},
                                       {"risk.center": "origin"}], ids=["momentum", "origin"])
    def test_both_models_train_as_train_does(self, tmp_path, extra):
        # the last row's gradient norms are those train ends its history with,
        # for the same model, risk and optimizer
        cfg = config_from_values(tiny_values(str(tmp_path), **{
            "model.widths": "6,16,1", "dataset.targets": "pm1", "stop.max_epochs": "40",
            "opt.lr": "0.1", "sweep.lambdas": "1e-2,1e0", **extra}))
        run_lambda_sweep(cfg, record_every=10)
        train_ds, _ = make_experiment_data(cfg)
        spec = cfg.model
        for lam in cfg.sweep_lambdas:
            with open(os.path.join(str(tmp_path), f"sweep_lambda_{lam:g}.csv")) as f:
                last = list(csv.DictReader(f))[-1]
            assert last["epoch"] == "39"
            for model, column in ((spec, "grad_norm_model"),
                                  (LinearizedModel(spec, spec.theta_init), "grad_norm_linear")):
                rep = training.train(model, train_ds, replace(cfg.risk, lam=lam), cfg.opt,
                                     training.StopRule(40, 0.0))
                assert float(last[column]) == rep.grad_norm_history[-1]

    def test_needs_two_lambdas(self, tmp_path):
        cfg = config_from_values(tiny_values(str(tmp_path), **{"sweep.lambdas": "0.1"}))
        with pytest.raises(ConfigError):
            run_lambda_sweep(cfg)


class TestInfiniteExperiment:
    def test_outputs_and_files(self, tmp_path):
        vals = tiny_values(str(tmp_path), **{
            "dataset.targets": "pm1", "dataset.per_class": "30", "dataset.d_in": "5",
            "risk.lambda": "0.1", "bench.test_size": "10",
        })
        cfg = config_from_values(vals)
        res = run_infinite_experiment(cfg)
        assert np.corrcoef(res.est_loss_raw, res.act_loss)[0, 1] > 0.99
        for name in ("infinite_outputs.csv", "infinite_loss.csv"):
            assert os.path.exists(os.path.join(str(tmp_path), name))

    @pytest.mark.parametrize("lam", ["0.1", "1e-4"], ids=["shipped", "lambda_1e-4"])
    def test_shipped_config_estimates_are_exact(self, tmp_path, lam):
        # squared loss: the estimate is exact, so with exact fits on the full
        # and the retain set the two columns agree to rounding, at any lambda
        shipped = pathlib.Path(__file__).parent.parent / "configs" / "infinite_width.cfg"
        text = shipped.read_text()
        assert "risk.lambda = 0.1\n" in text
        cfgp = tmp_path / "infinite.cfg"
        cfgp.write_text(text.replace("risk.lambda = 0.1\n", f"risk.lambda = {lam}\n"))
        out = tmp_path / "out"
        assert cli.main(["ntk-infinite", "--config", str(cfgp), "--out", str(out)]) == 0
        with open(out / "infinite_outputs.csv") as f:
            est, act = np.array([row[2:] for row in csv.reader(f)][1:], dtype=float).T
        assert np.linalg.norm(est - act) <= 1e-10 * np.linalg.norm(act)
        (record,) = map(json.loads, (out / "diagnostics.jsonl").read_text().splitlines())
        assert record["seed"] == 0 and record["percent"] == 50.0
        assert max(record["fit_residual_full"], record["fit_residual_retain"]) <= 1e-12


CLI = [sys.executable, "-m", "kinfluence"]


def forbidden_fit(*args, **kwargs):
    raise AssertionError("theta_hat was refitted or the kernel assembled")


def write_cfg(tmp_path, name="exp.cfg", **extra):
    path = os.path.join(str(tmp_path), name)
    vals = tiny_values(os.path.join(str(tmp_path), "results"), **extra)
    with open(path, "w") as f:
        for k, v in vals.items():
            f.write(f"{k} = {v}\n")
    return path


class TestCli:
    def test_unlearn_and_report(self, tmp_path):
        cfgp = write_cfg(tmp_path)
        proc = subprocess.run(CLI + ["unlearn", "--config", cfgp],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == ",".join(METRICS_HEADER)
        rep = subprocess.run(CLI + ["report", "--out", os.path.join(str(tmp_path), "results")],
                             capture_output=True, text=True)
        assert rep.returncode == 0 and len(rep.stdout.splitlines()) == 3

    def test_cold_flag_writes_json(self, tmp_path):
        cfgp = write_cfg(tmp_path)
        out = os.path.join(str(tmp_path), "cold.json")
        proc = subprocess.run(CLI + ["unlearn", "--config", cfgp, "--cold",
                                     "--percent", "50", "--space", "dual", "--out", out],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        data = json.loads(pathlib.Path(out).read_text())
        assert data["space"] == "dual" and data["cold_runtime_s"] > 0

    def test_train_writes_checkpoint(self, tmp_path):
        cfgp = write_cfg(tmp_path)
        proc = subprocess.run(CLI + ["train", "--config", cfgp],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        res = os.path.join(str(tmp_path), "results")
        assert os.path.exists(os.path.join(res, "theta_hat.bin"))
        assert os.path.exists(os.path.join(res, "train.csv"))

    def test_train_trains_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, _train=experiments.train, **kwargs):
            calls.append(1)
            return _train(*args, **kwargs)
        monkeypatch.setattr(experiments, "train", counted)
        cfgp = write_cfg(tmp_path, **{"train.kind": "gd", "opt.lr": "0.05",
                                      "stop.max_epochs": "50", "unlearn.space": "theta"})
        assert cli.main(["train", "--config", cfgp]) == 0
        assert len(calls) == 1
        with open(os.path.join(str(tmp_path), "results", "train.csv")) as f:
            assert len(f.readlines()) == 1 + 50  # header plus one row per epoch

    def test_config_error_exit_code(self, tmp_path):
        bad = os.path.join(str(tmp_path), "bad.cfg")
        pathlib.Path(bad).write_text("nonsense.key = 1\n")
        proc = subprocess.run(CLI + ["unlearn", "--config", bad], capture_output=True)
        assert proc.returncode == 2

    @pytest.mark.parametrize("key, value", [("cg.preconditioner", "jacobi"),
                                            ("dual.materialize_hrr", "true"),
                                            ("unlearn.shards", "3"),
                                            ("dual.dense_threshold", "4096"),
                                            ("ntk.lr", "0.3"),
                                            ("opt.kind", "momentum"),
                                            ("ntk.epochs", "20000"),
                                            ("ntk.tol", "1e-6")])
    def test_removed_key_exit_code(self, tmp_path, key, value):
        cfgp = write_cfg(tmp_path, **{key: value})
        assert cli.main(["unlearn", "--config", cfgp]) == 2

    @pytest.mark.parametrize("command", ["unlearn", "train"])
    @pytest.mark.parametrize("bad", [
        {"unlearn.hessian": "bogus"},
        {"model.activation": "tanh"},
        {"model.parameterization": "bogus"},
        {"model.widths": "4,0,2"},
        {"risk.loss": "hinge"},
        {"dataset.targets": "bogus"},
        {"dataset.targets": "pm1", "dataset.classes": "0,1,2"},
        {"dataset.targets": "pm1", "risk.loss": "cross_entropy", "model.widths": "4,8,1"},
        {"dataset.feature_scale": "1.5"},
        {"dataset.feature_scale": "0"},
        {"dataset.kind": "svhn"},
        {"dataset.per_class": "0"},
        {"unlearn.hessian": "full", "unlearn.space": "dual"},
        {"unlearn.hessian": "full", "unlearn.space": "both"},
        {"model.widths": "5,8,2"},
        {"model.widths": "4,8,3"},
    ], ids=["hessian", "activation", "parameterization", "zero_width", "loss", "targets",
            "pm1_three_classes", "pm1_cross_entropy", "feature_scale_above_1",
            "feature_scale_0", "dataset_kind", "per_class_0", "full_hessian_dual",
            "full_hessian_both", "d_in_mismatch", "d_out_mismatch"])
    def test_bad_value_exit_code(self, tmp_path, capsys, command, bad):
        # 20 points of 4 features in 2 classes, trained by gd
        cfgp = write_cfg(tmp_path, **{"dataset.per_class": "10", "dataset.d_in": "4",
                                      "model.widths": "4,8,2", "train.kind": "gd",
                                      "stop.max_epochs": "5", **bad})
        assert cli.main([command, "--config", cfgp]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
        # every value fails before the output directory exists, the widths
        # that do not fit the data included
        assert not os.path.exists(os.path.join(str(tmp_path), "results"))

    @pytest.mark.parametrize("command, bad", [
        ("ntk-infinite", {"ntk.hidden_layers": "-1"}),
        ("ntk-infinite", {"ntk.sigma_w2": "0"}),
        ("sweep-lambda", {"sweep.lambdas": "0.1,-1"}),
        ("train", {"stop.max_epochs": "0", "train.kind": "gd"}),
        ("unlearn", {"unlearn.scope": "7"}),
        ("unlearn", {"unlearn.percents": "50,1"}),
        ("ntk-infinite", {"unlearn.percents": "1"}),
        ("unlearn", {"seeds": "0,-1"}),
        ("train", {"dataset.seed": "-3"}),
        ("train", {"model.init_seed": "-1"}),
        ("unlearn", {"bench.test_size": "0"}),
        ("unlearn", {"seeds": "0,0"}),
        ("unlearn", {"unlearn.percents": "30,30"}),
        ("sweep-lambda", {"sweep.lambdas": "0.1,0.1"}),
        ("sweep-lambda", {"sweep.lambdas": "0.1,0.1000001"}),
        ("unlearn --percent 30,30.0000001 --space theta", {}),
        ("train", {"dataset.classes": "1,1"}),
        ("train", {"train.kind": "adam"}),
        ("unlearn", {"model.linearized": "false", "unlearn.space": "theta"}),
        ("train", {"risk.loss": "cross_entropy"}),
        ("unlearn", {"bench.cold": "inline"}),
        ("unlearn", {"bench.cold": "fork"}),
        ("train", {"risk.lambda": "0"}),
        ("train", {"opt.lr": "0", "train.kind": "gd"}),
        ("unlearn", {"cg.rel_tol": "0"}),
        ("unlearn", {"cg.max_iters": "0"}),
        ("unlearn --cold --percent 50 --space dual", {}),
        ("unlearn --cold --percent 50 --out cold.json", {"unlearn.space": "both"}),
        ("unlearn", {"risk.lambda": "nan"}),
        ("unlearn", {"cg.rel_tol": "nan"}),
        ("train", {"stop.grad_tol": "nan", "train.kind": "gd"}),
        ("ntk-infinite", {"ntk.sigma_b2": "nan"}),
        ("sweep-lambda", {"sweep.lambdas": "0.1,nan"}),
        ("train", {"opt.beta": "2", "train.kind": "momentum"}),
        ("train", {"opt.beta": "-1", "train.kind": "momentum"}),
    ], ids=["hidden_layers", "sigma_w2", "sweep_lambda",
            "max_epochs", "scope", "percent_no_forget", "infinite_percent_no_forget",
            "negative_seed", "negative_dataset_seed", "negative_init_seed", "test_size_0",
            "duplicate_seeds", "duplicate_percents", "duplicate_lambdas",
            "lambdas_share_file_name", "percents_share_file_name", "duplicate_classes",
            "unknown_trainer", "direct_raw_network", "direct_cross_entropy", "cold_inline",
            "cold_unknown", "lambda_0", "lr_0", "cg_rel_tol_0", "cg_max_iters_0",
            "cold_without_out", "cold_both_spaces", "lambda_nan", "cg_rel_tol_nan",
            "grad_tol_nan", "sigma_b2_nan", "sweep_lambda_nan", "beta_2", "beta_negative"])
    def test_ruled_out_value_exit_code(self, tmp_path, capsys, monkeypatch, command, bad):
        # each value fails before anything is written (1% of 20 points forgets
        # none); a relative --out would land in tmp_path
        monkeypatch.chdir(tmp_path)
        cfgp = write_cfg(tmp_path, **{"dataset.per_class": "10", "dataset.d_in": "4",
                                      "model.widths": "4,8,2", **bad})
        assert cli.main([*command.split(), "--config", cfgp]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
        assert os.listdir(tmp_path) == ["exp.cfg"]

    @pytest.mark.parametrize("argv, out", [
        (["train"], "taken"), (["unlearn"], "taken"), (["sweep-lambda"], "taken"),
        (["ntk-infinite"], "taken"),
        (["unlearn", "--cold", "--percent", "50", "--space", "dual"], "taken"),
        (["unlearn", "--cold", "--percent", "50", "--space", "dual"], "missing/cold.json"),
    ], ids=["train", "unlearn", "sweep_lambda", "ntk_infinite", "cold", "cold_missing_parent"])
    def test_unwritable_out_exit_code(self, tmp_path, capsys, monkeypatch, argv, out):
        # --out names an existing file where the command makes a directory; for
        # --cold, an existing directory or a path in none, where it writes the
        # JSON result. Each fails before the kernel is assembled or theta fitted.
        for name in ("empirical_ntk", "_fit"):
            monkeypatch.setattr(experiments, name, forbidden_fit)
        cfgp = write_cfg(tmp_path)
        out = tmp_path / out
        if "--cold" not in argv:
            out.write_text("")
        elif out.name == "taken":
            out.mkdir()
        assert cli.main([argv[0], "--config", cfgp, *argv[1:], "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and str(out) in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["train"], ["ntk-infinite"],
                                      ["unlearn", "--cold", "--percent", "50", "--space", "dual"]],
                             ids=["train", "ntk_infinite", "cold"])
    def test_one_seed_commands_reject_a_seed_list(self, tmp_path, capsys, argv):
        cfgp = write_cfg(tmp_path, seeds="0,1")
        out = ["--out", os.path.join(str(tmp_path), "cold.json")] if "--cold" in argv else []
        command = [argv[0], "--config", cfgp, *argv[1:], *out]
        assert cli.main(command) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "--seed" in err
        assert os.listdir(tmp_path) == ["exp.cfg"]
        assert cli.main(command + ["--seed", "1"]) == 0

    @pytest.mark.parametrize("command", ["train", "unlearn", "sweep-lambda", "ntk-infinite"])
    def test_override_flags(self, tmp_path, capsys, monkeypatch, command):
        # a bad flag value is a configuration error, raised before anything is written
        cfgp = write_cfg(tmp_path)
        for flag, bad, key in (("--space", "bogus", "space"), ("--seed", "x", "seeds"),
                               ("--percent", "x", "unlearn.percents")):
            assert cli.main([command, "--config", cfgp, flag, bad]) == 2
            err = capsys.readouterr().err
            assert "configuration error" in err and key in err and "Traceback" not in err
            assert not os.path.exists(os.path.join(str(tmp_path), "results"))
        # every config-reading command takes each override flag, as its key
        given = {"--space": "dual", "--percent": "50", "--seed": "1", "--lambdas": "0.1,1",
                 "--out": "o"}
        assert set(given) == {key.flag for key in CONFIG_KEYS if key.flag}
        seen = {}

        def loaded(path, overrides):
            seen.update(overrides)
            raise ConfigError("stop")
        monkeypatch.setattr(cli, "load_config", loaded)
        assert cli.main([command, "--config", cfgp, *[a for f in given.items() for a in f]]) == 2
        assert seen == {"unlearn.space": "dual", "unlearn.percents": "50", "seeds": "1",
                        "sweep.lambdas": "0.1,1", "out": "o"}

    def test_cold_child_reads_stored_kernel(self, tmp_path, monkeypatch):
        cfgp = write_cfg(tmp_path)
        cfg = experiments.load_config(cfgp)
        train_ds, _ = make_experiment_data(cfg)
        spec = cfg.model
        path, theta_path = stored_paths(cfg, 0)
        os.makedirs(os.path.dirname(path))
        kernel = empirical_ntk(spec, spec.init_params(), train_ds.features)
        write_kernel_cache(path, kernel)
        save_params(theta_path, spec,
                    fit_linearized_exact(LinearizedModel(spec, spec.init_params()), train_ds,
                                         cfg.risk, kernel=kernel))

        def forbidden(*args, **kwargs):
            raise AssertionError("cold child assembled the kernel or refitted theta_hat")
        for name in ("empirical_ntk", "fit_linearized_exact", "train"):
            monkeypatch.setattr(experiments, name, forbidden)
        out = os.path.join(str(tmp_path), "cold.json")
        assert cli.main(["unlearn", "--config", cfgp, "--cold", "--percent", "50",
                         "--space", "dual", "--out", out]) == 0
        assert json.loads(pathlib.Path(out).read_text())["cold_runtime_s"] > 0
        assert not os.path.exists(os.path.join(os.path.dirname(path), "metrics.csv"))

    @pytest.mark.parametrize("args", [["train"], ["unlearn", "--space", "theta"]],
                             ids=["train", "unlearn_theta"])
    def test_command_without_coefficient_space_reads_no_kernel(self, tmp_path, monkeypatch,
                                                               args):
        # a direct fit on a config whose unlearn.space is both: a command that
        # answers in no coefficient space fits on the implicit kernel
        cfgp = write_cfg(tmp_path, **{"unlearn.space": "both"})

        def forbidden(*args, **kwargs):
            raise AssertionError("a kernel was assembled or read")
        for module in (experiments, kinfluence.kernels):
            for name in ("empirical_ntk", "read_kernel_cache"):
                monkeypatch.setattr(module, name, forbidden)
        assert cli.main([args[0], "--config", cfgp, *args[1:]]) == 0
        results = os.path.join(str(tmp_path), "results")
        assert os.path.exists(os.path.join(results, "theta_hat.bin" if args == ["train"] else
                                           os.path.join("seed_0", "theta_hat.bin")))
        assert not glob.glob(os.path.join(results, "**", "kernel.bin"), recursive=True)

    def test_both_run_assembles_once_per_seed(self, tmp_path, monkeypatch):
        # theta_hat is fitted on the assembled kernel; the retrain oracles run
        # on the implicit kernel and gather no K_rr block
        assembled, fits = [], []

        def counted_ntk(*args, _ntk=experiments.empirical_ntk, **kwargs):
            assembled.append(1)
            return _ntk(*args, **kwargs)

        def counted_fit(*args, _fit=experiments.fit_linearized_exact, **kwargs):
            fits.append(kwargs.get("kernel") is not None)
            return _fit(*args, **kwargs)

        def no_view_gather(self, _gather=KernelMatrix.gather):
            if self.rows is not None:
                raise AssertionError("a kernel block was gathered")
            return _gather(self)
        monkeypatch.setattr(experiments, "empirical_ntk", counted_ntk)
        monkeypatch.setattr(experiments, "fit_linearized_exact", counted_fit)
        monkeypatch.setattr(KernelMatrix, "gather", no_view_gather)
        cfg = config_from_values(tiny_values(str(tmp_path), **{
            "seeds": "0,1", "unlearn.percents": "10,90", "bench.cold": "skip"}))
        rows = run_unlearning_experiment(cfg)
        assert len(assembled) == 2
        assert fits == [True, False, False] * 2
        assert all(r.rel_l2 < 1e-6 for r in rows)

    def test_harness_copies_out_no_full_kernel(self, tmp_path, monkeypatch):
        # 80 points: the kernel is held as two block rows, and neither the fit,
        # the cache write nor either space's answers copy out its full square
        def no_square(self):
            raise AssertionError("a full kernel square was copied out")
        monkeypatch.setattr(KernelMatrix, "dense", property(no_square))
        monkeypatch.setattr(KernelMatrix, "to_dense", no_square)
        cfg = config_from_values(tiny_values(str(tmp_path), **{
            "dataset.per_class": "40", "unlearn.percents": "10,90", "unlearn.space": "both",
            "bench.cold": "skip"}))
        rows = run_unlearning_experiment(cfg)
        assert len(rows) == 4 and all(r.rel_l2 < 1e-6 for r in rows)

    def test_theta_case_vectors_freed_before_dual_prepare(self, tmp_path, monkeypatch):
        # the theta case's solution (and theta_u, retain gradient and report
        # built from it) is gone by the time the dual case factors its system
        solved, live = [], []

        def solve(self, _solve=PrimalUnlearner.solve):
            result = _solve(self)
            solved.append(weakref.ref(result.x))
            return result

        def prepare(self, _prepare=DualUnlearner.prepare):
            live.append(sum(ref() is not None for ref in solved))
            return _prepare(self)
        monkeypatch.setattr(PrimalUnlearner, "solve", solve)
        monkeypatch.setattr(DualUnlearner, "prepare", prepare)
        cfg = config_from_values(tiny_values(str(tmp_path), **{
            "unlearn.percents": "10", "unlearn.space": "both"}))
        run_unlearning_experiment(cfg)
        assert len(solved) == experiments.WARM_REPEATS and live == [0]

    def test_gd_fit_gives_its_last_gradient_norm(self, tmp_path, monkeypatch):
        # a gd fit ends its history with ||grad R(theta_hat)||: the harness takes
        # it and runs one risk gradient per case, for the retain norm, and no more
        calls = []

        def counted(*args, _grad=experiments.risk_grad, **kwargs):
            calls.append(1)
            return _grad(*args, **kwargs)
        monkeypatch.setattr(experiments, "risk_grad", counted)
        cfg = config_from_values(tiny_values(str(tmp_path), **{
            "train.kind": "gd", "stop.max_epochs": "30", "unlearn.percents": "30,70",
            "unlearn.space": "theta"}))
        run_unlearning_experiment(cfg)
        assert len(calls) == 2
        ctx = experiments._build_seed_context(replace(cfg, space="theta"), 0)
        measured = float(np.linalg.norm(training.risk_grad(ctx.model, ctx.theta_hat,
                                                           ctx.train_ds, cfg.risk)))
        assert ctx.grad_norm == measured
        records = [json.loads(pathlib.Path(path).read_text()) for path in
                   glob.glob(os.path.join(str(tmp_path), "seed_0", "p*", "diagnostics.jsonl"))]
        assert len(records) == 2 and {r["grad_norm"] for r in records} == {measured}

    def test_diagnostics_carry_grad_norm(self, tmp_path):
        # every record carries the seed's ||grad R(theta_hat)||; for a direct
        # fit, the norm kinf train writes to train.csv
        cfgp = write_cfg(tmp_path, **{"unlearn.percents": "30,70", "bench.cold": "skip"})

        def records(space):
            out = os.path.join(str(tmp_path), space)
            assert cli.main(["unlearn", "--config", cfgp, "--space", space, "--out", out]) == 0
            paths = glob.glob(os.path.join(out, "seed_0", "p*", "diagnostics.jsonl"))
            return [json.loads(line) for path in paths
                    for line in pathlib.Path(path).read_text().splitlines()]
        theta = records("theta")
        assert cli.main(["train", "--config", cfgp]) == 0
        with open(os.path.join(str(tmp_path), "results", "train.csv")) as f:
            (row,) = list(csv.DictReader(f))
        assert len(theta) == 2 and {r["grad_norm"] for r in theta} == {float(row["grad_norm"])}
        both = records("both")
        assert len(both) == 4 and len({r["grad_norm"] for r in both}) == 1
        assert both[0]["grad_norm"] <= training.STATIONARITY_TOL

    def test_rerun_rewrites_each_record(self, tmp_path):
        # a second run into the same out leaves one record per case, as it
        # leaves one influence.csv
        cfgp = write_cfg(tmp_path, **{"unlearn.percents": "30,70", "bench.cold": "skip"})
        for _ in range(2):
            assert cli.main(["unlearn", "--config", cfgp]) == 0
        paths = glob.glob(os.path.join(str(tmp_path), "results", "seed_0", "p*",
                                       "diagnostics.jsonl"))
        assert len(paths) == 4
        assert [len(pathlib.Path(p).read_text().splitlines()) for p in paths] == [1] * 4

    @pytest.mark.parametrize("extra", [{}, {"model.linearized": "false", "train.kind": "gd",
                                            "stop.max_epochs": "5"}],
                             ids=["direct", "raw_gd"])
    def test_theta_cold_child_reads_only_theta_hat(self, tmp_path, monkeypatch, extra):
        # the protocol run stores theta_hat for every model; a parameter-space
        # child reads it, and no kernel
        cfg = experiments.load_config(write_cfg(tmp_path, **{"unlearn.space": "theta",
                                                             "bench.cold": "skip", **extra}))
        run_unlearning_experiment(cfg)

        def forbidden(*args, **kwargs):
            raise AssertionError("theta-space cold child read a kernel or refitted theta_hat")
        for name in ("read_kernel_cache", "empirical_ntk", "fit_linearized_exact", "train"):
            monkeypatch.setattr(experiments, name, forbidden)
        assert experiments.measure_cold(cfg, 0, 50.0, "theta") > 0

    def test_stored_files_of_another_config_rejected(self, tmp_path, monkeypatch):
        # the stored theta_hat carries only the spec hash; the out dir's
        # snapshot must also agree on every other setting the fit depends on
        raw = {"model.linearized": "false", "train.kind": "gd", "stop.max_epochs": "5",
               "unlearn.space": "theta", "bench.cold": "skip"}
        run_unlearning_experiment(experiments.load_config(write_cfg(tmp_path, **raw)))
        for other in ({"model.linearized": "true"}, {"risk.lambda": "0.5"},
                      {"stop.max_epochs": "6"}):
            cfg = experiments.load_config(write_cfg(tmp_path, **{**raw, **other}))
            with pytest.raises(CheckpointMismatch):
                experiments.measure_cold(cfg, 0, 50.0, "theta")
        # settings of the unlearning run alone do not reject them
        monkeypatch.setattr(experiments, "train", forbidden_fit)
        cfg = experiments.load_config(write_cfg(tmp_path, **{**raw, "cg.max_iters": "7",
                                                             "unlearn.percents": "30"}))
        assert experiments.measure_cold(cfg, 0, 30.0, "theta") > 0

    def test_cold_child_non_finite_kernel_exit_code(self, tmp_path, capsys):
        # a kernel.bin with a valid header and a NaN payload reaches the
        # dense factorization, which reports a numerical failure
        cfgp = write_cfg(tmp_path)
        cfg = experiments.load_config(cfgp)
        train_ds, _ = make_experiment_data(cfg)
        spec = cfg.model
        lin = LinearizedModel(spec, spec.init_params())
        path, theta_path = stored_paths(cfg, 0)
        os.makedirs(os.path.dirname(path))
        side = train_ds.n * train_ds.d_out
        write_kernel_cache(path, KernelMatrix(train_ds.d_out, dense=np.full((side, side), np.nan),
                                              spec_hash=spec.spec_hash()))
        save_params(theta_path, spec, fit_linearized_exact(lin, train_ds, cfg.risk))
        out = os.path.join(str(tmp_path), "cold.json")
        assert cli.main(["unlearn", "--config", cfgp, "--cold", "--percent", "50",
                         "--space", "dual", "--out", out]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("code, message", [(2, "configuration error"),
                                               (3, "numerical failure")])
    def test_cold_child_failure_exit_code(self, tmp_path, capsys, monkeypatch, code, message):
        # a failed cold child exits as its failure's class, with its stderr
        def failed_child(cmd, **kwargs):
            return subprocess.CompletedProcess(cmd, code, "", "child: the reason\n")
        monkeypatch.setattr(experiments.subprocess, "run", failed_child)
        cfgp = write_cfg(tmp_path, **{"bench.cold": "subprocess", "unlearn.space": "dual"})
        assert cli.main(["unlearn", "--config", cfgp]) == code
        err = capsys.readouterr().err
        assert message in err and "child: the reason" in err and "Traceback" not in err

    @pytest.mark.parametrize("percent, code", [("50", 0), ("10,30", 2), ("x", 2)])
    def test_ntk_infinite_percent_flag(self, tmp_path, capsys, percent, code):
        cfgp = write_cfg(tmp_path, **{"dataset.targets": "pm1", "bench.test_size": "4"})
        assert cli.main(["ntk-infinite", "--config", cfgp, "--percent", percent]) == code
        if code == 2:
            assert "configuration error" in capsys.readouterr().err

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        cfgp = write_cfg(tmp_path)
        with open(cfgp, "ab") as f:
            f.write(b"# caf\xe9\n")
        assert cli.main(["unlearn", "--config", cfgp]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "utf-8" in err and "Traceback" not in err

    @pytest.mark.parametrize("row", ["0,50.0,dual\n", "x,50.0,dual,1,2,3,4,5,6,7\n"],
                             ids=["short_row", "non_numeric_seed"])
    def test_report_malformed_metrics_exit_code(self, tmp_path, capsys, row):
        path = tmp_path / "seed_0" / "metrics.csv"
        path.parent.mkdir()
        path.write_text(",".join(METRICS_HEADER) + "\n" + row)
        assert cli.main(["report", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and str(path) in err and "Traceback" not in err

    def test_missing_config_exit_code(self, tmp_path):
        proc = subprocess.run(CLI + ["unlearn", "--config", "/does/not/exist.cfg"],
                              capture_output=True)
        assert proc.returncode == 2

    def test_dual_not_at_optimum_exit_code(self, tmp_path, capsys):
        # five gd epochs leave theta_hat far from stationary
        cfgp = write_cfg(tmp_path, **{"train.kind": "gd", "opt.lr": "0.05",
                                      "stop.max_epochs": "5"})
        assert cli.main(["unlearn", "--config", cfgp, "--space", "dual"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_theta_not_at_optimum_noted(self, tmp_path):
        cfgp = write_cfg(tmp_path, **{"train.kind": "gd", "opt.lr": "0.05",
                                      "stop.max_epochs": "5"})
        assert cli.main(["unlearn", "--config", cfgp, "--space", "theta"]) == 0
        diag = os.path.join(str(tmp_path), "results", "seed_0", "p50_theta",
                            "diagnostics.jsonl")
        (record,) = [json.loads(line) for line in pathlib.Path(diag).read_text().splitlines()]
        assert any(note.startswith("NotAtOptimum") for note in record["notes"])

    def test_diverging_sweep_exit_code(self, tmp_path, capsys):
        # a step far above the stability bound: the sweep stops at the first
        # non-finite risk instead of writing NaN rows
        cfgp = write_cfg(tmp_path, **{"model.widths": "6,32,1", "dataset.targets": "pm1",
                                      "opt.lr": "40", "stop.max_epochs": "300",
                                      "sweep.lambdas": "1e-3,1e-1"})
        assert cli.main(["sweep-lambda", "--config", cfgp]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: loss became non-finite" in err and "Traceback" not in err

    def test_cold_child_rejects_a_kernel_of_another_spec(self, tmp_path, capsys, monkeypatch):
        # the run's snapshot and theta_hat.bin match, its kernel.bin does not
        cfgp = write_cfg(tmp_path, **{"unlearn.space": "dual"})
        cfg = experiments.load_config(cfgp)
        run_unlearning_experiment(cfg)
        kernel_path, _ = stored_paths(cfg, 0)
        other = replace(cfg.model, init_seed=cfg.model.init_seed + 1)
        write_kernel_cache(kernel_path, empirical_ntk(other, other.init_params(),
                                                      make_experiment_data(cfg)[0].features))
        for name in ("empirical_ntk", "_fit"):
            monkeypatch.setattr(experiments, name, forbidden_fit)
        with pytest.raises(CheckpointMismatch, match="spec hash mismatch"):
            experiments.measure_cold(cfg, 0, 50.0, "dual")
        out = os.path.join(str(tmp_path), "cold.json")
        assert cli.main(["unlearn", "--config", cfgp, "--cold", "--percent", "50",
                         "--space", "dual", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "spec hash mismatch" in err

    def test_numerical_failure_exit_code(self, tmp_path):
        cfgp = write_cfg(tmp_path, **{"train.kind": "gd", "opt.lr": "50.0",
                                      "stop.max_epochs": "200",
                                      "unlearn.space": "theta"})
        proc = subprocess.run(CLI + ["unlearn", "--config", cfgp], capture_output=True)
        assert proc.returncode == 3


class TestSchemas:
    def test_golden_headers(self):
        assert METRICS_HEADER == [
            "seed", "percent", "space",
            "cold_runtime_s", "warm_runtime_mean_s", "warm_runtime_std_s",
            "rel_l2", "forget_acc_unlearned", "forget_acc_retrained", "baseline_rel_l2",
        ]
        assert influence_csv_header(3) == [
            "test_index", "output_change_0", "output_change_1", "output_change_2",
            "loss_change_raw", "loss_change_reg",
        ]
        assert SWEEP_HEADER == ["epoch", "rel_param_dist", "output_rmse",
                                "acc_model", "acc_linear",
                                "grad_norm_model", "grad_norm_linear"]
        assert INFINITE_OUT_HEADER == ["test_index", "output_dim",
                                       "est_output_change", "act_output_change"]
        assert INFINITE_LOSS_HEADER == ["test_index", "est_loss_change_raw",
                                        "est_loss_change_reg", "act_loss_change"]
        assert TRAIN_HEADER == ["epoch", "loss", "grad_norm"]

    def test_one_dialect(self, tmp_path):
        # every table: LF line ends, its golden header, floats that round-trip
        headers = {"metrics.csv": METRICS_HEADER, "influence.csv": influence_csv_header(2),
                   "train.csv": TRAIN_HEADER, "infinite_outputs.csv": INFINITE_OUT_HEADER,
                   "infinite_loss.csv": INFINITE_LOSS_HEADER}
        for command in ("unlearn", "train", "sweep-lambda", "ntk-infinite"):
            (tmp_path / command).mkdir()
            cfgp = write_cfg(tmp_path / command, **{
                "dataset.per_class": "10", "dataset.d_in": "4", "model.widths": "4,8,2",
                "bench.cold": "skip", "stop.max_epochs": "20", "sweep.lambdas": "0.1,1"})
            assert cli.main([command, "--config", cfgp]) == 0
        tables = glob.glob(str(tmp_path / "**" / "*.csv"), recursive=True)
        names = {re.sub(r"sweep_lambda_.*", "sweep", os.path.basename(p)) for p in tables}
        assert names == set(headers) | {"sweep"}
        for path in tables:
            data = pathlib.Path(path).read_bytes()
            assert b"\r" not in data and data.endswith(b"\n"), path
            header, *rows = [line.split(",") for line in data.decode().splitlines()]
            assert header == headers.get(os.path.basename(path), SWEEP_HEADER), path
            assert rows and all(len(row) == len(header) for row in rows), path
            floats = [c for row in rows for c in row if not re.fullmatch(r"-?\d+|[a-z]+", c)]
            assert floats and all(repr(float(c)) == c for c in floats), path

    def test_seed_and_opt_kind_aliases(self):
        # seed is the one alias left; opt.kind is a removed key
        vals = parse_config_text("seed = 7\n")
        assert vals["seeds"] == "7"
        assert config_from_values(vals).seeds == (7,)
