"""Harness protocol, baselines, sweep trends, CSV schemas, CLI behavior."""

import csv
import glob
import json
import os
import re
import subprocess
import sys
from collections import Counter
from operator import attrgetter

import numpy as np
import pytest

from kinfluence import cli, experiments
from kinfluence.datasets import make_blobs, split_forget
from kinfluence.dual import DualUnlearner
from kinfluence.errors import ConfigError
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
from kinfluence.kernels import KernelMatrix, empirical_ntk, write_kernel_cache
from kinfluence.losses import SQUARED, loss_value_batch
from kinfluence.models import LinearizedModel, ModelSpec, model_outputs, save_params
from kinfluence.primal import PrimalUnlearner
from kinfluence.report import METRICS_HEADER, influence_csv_header
from kinfluence.training import RiskConfig, fit_linearized_exact


def tiny_values(out, **extra):
    base = {
        "dataset.per_class": "20", "dataset.d_in": "6",
        "model.widths": "6,32,2", "risk.lambda": "0.2",
        "unlearn.percents": "50", "bench.cold": "inline",
        "bench.test_size": "6", "out": out,
    }
    base.update(extra)
    return base


# a value for every key that differs from ExperimentConfig()'s default
NON_DEFAULT = {
    "experiment.name": "other", "dataset.kind": "mnist", "dataset.classes": "3,5,7",
    "dataset.per_class": "17", "dataset.d_in": "9", "dataset.noise": "0.0123456789",
    "dataset.feature_scale": "0.5", "dataset.targets": "pm1", "dataset.seed": "4",
    "model.widths": "9,33,3", "model.activation": "identity",
    "model.parameterization": "ntk", "model.init_seed": "2", "model.linearized": "false",
    "risk.lambda": "0.00123456789", "risk.loss": "cross_entropy", "risk.center": "origin",
    "train.kind": "momentum", "opt.lr": "0.05", "opt.beta": "0.8",
    "stop.max_epochs": "77", "stop.grad_tol": "1e-9",
    "unlearn.percents": "12.3456789,50", "unlearn.scope": "1", "unlearn.space": "theta",
    "unlearn.hessian": "full",
    "cg.rel_tol": "1e-7", "cg.max_iters": "99",
    "dual.dense_threshold": "64",
    "bench.cold": "skip", "bench.test_size": "7", "seeds": "1,2",
    "ntk.hidden_layers": "2", "ntk.sigma_w2": "1.5", "ntk.sigma_b2": "0.02",
    "ntk.lr": "0.3", "ntk.epochs": "500", "ntk.tol": "1e-7",
    "sweep.lambdas": "0.00123456789,1", "out": "elsewhere",
}


SHIPPED_CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                               "configs", "*.cfg")))


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = config_from_values(tiny_values(str(tmp_path)))
        text = dump_config(cfg)
        again = config_from_values(parse_config_text(text))
        assert again == cfg

        assert set(NON_DEFAULT) == {key.name for key in CONFIG_KEYS}
        cfg = config_from_values(NON_DEFAULT)
        default = ExperimentConfig()
        for key in CONFIG_KEYS:
            get = attrgetter(key.path)
            assert get(cfg) != get(default), key.name
        assert cfg.percents[0] == 12.3456789 and cfg.risk.lam == 0.00123456789
        assert config_from_values(parse_config_text(dump_config(cfg))) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_text("not.a.key = 3")
        with pytest.raises(ConfigError):
            config_from_values(tiny_values(str(tmp_path), **{"bogus.key": "1"}))

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=os.path.basename)
    def test_shipped_config_loads_and_round_trips(self, path):
        cfg = experiments.load_config(path)
        assert config_from_values(parse_config_text(dump_config(cfg))) == cfg

    def test_readme_lists_every_key(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        section = open(readme).read().split("### Config keys", 1)[1]
        table = [line for line in section.split("\n\n")[1].splitlines()
                 if line.startswith("|")]
        listed = set(re.findall(r"`([^`]+)`", "\n".join(table)))
        assert listed == ({key.name for key in CONFIG_KEYS}
                          | {key.alias for key in CONFIG_KEYS if key.alias})

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

    def test_dual_requires_linearized(self, tmp_path):
        with pytest.raises(ConfigError):
            config_from_values(tiny_values(
                str(tmp_path), **{"model.linearized": "false", "train.kind": "gd",
                                  "unlearn.space": "both"}))

    def test_comments_and_blanks(self):
        vals = parse_config_text("# comment\n\nrisk.lambda = 0.5  # inline\n")
        assert vals["risk.lambda"] == "0.5"


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
        retrained = fit_linearized_exact(lin, split.retain, cfg)
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

    def test_single_class_scope(self, tmp_path):
        cfg = config_from_values(tiny_values(str(tmp_path), **{"unlearn.scope": "1",
                                                               "unlearn.percents": "40"}))
        rows = run_unlearning_experiment(cfg)
        assert all(r.rel_l2 < 1e-6 for r in rows)

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
            fa = open(os.path.join(out_a, "seed_0", case, "influence.csv"), "rb").read()
            fb = open(os.path.join(out_b, "seed_0", case, "influence.csv"), "rb").read()
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

    def test_needs_two_lambdas(self, tmp_path):
        cfg = config_from_values(tiny_values(str(tmp_path), **{"sweep.lambdas": "0.1"}))
        with pytest.raises(ConfigError):
            run_lambda_sweep(cfg)


class TestInfiniteExperiment:
    def test_outputs_and_files(self, tmp_path):
        vals = tiny_values(str(tmp_path), **{
            "dataset.targets": "pm1", "dataset.per_class": "30", "dataset.d_in": "5",
            "risk.lambda": "0.1", "bench.test_size": "10", "ntk.tol": "1e-8",
        })
        cfg = config_from_values(vals)
        res = run_infinite_experiment(cfg)
        assert np.corrcoef(res.est_loss_raw, res.act_loss)[0, 1] > 0.99
        for name in ("infinite_outputs.csv", "infinite_loss.csv"):
            assert os.path.exists(os.path.join(str(tmp_path), name))


CLI = [sys.executable, "-m", "kinfluence"]


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
        data = json.load(open(out))
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
        open(bad, "w").write("nonsense.key = 1\n")
        proc = subprocess.run(CLI + ["unlearn", "--config", bad], capture_output=True)
        assert proc.returncode == 2

    @pytest.mark.parametrize("key, value", [("cg.preconditioner", "jacobi"),
                                            ("dual.materialize_hrr", "true"),
                                            ("unlearn.shards", "3")])
    def test_removed_key_exit_code(self, tmp_path, key, value):
        cfgp = write_cfg(tmp_path, **{key: value})
        assert cli.main(["unlearn", "--config", cfgp]) == 2

    def test_cold_child_reads_stored_kernel(self, tmp_path, monkeypatch):
        cfgp = write_cfg(tmp_path)
        cfg = experiments.load_config(cfgp)
        train_ds, _ = make_experiment_data(cfg)
        spec = ModelSpec(cfg.widths, init_seed=cfg.init_seed)
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
        assert json.load(open(out))["cold_runtime_s"] > 0
        assert not os.path.exists(os.path.join(os.path.dirname(path), "metrics.csv"))

    def test_cold_child_non_finite_kernel_exit_code(self, tmp_path, capsys):
        # a kernel.bin with a valid header and a NaN payload reaches the
        # dense factorization, which reports a numerical failure
        cfgp = write_cfg(tmp_path)
        cfg = experiments.load_config(cfgp)
        train_ds, _ = make_experiment_data(cfg)
        spec = ModelSpec(cfg.widths, init_seed=cfg.init_seed)
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

    @pytest.mark.parametrize("percent, code", [("50", 0), ("10,30", 2), ("x", 2)])
    def test_ntk_infinite_percent_flag(self, tmp_path, capsys, percent, code):
        cfgp = write_cfg(tmp_path, **{"dataset.targets": "pm1", "bench.test_size": "4",
                                      "ntk.tol": "1e-8"})
        assert cli.main(["ntk-infinite", "--config", cfgp, "--percent", percent]) == code
        if code == 2:
            assert "configuration error" in capsys.readouterr().err

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
        (record,) = [json.loads(line) for line in open(diag)]
        assert any(note.startswith("NotAtOptimum") for note in record["notes"])

    def test_numerical_failure_exit_code(self, tmp_path):
        cfgp = write_cfg(tmp_path, **{"train.kind": "gd", "opt.lr": "50.0",
                                      "stop.max_epochs": "200",
                                      "unlearn.space": "theta"})
        proc = subprocess.run(CLI + ["unlearn", "--config", cfgp], capture_output=True)
        assert proc.returncode == 3


class TestSchemas:
    def test_golden_headers(self):
        from kinfluence.experiments import INFINITE_LOSS_HEADER, INFINITE_OUT_HEADER, SWEEP_HEADER
        from kinfluence.report import TRAIN_HEADER
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

    def test_seed_and_opt_kind_aliases(self):
        vals = parse_config_text("seed = 7\nopt.kind = momentum\n")
        assert vals["seeds"] == "7"
        assert vals["train.kind"] == "momentum"
        cfg = config_from_values({**vals, "model.linearized": "true",
                                  "risk.loss": "squared"})
        assert cfg.seeds == (7,) and cfg.opt.kind == "momentum"
