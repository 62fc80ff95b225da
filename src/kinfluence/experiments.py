"""Benchmark harness: train, split, unlearn in both spaces, compare to
retraining and a norm-matched random perturbation.

Timing semantics follow the two-metric protocol: the kernel is a precomputed
stored artifact, cold runtime covers operator/right-hand-side construction
plus the first answer theta_u measured in a fresh process, warm runtime is
the mean and standard deviation over exactly five repeat answers that reuse
the prepared operator. Everything except wall-clock fields is deterministic
for fixed seeds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from contextlib import suppress
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .datasets import (LabeledDataset, check_encoding, data_dir, load_cifar_binary, load_idx,
                       make_blobs, split_forget, subset_per_class)
from .dual import DualUnlearner, map_to_params
from .errors import CheckpointMismatch, ConfigError, NotAtOptimum, NumericalError
from .infinite import AnalyticNtkSpec, infinite_influence
from .kernels import KernelMatrix, empirical_ntk, read_kernel_cache, write_kernel_cache
from .losses import CROSS_ENTROPY, SQUARED
from .models import LinearizedModel, ModelSpec, load_params, model_outputs, save_params
from .primal import (HESSIAN_UPWEIGHTED, HESSIAN_VARIANTS, PrimalUnlearner,
                     attach_test_predictions)
from .report import (
    INFINITE_LOSS_HEADER,
    INFINITE_OUT_HEADER,
    SWEEP_HEADER,
    InfluenceReport,
    MetricsRow,
    write_diagnostics,
    write_influence_csv,
    write_metrics_csv,
    write_table,
    write_train_csv,
)
from .solvers import CgOptions
from .training import (Optimizer, RiskConfig, StopRule, TrainReport, descend,
                       fit_linearized_exact, risk_grad, stationarity_gap, train)

WARM_REPEATS = 5

SPACE_THETA = "theta"
SPACE_DUAL = "dual"

DATASET_KINDS = ("blobs", "mnist", "cifar10")  # blobs are generated, the rest read from data_dir()


@dataclass(frozen=True)
class DatasetConfig:
    kind: str = "blobs"            # one of DATASET_KINDS
    classes: tuple = (0, 1)
    per_class: int = 100
    d_in: int = 20                 # blobs feature width
    noise: float = 0.12
    feature_scale: float = 1.0     # shrink features toward 0 (stability knob)
    targets: str = "onehot"        # onehot | pm1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        if self.per_class < 1 or self.seed < 0:
            raise ConfigError("dataset.per_class must be at least 1 and dataset.seed >= 0")
        if not 0 < self.feature_scale <= 1.0:
            raise ConfigError("dataset.feature_scale must lie in (0, 1]")
        check_encoding(self.targets, len(self.classes))


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = "experiment"
    dataset: DatasetConfig = DatasetConfig()
    model: ModelSpec = ModelSpec((20, 64, 2))  # seed s inits it from init_seed + s
    linearized: bool = True
    risk: RiskConfig = RiskConfig(lam=0.1)
    trainer: str = "direct"        # direct | gd | momentum
    opt: Optimizer = Optimizer()   # its kind follows trainer
    stop: StopRule = StopRule()
    percents: tuple = (10.0, 30.0, 50.0, 70.0, 90.0)
    scope: object = "all"          # all, or a class label
    space: str = "both"            # theta | dual | both
    hessian_variant: str = "upweighted"
    cg: CgOptions = CgOptions()
    cold: str = "subprocess"       # subprocess | skip
    test_size: int = 50
    seeds: tuple = (0,)
    ntk: AnalyticNtkSpec = AnalyticNtkSpec(3)  # its d_out follows the data
    ntk_epochs: int = 20000
    ntk_tol: float = 1e-6
    sweep_lambdas: tuple = (1e-3, 1e-1, 1e1)
    out_dir: str = "results"

    def __post_init__(self):
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError("seeds must be nonempty and >= 0")
        # percents and lambdas name files as %g, where distinct values can print alike
        g = "{:g}".format
        for key, values, name in (("seeds", self.seeds, str), ("unlearn.percents", self.percents, g),
                                  ("sweep.lambdas", self.sweep_lambdas, g),
                                  ("dataset.classes", self.dataset.classes, str)):
            if len(set(map(name, values))) < len(values):
                raise ConfigError(f"{key} repeats a value or its file name: "
                                  f"{', '.join(map(str, values))}")
        if self.test_size < 1:
            raise ConfigError("bench.test_size must be at least 1")
        if self.model != ModelSpec(self.model.layer_widths, self.model.activation,
                                   self.model.init_seed, self.model.parameterization):
            raise ConfigError("no config key sets the model's bias, sigma_w2 or sigma_b2")
        if not self.percents:
            raise ConfigError("removal percents must be nonempty")
        if any(not 0 < p < 100 for p in self.percents):
            raise ConfigError("removal percents must lie strictly inside (0, 100)")
        if self.space not in (SPACE_THETA, SPACE_DUAL, "both"):
            raise ConfigError(f"unknown space {self.space!r}")
        if self.trainer not in ("direct", "gd", "momentum"):
            raise ConfigError(f"unknown trainer {self.trainer!r}")
        object.__setattr__(self, "opt", replace(
            self.opt, kind="momentum" if self.trainer == "momentum" else "gd"))
        if self.trainer == "direct" and (not self.linearized or self.risk.loss != SQUARED):
            raise ConfigError("direct trainer requires a linearized model with squared loss")
        if self.risk.loss == CROSS_ENTROPY and self.dataset.targets == "pm1":
            raise ConfigError("cross-entropy needs one-hot targets: the softmax of one "
                              "+-1 column is constant")
        if self.cold not in ("subprocess", "skip"):
            raise ConfigError(f"unknown cold mode {self.cold!r}")
        if not self.linearized and self.space != SPACE_THETA:
            raise ConfigError("coefficient-space unlearning requires a linearized model")
        if self.hessian_variant not in HESSIAN_VARIANTS:
            raise ConfigError(f"unknown hessian variant {self.hessian_variant!r}")
        if self.hessian_variant != HESSIAN_UPWEIGHTED and self.space != SPACE_THETA:
            # coefficient space solves the retain-Hessian system only
            raise ConfigError(f"unlearn.hessian = {self.hessian_variant} needs "
                              f"unlearn.space = theta")
        # blobs are labelled 0..len(classes)-1, the read datasets keep their ids
        labels = (range(len(self.dataset.classes)) if self.dataset.kind == "blobs"
                  else self.dataset.classes)
        if self.scope != "all":
            with suppress(ValueError):  # a scope that is not an integer fails below
                object.__setattr__(self, "scope", int(self.scope))
        if self.scope != "all" and self.scope not in labels:
            raise ConfigError(f"unlearn.scope = {self.scope} is not a class label of the "
                              f"dataset ({', '.join(map(str, labels))})")
        if self.ntk_epochs < 1 or self.ntk_tol <= 0:
            raise ConfigError("ntk.epochs must be at least 1 and ntk.tol positive")
        if any(lam <= 0 for lam in self.sweep_lambdas):
            raise ConfigError("every sweep.lambdas value must be positive")

    def spaces(self) -> tuple:
        return (SPACE_THETA, SPACE_DUAL) if self.space == "both" else (self.space,)

    def one_seed(self) -> int:
        """The seed of a command that runs one; ConfigError for a seed list."""
        if len(self.seeds) != 1:
            raise ConfigError(f"this command runs one seed, not {len(self.seeds)}: use --seed")
        return self.seeds[0]


# --------------------------------------------------------------------------
# Key-value config files
# --------------------------------------------------------------------------

class _ConfigKey(NamedTuple):
    name: str                   # as written in config files
    field: str | None = None    # ExperimentConfig attribute, dotted into nested
                                # configs; None when it is spelled like the key
    alias: str | None = None    # single-value spelling accepted as a synonym
    flag: str | None = None     # command-line flag that overrides the key

    @property
    def path(self) -> str:
        return self.field or self.name


# Every config key, once; its value is read and written as its default's type.
CONFIG_KEYS = (
    _ConfigKey("experiment.name", "name"),
    _ConfigKey("dataset.kind"),
    _ConfigKey("dataset.classes"),
    _ConfigKey("dataset.per_class"),
    _ConfigKey("dataset.d_in"),
    _ConfigKey("dataset.noise"),
    _ConfigKey("dataset.feature_scale"),
    _ConfigKey("dataset.targets"),
    _ConfigKey("dataset.seed"),
    _ConfigKey("model.widths", "model.layer_widths"),
    _ConfigKey("model.activation"),
    _ConfigKey("model.parameterization"),
    _ConfigKey("model.init_seed"),
    _ConfigKey("model.linearized", "linearized"),
    _ConfigKey("risk.lambda", "risk.lam"),
    _ConfigKey("risk.loss"),
    _ConfigKey("risk.center"),
    _ConfigKey("train.kind", "trainer"),
    _ConfigKey("opt.lr"),
    _ConfigKey("opt.beta"),
    _ConfigKey("stop.max_epochs"),
    _ConfigKey("stop.grad_tol"),
    _ConfigKey("unlearn.percents", "percents", flag="--percent"),
    _ConfigKey("unlearn.scope", "scope"),
    _ConfigKey("unlearn.space", "space", flag="--space"),
    _ConfigKey("unlearn.hessian", "hessian_variant"),
    _ConfigKey("cg.rel_tol"),
    _ConfigKey("cg.max_iters"),
    _ConfigKey("bench.cold", "cold"),
    _ConfigKey("bench.test_size", "test_size"),
    _ConfigKey("seeds", alias="seed", flag="--seed"),
    _ConfigKey("ntk.hidden_layers"),
    _ConfigKey("ntk.sigma_w2"),
    _ConfigKey("ntk.sigma_b2"),
    _ConfigKey("ntk.epochs", "ntk_epochs"),
    _ConfigKey("ntk.tol", "ntk_tol"),
    _ConfigKey("sweep.lambdas", "sweep_lambdas", flag="--lambdas"),
    _ConfigKey("out", "out_dir", flag="--out"),
)

_KEY_BY_NAME = {name: key for key in CONFIG_KEYS for name in (key.name, key.alias) if name}
_DEFAULT = ExperimentConfig()


def parse_config_text(text: str) -> dict:
    """Key -> value text, with aliases resolved to their key."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_BY_NAME:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[_KEY_BY_NAME[key].name] = val
    return values


def _parse(default, text: str):
    """``text`` read as the type of ``default``: a tuple as a comma list of the
    type of its first item, a bool as true/1/yes or false/0/no."""
    if isinstance(default, tuple):
        return tuple(_parse(default[0], v) for v in text.split(",") if v.strip())
    if isinstance(default, bool):
        if text.lower() not in ("true", "1", "yes", "false", "0", "no"):
            raise ValueError(f"not a boolean: {text!r}")
        return text.lower() in ("true", "1", "yes")
    return type(default)(text)


def _text(default, value) -> str:
    if isinstance(default, tuple):
        return ",".join(_text(default[0], v) for v in value)
    if isinstance(default, bool):
        return str(value).lower()
    # repr round-trips every float exactly
    return repr(float(value)) if isinstance(default, float) else str(value)


def config_from_values(values: dict) -> ExperimentConfig:
    """Config from key -> value text; keys left out keep their defaults."""
    top, nested = {}, {}
    for name, text in values.items():
        if name not in _KEY_BY_NAME:
            raise ConfigError(f"unknown key {name!r}")
        key = _KEY_BY_NAME[name]
        try:
            value = _parse(attrgetter(key.path)(_DEFAULT), text)
        except ValueError as e:
            raise ConfigError(f"{key.name}: {e}") from e
        group, _, attr = key.path.rpartition(".")
        (nested.setdefault(group, {}) if group else top)[attr] = value
    try:
        top.update({group: replace(getattr(_DEFAULT, group), **attrs)
                    for group, attrs in nested.items()})
        return replace(_DEFAULT, **top)
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    with open(path) as f:
        values = parse_config_text(f.read())
    values.update({k: v for k, v in (overrides or {}).items() if v is not None})
    return config_from_values(values)


def dump_config(cfg: ExperimentConfig) -> str:
    return "".join(f"{key.name} = {_text(get(_DEFAULT), get(cfg))}\n"
                   for key in CONFIG_KEYS for get in [attrgetter(key.path)])


# --------------------------------------------------------------------------
# Data assembly
# --------------------------------------------------------------------------

def _scale_features(ds: LabeledDataset, scale: float) -> LabeledDataset:
    if scale == 1.0:
        return ds
    return LabeledDataset(ds.features * scale, ds.targets, ds.labels, ds.name)


def _real_data(kind: str) -> tuple[LabeledDataset, LabeledDataset]:
    """Full training and held-out sets of a DATASET_KINDS entry other than
    blobs, from data_dir()."""
    root = data_dir()
    if kind == "mnist":
        return (load_idx(os.path.join(root, "train-images-idx3-ubyte"),
                         os.path.join(root, "train-labels-idx1-ubyte"), name="mnist"),
                load_idx(os.path.join(root, "t10k-images-idx3-ubyte"),
                         os.path.join(root, "t10k-labels-idx1-ubyte"), name="mnist/test"))
    root = os.path.join(root, "cifar-10-batches-bin")
    return (load_cifar_binary(os.path.join(root, "data_batch_1.bin")),
            load_cifar_binary(os.path.join(root, "test_batch.bin")))


def make_experiment_data(cfg: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """Deterministic train/test pair with a shared input distribution."""
    dc = cfg.dataset
    n_classes = len(dc.classes)
    test_pc = max(1, -(-cfg.test_size // n_classes))
    if dc.kind == "blobs":
        pool = make_blobs(dc.per_class + test_pc, n_classes, dc.d_in, seed=dc.seed,
                          noise=dc.noise, encoding=dc.targets, name="blobs")
        train_rows, test_rows = [], []
        for c in range(n_classes):
            members = np.flatnonzero(pool.labels == c)
            train_rows.append(members[: dc.per_class])
            test_rows.append(members[dc.per_class: dc.per_class + test_pc])
        train = pool.take(np.sort(np.concatenate(train_rows)), name="blobs/train")
        test = pool.take(np.sort(np.concatenate(test_rows)), name="blobs/test")
    else:
        full, held = _real_data(dc.kind)
        train = subset_per_class(full, dc.classes, dc.per_class, dc.seed, dc.targets)
        test = subset_per_class(held, dc.classes, test_pc, dc.seed + 1, dc.targets)
    return _scale_features(train, dc.feature_scale), _scale_features(test, dc.feature_scale)


def _spec_for_data(cfg: ExperimentConfig, ds: LabeledDataset, seed: int = 0) -> ModelSpec:
    """The config's network for ``ds``; ConfigError when their widths differ."""
    spec = replace(cfg.model, init_seed=cfg.model.init_seed + seed)
    if (spec.d_in, spec.d_out) != (ds.d_in, ds.d_out):
        raise ConfigError(f"model.widths {spec.d_in}->{spec.d_out} do not fit the data "
                          f"({ds.d_in}->{ds.d_out})")
    return spec


def _checked_data(cfg: ExperimentConfig, percents: tuple = ()) -> tuple:
    """The run's train/test data, built once and checked before the command
    writes anything: ConfigError when the widths do not fit them, or when a
    removal percent leaves no forget or no retain row."""
    train_ds, test_ds = make_experiment_data(cfg)
    _spec_for_data(cfg, train_ds)
    for percent in percents:
        split_forget(train_ds, percent, scope=cfg.scope)  # the count needs no split seed
    return train_ds, test_ds


def accuracy(outputs: np.ndarray, targets: np.ndarray) -> float:
    """Argmax match for one-hot targets, sign match for +-1 targets."""
    if targets.shape[1] == 1:
        return float(np.mean((outputs[:, 0] >= 0) == (targets[:, 0] > 0)))
    return float(np.mean(outputs.argmax(axis=1) == targets.argmax(axis=1)))


def random_perturbation_baseline(theta_hat: np.ndarray, theta_retrained: np.ndarray,
                                 seed: int) -> np.ndarray:
    """theta_hat plus spherical noise matching the true displacement norm."""
    radius = float(np.linalg.norm(theta_hat - theta_retrained))
    if radius == 0.0:
        return theta_hat.copy()
    direction = np.random.default_rng(seed).standard_normal(theta_hat.shape[0])
    return theta_hat + direction * (radius / np.linalg.norm(direction))


# --------------------------------------------------------------------------
# Unlearning experiment
# --------------------------------------------------------------------------

@dataclass
class _SeedContext:
    cfg: ExperimentConfig
    seed: int
    model: object
    theta_hat: np.ndarray
    train_ds: LabeledDataset
    test_ds: LabeledDataset
    kernel: KernelMatrix | None
    grad_norm: float                    # ||grad R(theta_hat)|| over train_ds
    trained: TrainReport | None = None  # the gd/momentum fit that gave theta_hat


def _split_seed(seed: int, percent: float) -> int:
    return seed * 100003 + int(round(percent * 10))


# config lines a seed's theta_hat and kernel do not depend on
_RUN_SETTINGS = ("experiment.name ", "bench.cold ", "seeds ", "out ",
                 "unlearn.", "cg.", "ntk.", "sweep.")


def _fit_settings(cfg: ExperimentConfig) -> list[str]:
    return [line for line in dump_config(cfg).splitlines() if not line.startswith(_RUN_SETTINGS)]


def _fit(cfg: ExperimentConfig, model, ds: LabeledDataset, kernel: KernelMatrix | None = None):
    """theta fitted to ``ds`` by the config's trainer, and its gd/momentum TrainReport."""
    if cfg.trainer == "direct":
        return fit_linearized_exact(model, ds, cfg.risk, kernel=kernel), None
    trained = train(model, ds, cfg.risk, cfg.opt, cfg.stop)
    return trained.final_params, trained


def _build_seed_context(cfg: ExperimentConfig, seed: int, data: tuple | None = None,
                        stored: bool = False) -> _SeedContext:
    """The seed's context on ``data`` (the run's train/test pair, built when None), with
    a kernel when the config answers in coefficient space. With ``stored``, the theta_hat
    and kernel the protocol run wrote are read back when they exist, and a config snapshot
    that differs in a fit setting is rejected. ||grad R(theta_hat)|| is measured once, here,
    or read off the end of a gd/momentum fit's history."""
    train_ds, test_ds = data or make_experiment_data(cfg)
    spec = _spec_for_data(cfg, train_ds, seed)
    model = LinearizedModel(spec, spec.theta_init) if cfg.linearized else spec
    kernel = theta_hat = trained = None
    kernel_path, theta_path = stored_paths(cfg, seed)
    snapshot = os.path.join(cfg.out_dir, "config.cfg")
    if (stored and os.path.exists(snapshot)
            and _fit_settings(load_config(snapshot)) != _fit_settings(cfg)):
        raise CheckpointMismatch(f"{cfg.out_dir} holds the fit of another config")
    if stored and os.path.exists(theta_path):
        theta_hat = load_params(theta_path, spec)
    if SPACE_DUAL in cfg.spaces():
        if stored and os.path.exists(kernel_path):
            kernel = read_kernel_cache(kernel_path, expect_hash=spec.spec_hash())
        else:
            kernel = empirical_ntk(spec, spec.theta_init, train_ds.features)
    if theta_hat is None:
        theta_hat, trained = _fit(cfg, model, train_ds, kernel)
    grad_norm = float(trained.grad_norm_history[-1] if trained is not None else
                      np.linalg.norm(risk_grad(model, theta_hat, train_ds, cfg.risk)))
    return _SeedContext(cfg, seed, model, theta_hat, train_ds, test_ds, kernel, grad_norm,
                        trained)


def _make_unlearner(ctx: _SeedContext, split, space: str):
    cfg = ctx.cfg
    if space == SPACE_THETA:
        return PrimalUnlearner(ctx.model, ctx.theta_hat, split, cfg.risk, cfg.cg,
                               variant=cfg.hessian_variant, grad_norm=ctx.grad_norm)
    # every coefficient-space answer rests on the representer identity
    # theta_hat - c = J' alpha, c the risk's center, which fails away from the optimum
    gap = stationarity_gap(ctx.grad_norm)
    if gap is not None:
        raise NotAtOptimum(gap)
    k_perm = ctx.kernel.submatrix(split.permutation, split.permutation)
    f_vec = model_outputs(ctx.model, ctx.theta_hat, split.full.features).ravel()
    return DualUnlearner(k_perm, f_vec, split, cfg.risk, cfg.cg)


def stored_paths(cfg: ExperimentConfig, seed: int) -> tuple[str, str]:
    """The seed's training kernel and theta_hat: the protocol run writes them,
    cold children read them."""
    seed_dir = os.path.join(cfg.out_dir, f"seed_{seed}")
    return os.path.join(seed_dir, "kernel.bin"), os.path.join(seed_dir, "theta_hat.bin")


def _theta_u(ctx: _SeedContext, split, space: str, result) -> np.ndarray:
    """theta_u from a solve's result; the cold and warm timers both stop after it."""
    return (ctx.theta_hat + result.x if space == SPACE_THETA else
            map_to_params(ctx.model, ctx.theta_hat, result.delta_alpha, split.full.features))


def measure_cold(cfg: ExperimentConfig, seed: int, percent: float, space: str) -> float:
    """Fresh-context cold runtime: operator construction to the first answer, on
    the stored kernel and theta_hat when the protocol run has written them."""
    ctx = _build_seed_context(cfg, seed, stored=True)
    split = split_forget(ctx.train_ds, percent, scope=cfg.scope,
                         seed=_split_seed(seed, percent))
    t0 = time.perf_counter()
    unlearner = _make_unlearner(ctx, split, space)
    unlearner.prepare()
    _theta_u(ctx, split, space, unlearner.solve())
    return time.perf_counter() - t0


def _cold_runtime(cfg, seed, percent, space, out_dir, snapshot_path):
    if cfg.cold == "skip":
        return float("nan")
    result_path = os.path.join(out_dir, f"cold_s{seed}_p{percent:g}_{space}.json")
    cmd = [sys.executable, "-m", "kinfluence", "unlearn",
           "--config", snapshot_path, "--cold",
           "--percent", repr(float(percent)), "--space", space, "--seed", str(seed),
           "--out", result_path]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        # the child's exit code names the class of its failure (see cli)
        error = {2: ConfigError, 3: NumericalError}.get(proc.returncode, RuntimeError)
        raise error(f"cold-start child failed (exit {proc.returncode}):\n{proc.stderr}")
    with open(result_path) as f:
        return float(json.load(f)["cold_runtime_s"])


def run_unlearning_experiment(cfg: ExperimentConfig) -> list[MetricsRow]:
    """The full protocol: for each seed, percent, and space, unlearn, time,
    and compare against retraining and the random-perturbation baseline."""
    data = _checked_data(cfg, cfg.percents)
    os.makedirs(cfg.out_dir, exist_ok=True)
    snapshot_path = os.path.join(cfg.out_dir, "config.cfg")
    with open(snapshot_path, "w") as f:
        f.write(dump_config(cfg))
    all_rows: list[MetricsRow] = []
    for seed in cfg.seeds:
        kernel_path, theta_path = stored_paths(cfg, seed)
        seed_dir = os.path.dirname(kernel_path)
        os.makedirs(seed_dir, exist_ok=True)
        ctx = _build_seed_context(cfg, seed, data)
        save_params(theta_path, ctx.model.spec if cfg.linearized else ctx.model, ctx.theta_hat)
        if ctx.kernel is not None:
            write_kernel_cache(kernel_path, ctx.kernel)
        rows = []
        for percent in cfg.percents:
            split = split_forget(ctx.train_ds, percent, scope=cfg.scope,
                                 seed=_split_seed(seed, percent))
            theta_retrained, _ = _fit(cfg, ctx.model, split.retain)
            retr_norm = float(np.linalg.norm(theta_retrained))
            baseline = random_perturbation_baseline(
                ctx.theta_hat, theta_retrained, seed=seed * 1009 + int(round(percent * 10)))
            baseline_rel = float(np.linalg.norm(baseline - theta_retrained)) / retr_norm
            forget_out_re = model_outputs(ctx.model, theta_retrained, split.forget.features)
            acc_retrained = accuracy(forget_out_re, split.forget.targets)
            for space in cfg.spaces():
                case_dir = os.path.join(seed_dir, f"p{percent:g}_{space}")
                os.makedirs(case_dir, exist_ok=True)
                # built first, so a non-stationary theta_hat fails here and
                # not in the cold child
                unlearner = _make_unlearner(ctx, split, space)
                cold = _cold_runtime(cfg, seed, percent, space, seed_dir, snapshot_path)
                unlearner.prepare()
                warm_times = []
                for _ in range(WARM_REPEATS):
                    t0 = time.perf_counter()
                    result = unlearner.solve()
                    theta_u = _theta_u(ctx, split, space, result)
                    warm_times.append(time.perf_counter() - t0)
                rel_l2 = float(np.linalg.norm(theta_u - theta_retrained)) / retr_norm
                forget_out_u = model_outputs(ctx.model, theta_u, split.forget.features)
                row = MetricsRow(
                    seed=seed, percent=percent, space=space,
                    cold_runtime_s=cold,
                    warm_runtime_mean_s=float(np.mean(warm_times)),
                    warm_runtime_std_s=float(np.std(warm_times)),
                    rel_l2=rel_l2,
                    forget_acc_unlearned=accuracy(forget_out_u, split.forget.targets),
                    forget_acc_retrained=acc_retrained,
                    baseline_rel_l2=baseline_rel,
                )
                rows.append(row)
                # the report of the last warm solve; no further solve
                delta, health, notes = ((result.x, vars(result), unlearner.notes)
                                        if space == SPACE_THETA else
                                        (theta_u - ctx.theta_hat, unlearner.diagnostics, []))
                # frees this case's factor of M (or gathered K_rr) before the retain
                # gradient, the next case's oracle fit and its unlearner
                del unlearner
                # R_r is lambda-strongly convex: ||theta_u - theta_r|| <= this norm / lambda
                retain_grad = risk_grad(ctx.model, theta_u, split.retain, cfg.risk)
                report = InfluenceReport(delta, health.get("residual"), health.get("iters"),
                                         converged=health["converged"], notes=list(notes))
                attach_test_predictions(report, ctx.model, ctx.theta_hat, ctx.test_ds, cfg.risk)
                write_influence_csv(os.path.join(case_dir, "influence.csv"),
                                    report, ctx.train_ds.d_out)
                diag = {"seed": seed, "percent": percent, "space": space,
                        "grad_norm": ctx.grad_norm,
                        "retain_grad_norm": float(np.linalg.norm(retain_grad)),
                        "rel_l2": rel_l2, "baseline_rel_l2": baseline_rel,
                        "residual": report.residual, "iters": report.iters,
                        "converged": report.converged, "notes": report.notes}
                if space == SPACE_DUAL:
                    diag.update(health)
                write_diagnostics(os.path.join(case_dir, "diagnostics.jsonl"), diag)
        write_metrics_csv(os.path.join(seed_dir, "metrics.csv"), rows)
        all_rows.extend(rows)
    write_metrics_csv(os.path.join(cfg.out_dir, "metrics.csv"), all_rows)
    return all_rows


# --------------------------------------------------------------------------
# Training-dynamics sweep over regularization strengths
# --------------------------------------------------------------------------

def run_lambda_sweep(cfg: ExperimentConfig, record_every: int = 1) -> dict:
    """Train a raw network and its linearization side by side for each lambda.

    Both take exactly stop.max_epochs iterates from ``descend``; per epoch the
    harness records the relative parameter distance, the output RMSE on the
    test set, both test accuracies, and both gradient norms.
    """
    if len(cfg.sweep_lambdas) < 2:
        raise ConfigError("a lambda sweep needs at least two values")
    train_ds, test_ds = _checked_data(cfg)
    spec = _spec_for_data(cfg, train_ds)
    os.makedirs(cfg.out_dir, exist_ok=True)
    lin = LinearizedModel(spec, spec.theta_init)
    results = {}
    for lam in cfg.sweep_lambdas:
        risk = replace(cfg.risk, lam=lam)
        series = []
        for epoch, (theta_nl, _, gn_nl), (theta_li, _, gn_li) in zip(
                range(cfg.stop.max_epochs), descend(spec, train_ds, risk, cfg.opt),
                descend(lin, train_ds, risk, cfg.opt)):
            if epoch % record_every == 0 or epoch == cfg.stop.max_epochs - 1:
                out_nl = model_outputs(spec, theta_nl, test_ds.features)
                out_li = model_outputs(lin, theta_li, test_ds.features)
                series.append((
                    epoch,
                    float(np.linalg.norm(theta_nl - theta_li) / np.linalg.norm(theta_li)),
                    float(np.sqrt(np.mean((out_nl - out_li) ** 2))),
                    accuracy(out_nl, test_ds.targets),
                    accuracy(out_li, test_ds.targets),
                    gn_nl, gn_li,
                ))
        results[lam] = np.array(series)
        write_table(os.path.join(cfg.out_dir, f"sweep_lambda_{lam:g}.csv"), SWEEP_HEADER, series)
    return results


# --------------------------------------------------------------------------
# Infinite-width experiment
# --------------------------------------------------------------------------

def run_infinite_experiment(cfg: ExperimentConfig):
    """Estimate-vs-actual table for the infinitely wide network, at the one
    removal percent the config names."""
    if len(cfg.percents) != 1:
        raise ConfigError(f"ntk-infinite runs one removal percent, got {len(cfg.percents)}")
    (percent,) = cfg.percents
    seed = cfg.one_seed()
    train_ds, test_ds = make_experiment_data(cfg)
    split = split_forget(train_ds, percent, scope=cfg.scope,
                         seed=_split_seed(seed, percent))
    os.makedirs(cfg.out_dir, exist_ok=True)
    res = infinite_influence(replace(cfg.ntk, d_out=train_ds.d_out), split, test_ds, cfg.risk,
                             cfg.cg, epochs=cfg.ntk_epochs, tol=cfg.ntk_tol)
    write_kernel_cache(os.path.join(cfg.out_dir, "kernel.bin"), res.kernel)
    write_table(os.path.join(cfg.out_dir, "infinite_outputs.csv"), INFINITE_OUT_HEADER,
                ((t, k, res.est_output[t, k], res.act_output[t, k])
                 for t in range(test_ds.n) for k in range(train_ds.d_out)))
    write_table(os.path.join(cfg.out_dir, "infinite_loss.csv"), INFINITE_LOSS_HEADER,
                zip(range(test_ds.n), res.est_loss_raw, res.est_loss_reg, res.act_loss))
    write_diagnostics(os.path.join(cfg.out_dir, "diagnostics.jsonl"),
                      {"percent": percent, **res.diagnostics})
    return res


# --------------------------------------------------------------------------
# Train-only entry (checkpoint + history CSV)
# --------------------------------------------------------------------------

def run_training(cfg: ExperimentConfig):
    seed = cfg.one_seed()
    data = _checked_data(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    ctx = _build_seed_context(replace(cfg, space=SPACE_THETA), seed, data)
    spec = ctx.model.spec if cfg.linearized else ctx.model
    save_params(os.path.join(cfg.out_dir, "theta_hat.bin"), spec, ctx.theta_hat)
    if ctx.trained is None:
        write_train_csv(os.path.join(cfg.out_dir, "train.csv"), [np.nan], [ctx.grad_norm])
    else:
        write_train_csv(os.path.join(cfg.out_dir, "train.csv"),
                        ctx.trained.loss_history, ctx.trained.grad_norm_history)
    return ctx
