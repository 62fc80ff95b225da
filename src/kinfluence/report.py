"""Result containers and the CSV / JSON-lines emission formats.

Column orders are frozen interfaces (golden-file tested): influence CSV rows
are one per test point with per-dimension output changes plus the raw and
regularizer-included loss-change variants; metrics CSV carries one row per
(seed, percent, space).
"""

from __future__ import annotations

import csv
import json
from dataclasses import astuple, dataclass, field, fields

import numpy as np


@dataclass
class PerTestChange:
    output_change: np.ndarray  # (d_out,)
    loss_change_raw: float
    loss_change_reg: float


@dataclass
class InfluenceReport:
    """One solve in either space: its parameter change, its health, and the
    test-point changes once attached. A solve that stopped at its iteration
    cap carries a MaxItersReached note."""

    delta_theta: np.ndarray | None
    residual: float
    iters: int
    per_test: list = field(default_factory=list)  # list[PerTestChange]
    converged: bool = True
    notes: list = field(default_factory=list)

    def __post_init__(self):
        if not self.converged:
            self.notes.append(f"MaxItersReached: residual {self.residual:.3e} "
                              f"after {self.iters} iters")


def influence_csv_header(d_out: int) -> list[str]:
    return (["test_index"]
            + [f"output_change_{k}" for k in range(d_out)]
            + ["loss_change_raw", "loss_change_reg"])


def write_influence_csv(path: str, report: InfluenceReport, d_out: int) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(influence_csv_header(d_out))
        for i, pt in enumerate(report.per_test):
            w.writerow([i] + [repr(float(v)) for v in pt.output_change]
                       + [repr(float(pt.loss_change_raw)), repr(float(pt.loss_change_reg))])


@dataclass
class MetricsRow:
    seed: int
    percent: float
    space: str
    cold_runtime_s: float
    warm_runtime_mean_s: float
    warm_runtime_std_s: float
    rel_l2: float
    forget_acc_unlearned: float
    forget_acc_retrained: float
    baseline_rel_l2: float

    def as_list(self) -> list:
        return [repr(float(v)) if isinstance(v, float) else v for v in astuple(self)]


METRICS_HEADER = [f.name for f in fields(MetricsRow)]


def write_metrics_csv(path: str, rows: list[MetricsRow]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(METRICS_HEADER)
        for row in rows:
            w.writerow(row.as_list())


def append_diagnostics(path: str, record: dict) -> None:
    with open(path, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


TRAIN_HEADER = ["epoch", "loss", "grad_norm"]


def write_train_csv(path: str, losses, grad_norms) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(TRAIN_HEADER)
        for i, (lo, gn) in enumerate(zip(losses, grad_norms)):
            w.writerow([i, repr(float(lo)), repr(float(gn))])
