"""Result containers and the CSV / JSON-lines emission formats.

write_table is the only table writer: every CSV file and every table the CLI
prints goes through it, comma-separated with LF line ends, floats as their
repr (which round-trips) and ints and strings as they are. Column orders are
frozen interfaces (golden-file tested): influence CSV rows are one per test
point with per-dimension output changes plus the raw and
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
    residual: float | None  # None when the solver measured none (a factored solve)
    iters: int | None
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


def write_table(out, header: list[str], rows) -> None:
    """Write ``header`` and ``rows`` to ``out``, a path or an open text stream."""
    if isinstance(out, str):
        with open(out, "w", newline="") as f:
            write_table(f, header, rows)
        return
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    w.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)


def write_influence_csv(path: str, report: InfluenceReport, d_out: int) -> None:
    write_table(path, influence_csv_header(d_out),
                ([i, *pt.output_change, pt.loss_change_raw, pt.loss_change_reg]
                 for i, pt in enumerate(report.per_test)))


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


METRICS_HEADER = [f.name for f in fields(MetricsRow)]


def write_metrics_csv(out, rows: list[MetricsRow]) -> None:
    write_table(out, METRICS_HEADER, map(astuple, rows))


def write_diagnostics(path: str, record: dict) -> None:
    with open(path, "w") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


TRAIN_HEADER = ["epoch", "loss", "grad_norm"]
SWEEP_HEADER = ["epoch", "rel_param_dist", "output_rmse",
                "acc_model", "acc_linear", "grad_norm_model", "grad_norm_linear"]
INFINITE_OUT_HEADER = ["test_index", "output_dim", "est_output_change", "act_output_change"]
INFINITE_LOSS_HEADER = ["test_index", "est_loss_change_raw", "est_loss_change_reg",
                        "act_loss_change"]


def write_train_csv(path: str, losses, grad_norms) -> None:
    write_table(path, TRAIN_HEADER, zip(range(len(losses)), losses, grad_norms))
