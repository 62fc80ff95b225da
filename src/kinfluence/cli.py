"""Command-line front end.

Exit codes: 0 success, 2 configuration/format errors, 3 numerical failures.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, KinfluenceError, NumericalError
from .experiments import (
    CONFIG_KEYS,
    load_config,
    measure_cold,
    run_infinite_experiment,
    run_lambda_sweep,
    run_training,
    run_unlearning_experiment,
)
from .report import METRICS_HEADER, write_metrics_csv, write_table


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="key-value config file")
    p.add_argument("--seed", type=int, default=None, help="override the seed list")
    p.add_argument("--out", default=None, help="output directory (or file for --cold)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kinf",
                                     description="influence-function unlearning benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train the configured model, write a checkpoint")
    _add_common(p_train)

    p_unlearn = sub.add_parser("unlearn", help="run the unlearning protocol")
    _add_common(p_unlearn)
    p_unlearn.add_argument("--space", choices=["theta", "dual", "both"], default=None)
    p_unlearn.add_argument("--percent", default=None,
                           help="comma-separated removal percents")
    p_unlearn.add_argument("--cold", action="store_true",
                           help="measure one cold start and write it as JSON to --out")

    p_sweep = sub.add_parser("sweep-lambda", help="joint training-dynamics sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--lambdas", default=None, help="comma-separated values")

    p_inf = sub.add_parser("ntk-infinite", help="infinite-width estimate-vs-actual run")
    _add_common(p_inf)
    p_inf.add_argument("--percent", default=None)

    p_rep = sub.add_parser("report", help="aggregate metrics CSVs under a results dir")
    p_rep.add_argument("--out", required=True, help="results directory to scan")
    return parser


def _overrides(args) -> dict:
    """Config values the command-line flags set, keyed as in config files."""
    given = {key.name: getattr(args, key.flag[2:], None) for key in CONFIG_KEYS if key.flag}
    return {name: str(val) for name, val in given.items() if val is not None}


def _cmd_unlearn(args) -> int:
    json_path = args.out
    if args.cold:
        # --out names the JSON result; the config's own out stays, where the
        # protocol run stored the kernel this child reads
        args.out = None
    cfg = load_config(args.config, _overrides(args))
    if args.cold:
        if json_path is None:
            raise ConfigError("--cold needs --out <file.json>")
        if len(cfg.percents) != 1 or cfg.space == "both":
            raise ConfigError("--cold measures exactly one (percent, space) pair")
        seed = cfg.seeds[0]
        cold = measure_cold(cfg, seed, cfg.percents[0], cfg.space)
        with open(json_path, "w") as f:
            json.dump({"cold_runtime_s": cold, "seed": seed,
                       "percent": cfg.percents[0], "space": cfg.space}, f)
        return 0
    write_metrics_csv(sys.stdout, run_unlearning_experiment(cfg))
    return 0


def _cmd_report(args) -> int:
    import csv
    import os
    found = []
    for root, _dirs, files in os.walk(args.out):
        if "metrics.csv" in files and os.path.basename(root).startswith("seed_"):
            with open(os.path.join(root, "metrics.csv")) as f:
                rows = list(csv.reader(f))
            found.extend(rows[1:])
    if not found:
        raise ConfigError(f"no per-seed metrics.csv files under {args.out}")
    write_table(sys.stdout, METRICS_HEADER,
                sorted(found, key=lambda r: (int(r[0]), float(r[1]), r[2])))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "train":
            cfg = load_config(args.config, _overrides(args))
            run_training(cfg)
            return 0
        if args.command == "unlearn":
            return _cmd_unlearn(args)
        if args.command == "sweep-lambda":
            cfg = load_config(args.config, _overrides(args))
            run_lambda_sweep(cfg)
            return 0
        if args.command == "ntk-infinite":
            run_infinite_experiment(load_config(args.config, _overrides(args)))
            return 0
        if args.command == "report":
            return _cmd_report(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except KinfluenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
