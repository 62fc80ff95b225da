"""Command-line front end.

Exit codes: 0 success, 2 configuration, format and file errors, 3 numerical failures.
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


def _unlearn(cfg) -> None:
    write_metrics_csv(sys.stdout, run_unlearning_experiment(cfg))


# subcommands that read a config file, each with every CONFIG_KEYS flag
_CONFIG_COMMANDS = {
    "train": (run_training, "train the configured model, write a checkpoint"),
    "unlearn": (_unlearn, "run the unlearning protocol"),
    "sweep-lambda": (run_lambda_sweep, "joint training-dynamics sweep"),
    "ntk-infinite": (run_infinite_experiment, "infinite-width estimate-vs-actual run"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kinf",
                                     description="influence-function unlearning benchmark")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _CONFIG_COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", required=True, help="key-value config file")
        for key in CONFIG_KEYS:
            if key.flag:
                p.add_argument(key.flag, dest=key.name, help=f"override {key.name}")
        if command == "unlearn":
            p.add_argument("--cold", action="store_true",
                           help="measure one cold start and write it as JSON to --out")
    p_rep = sub.add_parser("report", help="aggregate metrics CSVs under a results dir")
    p_rep.add_argument("--out", required=True, help="results directory to scan")
    return parser


def _measure_cold(cfg, json_path) -> None:
    if json_path is None:
        raise ConfigError("--cold needs --out <file.json>")
    if len(cfg.percents) != 1 or cfg.space == "both":
        raise ConfigError("--cold measures exactly one (percent, space) pair")
    seed = cfg.one_seed()
    # opened first, so an --out that cannot be written fails before the measurement
    with open(json_path, "w") as f:
        cold = measure_cold(cfg, seed, cfg.percents[0], cfg.space)
        json.dump({"cold_runtime_s": cold, "seed": seed,
                   "percent": cfg.percents[0], "space": cfg.space}, f)


def _report(results_dir) -> None:
    import csv
    import os
    found = []  # ((seed, percent, space), row)
    for root, _dirs, files in os.walk(results_dir):
        if "metrics.csv" in files and os.path.basename(root).startswith("seed_"):
            path = os.path.join(root, "metrics.csv")
            try:  # a UnicodeDecodeError is a ValueError
                with open(path, encoding="utf-8") as f:
                    header, *rows = [*csv.reader(f)] or [[]]
                if header != METRICS_HEADER or any(len(r) != len(header) for r in rows):
                    raise ValueError("not a metrics table")
                found.extend(((int(r[0]), float(r[1]), r[2]), r) for r in rows)
            except ValueError as e:
                raise ConfigError(f"{path}: {e}") from e
    if not found:
        raise ConfigError(f"no per-seed metrics.csv files under {results_dir}")
    write_table(sys.stdout, METRICS_HEADER, [r for _, r in sorted(found)])


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            _report(args.out)
            return 0
        overrides = {key.name: getattr(args, key.name) for key in CONFIG_KEYS if key.flag}
        cold = args.command == "unlearn" and args.cold
        if cold:
            # --out names the JSON result; the config's own out stays, where the
            # protocol run stored the kernel this child reads
            json_path = overrides.pop("out")
        cfg = load_config(args.config, overrides)
        if cold:
            _measure_cold(cfg, json_path)
        else:
            _CONFIG_COMMANDS[args.command][0](cfg)
        return 0
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (ConfigError, OSError, UnicodeDecodeError) as e:  # a file that is not UTF-8
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except KinfluenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
