"""kinfluence benchmark: one closed-loop client, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a kinfluence checkout. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. BLAS threads are pinned for this process and every child
before numpy is imported. See perfbench/README.md for the workloads, the
timer boundaries and reference figures.
"""

import argparse
import json
import os
import sys

BLAS_THREADS = max(1, min(2, os.cpu_count() or 1))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("fig1_requests", "fig1_protocol", "infinite_kron", "infinite_ce")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    missing = [path for path in (os.path.join(src, "kinfluence", "__init__.py"),
                                 os.path.join(root, "configs", "fig1_benchmark.cfg"))
               if not os.path.isfile(path)]
    if missing:
        print(f"not a kinfluence checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    for key in BLAS_ENV:
        os.environ[key] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, src)

    import runner  # imports numpy, after the thread pins

    result = runner.run(args.workload, args.seed, args.seconds, bool(args.trace),
                        root, BLAS_THREADS)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
