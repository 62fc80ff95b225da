"""Cold start: a fresh process reads the stored kernel and checkpoint and
answers the workload's first request in coefficient space.

    python3 perfbench/cold_child.py <workload> <workdir> <trace 0|1>

Inputs come from ``<workdir>/inputs.npz``, written by the benchmark; the
answer goes to ``<workdir>/cold_answer.npz`` and, when traced, the spans to
``<workdir>/cold_spans.json``. The parent times this process from spawn to
exit.
"""

import os
import sys

import numpy as np

from inputs import WORKLOADS, Arrays
from spans import Tracer
import work


def main(argv) -> int:
    name, workdir, traced = argv[0], argv[1], argv[2] == "1"
    wl = WORKLOADS[name]
    with np.load(os.path.join(workdir, "inputs.npz")) as z:
        arrays = Arrays(z["X"], z["Y"], z["labels"], z["Xt"], z["Yt"], z["labels_t"])
        init_seed, percent, split_seed = int(z["init_seed"]), float(z["percent"]), int(z["split_seed"])
    tr = Tracer(traced)
    st = work.load_state(wl, arrays, init_seed, workdir, tr)
    tr.request = 0
    with tr.span("request"):
        sp = work.split(st, percent, split_seed, tr)
        ans, _, _ = work.dual_answer(st, sp, tr)
    np.savez(os.path.join(workdir, "cold_answer.npz"), **ans)
    if traced:
        tr.dump(os.path.join(workdir, "cold_spans.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
