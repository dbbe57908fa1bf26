"""One benchmark session in a fresh process; started by run.py.

    python3 bench/session.py --workload NAME --seed N --session K \
        --trace 0|1 --spawned-at T

Imports the package from src/ next to bench/, optionally installs the
tracer, builds the workload's inputs from (seed, session), runs them and
prints one JSON line.  Set-up time runs from T, the CLOCK_MONOTONIC
reading the parent took just before starting this process, until the
inputs are ready.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--session", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy
    import sympy
    import contactfive
    if not Path(contactfive.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"contactfive imported from {contactfive.__file__}, "
                         f"not from {src}")
    from tracing import Tracer
    from workloads import WORKLOADS, Batch
    from contactfive import solver

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    inputs = workload.setup(args.seed, args.session)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at

    batch = Batch()
    workload.run(inputs, batch)

    cache = getattr(solver, "_OP_CACHE", None)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {
        "setup_s": setup_s,
        "batch_s": batch.batch_s,
        "op_s": batch.op_s,
        "attempted": batch.attempted,
        "failures": batch.failures,
        "fingerprint": dict(batch.fingerprint),
        "operator_cache_size": len(cache) if cache is not None else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy.__version__,
                     "sympy": sympy.__version__},
        "threads": {"env": {k: os.environ.get(k) for k in THREAD_VARS},
                    "blas": f"{blas.get('name')} {blas.get('version')}"},
        "trace": tracer.report() if tracer else None,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
