"""Run one workload of the host-measured AMR benchmark.

    python3 perfbench/run.py --workload blast3d-amr --seed 0 \
        --seconds 30 --trace 0

Run it from the repository root.  The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``, with the
end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``.  The line before it is the run's detail (inputs,
environment, sample counts, failures), which is also written to
``perfbench/out/``, together with the Chrome/Perfetto trace of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: BLAS/OpenMP threads.  The WENO5 path calls OpenBLAS GEMM on small
#: matrices; one thread measured as fast as two on a 2-core host and
#: avoids thread hand-off noise.  Set before numpy is imported.
BLAS_THREADS = 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"error: no program sources at {ROOT / 'src' / 'repro'}",
            file=sys.stderr,
        )
        return 2
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    from amrbench.harness import run_benchmark
    from amrbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    detail = run_benchmark(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        out_dir=args.out,
    )
    summary = {k: v for k, v in detail.items() if k != "result"}
    print(json.dumps(summary, default=str))
    print(json.dumps(detail["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
