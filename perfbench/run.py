"""Benchmark of the fdda pipeline, run from the repository root:

    python3 perfbench/run.py --workload full-arm --seed 0 --seconds 26 --trace 0

It pins BLAS to one thread, builds its inputs from ``--seed``, sets up,
drives the ``fdda`` command line in a closed loop for ``--seconds``, checks
every output, and prints two JSON lines: run information (thread count,
numpy and BLAS versions, report hashes, problems found) and, last, the
result ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
they are its per-layer metrics, from a run in which every public function of
the package is wrapped in a span. Records and span files go to
``perfbench/out/``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("full-arm", "calib-arm", "pretrain-analyze")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fdda" / "__init__.py").is_file():
        print(f"error: no fdda sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import run_benchmark

    info, result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
