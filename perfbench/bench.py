"""One benchmark run: set up, measure, check, and build the result line."""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from .instrument import Instrumentation, moves
from .workloads import WORKLOADS, CheckFailed, Run, Sizes

ROOT = Path(__file__).resolve().parents[1]


def load_spec(root: Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def code_hash(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "fdda").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_earlier_runs(run: Run, key: str, ledger: Path) -> None:
    """Compare this run's report hash with earlier runs of the same code,
    workload, seed and sizes, recorded in ``ledger``."""
    if not run.report_sha:
        return
    seen = json.loads(ledger.read_text()) if ledger.is_file() else {}
    earlier = seen.setdefault(key, run.report_sha[0])
    ledger.write_text(json.dumps(seen, indent=1))
    if earlier != run.report_sha[0]:
        raise CheckFailed("report.json differs from an earlier run of the same code and seed")


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, *,
                  sizes: Sizes = Sizes(), root: Path = ROOT,
                  out_dir: Path | None = None) -> tuple[dict, dict]:
    """Run ``workload`` and return (info, result).

    ``result`` is the line the benchmark prints last: ``correct``,
    ``attempted``, ``failed`` and ``metrics``, which are BENCHMARK.json's
    end-to-end metrics, or its per-layer metrics when ``trace`` is set.
    """
    spec = load_spec(root)
    out_dir = out_dir or root / "perfbench" / "out"
    run = Run(WORKLOADS[workload], seed, sizes, out_dir / f"run-{workload}-s{seed}-{os.getpid()}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    inst = Instrumentation() if trace else None
    try:
        run.measure(seconds, inst)
        key = f"{workload} seed={seed} {sizes} code={code_hash(root)}"
        run.step(1, check_earlier_runs, run, key, out_dir / "report_sha256.json")
        if inst is not None:
            values = inst.per_layer([m["name"] for m in wanted], run.overhead_frac())
            inst.tracer.write(out_dir / f"spans-{workload}-s{seed}.json.gz")
        else:
            values = run.end_to_end()
    finally:
        run.cleanup()

    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    info = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "blas": blas_info(),
        "cycles": {"untraced": len(run.cycle_s[False]), "traced": len(run.cycle_s[True])},
        "wall_s": run.wall,
        "scaled_s": run.scaled,
        "reference_kernel_s": run.ref.samples,
        "failed_frac": run.failed / run.attempted if run.attempted else 1.0,
        "report_sha256": run.report_sha,
        "archive_sha256": sorted(set(run.archive_sha)),
        "problems": run.problems[:20],
    }
    record = {"info": info, "result": result}
    if trace:
        record["moves"] = {m["name"]: moves(m["name"]) for m in wanted}
    (out_dir / f"result-{workload}-s{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return info, result
