"""Tests of the benchmark itself: span arithmetic, patching, layer
attribution, the spec, and a minimal-length run of every workload."""

import inspect
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from fdda import autodiff as ad, generator, network  # noqa: E402
from fdda.models import build_generator, build_toy_classifier  # noqa: E402
from perfbench import instrument, run  # noqa: E402
from perfbench.bench import load_spec, run_benchmark  # noqa: E402
from perfbench.instrument import CYCLE, MODULES, Instrumentation, moves, resolve  # noqa: E402
from perfbench.reference import REF_S, Reference  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Sizes  # noqa: E402

SPEC = load_spec(ROOT)
TINY = Sizes(pretrain_epochs=2, samples_per_class=40, steps=2, warmup=1, full_epochs=1,
             calib_epochs=1, setup_reps=1, setup_seconds=0.0)


def _span(tr: Tracer, name: str, start: float, end: float, parent: int = -1) -> int:
    idx = len(tr)
    tr.name_of.append(tr.name_id(name))
    tr.start.append(start)
    tr.end.append(end)
    tr.parent.append(parent)
    tr.tag_of.append(-1)
    return idx


def test_self_time_subtracts_union_of_children_within_the_span():
    tr = Tracer()
    top = _span(tr, "top", 0.0, 10.0)
    _span(tr, "a", 1.0, 3.0, top)
    _span(tr, "b", 2.0, 5.0, top)   # overlaps a: the union [1, 5] counts once
    _span(tr, "c", 8.0, 12.0, top)  # only [8, 10] lies inside top
    leaf = _span(tr, "d", 8.5, 9.0, 3)
    self_t = tr.self_times()
    assert self_t[top] == pytest.approx(10.0 - 4.0 - 2.0)
    assert self_t[3] == pytest.approx(4.0 - 0.5)
    assert self_t[leaf] == pytest.approx(0.5)
    summary = tr.summary()
    assert summary["top"] == {"calls": 1, "total_s": 10.0, "self_s": pytest.approx(4.0)}


def test_nested_spans_record_their_parent():
    tr = Tracer()
    with tr.span("outer") as outer:
        with tr.span("inner") as inner:
            pass
    assert tr.parent[outer] == -1 and tr.parent[inner] == outer
    assert tr.end[inner] <= tr.end[outer]
    assert tr.self_times()[outer] <= tr.end[outer] - tr.start[outer]


def test_reference_kernel_allocates_no_arrays_and_scales_by_its_mean_time():
    ref = Reference()
    before = ref.seconds()
    tracemalloc.start()
    try:
        scaled = ref.scale(2.0, before)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # its buffers take ~6 MB; what one timing allocates is bookkeeping only
    assert peak < 64 * 1024
    assert ref.samples == [before, ref.samples[1]]
    assert scaled == pytest.approx(2.0 * REF_S / (0.5 * (before + ref.samples[1])))


def _function_refs():
    refs = {}
    for name, mod in list(sys.modules.items()):
        if name == "fdda" or name.startswith("fdda."):
            for attr, value in vars(mod).items():
                if callable(value):
                    refs[(name, attr)] = value
    for short, cls_name, meth in instrument.METHODS:
        cls = getattr(sys.modules[f"fdda.{short}"], cls_name)
        refs[(cls_name, meth)] = cls.__dict__[meth]
    return refs


def test_uninstall_restores_every_wrapped_function():
    before = _function_refs()
    inst = Instrumentation()
    with inst:
        during = _function_refs()
        assert sum(during[k] is not before[k] for k in before) > 100
    after = _function_refs()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_every_public_function_of_each_module_is_traced():
    public = [(mod, attr, fn)
              for mod in (sys.modules[f"fdda.{short}"] for short in MODULES)
              for attr, fn in vars(mod).items()
              if not attr.startswith("_") and inspect.isfunction(fn)
              and fn.__module__ == mod.__name__]
    with Instrumentation():
        unwrapped = [f"{mod.__name__}.{attr}" for mod, attr, fn in public
                     if vars(mod)[attr] is fn]
    assert len(public) > 50 and unwrapped == []


def _layer_metrics():
    return [m["name"] for m in SPEC["per_layer"] if m["name"].startswith("layer.")]


def test_layer_attribution_covers_all_layers_of_both_networks():
    clf = build_toy_classifier()
    gen = build_generator()
    inst = Instrumentation()
    # through module attributes, which is what the instrumentation patches
    with inst, inst.tracer.span(CYCLE):
        images = generator.generate(gen, np.arange(8), np.random.default_rng(0))
        out = network.forward(clf, images, train=False, capture_bn=True).output
        ad.backward(out.sum())
        logits = network.forward(clf, ad.Tensor(images.data), train=True).output
        ad.backward(logits.sum())
    agg = instrument._Aggregate(inst)
    names = _layer_metrics()
    assert len(names) == 2 * 21
    missing = [n for n in names if not resolve(n, agg, 0.0) > 0.0]
    assert missing == []


def test_spec_follows_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert "setup_s" in e2e and all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert max(m["bound"] for m in SPEC["end_to_end"]) == \
        next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert len(per_layer) == len(set(per_layer)) <= 128
    for name in per_layer:
        assert moves(name)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_minimal_run_of_each_workload(workload, tmp_path):
    info, result = run_benchmark(workload, 0, 0.0, False, sizes=TINY, out_dir=tmp_path)
    assert result["correct"], info["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in metrics.values())
    assert len(set(info["report_sha256"])) == 1
    assert (tmp_path / f"result-{workload}-s0-trace0.json").is_file()


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    info, result = run_benchmark("full-arm", 0, 0.0, True, sizes=TINY, out_dir=tmp_path)
    assert result["correct"], info["problems"]
    assert info["cycles"] == {"untraced": 1, "traced": 1}
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert all(metrics[n]["value"] > 0 for n in _layer_metrics())
    assert (tmp_path / "spans-full-arm-s0.json.gz").is_file()


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full-arm", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "error" in proc.stderr
