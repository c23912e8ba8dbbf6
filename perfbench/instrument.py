"""Tracing of the ``fdda`` package from outside it, and the per-layer metrics.

:meth:`Instrumentation.install` wraps every public function of each traced
module (and the few methods listed in ``METHODS``) in a span, wherever a
module of the package holds a reference to it, so ``from .bns import
per_image_bns`` style imports are traced too. Three wrappers do more than time a call:

* ``autodiff.record_op`` wraps the ``bwd`` closure each op hands it, so the
  backward pass of every op is a span named ``<op>.bwd``;
* conv, dense and batch-norm ops are tagged with the network layer they
  belong to, found from the identity of the bias or gamma tensor they get;
* ``network.forward`` registers those tensors and records BN captures.

:meth:`Instrumentation.uninstall` restores every patched attribute.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
from collections import defaultdict

from .tracer import Tracer

MODULES = ("cli", "trainer", "generator", "bns", "network", "autodiff",
           "quantizer", "optim", "clusters", "data", "archive")

# (module, class, method) -> span name
METHODS = {
    ("optim", "Adam", "step"): "optim.adam_step",
    ("optim", "NesterovSGD", "step"): "optim.sgd_step",
    ("quantizer", "FakeQuantRuntime", "on_weight"): "quantizer.weight_fq",
    ("quantizer", "FakeQuantRuntime", "on_activation"): "quantizer.act_fq",
}

# ops that belong to one network layer: name -> position of the bias/gamma
LAYER_OPS = {"conv2d": 2, "dense": 2, "batchnorm_train": 1, "batchnorm_eval": 1}

# metric op name -> autodiff functions it aggregates
OP_GROUPS = {
    "conv2d": ("conv2d",),
    "dense": ("dense",),
    "avg_pool2d": ("avg_pool2d",),
    "upsample2x": ("upsample2x",),
    "batchnorm_train": ("batchnorm_train",),
    "batchnorm_eval": ("batchnorm_eval",),
    "mean": ("mean",),
    "sum": ("sum_",),
    "matmul": ("matmul",),
    "sq_dist": ("sq_dist",),
    "elementwise": ("add", "sub", "mul", "div", "relu", "tanh"),
    "loss": ("softmax_cross_entropy", "kl_divergence"),
}

SETUP, CYCLE = "bench.setup", "bench.cycle"


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "fdda" or name.startswith("fdda."))]


class Instrumentation:
    """The tracer plus the fdda-specific bookkeeping around it."""

    def __init__(self):
        self.tracer = Tracer()
        self.tape_sizes: list[tuple[str | None, int]] = []  # (unit, size)
        self.captures: list[tuple[int, int]] = []  # (forward span, BN layers captured)
        self._layer_of: dict[int, tuple[object, int]] = {}

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"fdda.{name}") for name in MODULES}
        refs = defaultdict(list)
        for holder in _package_modules():
            for name, value in vars(holder).items():
                if inspect.isfunction(value):
                    refs[id(value)].append((holder, name))
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrapper_for(short, attr, fn, mod)
                for holder, name in refs[id(fn)]:
                    self.tracer.patch(holder, name, wrapper)
        for (short, cls_name, meth), span in METHODS.items():
            cls = getattr(mods[short], cls_name)
            self.tracer.patch(cls, meth, self.tracer.wrap(cls.__dict__[meth], span))

    def uninstall(self) -> None:
        self.tracer.restore()

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers -----------------------------------------------------------

    def _wrapper_for(self, short: str, attr: str, fn, mod):
        name = f"{short}.{attr}"
        if name == "autodiff.record_op":
            return self._record_op(fn)
        if name == "autodiff.backward":
            return self._backward(fn, mod.tape_size)
        if name == "network.forward":
            return self._forward(fn, mod)
        if short == "autodiff" and attr in LAYER_OPS:
            return self._layer_op(fn, name, LAYER_OPS[attr])
        return self.tracer.wrap(fn, name)

    def _record_op(self, fn):
        tr = self.tracer
        bwd_ids: dict[int, int] = {}

        def record_op(data, inputs, bwd):
            owner = tr.current()
            if owner < 0:
                return fn(data, inputs, bwd)
            owner_nid = tr.name_of[owner]
            nid = bwd_ids.get(owner_nid)
            if nid is None:
                nid = bwd_ids[owner_nid] = tr.name_id(tr.names[owner_nid] + ".bwd")
            tag = tr.tag_of[owner]

            def timed_bwd(g):
                idx = tr.open(nid, tag)
                try:
                    return bwd(g)
                finally:
                    tr.close(idx)

            return fn(data, inputs, timed_bwd)

        return record_op

    def _backward(self, fn, tape_size):
        traced = self.tracer.wrap(fn, "autodiff.backward")

        def backward(loss):
            self.tape_sizes.append((self.tracer.root_name(), tape_size()))
            return traced(loss)

        return backward

    def _forward(self, fn, network_mod):
        tr = self.tracer
        nids: dict[str, int] = {}
        keyed = (network_mod.Conv2d, network_mod.Dense)

        def forward(net, *args, **kwargs):
            kind = net.meta.get("kind", "network")
            nid = nids.get(kind)
            if nid is None:
                nid = nids[kind] = tr.name_id(f"network.forward.{kind}")
            for layer in net.layers:
                if isinstance(layer, keyed):
                    p = net.params[f"{layer.name}.b"]
                elif isinstance(layer, network_mod.BatchNorm):
                    p = net.params[f"{layer.name}.gamma"]
                else:
                    continue
                # holding p keeps its id from being reused by another tensor
                self._layer_of[id(p)] = (p, tr.tag_id(f"{kind}.{layer.name}"))
            idx = tr.open(nid)
            if kwargs.get("capture_bn"):
                self.captures.append((idx, net.bn_layer_count))
            try:
                return fn(net, *args, **kwargs)
            finally:
                tr.close(idx)

        return forward

    def _layer_op(self, fn, name: str, key_pos: int):
        tr = self.tracer
        nid = tr.name_id(name)
        layer_of = self._layer_of

        def op(*args, **kwargs):
            entry = layer_of.get(id(args[key_pos])) if len(args) > key_pos else None
            tag = entry[1] if entry is not None and entry[0] is args[key_pos] else -1
            idx = tr.open(nid, tag)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.close(idx)

        return op

    # -- metrics ------------------------------------------------------------

    def per_layer(self, names: list[str], overhead_frac: float) -> dict[str, float]:
        """Value of each named per-layer metric; see :func:`resolve`."""
        agg = _Aggregate(self)
        return {n: resolve(n, agg, overhead_frac) for n in names}


class _Aggregate:
    """Span totals per name, per set-up plus per cycle."""

    def __init__(self, inst: Instrumentation):
        tr = inst.tracer
        self.inst = inst
        n = len(tr)
        root = [0] * n
        for i in range(n):
            p = tr.parent[i]
            root[i] = i if p < 0 else root[p]
        setup_nid, cycle_nid = tr.name_id(SETUP), tr.name_id(CYCLE)
        units = {setup_nid: 0, cycle_nid: 0}
        for i in range(n):
            if tr.parent[i] < 0 and tr.name_of[i] in units:
                units[tr.name_of[i]] += 1
        self.n_setup, self.n_cycle = units[setup_nid], units[cycle_nid]

        secs = defaultdict(lambda: [0.0, 0.0])
        calls = defaultdict(lambda: [0, 0])
        self.layer_ms: dict[tuple[str, str], list[float]] = defaultdict(list)
        for i in range(n):
            rnid = tr.name_of[root[i]]
            if rnid not in units:
                continue
            which = 0 if rnid == setup_nid else 1
            nid = tr.name_of[i]
            dur = tr.end[i] - tr.start[i]
            calls[nid][which] += 1
            if not _inside(tr, i, nid):
                secs[nid][which] += dur
            if tr.tag_of[i] >= 0:
                kind = "bwd" if tr.names[nid].endswith(".bwd") else "fwd"
                self.layer_ms[(tr.tags[tr.tag_of[i]], kind)].append(dur * 1e3)
        self._secs = {tr.names[k]: v for k, v in secs.items()}
        self._calls = {tr.names[k]: v for k, v in calls.items()}

    def _per_session(self, pair) -> float:
        s, c = pair
        per_setup = s / self.n_setup if self.n_setup else 0.0
        return per_setup + (c / self.n_cycle if self.n_cycle else 0.0)

    def seconds(self, span: str) -> float:
        return self._per_session(self._secs.get(span, (0.0, 0.0)))

    def calls(self, span: str) -> float:
        return self._per_session(self._calls.get(span, (0, 0)))

    def total_calls(self, span: str) -> int:
        return sum(self._calls.get(span, (0, 0)))


def _inside(tr: Tracer, i: int, nid: int) -> bool:
    """Whether an ancestor of span ``i`` is named ``nid``."""
    p = tr.parent[i]
    while p >= 0:
        if tr.name_of[p] == nid:
            return True
        p = tr.parent[p]
    return False


def resolve(name: str, agg: _Aggregate, overhead_frac: float) -> float:
    """Per-layer metric ``name`` from the aggregated spans.

    ``<span>.s`` and ``<span>.calls`` are seconds and calls in one set-up plus
    one cycle (means over the traced set-ups and cycles), so they do not
    depend on how many cycles fit in a run. ``layer.<net>.<layer>.fwd_ms`` and
    ``.bwd_ms`` are medians per call. ``autodiff.tape_nodes`` is the median
    over the cycles' backward calls; the other ratios are taken over the
    whole traced part of the run.
    """
    if name == "trace.overhead_frac":
        return overhead_frac
    if name == "autodiff.tape_nodes":
        sizes = [n for unit, n in agg.inst.tape_sizes if unit == CYCLE]
        return float(statistics.median(sizes)) if sizes else 0.0
    if name == "network.bn_stats_per_capture":
        # within the generator loss, whose batch statistics batch_bns recomputes
        tr = agg.inst.tracer
        loss = tr.name_id("generator.generator_total_loss")
        caps = sum(n for idx, n in agg.inst.captures if _inside(tr, idx, loss))
        stats = tr.name_id("network.channel_stats")
        calls = sum(1 for i, nid in enumerate(tr.name_of) if nid == stats and _inside(tr, i, loss))
        return calls / caps if caps else 0.0
    if name == "quantizer.weight_fq_per_update":
        steps = agg.total_calls("optim.sgd_step")
        return agg.total_calls("quantizer.weight_fq") / steps if steps else 0.0
    if name.startswith("layer."):
        _, net, layer, field = name.split(".")
        kind = {"fwd_ms": "fwd", "bwd_ms": "bwd"}[field]
        vals = agg.layer_ms.get((f"{net}.{layer}", kind), [])
        return float(statistics.median(vals)) if vals else 0.0
    base, field = name.rsplit(".", 1)
    if base.startswith("autodiff.") and base[len("autodiff."):] in OP_GROUPS:
        fns = OP_GROUPS[base[len("autodiff."):]]
        if field == "fwd_s":
            return sum(agg.seconds(f"autodiff.{f}") for f in fns)
        if field == "bwd_s":
            return sum(agg.seconds(f"autodiff.{f}.bwd") for f in fns)
        if field == "calls":
            return sum(agg.calls(f"autodiff.{f}") for f in fns)
    if field == "s":
        return agg.seconds(base)
    if field == "calls":
        return agg.calls(base)
    raise KeyError(f"no rule for per-layer metric {name!r}")


# Which end-to-end metric each per-layer metric should move, and where.
# Keys are metric names or prefixes ending in "."; the longest match wins.
# pretrain_s runs in set-up on full-arm and calib-arm, so whatever moves it
# there moves setup_s too.
_TRAIN = "quantize_s on full-arm and calib-arm; pretrain_s on all workloads"
MOVES = {
    "autodiff.conv2d.": _TRAIN,
    "autodiff.avg_pool2d.": _TRAIN,
    "autodiff.dense.": _TRAIN,
    "autodiff.elementwise.": _TRAIN,
    "autodiff.loss.": _TRAIN,
    "autodiff.batchnorm_train.": "quantize_s on full-arm (generator); pretrain_s on all workloads",
    "autodiff.batchnorm_eval.": "quantize_s on full-arm and calib-arm; analyze_s on all workloads",
    "autodiff.upsample2x.": "quantize_s on full-arm only",
    "autodiff.mean.": "quantize_s on full-arm; analyze_s on all workloads",
    "autodiff.sum.": "quantize_s on full-arm",
    "autodiff.matmul.": "quantize_s on full-arm",
    "autodiff.sq_dist.": "quantize_s on full-arm",
    "autodiff.backward.": "quantize_s on full-arm",
    "autodiff.tape_nodes": "quantize_s on full-arm",
    "layer.classifier.": _TRAIN,
    "layer.generator.": "quantize_s on full-arm",
    "network.forward.classifier.": _TRAIN + "; analyze_s on all workloads",
    "network.forward.generator.": "quantize_s on full-arm",
    "network.bn_stats_per_capture":
        "quantize_s on full-arm (2.0 while batch_bns recomputes the statistics; ideal 1.0)",
    "generator.": "quantize_s on full-arm",
    "bns.": "quantize_s on full-arm",
    "bns.per_image_bns.": "analyze_s on all workloads, most on pretrain-analyze",
    "bns.build_class_centroids.": "quantize_s on all workloads",
    "quantizer.": "quantize_s, mostly on calib-arm",
    "optim.adam_step.": "pretrain_s on all workloads; quantize_s on full-arm",
    "optim.sgd_step.": "quantize_s on full-arm and calib-arm",
    "trainer.warmup_generator.": "quantize_s on full-arm",
    "trainer.train_epoch.": "quantize_s on full-arm and calib-arm",
    "trainer.evaluate.": "quantize_s on all workloads; pretrain_s on all workloads",
    "trainer.pretrain_classifier.": "pretrain_s on all workloads",
    "clusters.mean_silhouette_per_layer.": "analyze_s on all workloads, most on pretrain-analyze",
    "data.make_toy_dataset.": "setup_s on all workloads",
    "archive.": "setup_s on full-arm and calib-arm; quantize_s",
    "trace.overhead_frac": "none: the cost of tracing, not of the program",
}


def moves(name: str) -> str:
    """The MOVES entry for a per-layer metric name (longest key that matches)."""
    best = ""
    for key in MOVES:
        if (name == key or (key.endswith(".") and name.startswith(key))) and len(key) > len(best):
            best = key
    if not best:
        raise KeyError(f"no MOVES entry for {name!r}")
    return MOVES[best]
