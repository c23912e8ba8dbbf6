"""The full fine-tuning pipeline: classifier pretraining, generator warm-up,
alternating generator / quantized-model updates, per-epoch evaluation, and
the end-to-end run with its JSON report.

The pre-trained classifier is frozen throughout; the quantized copy trains
through the straight-through estimator with eval-mode (frozen) BN buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .archive import ModelArchive, load_model, save_model
from .autodiff import Tensor
from .bns import (
    BnRunningStats,
    ClassCentroids,
    build_class_centroids,
    collect_running_stats,
    deep_layer_start,
)
from .config import RunSettings, TrainConfig
from .data import CalibrationSet, LabeledImages, ToyDatasetSpec, extract_calibration, make_toy_dataset
from .generator import (
    LossWeights,
    generate,
    generator_total_loss,
    predict_labels,
    sample_labels,
)
from .models import build_generator, build_toy_classifier
from .network import EVAL_BATCH, Network, forward
from .optim import Adam, NesterovSGD
from .quantizer import FakeQuantRuntime, QuantPolicy, calibrate_activation_bounds


def lr_schedule(kind: str, lr0: float, epoch: int, total_epochs: int) -> float:
    """'step': lr0 * 0.1^floor(epoch/100); 'cosine': half-cosine to zero."""
    if kind == "step":
        return lr0 * 0.1 ** (epoch // 100)
    if kind == "cosine":
        if total_epochs <= 0:
            return lr0
        return lr0 * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))
    raise ValueError(f"unknown schedule kind {kind!r}")


def evaluate(net: Network, data: LabeledImages, quant: FakeQuantRuntime | None = None,
             batch: int = EVAL_BATCH) -> float:
    """Top-1 accuracy with eval-mode BN (and quantizers active when given)."""
    if len(data) == 0:
        raise ValueError("cannot evaluate on an empty set")
    correct = 0
    with ad.no_grad():
        for lo in range(0, len(data), batch):
            xs = Tensor(data.images[lo : lo + batch])
            logits = forward(net, xs, train=False, quant=quant).output
            correct += int((np.argmax(logits.data, axis=1) == data.labels[lo : lo + batch]).sum())
    return correct / len(data)


def quantized_model_loss(q_net: Network, f_net: Network, images: Tensor,
                         labels: np.ndarray, w: LossWeights,
                         quant: FakeQuantRuntime) -> tuple[Tensor, dict]:
    """Cross-entropy on the mixed batch plus weighted distillation from the
    frozen full-precision model (teacher side carries no gradient)."""
    if images.shape[0] == 0:
        raise ValueError("quantized-model loss needs a non-empty batch")
    logits_q = forward(q_net, images, train=False, quant=quant).output
    ce = ad.softmax_cross_entropy(logits_q, labels)
    with ad.no_grad():
        logits_f = forward(f_net, images, train=False).output
    kd = ad.kl_divergence(logits_q, Tensor(logits_f.data))
    total = ce + kd * w.kd
    return total, {"ce": float(ce.data), "kd": float(kd.data)}


@dataclass
class TrainState:
    """Mutable pieces shared across epochs of one run."""

    g_net: Network | None
    q_net: Network
    f_net: Network
    running: BnRunningStats
    centroids: ClassCentroids
    calib: CalibrationSet
    quant: FakeQuantRuntime
    g_opt: Adam | None
    q_opt: NesterovSGD
    rng_labels: np.random.Generator
    rng_noise: np.random.Generator
    rng_distort: np.random.Generator
    rng_mix: np.random.Generator


def _mixed_batch(state: TrainState, cfg: TrainConfig, settings: RunSettings
                 ) -> tuple[Tensor, np.ndarray] | None:
    """Fresh synthetic images mixed with resampled calibration items."""
    n_total = cfg.batch_size
    have_calib = len(state.calib) > 0
    n_cal = int(round(cfg.mix_ratio * n_total)) if have_calib else 0
    if not settings.use_synthetic:
        n_cal = n_total if have_calib else 0
    n_syn = n_total - n_cal if settings.use_synthetic else 0

    xs, ys = [], []
    if n_syn > 0:
        labels = sample_labels(state.f_net.meta["num_classes"], n_syn, state.rng_labels)
        with ad.no_grad():
            images = generate(state.g_net, labels, state.rng_noise)
        xs.append(images.data)
        ys.append(labels)
    if n_cal > 0:
        pick = state.rng_mix.integers(0, len(state.calib), size=n_cal)
        xs.append(state.calib.images[pick])
        ys.append(state.calib.labels[pick])
    if not xs:
        return None
    return Tensor(np.concatenate(xs)), np.concatenate(ys)


def _generator_step(state: TrainState, cfg: TrainConfig, settings: RunSettings,
                    lr: float) -> float:
    labels = sample_labels(state.f_net.meta["num_classes"], cfg.batch_size,
                           state.rng_labels)
    images = generate(state.g_net, labels, state.rng_noise)
    loss, _ = generator_total_loss(
        images, labels, state.f_net, state.running, state.centroids,
        settings.weights, settings.distortion, state.rng_distort,
        use_cbns=settings.use_cbns, use_dbns=settings.use_dbns,
    )
    state.g_net.zero_grad()
    ad.backward(loss)
    state.g_opt.step(lr)
    return float(loss.data)


def _quantized_step(state: TrainState, cfg: TrainConfig, settings: RunSettings,
                    lr: float) -> float | None:
    batch = _mixed_batch(state, cfg, settings)
    if batch is None:
        return None
    images, labels = batch
    loss, _ = quantized_model_loss(state.q_net, state.f_net, images, labels,
                                   settings.weights, state.quant)
    state.q_net.zero_grad()
    ad.backward(loss)
    state.q_opt.step(lr)
    return float(loss.data)


def warmup_generator(state: TrainState, cfg: TrainConfig, settings: RunSettings) -> list[float]:
    """Generator-only updates before the quantized model starts training."""
    losses = []
    for epoch in range(cfg.warmup_epochs):
        lr = lr_schedule(cfg.generator_schedule, cfg.lr_generator, epoch, cfg.total_epochs)
        for _ in range(cfg.steps_per_epoch):
            losses.append(_generator_step(state, cfg, settings, lr))
    return losses


def train_epoch(state: TrainState, cfg: TrainConfig, settings: RunSettings,
                epoch: int) -> dict:
    """One epoch of per-step alternation: a generator update on its composite
    loss, then a quantized-model update on a fresh mixed batch."""
    lr_g = lr_schedule(cfg.generator_schedule, cfg.lr_generator, epoch, cfg.total_epochs)
    lr_q = lr_schedule(cfg.quantized_schedule, cfg.lr_quantized, epoch, cfg.total_epochs)
    g_losses, q_losses = [], []
    for _ in range(cfg.steps_per_epoch):
        if settings.use_synthetic:
            g_losses.append(_generator_step(state, cfg, settings, lr_g))
        q = _quantized_step(state, cfg, settings, lr_q)
        if q is not None:
            q_losses.append(q)
    metrics = {
        "epoch": epoch,
        "lossG": float(np.mean(g_losses)) if g_losses else None,
        "lossQ": float(np.mean(q_losses)) if q_losses else None,
        "lossG_steps": g_losses,
        "lossQ_steps": q_losses,
    }
    if not q_losses:
        metrics["no_quantized_updates"] = True
    return metrics


# ---------------------------------------------------------------------------
# classifier pretraining
# ---------------------------------------------------------------------------

def pretrain_classifier(dataset: ToyDatasetSpec, epochs: int = 20,
                        steps_per_epoch: int = 25, batch_size: int = 64,
                        lr: float = 1e-3, seed: int = 0,
                        ) -> tuple[Network, dict]:
    """Train the toy classifier from scratch; BN momentum updates leave the
    running statistics the rest of the pipeline depends on."""
    train, test = make_toy_dataset(dataset)
    net = build_toy_classifier(dataset.num_classes, dataset.image_size, seed=seed)
    opt = Adam(net.params)
    rng = np.random.default_rng([seed, 2])
    for _ in range(epochs):
        for _ in range(steps_per_epoch):
            idx = rng.integers(0, len(train), size=batch_size)
            xs = Tensor(train.images[idx])
            logits = forward(net, xs, train=True).output
            loss = ad.softmax_cross_entropy(logits, train.labels[idx])
            net.zero_grad()
            ad.backward(loss)
            opt.step(lr)
    report = {
        "train_acc": evaluate(net, train),
        "test_acc": evaluate(net, test),
        "epochs": epochs,
        "seed": seed,
    }
    return net, report


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def _resolve_calibration(settings: RunSettings, train: LabeledImages,
                         f_net: Network) -> tuple[CalibrationSet, list[int]]:
    classes = None if settings.classes is None else list(settings.classes)
    calib = extract_calibration(train, settings.dataset.num_classes, classes)
    dropped: list[int] = []
    if settings.predict_labels and len(calib):
        pred = predict_labels(f_net, calib.images)
        keep, seen = [], set()
        for i, label in enumerate(pred):
            if int(label) in seen:
                dropped.append(int(calib.labels[i]))
                continue
            seen.add(int(label))
            keep.append(i)
        calib = CalibrationSet(
            calib.images[keep], pred[keep], settings.dataset.num_classes,
            predicted=np.ones(len(keep), dtype=bool),
        )
    return calib, dropped


def run_fdda(settings: RunSettings, model_path, out_model_path=None) -> tuple[Network, dict]:
    """Quantize the archived classifier and fine-tune it with synthetic plus
    calibration data; returns the best checkpoint and the run report."""
    cfg = settings.train
    f_net = load_model(model_path).network
    f_net.set_requires_grad(False)

    train, test = make_toy_dataset(settings.dataset)
    calib, dropped = _resolve_calibration(settings, train, f_net)

    running = collect_running_stats(f_net)
    deep_start = deep_layer_start(f_net.bn_layer_count)
    centroids = build_class_centroids(f_net, calib, deep_start)

    q_net = f_net.copy()
    q_net.set_requires_grad(True)

    g_net = build_generator(
        settings.dataset.num_classes,
        out_shape=tuple(settings.dataset.image_size),
        seed=cfg.seed,
    ) if settings.use_synthetic else None

    state = TrainState(
        g_net=g_net,
        q_net=q_net,
        f_net=f_net,
        running=running,
        centroids=centroids,
        calib=calib,
        quant=None,
        g_opt=Adam(g_net.params) if g_net is not None else None,
        q_opt=NesterovSGD(q_net.params, momentum=cfg.momentum,
                          weight_decay=cfg.weight_decay),
        rng_labels=np.random.default_rng([cfg.seed, 3]),
        rng_noise=np.random.default_rng([cfg.seed, 4]),
        rng_distort=np.random.default_rng([cfg.seed, 5]),
        rng_mix=np.random.default_rng([cfg.seed, 6]),
    )

    warmup_losses = warmup_generator(state, cfg, settings) if settings.use_synthetic else []

    # activation bounds come from real calibration data when there is any;
    # the synthetic-only arm calibrates on a post-warm-up synthetic batch.
    # With no data source at all, activations stay unquantized and the run
    # degenerates to a reported no-op.
    no_training_data = len(calib) == 0 and not settings.use_synthetic
    if len(calib) > 0:
        calib_images = calib.images
    elif settings.use_synthetic:
        labels = sample_labels(settings.dataset.num_classes, cfg.batch_size,
                               state.rng_labels)
        with ad.no_grad():
            calib_images = generate(g_net, labels, state.rng_noise).data
    else:
        calib_images = None
    act_quant = calibrate_activation_bounds(f_net, calib_images, settings.policy) \
        if calib_images is not None else None
    state.quant = FakeQuantRuntime(settings.policy, act_quant)

    per_epoch = []
    best_acc, best_epoch = -1.0, -1
    best_params = {k: p.data.copy() for k, p in q_net.params.items()}
    for epoch in range(cfg.total_epochs):
        metrics = train_epoch(state, cfg, settings, epoch)
        acc = evaluate(q_net, test, quant=state.quant)
        per_epoch.append({
            "epoch": epoch,
            "lossG": metrics["lossG"],
            "lossQ": metrics["lossQ"],
            "acc": acc,
        })
        if acc > best_acc:
            best_acc = acc
            best_epoch = epoch
            best_params = {k: p.data.copy() for k, p in q_net.params.items()}

    for k, p in q_net.params.items():
        p.data = best_params[k]
    final_acc = evaluate(q_net, test, quant=state.quant)

    report = {
        "config": settings.to_dict(),
        "per_epoch": per_epoch,
        "warmup_loss_first": warmup_losses[0] if warmup_losses else None,
        "warmup_loss_last": warmup_losses[-1] if warmup_losses else None,
        "final_acc": final_acc,
        "best_epoch": best_epoch,
        "float_test_acc": evaluate(f_net, test),
        "policy": settings.to_dict()["policy"],
        "available_classes": sorted(centroids.available_classes),
        "dropped_calibration_classes": dropped,
        "no_training_data": no_training_data,
    }
    if out_model_path is not None:
        save_model(out_model_path, ModelArchive(
            q_net, centroids=centroids, act_quant=act_quant, policy=settings.policy,
        ))
    return q_net, report
