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
from .bns import (BnStats, ClassCentroids, build_class_centroids, collect_running_stats,
                  deep_layer_start)
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
from .quantizer import FakeQuantRuntime, calibrate_activation_bounds


def step_lr(lr0: float, epoch: int) -> float:
    """The generator's schedule: lr0 * 0.1^floor(epoch/100)."""
    return lr0 * 0.1 ** (epoch // 100)


def cosine_lr(lr0: float, epoch: int, total_epochs: int) -> float:
    """The quantized model's schedule: a half cosine from lr0 to zero."""
    if total_epochs <= 0:
        return lr0
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))


def evaluate(net: Network, data: LabeledImages, quant: FakeQuantRuntime | None = None) -> float:
    """Top-1 accuracy with eval-mode BN (and quantizers active when given)."""
    if len(data) == 0:
        raise ValueError("cannot evaluate on an empty set")
    correct = 0
    with ad.no_grad():
        for lo in range(0, len(data), EVAL_BATCH):
            rows = slice(lo, lo + EVAL_BATCH)
            logits = forward(net, Tensor(data.images[rows]), train=False, quant=quant).output
            correct += int((np.argmax(logits.data, axis=1) == data.labels[rows]).sum())
    return correct / len(data)


class TrainingDiverged(RuntimeError):
    """A training loss became non-finite; the message names where."""


def _check_finite(loss: float, kind: str, phase: str, epoch: int, step: int) -> None:
    if not math.isfinite(loss):
        raise TrainingDiverged(
            f"{kind} loss became {loss} at {phase} epoch {epoch}, step {step}")


def quantized_model_loss(q_net: Network, teacher_logits: np.ndarray, images: Tensor,
                         labels: np.ndarray, w: LossWeights,
                         quant: FakeQuantRuntime) -> tuple[Tensor, dict]:
    """Cross-entropy on the mixed batch plus weighted distillation from the
    frozen full-precision model, whose logits for ``images`` are given (the
    teacher side carries no gradient)."""
    if images.shape[0] == 0:
        raise ValueError("quantized-model loss needs a non-empty batch")
    logits_q = forward(q_net, images, train=False, quant=quant).output
    ce = ad.softmax_cross_entropy(logits_q, labels)
    kd = ad.kl_divergence(logits_q, Tensor(teacher_logits))
    total = ce + kd * w.kd
    return total, {"ce": float(ce.data), "kd": float(kd.data)}


@dataclass
class TrainState:
    """Mutable pieces shared across epochs of one run."""

    g_net: Network | None
    q_net: Network
    f_net: Network
    running: BnStats
    centroids: ClassCentroids
    calib: CalibrationSet
    quant: FakeQuantRuntime
    g_opt: Adam | None
    q_opt: NesterovSGD
    rng_labels: np.random.Generator
    rng_noise: np.random.Generator
    rng_distort: np.random.Generator
    rng_mix: np.random.Generator
    split: tuple[int, int]  # calibration and synthetic rows of each batch
    # the frozen teacher's logits for each calibration image, built on first use
    teacher_calib: np.ndarray | None = None


def _teacher_calib_logits(state: TrainState, cfg: TrainConfig) -> np.ndarray:
    """The frozen teacher's logits for every calibration image, one row per
    image, computed once per run.

    Each forward pass cycles the images up to ``cfg.batch_size`` rows, so its
    GEMMs have the shape of a training step's; row i then equals, bit for
    bit, the logits of image i inside a step's batch.
    """
    if state.teacher_calib is None:
        n, rows = len(state.calib), cfg.batch_size
        chunks = []
        with ad.no_grad():
            for lo in range(0, n, rows):
                cycled = state.calib.images[(lo + np.arange(rows)) % n]
                logits = forward(state.f_net, Tensor(cycled), train=False).output
                chunks.append(logits.data[: min(rows, n - lo)])
        state.teacher_calib = np.concatenate(chunks)
    return state.teacher_calib


def batch_split(cfg: TrainConfig, n_calib: int) -> tuple[int, int]:
    """Calibration and synthetic rows of every quantized-model batch:
    round(mix_ratio * batch_size) calibration rows when there are calibration
    images, none otherwise, and the rest synthetic. Raises ValueError when
    that leaves a batch with no data source."""
    n_cal = int(round(cfg.mix_ratio * cfg.batch_size))
    if n_calib == 0:
        if n_cal == cfg.batch_size:
            raise ValueError(f"no training data: no calibration images, and mix_ratio "
                             f"{cfg.mix_ratio} leaves no synthetic rows in a batch of "
                             f"{cfg.batch_size}")
        n_cal = 0
    return n_cal, cfg.batch_size - n_cal


def _mixed_batch(state: TrainState, cfg: TrainConfig) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Fresh synthetic images mixed with resampled calibration items, their
    labels and the frozen teacher's logits. The teacher runs on the synthetic
    rows only; the calibration rows come from :func:`_teacher_calib_logits`."""
    n_cal, n_syn = state.split
    xs, ys, ts = [], [], []
    if n_syn > 0:
        labels = sample_labels(state.f_net.meta["num_classes"], n_syn, state.rng_labels)
        with ad.no_grad():
            images = generate(state.g_net, labels, state.rng_noise)
            logits = forward(state.f_net, images, train=False).output
        xs.append(images.data)
        ys.append(labels)
        ts.append(logits.data)
    if n_cal > 0:
        pick = state.rng_mix.integers(0, len(state.calib), size=n_cal)
        xs.append(state.calib.images[pick])
        ys.append(state.calib.labels[pick])
        ts.append(_teacher_calib_logits(state, cfg)[pick])
    return Tensor(np.concatenate(xs)), np.concatenate(ys), np.concatenate(ts)


def _generator_step(state: TrainState, cfg: TrainConfig, settings: RunSettings,
                    lr: float) -> float:
    labels = sample_labels(state.f_net.meta["num_classes"], cfg.batch_size,
                           state.rng_labels)
    images = generate(state.g_net, labels, state.rng_noise)
    loss, _ = generator_total_loss(
        images, labels, state.f_net, state.running, state.centroids,
        settings.weights, settings.distortion, state.rng_distort,
    )
    state.g_net.zero_grad()
    ad.backward(loss)
    state.g_opt.step(lr)
    return float(loss.data)


def _quantized_step(state: TrainState, cfg: TrainConfig, settings: RunSettings,
                    lr: float) -> float:
    images, labels, teacher_logits = _mixed_batch(state, cfg)
    loss, _ = quantized_model_loss(state.q_net, teacher_logits, images, labels,
                                   settings.weights, state.quant)
    state.q_net.zero_grad()
    ad.backward(loss)
    state.q_opt.step(lr)
    return float(loss.data)


def warmup_generator(state: TrainState, cfg: TrainConfig, settings: RunSettings) -> list[float]:
    """Generator-only updates before the quantized model starts training;
    raises :class:`TrainingDiverged` on a non-finite loss."""
    losses = []
    for epoch in range(cfg.warmup_epochs):
        lr = step_lr(cfg.lr_generator, epoch)
        for step in range(cfg.steps_per_epoch):
            losses.append(_generator_step(state, cfg, settings, lr))
            _check_finite(losses[-1], "generator", "warm-up", epoch, step)
    return losses


def train_epoch(state: TrainState, cfg: TrainConfig, settings: RunSettings,
                epoch: int) -> dict:
    """One epoch of per-step alternation: a generator update on its composite
    loss (when the run has a generator), then a quantized-model update on a
    fresh mixed batch. Returns the epoch's report entry, its mean losses;
    raises :class:`TrainingDiverged` on a non-finite loss."""
    lr_g = step_lr(cfg.lr_generator, epoch)
    lr_q = cosine_lr(cfg.lr_quantized, epoch, cfg.total_epochs)
    g_losses, q_losses = [], []
    for step in range(cfg.steps_per_epoch):
        if state.g_net is not None:
            g_losses.append(_generator_step(state, cfg, settings, lr_g))
            _check_finite(g_losses[-1], "generator", "training", epoch, step)
        q_losses.append(_quantized_step(state, cfg, settings, lr_q))
        _check_finite(q_losses[-1], "quantized-model", "training", epoch, step)
    return {
        "epoch": epoch,
        "lossG": float(np.mean(g_losses)) if g_losses else None,
        "lossQ": float(np.mean(q_losses)),
    }


# ---------------------------------------------------------------------------
# classifier pretraining
# ---------------------------------------------------------------------------

def pretrain_classifier(dataset: ToyDatasetSpec, epochs: int = 20,
                        steps_per_epoch: int = TrainConfig.steps_per_epoch,
                        batch_size: int = TrainConfig.batch_size,
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
        calib = CalibrationSet(calib.images[keep], pred[keep])
    return calib, dropped


def run_fdda(settings: RunSettings, model_path, out_model_path=None) -> tuple[Network, dict]:
    """Quantize the archived classifier and fine-tune it with synthetic plus
    calibration data; returns the last epoch's model and the run report.
    Raises ValueError when a batch would have no data source."""
    cfg = settings.train
    f_net = load_model(model_path).network
    f_net.set_requires_grad(False)

    train, test = make_toy_dataset(settings.dataset)
    calib, dropped = _resolve_calibration(settings, train, f_net)
    n_cal, n_syn = batch_split(cfg, len(calib))

    running = collect_running_stats(f_net)
    deep_start = deep_layer_start(f_net.bn_layer_count)
    centroids = build_class_centroids(f_net, calib, deep_start)

    q_net = f_net.copy()
    q_net.set_requires_grad(True)

    g_net = build_generator(
        settings.dataset.num_classes,
        out_shape=tuple(settings.dataset.image_size),
        seed=cfg.seed,
    ) if n_syn else None

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
        split=(n_cal, n_syn),
    )

    warmup_losses = warmup_generator(state, cfg, settings) if g_net is not None else []

    # activation bounds come from real calibration data when there is any;
    # the synthetic-only arm calibrates on a post-warm-up synthetic batch
    if len(calib) > 0:
        calib_images = calib.images
    else:
        labels = sample_labels(settings.dataset.num_classes, cfg.batch_size,
                               state.rng_labels)
        with ad.no_grad():
            calib_images = generate(g_net, labels, state.rng_noise).data
    act_quant = calibrate_activation_bounds(f_net, calib_images, settings.policy)
    state.quant = FakeQuantRuntime(settings.policy, act_quant)

    per_epoch = []
    for epoch in range(cfg.total_epochs):
        entry = train_epoch(state, cfg, settings, epoch)
        entry["acc"] = evaluate(q_net, test, quant=state.quant)
        per_epoch.append(entry)
    final_acc = per_epoch[-1]["acc"] if per_epoch else evaluate(q_net, test, quant=state.quant)

    report = {
        "config": settings.to_dict(),
        "per_epoch": per_epoch,
        "warmup_loss_first": warmup_losses[0] if warmup_losses else None,
        "warmup_loss_last": warmup_losses[-1] if warmup_losses else None,
        "final_acc": final_acc,
        "float_test_acc": evaluate(f_net, test),
        "policy": settings.to_dict()["policy"],
        "available_classes": list(centroids.classes),
        "dropped_calibration_classes": dropped,
    }
    if out_model_path is not None:
        save_model(out_model_path, ModelArchive(q_net, state.quant))
    return q_net, report
