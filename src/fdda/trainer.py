"""The full fine-tuning pipeline: classifier pretraining, a run's set-up
(calibration set, centroids and teacher logits, generator warm-up,
activation calibration), alternating generator / quantized-model updates,
per-epoch evaluation, and the end-to-end run with its JSON report.

The pre-trained classifier is frozen throughout; the quantized copy trains
through the straight-through estimator with eval-mode (frozen) BN buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .archive import ModelArchive
from .autodiff import Tensor
from .bns import (BnStats, ClassCentroids, build_class_centroids, collect_running_stats,
                  deep_layer_start, per_image_bns)
from .config import RunSettings, TrainConfig
from .data import LabeledImages, ToyDatasetSpec, extract_calibration, make_toy_dataset
from .generator import LossWeights, generate, generator_total_loss, sample_labels
from .models import build_generator, build_toy_classifier
from .network import EVAL_BATCH, Network, forward
from .optim import Adam, NesterovSGD
from .quantizer import FakeQuantRuntime, calibrate_activation_bounds


def step_lr(lr0: float, epoch: int) -> float:
    """The generator's schedule: lr0 * 0.1^floor(epoch/100)."""
    return lr0 * 0.1 ** (epoch // 100)


def cosine_lr(lr0: float, epoch: int, total_epochs: int) -> float:
    """The quantized model's schedule: a half cosine from lr0 to zero."""
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
    """A training loss or the parameters an optimizer stepped became
    non-finite; the message names where."""


def _check_finite(loss: float, opt: Adam | NesterovSGD, kind: str, phase: str, epoch: int,
                  step: int) -> None:
    """Raise :class:`TrainingDiverged` when a step's loss, or the parameters
    its optimizer updated, are not all finite."""
    where = f"at {phase} epoch {epoch}, step {step}"
    if not math.isfinite(loss):
        raise TrainingDiverged(f"{kind} loss became {loss} {where}")
    if not np.isfinite(opt.flat.data).all():
        raise TrainingDiverged(f"{kind} parameters became non-finite {where}")


def quantized_model_loss(q_net: Network, teacher_logits: np.ndarray, images: Tensor,
                         rows: np.ndarray, labels: np.ndarray, w: LossWeights,
                         quant: FakeQuantRuntime) -> tuple[Tensor, dict]:
    """Cross-entropy on the mixed batch plus weighted distillation from the
    frozen full-precision model, whose logits for the batch are given (the
    teacher side carries no gradient).

    The student runs once over ``images``, and ``rows`` maps each batch row
    to its image, so a repeated image's gradient is summed over its rows
    (``ad.take``) and each row's logits are those of a pass over the batch."""
    if images.shape[0] == 0:
        raise ValueError("quantized-model loss needs a non-empty batch")
    logits_q = ad.take(forward(q_net, images, train=False, quant=quant).output, rows)
    ce = ad.softmax_cross_entropy(logits_q, labels)
    kd = ad.kl_divergence(logits_q, Tensor(teacher_logits))
    total = ce + kd * w.kd
    return total, {"ce": float(ce.data), "kd": float(kd.data)}


@dataclass
class TrainState:
    """Mutable pieces shared across epochs of one run, built by :func:`start_run`."""

    settings: RunSettings
    g_net: Network | None
    q_net: Network
    f_net: Network
    running: BnStats
    centroids: ClassCentroids
    calib: LabeledImages
    quant: FakeQuantRuntime | None  # None until the warm-up is over
    g_opt: Adam | None
    q_opt: NesterovSGD
    # labels and noise of each generator step, and of the synthetic batch
    # that calibrates activations when there are no calibration images
    rng_labels: np.random.Generator
    rng_noise: np.random.Generator
    rng_distort: np.random.Generator  # distorted centroids of each generator step
    rng_mix: np.random.Generator  # calibration rows of each quantized step
    split: tuple[int, int]  # calibration and synthetic rows of each batch
    # the frozen teacher's logits for each calibration image, from passes of
    # batch_size rows, so a batch row's logits are those of a pass over the batch
    teacher_calib: np.ndarray


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


Batch = tuple[np.ndarray, np.ndarray, np.ndarray]  # images, labels, teacher logits


def _mixed_batch(state: TrainState, synthetic: Batch | None
                 ) -> tuple[Tensor, np.ndarray, np.ndarray, np.ndarray]:
    """A quantized-model batch: its distinct images, each batch row's index
    into them, and each row's label and frozen-teacher logits.

    As in GDFQ, the synthetic rows are the first ``n_syn`` rows of the
    preceding generator step's batch, with the teacher logits of that step's
    own forward pass, so neither the generator nor the teacher runs here
    (``synthetic`` is None when the split has no synthetic rows). Calibration
    rows, drawn with replacement, follow; each drawn image appears once among
    the images, and its logits come from the run's table of teacher logits.
    """
    n_cal, n_syn = state.split
    xs, ys, ts = [], [], []
    rows = np.arange(n_syn)
    if n_syn > 0:
        for parts, part in zip((xs, ys, ts), synthetic):
            parts.append(part[:n_syn])
    if n_cal > 0:
        pick = state.rng_mix.integers(0, len(state.calib), size=n_cal)
        distinct, inverse = np.unique(pick, return_inverse=True)
        xs.append(state.calib.images[distinct])
        ys.append(state.calib.labels[pick])
        ts.append(state.teacher_calib[pick])
        rows = np.concatenate([rows, n_syn + inverse])
    return Tensor(np.concatenate(xs)), rows, np.concatenate(ys), np.concatenate(ts)


def _generator_step(state: TrainState, lr: float) -> tuple[float, dict, Batch]:
    """One generator update on its composite loss. Returns the loss, its
    unweighted terms and the step's batch: its images and labels, and the
    teacher's logits from the loss's forward pass, all detached from the
    tape."""
    settings = state.settings
    labels = sample_labels(settings.dataset.num_classes, settings.train.batch_size,
                           state.rng_labels)
    images = generate(state.g_net, labels, state.rng_noise)
    loss, terms, logits = generator_total_loss(
        images, labels, state.f_net, state.running, state.centroids,
        settings.weights, settings.distortion, state.rng_distort,
    )
    state.g_net.zero_grad()
    ad.backward(loss)
    state.g_opt.step(lr)
    return float(loss.data), terms, (images.data, labels, logits.data)


def _quantized_step(state: TrainState, lr: float,
                    synthetic: Batch | None) -> tuple[float, dict]:
    images, rows, labels, teacher_logits = _mixed_batch(state, synthetic)
    loss, terms = quantized_model_loss(state.q_net, teacher_logits, images, rows, labels,
                                       state.settings.weights, state.quant)
    state.q_net.zero_grad()
    ad.backward(loss)
    state.q_opt.step(lr)
    return float(loss.data), terms


def _add_terms(sums: dict, terms: dict) -> None:
    for name, value in terms.items():
        sums[name] = sums.get(name, 0.0) + value


def warmup_generator(state: TrainState) -> list[float]:
    """Generator-only updates before the quantized model starts training,
    their batches discarded; raises :class:`TrainingDiverged` on a non-finite
    loss or parameter."""
    cfg = state.settings.train
    losses = []
    for epoch in range(cfg.warmup_epochs):
        lr = step_lr(cfg.lr_generator, epoch)
        for step in range(cfg.steps_per_epoch):
            losses.append(_generator_step(state, lr)[0])
            _check_finite(losses[-1], state.g_opt, "generator", "warm-up", epoch, step)
    return losses


def train_epoch(state: TrainState, epoch: int) -> dict:
    """One epoch of per-step alternation: a generator update on its composite
    loss (when the run has a generator), then a quantized-model update on the
    first rows of that update's batch mixed with calibration rows (see
    :func:`_mixed_batch`). Returns the epoch's report entry: its mean losses
    and the mean of each unweighted term, a step that did not compute a term
    counting 0 (it added 0 to that step's loss) and a term no step computed
    absent; raises :class:`TrainingDiverged` on a non-finite loss or parameter."""
    cfg = state.settings.train
    lr_g = step_lr(cfg.lr_generator, epoch)
    lr_q = cosine_lr(cfg.lr_quantized, epoch, cfg.total_epochs)
    g_losses, q_losses = [], []
    g_terms, q_terms = {}, {}  # each term's sum over the steps
    for step in range(cfg.steps_per_epoch):
        synthetic = None
        if state.g_net is not None:
            loss, terms, synthetic = _generator_step(state, lr_g)
            g_losses.append(loss)
            _add_terms(g_terms, terms)
            _check_finite(loss, state.g_opt, "generator", "training", epoch, step)
        loss, terms = _quantized_step(state, lr_q, synthetic)
        q_losses.append(loss)
        _add_terms(q_terms, terms)
        _check_finite(loss, state.q_opt, "quantized-model", "training", epoch, step)
    steps = cfg.steps_per_epoch
    return {
        "epoch": epoch,
        "lossG": float(np.mean(g_losses)) if g_losses else None,
        "lossQ": float(np.mean(q_losses)),
        "lossG_terms": {name: total / steps for name, total in g_terms.items()},
        "lossQ_terms": {name: total / steps for name, total in q_terms.items()},
    }


# ---------------------------------------------------------------------------
# classifier pretraining
# ---------------------------------------------------------------------------

PRETRAIN_LR = 1e-3  # Adam's step size


def pretrain_classifier(dataset: ToyDatasetSpec, epochs: int = 20,
                        steps_per_epoch: int = TrainConfig.steps_per_epoch,
                        batch_size: int = TrainConfig.batch_size, seed: int = 0,
                        ) -> tuple[Network, dict]:
    """Train the toy classifier from scratch; BN momentum updates leave the
    running statistics the rest of the pipeline depends on."""
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
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
            opt.step(PRETRAIN_LR)
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

def start_run(settings: RunSettings, f_net: Network,
              train: LabeledImages) -> tuple[TrainState, list[float]]:
    """The state of a run that quantizes ``f_net``, which it freezes, and
    the generator's warm-up losses.

    The calibration set is the first image of each class of ``train`` that
    the settings name. It sets the batch split, and one eval pass of the
    teacher over it gives both the class centroids and the table of its
    teacher logits: in passes of ``batch_size`` rows, as the steps' own
    passes, when the run trains, and in the fewest passes when no step reads
    the table. After the generator's warm-up it sets the activation bounds;
    a run with no calibration images calibrates them on a synthetic batch
    drawn from the warmed-up generator instead. Raises ValueError when a batch would have no data source.
    """
    cfg = settings.train
    f_net.set_requires_grad(False)
    calib = extract_calibration(train, settings.dataset.num_classes, settings.classes)
    n_cal, n_syn = batch_split(cfg, len(calib))

    if len(calib):
        stats, teacher_calib = per_image_bns(f_net, calib.images,
                                             cfg.batch_size if cfg.total_epochs else None)
    else:  # BN rejects an empty batch
        empty = tuple(np.zeros((0, l.channels), f_net.dtype) for l in f_net.bn_layers())
        stats = BnStats(empty, empty)
        teacher_calib = np.zeros((0, settings.dataset.num_classes), f_net.dtype)
    centroids = build_class_centroids(stats, calib.labels,
                                      deep_layer_start(f_net.bn_layer_count))

    q_net = f_net.copy()
    q_net.set_requires_grad(True)

    g_net = build_generator(
        settings.dataset.num_classes,
        out_shape=tuple(settings.dataset.image_size),
        seed=cfg.seed,
    ) if n_syn else None

    state = TrainState(
        settings=settings,
        g_net=g_net,
        q_net=q_net,
        f_net=f_net,
        running=collect_running_stats(f_net),
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
        teacher_calib=teacher_calib,
    )

    warmup_losses = warmup_generator(state) if g_net is not None else []

    if len(calib) > 0:
        calib_images = calib.images
    else:
        labels = sample_labels(settings.dataset.num_classes, cfg.batch_size,
                               state.rng_labels)
        with ad.no_grad():
            calib_images = generate(g_net, labels, state.rng_noise).data
    state.quant = calibrate_activation_bounds(f_net, calib_images, settings.policy)
    return state, warmup_losses


def run_fdda(settings: RunSettings, f_net: Network, train: LabeledImages,
             test: LabeledImages) -> tuple[ModelArchive, dict]:
    """Quantize the classifier ``f_net`` of the settings' dataset, whose splits
    are ``train`` and ``test``, and fine-tune it with synthetic plus
    calibration data; returns the last epoch's model with its quantizers and
    the run report. Raises ValueError when a batch would have no data source."""
    state, warmup_losses = start_run(settings, f_net, train)

    per_epoch = []
    for epoch in range(settings.train.total_epochs):
        entry = train_epoch(state, epoch)
        entry["acc"] = evaluate(state.q_net, test, quant=state.quant)
        per_epoch.append(entry)
    final_acc = per_epoch[-1]["acc"] if per_epoch else evaluate(state.q_net, test, quant=state.quant)

    report = {
        "config": settings.to_dict(),
        "per_epoch": per_epoch,
        "warmup_loss_first": warmup_losses[0] if warmup_losses else None,
        "warmup_loss_last": warmup_losses[-1] if warmup_losses else None,
        "final_acc": final_acc,
        "float_test_acc": evaluate(f_net, test),
        "available_classes": list(state.centroids.classes),
    }
    return ModelArchive(state.q_net, state.quant), report
