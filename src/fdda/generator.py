"""Conditional image synthesis and the generator's composite training loss:
classification confidence plus coarse and fine-grained BN-statistics
alignment against a frozen pre-trained classifier."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .bns import (
    BnStats,
    ClassCentroids,
    DistortionParams,
    alignment_loss,
    distort,
    group_moments,
    per_class_moments,
    sample_moments,
)
from .network import Network, forward


@dataclass(frozen=True)
class LossWeights:
    """Trade-off weights of the two composite losses: the generator combines
    classification, coarse-alignment, distorted-centroid, and centroid terms;
    the quantized model combines classification with distillation."""

    ce: float = 0.5
    bns: float = 0.2
    dbns: float = 0.9
    cbns: float = 0.05
    kd: float = 20.0

    def __post_init__(self):
        for name in ("ce", "bns", "dbns", "cbns", "kd"):
            if getattr(self, name) < 0:
                raise ValueError(f"loss weight {name} must be >= 0")


def sample_labels(num_classes: int, batch: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform class labels; when the batch is at least one per class,
    stratified so every class appears at least once."""
    if batch >= num_classes:
        labels = np.concatenate([
            np.arange(num_classes),
            rng.integers(0, num_classes, size=batch - num_classes),
        ])
        return rng.permutation(labels).astype(np.int64)
    return rng.integers(0, num_classes, size=batch).astype(np.int64)


def generate(g: Network, labels: np.ndarray, rng: np.random.Generator) -> Tensor:
    """Synthesize one image per label from standard-normal noise.

    The noise vector is gated by the label embedding before the dense stem;
    BN layers normalize with the current batch and their running buffers go
    unread, so the output is a pure function of (parameters, labels, rng draws).
    """
    labels = np.asarray(labels)
    num_classes = g.meta["num_classes"]
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"label out of range [0, {num_classes})")
    z = rng.standard_normal((len(labels), g.meta["noise_dim"])).astype(np.float32)
    emb = ad.take(g.params["embed.w"], labels)
    x = emb * Tensor(z)
    return forward(g, x, train=True).output


def combine_generator_loss(parts: dict[str, Tensor], w: LossWeights) -> Tensor:
    """Weighted sum of the generator terms; an absent centroid term adds 0."""
    total = parts["ce"] * w.ce + parts["bns"] * w.bns
    if "dbns" in parts:
        total = total + parts["dbns"] * w.dbns
    if "cbns" in parts:
        total = total + parts["cbns"] * w.cbns
    return total


def generator_total_loss(
    images: Tensor,
    labels: np.ndarray,
    f_net: Network,
    running: BnStats,
    centroids: ClassCentroids,
    w: LossWeights,
    distortion: DistortionParams,
    rng: np.random.Generator,
) -> tuple[Tensor, dict[str, Tensor], Tensor]:
    """One pass of the synthetic batch through the frozen classifier, scoring
    Eq-style weighted sum of classification + alignment terms. Returns the
    total, its parts and the classifier's logits for ``images`` from that pass.

    A centroid term is computed only when its weight is nonzero, and only over
    the batch's classes that have a centroid (it is absent when none has);
    gradients reach only the generator side because the classifier's
    parameters do not require gradients.
    """
    cap = forward(f_net, images, train=False, capture_bn=True)
    # every statistic is a reduction of one pair of per-sample moments per
    # layer, taped after the forward pass: backward sums the alignment terms'
    # gradients into the moments, then adds theirs into each BN input before
    # BN's own gradient; seeded reports depend on that order of sums
    moments = [sample_moments(x) for x in cap.bn_inputs]
    whole_batch = np.zeros(len(labels), dtype=np.intp)
    parts = {
        "ce": ad.softmax_cross_entropy(cap.output, labels),
        "bns": alignment_loss([group_moments(m, v, whole_batch, 1) for m, v in moments],
                              running),
    }
    if w.cbns or w.dbns:
        per_class = per_class_moments(moments, labels, centroids)
        if per_class is not None:
            stats, targets = per_class
            if w.cbns:
                parts["cbns"] = alignment_loss(stats, targets)
            if w.dbns:
                parts["dbns"] = alignment_loss(stats, distort(targets, distortion, rng))
    return combine_generator_loss(parts, w), parts, cap.output
