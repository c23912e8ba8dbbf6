"""Conditional image synthesis and the generator's composite training loss:
classification confidence plus coarse and fine-grained BN-statistics
alignment against a frozen pre-trained classifier."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .bns import BnStats, ClassCentroids, DistortionParams, alignment_loss
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


def generator_total_loss(
    images: Tensor,
    labels: np.ndarray,
    f_net: Network,
    running: BnStats,
    centroids: ClassCentroids,
    w: LossWeights,
    distortion: DistortionParams,
    rng: np.random.Generator,
) -> tuple[Tensor, dict[str, float], Tensor]:
    """One pass of the synthetic batch through the frozen classifier, scoring
    the weighted sum of classification and the BN-statistics terms
    (:func:`bns.alignment_loss`). Returns the total, each term's unweighted
    value and the classifier's logits for ``images`` from that pass.

    A centroid term is computed only when its weight is nonzero, and only over
    the batch's classes that have a centroid (it is absent when none has);
    gradients reach only the generator side because the classifier's
    parameters do not require gradients.
    """
    cap = forward(f_net, images, train=False, capture_bn=True)
    ce = ad.softmax_cross_entropy(cap.output, labels)
    align, terms = alignment_loss(cap.bn_inputs, labels, running, centroids, distortion, rng,
                                  w_bns=w.bns, w_cbns=w.cbns, w_dbns=w.dbns)
    return ce * w.ce + align, {"ce": float(ce.data), **terms}, cap.output
