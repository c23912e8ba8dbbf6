"""Batch-normalization statistics (BNS) at three granularities and the
alignment losses built on them: coarse alignment of a synthetic batch to the
pre-trained running statistics, centroid alignment of its per-class
statistics in the deep layers, and noise-distorted centroid alignment.

Every statistic is a reduction of one pair of per-sample moments.
:func:`sample_moments` takes a captured BN input to each sample's
per-channel mean and biased variance, both (N, C), on the tape; those rows
are the per-image statistics (:func:`per_image_bns`) that the class
centroids are built from. :func:`group_moments` pools the rows of a group of
samples: one group gives the batch statistics of the coarse loss, one group
per class the per-class statistics (:func:`per_class_bns_stacked`) that both
centroid losses score.

Layers are 1-indexed; variances are biased (population) everywhere so the
three granularities compare directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import CalibrationSet
from .network import EVAL_BATCH, Network, forward

Moments = tuple[Tensor, Tensor]  # (mean, variance) rows, each (rows, C_l)


@dataclass(frozen=True)
class BnRunningStats:
    """Snapshot of every BN layer's running mean/variance, in layer order."""

    means: tuple[np.ndarray, ...]
    variances: tuple[np.ndarray, ...]

    @property
    def layer_count(self) -> int:
        return len(self.means)


@dataclass(frozen=True)
class PerImageBns:
    """Per-channel mean/variance at each BN layer input of N images: the
    arrays of layer l are (N, C_l), row i belongs to image i."""

    means: tuple[np.ndarray, ...]
    variances: tuple[np.ndarray, ...]

    @property
    def layer_count(self) -> int:
        return len(self.means)


@dataclass(frozen=True)
class DistortionParams:
    """Std deviations of the Gaussian noise applied to centroid targets."""

    mean_std: float = 0.5
    var_std: float = 1.0

    def __post_init__(self):
        if self.mean_std < 0 or self.var_std < 0:
            raise ValueError("distortion stds must be >= 0")


@dataclass(frozen=True)
class ClassCentroids:
    """Per-class BN-statistics targets for layers deep_start..layer_count.

    ``classes`` is strictly increasing. For each deep layer l, ``means[l]``
    and ``variances[l]`` are (len(classes), C_l) matrices whose row i is
    the centroid of class ``classes[i]``.
    """

    deep_start: int
    layer_count: int
    classes: tuple[int, ...]
    means: Mapping[int, np.ndarray]
    variances: Mapping[int, np.ndarray]

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.classes, self.classes[1:])):
            raise ValueError(f"centroid classes {list(self.classes)} are not sorted and unique")

    @property
    def available_classes(self) -> frozenset[int]:
        return frozenset(self.classes)

    def deep_layers(self) -> range:
        return range(self.deep_start, self.layer_count + 1)


def deep_layer_start(layer_count: int) -> int:
    """First layer treated as deep: ceil(L/2) - 2, clamped to at least 1."""
    if layer_count < 1:
        raise ValueError("layer_count must be >= 1")
    return max(1, math.ceil(layer_count / 2) - 2)


def collect_running_stats(net: Network) -> BnRunningStats:
    """Copy the running mean/variance of every BN layer, in order."""
    bn = net.bn_layers()
    if not bn:
        raise ValueError("network has no batch-norm layers")
    means = tuple(net.buffers[f"{l.name}.running_mean"].copy() for l in bn)
    variances = tuple(net.buffers[f"{l.name}.running_var"].copy() for l in bn)
    return BnRunningStats(means, variances)


# ---------------------------------------------------------------------------
# moments and their reductions
# ---------------------------------------------------------------------------

def sample_moments(x: Tensor) -> Moments:
    """Each sample's per-channel mean and biased variance of a captured BN
    input, both (N, C) and on the tape. The input is (N, C, H, W) or (N, C);
    a dense sample is its own mean with zero variance."""
    n, c = x.shape[:2]
    flat = x.reshape((n, c, -1))
    m = flat.mean(axis=2, keepdims=True)
    centered = flat - m
    return m.reshape((n, c)), (centered * centered).mean(axis=2)


def group_moments(m: Tensor, v: Tensor, groups: np.ndarray, k: int) -> Moments:
    """Mean and biased variance of each of k groups of samples, both (k, C).

    ``m`` and ``v`` are per-sample moments from :func:`sample_moments`.
    Sample i belongs to group ``groups[i]``, or to none if that is negative;
    every group needs a sample. As all samples of a layer have the same
    size, the parallel-variance identity pools them exactly: mean_k = avg m_i
    and var_k = avg(v_i + (m_i - mean_k)^2), averages over group k.
    """
    member = groups == np.arange(k)[:, None]
    avg = Tensor((member / member.sum(axis=1, keepdims=True)).astype(m.dtype))
    mean = ad.matmul(avg, m)
    dev = m - ad.take(mean, np.maximum(groups, 0))  # a row in no group weighs 0
    return mean, ad.matmul(avg, v + dev * dev)


def per_image_bns(net: Network, images: np.ndarray) -> PerImageBns:
    """Each image's per-channel statistics at every BN layer input.

    ``images`` is an (N, C, H, W) stack with N >= 1. The statistics come
    from eval-mode forward passes over chunks of at most ``EVAL_BATCH``
    images; eval-mode BN treats every image on its own, so row i equals,
    bit for bit, the statistics of a forward pass over image i alone.
    """
    images = np.asarray(images)
    if len(images) == 0:
        raise ValueError("per-image statistics need at least one image")
    chunks = []
    with ad.no_grad():
        for lo in range(0, len(images), EVAL_BATCH):
            cap = forward(net, Tensor(images[lo : lo + EVAL_BATCH]), train=False,
                          capture_bn=True)
            chunks.append([sample_moments(x) for x in cap.bn_inputs])
    layers = list(zip(*chunks))
    means = tuple(np.concatenate([m.data for m, _ in layer]) for layer in layers)
    variances = tuple(np.concatenate([v.data for _, v in layer]) for layer in layers)
    return PerImageBns(means, variances)


def build_class_centroids(net: Network, calib: CalibrationSet,
                          deep_start: int) -> ClassCentroids:
    """Per-class targets from the calibration set, which holds one image per
    class: each class's centroid is that image's statistics, restricted to
    deep layers."""
    layer_count = net.bn_layer_count
    order = np.argsort(calib.labels)
    if len(order):
        stats = per_image_bns(net, calib.images)
        means = [m[order] for m in stats.means]
        variances = [v[order] for v in stats.variances]
    else:  # BN rejects an empty batch
        means = variances = [np.zeros((0, l.channels), net.dtype) for l in net.bn_layers()]
    deep = range(deep_start, layer_count + 1)
    return ClassCentroids(deep_start, layer_count, tuple(int(c) for c in calib.labels[order]),
                          {l: means[l - 1] for l in deep}, {l: variances[l - 1] for l in deep})


@dataclass
class StackedClassBns:
    """Per-class batch statistics packed as (n_classes, C_l) matrices: row i
    of each matrix is class ``classes[i]``, and ``layers`` maps each deep
    layer l to its (means, variances) pair."""

    classes: tuple[int, ...]
    layers: dict[int, Moments]


def per_class_bns_stacked(moments: Sequence[Moments], labels: np.ndarray,
                          centroids: ClassCentroids) -> StackedClassBns | None:
    """Per-class batch statistics of the deep layers, from every layer's
    per-sample moments.

    Covers every class that is in ``labels`` and has a centroid; each class's
    mean and biased variance are taken over all of its samples jointly
    (samples x spatial positions). Returns None when no such class exists.
    """
    labels = np.asarray(labels)
    present = np.intersect1d(centroids.classes, labels)
    if not len(present):
        return None
    groups = np.searchsorted(present, labels)
    groups[~np.isin(labels, present)] = -1  # no centroid: in no group
    layers = {l: group_moments(*moments[l - 1], groups, len(present))
              for l in centroids.deep_layers()}
    return StackedClassBns(tuple(int(c) for c in present), layers)


# ---------------------------------------------------------------------------
# alignment losses
# ---------------------------------------------------------------------------

def _sq_dist(a: Tensor, target: np.ndarray) -> Tensor:
    return ad.sq_dist(a, target.astype(a.dtype))


def bns_loss(batch_stats: Sequence[Moments], running: BnRunningStats) -> Tensor:
    """Coarse alignment: sum over all layers of squared L2 distances between
    batch statistics, each (C_l,) or (1, C_l), and the pre-trained running
    statistics."""
    if len(batch_stats) != running.layer_count:
        raise ValueError(
            f"layer count mismatch: {len(batch_stats)} batch vs {running.layer_count} running"
        )
    total = None
    for (m, v), rm, rv in zip(batch_stats, running.means, running.variances):
        term = _sq_dist(m, rm) + _sq_dist(v, rv)
        total = term if total is None else total + term
    return total


def _centroid_loss(stacked: StackedClassBns, centroids: ClassCentroids,
                   noise=None) -> Tensor:
    """Sum over deep layers and classes of squared distances to the centroids;
    ``noise`` optionally maps a layer to (mean, variance) offset matrices
    added to its targets."""
    rows = np.searchsorted(centroids.classes, stacked.classes)
    total = None
    for l, (m, v) in stacked.layers.items():
        tm, tv = centroids.means[l][rows], centroids.variances[l][rows]
        if noise is not None:
            tm, tv = tm + noise[l][0], tv + noise[l][1]
        contrib = _sq_dist(m, tm) + _sq_dist(v, tv)
        total = contrib if total is None else total + contrib
    return total


def cbns_loss(stacked: StackedClassBns, centroids: ClassCentroids) -> Tensor:
    """Centroid alignment over the deep layers of the stacked classes."""
    return _centroid_loss(stacked, centroids)


def dbns_loss(stacked: StackedClassBns, centroids: ClassCentroids,
              distortion: DistortionParams, rng: np.random.Generator) -> Tensor:
    """Centroid alignment against noise-distorted targets.

    Each centroid entry is perturbed elementwise with fresh Gaussian noise on
    every call (std ``mean_std`` for means, ``var_std`` for variances),
    drawn layer by layer as one (classes, C_l) matrix for the means, then one
    for the variances; the distorted targets carry no gradient. Distorted
    variance targets may go negative; they are regression targets, not
    normalizers, and are used as-is.
    """
    noise = {
        l: (rng.normal(0.0, distortion.mean_std, size=m.shape),
            rng.normal(0.0, distortion.var_std, size=v.shape))
        for l, (m, v) in stacked.layers.items()
    }
    return _centroid_loss(stacked, centroids, noise=noise)
