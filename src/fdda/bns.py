"""Batch-normalization statistics (BNS) at three granularities and the one
alignment loss built on them.

Every statistic is a reduction of one pair of per-sample moments.
:func:`sample_moments` takes a captured BN input to each sample's
per-channel mean and biased variance, both (N, C), on the tape; those rows
are the per-image statistics (:func:`per_image_bns`) that the class
centroids are built from. :func:`group_moments` pools the rows of a group of
samples: one group gives the batch statistics, one group per class the
per-class statistics of the deep layers (:func:`per_class_moments`).

The paper's three generator terms are one loss, :func:`alignment_loss`, a
sum of squared distances from statistics to constant targets: the batch
statistics against the pre-trained running statistics (BNS), the per-class
statistics against their centroids (centroid alignment), and the same
against centroids plus fresh Gaussian noise (:func:`distort`).

Layers are 1-indexed; variances are biased (population) everywhere so the
three granularities compare directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import CalibrationSet
from .network import EVAL_BATCH, Network, forward

Moments = tuple[Tensor, Tensor]  # (mean, variance) rows, each (rows, C_l)


@dataclass(frozen=True)
class BnStats:
    """Per-channel mean and variance of a run of BN layers, in layer order:
    a layer's arrays are (C_l,) for the running buffers and (N, C_l) for N
    images or N classes' centroid rows, row i belonging to the i-th."""

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
    """Per-class BN-statistics targets for the deep layers, deep_start..L.

    ``classes`` is strictly increasing. ``stats`` holds, for each deep layer
    in order, a (len(classes), C_l) mean and variance matrix whose row i is
    the centroid of class ``classes[i]``.
    """

    deep_start: int
    classes: tuple[int, ...]
    stats: BnStats

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.classes, self.classes[1:])):
            raise ValueError(f"centroid classes {list(self.classes)} are not sorted and unique")


def deep_layer_start(layer_count: int) -> int:
    """First layer treated as deep: ceil(L/2) - 2, clamped to at least 1."""
    if layer_count < 1:
        raise ValueError("layer_count must be >= 1")
    return max(1, math.ceil(layer_count / 2) - 2)


def collect_running_stats(net: Network) -> BnStats:
    """Copy the running mean/variance of every BN layer, in order."""
    bn = net.bn_layers()
    if not bn:
        raise ValueError("network has no batch-norm layers")
    means = tuple(net.buffers[f"{l.name}.running_mean"].copy() for l in bn)
    variances = tuple(net.buffers[f"{l.name}.running_var"].copy() for l in bn)
    return BnStats(means, variances)


# ---------------------------------------------------------------------------
# moments and their reductions
# ---------------------------------------------------------------------------

def sample_moments(x: Tensor) -> Moments:
    """Each sample's per-channel mean and biased variance of a captured BN
    input, both (N, C) and on the tape. The input is (N, C, H, W) or (N, C);
    a dense sample is its own mean with zero variance. The moments reduce a
    C-contiguous (N, C, H*W) copy of a batch-innermost input, so each
    sample's statistics add in one order at any batch size."""
    n, c = x.shape[:2]
    flat = x.reshape((n, c, -1))
    m = flat.mean(axis=2, keepdims=True)
    return m.reshape((n, c)), ad.mean_square(flat - m, axis=2)


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


def per_image_bns(net: Network, images: np.ndarray) -> BnStats:
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
    return BnStats(means, variances)


def build_class_centroids(net: Network, calib: CalibrationSet,
                          deep_start: int) -> ClassCentroids:
    """Per-class targets from the calibration set (one image per class, in
    class order): each centroid is that image's statistics at deep layers."""
    if len(calib):
        stats = per_image_bns(net, calib.images)
        means, variances = stats.means, stats.variances
    else:  # BN rejects an empty batch
        means = variances = tuple(np.zeros((0, l.channels), net.dtype) for l in net.bn_layers())
    deep = slice(deep_start - 1, None)
    return ClassCentroids(deep_start, tuple(int(c) for c in calib.labels),
                          BnStats(means[deep], variances[deep]))


def per_class_moments(moments: Sequence[Moments], labels: np.ndarray,
                      centroids: ClassCentroids) -> tuple[list[Moments], BnStats] | None:
    """Per-class statistics of the deep layers, from every layer's per-sample
    moments, with their centroid rows as targets.

    Covers every class that is in ``labels`` and has a centroid, in class
    order; each class's mean and biased variance are taken over all of its
    samples jointly (samples x spatial positions). Returns None when no such
    class exists.
    """
    labels = np.asarray(labels)
    present = np.intersect1d(centroids.classes, labels)
    if not len(present):
        return None
    groups = np.searchsorted(present, labels)
    groups[~np.isin(labels, present)] = -1  # without a centroid, in no group
    stats = [group_moments(m, v, groups, len(present))
             for m, v in moments[centroids.deep_start - 1:]]
    rows = np.searchsorted(centroids.classes, present)
    cen = centroids.stats
    return stats, BnStats(tuple(m[rows] for m in cen.means), tuple(v[rows] for v in cen.variances))


# ---------------------------------------------------------------------------
# the alignment loss
# ---------------------------------------------------------------------------

def alignment_loss(stats: Sequence[Moments], targets: BnStats) -> Tensor:
    """Sum over layers of squared L2 distances from (mean, variance)
    statistics to constant targets of the same layer; the targets are cast
    to the statistics' dtype and carry no gradient."""
    if len(stats) != targets.layer_count:
        raise ValueError(
            f"layer count mismatch: {len(stats)} statistics vs {targets.layer_count} targets"
        )
    total = None
    for (m, v), tm, tv in zip(stats, targets.means, targets.variances):
        term = ad.sq_dist(m, tm.astype(m.dtype)) + ad.sq_dist(v, tv.astype(v.dtype))
        total = term if total is None else total + term
    return total


def distort(targets: BnStats, distortion: DistortionParams,
            rng: np.random.Generator) -> BnStats:
    """Targets plus fresh elementwise Gaussian noise (std ``mean_std`` for
    means, ``var_std`` for variances), drawn layer by layer: one matrix for
    the means, then one for the variances.

    The float64 noise is added before :func:`alignment_loss` casts the
    targets. Distorted variance targets may go negative; they are regression
    targets, not normalizers, and are used as-is.
    """
    means, variances = [], []
    for tm, tv in zip(targets.means, targets.variances):
        means.append(tm + rng.normal(0.0, distortion.mean_std, size=tm.shape))
        variances.append(tv + rng.normal(0.0, distortion.var_std, size=tv.shape))
    return BnStats(tuple(means), tuple(variances))
