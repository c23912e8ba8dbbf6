"""Batch-normalization statistics (BNS) at three granularities and the one
taped loss built on them.

Every statistic is a reduction of one pair of per-sample moments.
:func:`sample_moments` takes a BN input to each sample's per-channel mean
and biased variance, both (N, C); those rows are the per-image statistics
(:func:`per_image_bns`) that the class centroids are built from.

The paper's three generator terms are one taped op, :func:`alignment_loss`,
a weighted sum of squared distances from pooled statistics to constant
targets: the batch statistics against the pre-trained running statistics
(BNS), the per-class statistics of the deep layers against their centroids
(centroid alignment), and the same against centroids plus fresh Gaussian
noise (distorted centroids). It stacks every layer's per-sample moments
along channels and pools them with one averaging matrix, a row for the
batch and a row per class, and writes its input gradients by hand.

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
from .network import EVAL_BATCH, Network, forward


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
# moments
# ---------------------------------------------------------------------------

def sample_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each sample's per-channel mean and biased variance of a BN input, both
    (N, C), and its deviations from that mean, (N, C, H*W). The input is
    (N, C, H, W) or (N, C); a dense sample is its own mean with zero
    variance. The moments reduce a C-contiguous (N, C, H*W) copy of a
    batch-innermost input, so each sample's statistics add in one order at
    any batch size."""
    n, c = x.shape[:2]
    flat = np.ascontiguousarray(x).reshape(n, c, -1)
    m = flat.mean(axis=2, keepdims=True)
    dev = flat - m
    return m.reshape(n, c), (dev * dev).mean(axis=2), dev


def per_image_bns(net: Network, images: np.ndarray,
                  rows: int | None = None) -> tuple[BnStats, np.ndarray]:
    """Each image's per-channel statistics at every BN layer input, and its
    logits: the one eval-mode pass over a set of images.

    ``images`` is an (N, C, H, W) stack with N >= 1. Each forward pass holds
    exactly ``rows`` images, the stack cycled to fill the last one; by
    default, the fewest rows that cover the stack in ceil(N / EVAL_BATCH)
    passes. Eval-mode BN treats every image on its own, so statistics row i
    equals, bit for bit, those of a forward pass over image i alone, and
    logits row i those of image i at any row of a pass of ``rows`` images.
    """
    images = np.asarray(images)
    n = len(images)
    if n == 0:
        raise ValueError("per-image statistics need at least one image")
    if rows is None:
        rows = math.ceil(n / math.ceil(n / EVAL_BATCH))
    moments, logits = [], []
    with ad.no_grad():
        for lo in range(0, n, rows):
            keep = min(rows, n - lo)
            cap = forward(net, Tensor(images[(lo + np.arange(rows)) % n]), train=False,
                          capture_bn=True)
            moments.append([sample_moments(x.data[:keep])[:2] for x in cap.bn_inputs])
            logits.append(cap.output.data[:keep])
    layers = list(zip(*moments))
    means = tuple(np.concatenate([m for m, _ in layer]) for layer in layers)
    variances = tuple(np.concatenate([v for _, v in layer]) for layer in layers)
    return BnStats(means, variances), np.concatenate(logits)


def build_class_centroids(stats: BnStats, labels: Sequence[int],
                          deep_start: int) -> ClassCentroids:
    """Per-class targets from the per-image statistics of the calibration set
    and its labels (one image per class, in class order, as
    :class:`ClassCentroids` requires): each centroid is that image's
    statistics at the deep layers."""
    deep = slice(deep_start - 1, None)
    return ClassCentroids(deep_start, tuple(int(c) for c in labels),
                          BnStats(stats.means[deep], stats.variances[deep]))


# ---------------------------------------------------------------------------
# the alignment loss
# ---------------------------------------------------------------------------

def alignment_loss(bn_inputs: Sequence[Tensor], labels: np.ndarray, running: BnStats,
                   centroids: ClassCentroids, distortion: DistortionParams,
                   rng: np.random.Generator, *, w_bns: float, w_cbns: float,
                   w_dbns: float) -> tuple[Tensor, dict[str, float]]:
    """The weighted sum of the three BN-statistics terms of a batch, as one
    taped op, and each term's unweighted value.

    ``bn_inputs`` are every BN layer's captured input, in layer order, and
    ``labels`` the batch's classes. Each term is a sum of squared L2
    distances from (mean, biased variance) statistics to constant targets,
    cast to the inputs' dtype:

    * ``bns``: the batch statistics of every layer against ``running``;
    * ``cbns``: the per-class statistics of the deep layers against the
      centroid rows, over the batch's classes that have a centroid;
    * ``dbns``: the same against the centroid rows plus fresh Gaussian noise
      (std ``mean_std`` for means, ``var_std`` for variances), drawn layer by
      layer: one matrix for the means, then one for the variances. Distorted
      variance targets may go negative; they are regression targets and are
      used as-is.

    A class's statistics are taken over all of its samples jointly (samples
    x spatial positions): as all samples of a layer have the same size, the
    parallel-variance identity pools their moments exactly, mean_k = avg m_i
    and var_k = avg(v_i + (m_i - mean_k)^2), averages over group k. A centroid
    term is computed only when its weight is nonzero and some class of the
    batch has a centroid; otherwise it is absent from the returned values and
    draws no noise. Each input's gradient is written in that input's memory
    layout.
    """
    if running.layer_count != len(bn_inputs):
        raise ValueError(f"layer count mismatch: {len(bn_inputs)} statistics vs "
                         f"{running.layer_count} targets")
    labels = np.asarray(labels)
    moments = [sample_moments(x.data) for x in bn_inputs]
    devs = [dev for _, _, dev in moments]
    m = np.concatenate([mo[0] for mo in moments], axis=1)  # (N, sum C_l)
    v = np.concatenate([mo[1] for mo in moments], axis=1)
    dtype = m.dtype

    # the averaging matrix: row 0 the batch, then one row per present class
    # that has a centroid, in class order
    present = np.intersect1d(centroids.classes, labels) if w_cbns or w_dbns else labels[:0]
    member = np.concatenate([np.ones((1, len(labels)), bool), labels == present[:, None]])
    avg = (member / member.sum(axis=1, keepdims=True)).astype(dtype)
    mean = avg @ m
    dev_b = m - mean[0]
    var_b = avg[0] @ (v + dev_b * dev_b)
    err_m = mean[0] - np.concatenate(running.means).astype(dtype)
    err_v = var_b - np.concatenate(running.variances).astype(dtype)
    terms = {"bns": (err_m * err_m).sum() + (err_v * err_v).sum()}
    total = w_bns * terms["bns"]

    if len(present):
        deep = sum(d.shape[1] for d in devs[:centroids.deep_start - 1])  # first deep column
        mean_c = mean[1:, deep:]
        # each sample's deviation from its class mean; a sample in no class
        # group weighs 0 in every class row
        dev_c = m[:, deep:] - member[1:].T.astype(dtype) @ mean_c
        var_c = avg[1:] @ (v[:, deep:] + dev_c * dev_c)
        rows = np.searchsorted(centroids.classes, present)
        cen_m = np.concatenate([c[rows] for c in centroids.stats.means], axis=1)
        cen_v = np.concatenate([c[rows] for c in centroids.stats.variances], axis=1)
        # each centroid term's weight and mean and variance targets
        targets = {}
        if w_cbns:
            targets["cbns"] = (w_cbns, cen_m, cen_v)
        if w_dbns:
            noise_m, noise_v = [], []
            for c in centroids.stats.means:
                noise_m.append(rng.normal(0.0, distortion.mean_std, size=(len(rows), c.shape[1])))
                noise_v.append(rng.normal(0.0, distortion.var_std, size=(len(rows), c.shape[1])))
            targets["dbns"] = (w_dbns, cen_m + np.concatenate(noise_m, axis=1),
                               cen_v + np.concatenate(noise_v, axis=1))
        # half the gradient of the centroid terms w.r.t. (mean_c, var_c)
        gm_c = np.zeros_like(mean_c)
        gv_c = np.zeros_like(var_c)
        for name, (weight, target_m, target_v) in targets.items():
            e_m, e_v = mean_c - target_m.astype(dtype), var_c - target_v.astype(dtype)
            terms[name] = (e_m * e_m).sum() + (e_v * e_v).sum()
            total = total + weight * terms[name]
            gm_c += weight * e_m
            gv_c += weight * e_v

    def bwd(g):
        scale = 2.0 * float(g)
        # the gradient w.r.t. each sample's moments, (N, sum C_l); the pooled
        # means' own gradient through the deviations sums to zero
        gv = np.outer(avg[0], scale * w_bns * err_v)
        gm = np.outer(avg[0], scale * w_bns * err_m) + 2 * dev_b * gv
        if len(present):
            gv_s = avg[1:].T @ (scale * gv_c)
            gm[:, deep:] += avg[1:].T @ (scale * gm_c) + 2 * dev_c * gv_s
            gv[:, deep:] += gv_s
        # the deviations become each layer's gradient in place, and each is
        # dropped once its layer's gradient is written
        grads, lo = [], 0
        for x in bn_inputs:
            dev = devs.pop(0)
            _, c, size = dev.shape
            hi = lo + c
            if x.requires_grad:
                dev *= gv[:, lo:hi, None] * (2.0 / size)
                dev += gm[:, lo:hi, None] / size
                gx = np.empty_like(x.data)  # in x's memory layout
                gx[...] = dev.reshape(x.shape)
                grads.append(gx)
            else:
                grads.append(None)
            lo = hi
        return grads

    out = ad.record_op(np.asarray(total, dtype=dtype), bn_inputs, bwd)
    return out, {k: float(t) for k, t in terms.items()}
