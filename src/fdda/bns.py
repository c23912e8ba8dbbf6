"""Batch-normalization statistics at three granularities (whole-dataset
running, per-image, per-class centroid) and the alignment losses built on
them: coarse alignment to running stats, centroid alignment for deep layers,
and noise-distorted centroid alignment.

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
from .network import EVAL_BATCH, Network, forward

LayerStats = tuple[Tensor, Tensor]  # (mean, variance), each shape (C_l,)


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

    ``per_class[c]`` maps a 1-based layer index l (deep_start <= l <=
    layer_count) to that class's calibration-image (mean, variance) pair.
    """

    deep_start: int
    layer_count: int
    per_class: Mapping[int, Mapping[int, tuple[np.ndarray, np.ndarray]]]

    @property
    def available_classes(self) -> frozenset[int]:
        return frozenset(self.per_class)

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


def _image_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-image, per-channel mean and biased variance of a BN input; a dense
    (N, C) input is its own mean with zero variance."""
    if x.ndim == 2:
        return x, np.zeros_like(x)
    m = x.mean(axis=(2, 3), keepdims=True)
    centered = x - m
    return m[:, :, 0, 0], (centered * centered).mean(axis=(2, 3))


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
            chunks.append([_image_moments(x.data) for x in cap.bn_inputs])
    layers = list(zip(*chunks))
    means = tuple(np.concatenate([m for m, _ in layer]) for layer in layers)
    variances = tuple(np.concatenate([v for _, v in layer]) for layer in layers)
    return PerImageBns(means, variances)


def build_class_centroids(net: Network, calib, deep_start: int) -> ClassCentroids:
    """Per-class targets from the calibration set (``images`` and one label
    per image): each class's centroid is its single calibration image's
    statistics, restricted to deep layers."""
    layer_count = net.bn_layer_count
    labels = [int(c) for c in calib.labels]
    seen: set[int] = set()
    for label in labels:
        if label in seen:
            raise ValueError(f"duplicate class {label} in calibration set")
        seen.add(label)
    if not labels:  # BN rejects an empty batch
        return ClassCentroids(deep_start, layer_count, {})
    stats = per_image_bns(net, calib.images)
    per_class = {
        label: {
            l: (stats.means[l - 1][row], stats.variances[l - 1][row])
            for l in range(deep_start, layer_count + 1)
        }
        for row, label in enumerate(labels)
    }
    return ClassCentroids(deep_start, layer_count, per_class)


# ---------------------------------------------------------------------------
# batch statistics of synthetic batches
# ---------------------------------------------------------------------------

def per_class_bns(bn_inputs: Sequence[Tensor], labels: np.ndarray,
                  classes: Sequence[int], deep_start: int = 1,
                  ) -> dict[int, list[LayerStats | None]]:
    """Per-class batch statistics at each BN input for layers >= deep_start.

    For every requested class present in ``labels``, computes the mean and
    biased variance over all of that class's samples jointly (samples x
    spatial positions). Entries for layers below ``deep_start`` are None.
    Classes absent from the batch are omitted.
    """
    stacked = per_class_bns_stacked(bn_inputs, labels, classes, deep_start)
    return {} if stacked is None else stacked.as_map()


@dataclass
class StackedClassBns:
    """Per-class statistics packed as (n_classes, C_l) matrices per layer.

    Semantically identical to the per-class map from :func:`per_class_bns`
    (row i of each matrix is class ``classes[i]``) but far cheaper to score:
    one tape node per layer instead of one per class.
    """

    classes: tuple[int, ...]
    layers: list[tuple[Tensor, Tensor] | None]  # None below deep_start

    def as_map(self) -> dict[int, list[LayerStats | None]]:
        out: dict[int, list[LayerStats | None]] = {c: [] for c in self.classes}
        for entry in self.layers:
            for row, c in enumerate(self.classes):
                if entry is None:
                    out[c].append(None)
                else:
                    m2, v2 = entry
                    ch = m2.shape[1]
                    out[c].append((
                        ad.take(m2, np.array([row])).reshape((ch,)),
                        ad.take(v2, np.array([row])).reshape((ch,)),
                    ))
        return out


def per_class_bns_stacked(bn_inputs: Sequence[Tensor], labels: np.ndarray,
                          classes: Sequence[int], deep_start: int = 1,
                          ) -> StackedClassBns | None:
    """Stacked form of :func:`per_class_bns`; None when no class is present."""
    labels = np.asarray(labels)
    present = sorted({int(c) for c in classes} & {int(l) for l in labels})
    if not present:
        return None
    counts = np.array([(labels == c).sum() for c in present], dtype=np.float64)
    lab_rows = np.searchsorted(present, np.clip(labels, present[0], present[-1]))

    layers: list[tuple[Tensor, Tensor] | None] = []
    for layer_idx, t in enumerate(bn_inputs, start=1):
        if layer_idx < deep_start:
            layers.append(None)
            continue
        if t.ndim == 4:
            n, ch = t.shape[0], t.shape[1]
            spatial = t.shape[2] * t.shape[3]
            sums = t.sum(axis=(2, 3))
        else:
            n, ch = t.shape
            spatial = 1
            sums = t
        sel = np.zeros((len(present), n), dtype=t.dtype)
        for row, c in enumerate(present):
            sel[row, labels == c] = 1.0 / (counts[row] * spatial)
        sel_t = Tensor(sel)
        means = ad.matmul(sel_t, sums)
        per_sample_mean = ad.take(means, lab_rows)
        if t.ndim == 4:
            centered = t - per_sample_mean.reshape((n, ch, 1, 1))
            sq = (centered * centered).sum(axis=(2, 3))
        else:
            centered = t - per_sample_mean
            sq = centered * centered
        variances = ad.matmul(sel_t, sq)
        layers.append((means, variances))
    return StackedClassBns(tuple(present), layers)


# ---------------------------------------------------------------------------
# alignment losses
# ---------------------------------------------------------------------------

def _sq_dist(a: Tensor, target: np.ndarray) -> Tensor:
    return ad.sq_dist(a, target.astype(a.dtype))


def bns_loss(batch_stats: Sequence[LayerStats], running: BnRunningStats) -> Tensor:
    """Coarse alignment: sum over all layers of squared L2 distances between
    batch statistics and the pre-trained running statistics."""
    if len(batch_stats) != running.layer_count:
        raise ValueError(
            f"layer count mismatch: {len(batch_stats)} batch vs {running.layer_count} running"
        )
    total = None
    for (m, v), rm, rv in zip(batch_stats, running.means, running.variances):
        term = _sq_dist(m, rm) + _sq_dist(v, rv)
        total = term if total is None else total + term
    return total


def _centroid_terms(per_class_stats, centroids: ClassCentroids, noise=None):
    """Per-class alignment terms over deep layers; ``noise`` optionally maps
    (class, layer) to (mean_noise, var_noise) arrays added to the targets."""
    terms: dict[int, Tensor] = {}
    for c in sorted(per_class_stats):
        if c not in centroids.per_class:
            continue
        stats = per_class_stats[c]
        term = None
        for l in centroids.deep_layers():
            entry = stats[l - 1]
            if entry is None:
                raise ValueError(f"class {c} missing statistics for deep layer {l}")
            m, v = entry
            tm, tv = centroids.per_class[c][l]
            if noise is not None:
                nm, nv = noise[(c, l)]
                tm, tv = tm + nm, tv + nv
            contrib = _sq_dist(m, tm) + _sq_dist(v, tv)
            term = contrib if term is None else term + contrib
        terms[c] = term
    return terms


def _stacked_centroid_loss(stacked: StackedClassBns, centroids: ClassCentroids,
                           noise=None) -> Tensor:
    total = None
    for l in centroids.deep_layers():
        entry = stacked.layers[l - 1]
        if entry is None:
            raise ValueError(f"missing statistics for deep layer {l}")
        m2, v2 = entry
        tm = np.stack([centroids.per_class[c][l][0] for c in stacked.classes])
        tv = np.stack([centroids.per_class[c][l][1] for c in stacked.classes])
        if noise is not None:
            tm = tm + np.stack([noise[(c, l)][0] for c in stacked.classes])
            tv = tv + np.stack([noise[(c, l)][1] for c in stacked.classes])
        contrib = _sq_dist(m2, tm) + _sq_dist(v2, tv)
        total = contrib if total is None else total + contrib
    return total


def _draw_noise(classes, centroids: ClassCentroids, distortion: DistortionParams,
                rng: np.random.Generator) -> dict:
    """Fresh per-(class, layer) target noise, drawn in a fixed order."""
    noise = {}
    for c in sorted(classes):
        if c not in centroids.per_class:
            continue
        for l in centroids.deep_layers():
            tm, tv = centroids.per_class[c][l]
            noise[(c, l)] = (
                rng.normal(0.0, distortion.mean_std, size=tm.shape),
                rng.normal(0.0, distortion.var_std, size=tv.shape),
            )
    return noise


def _zero_scalar() -> Tensor:
    return Tensor(np.zeros((), dtype=np.float32))


def _sum_terms(terms: dict[int, Tensor]) -> Tensor:
    if not terms:
        return _zero_scalar()
    total = None
    for c in sorted(terms):
        total = terms[c] if total is None else total + terms[c]
    return total


def cbns_loss(per_class_stats, centroids: ClassCentroids) -> Tensor:
    """Centroid alignment over deep layers; classes without a centroid are
    skipped silently. Accepts the per-class map or the stacked form."""
    if isinstance(per_class_stats, StackedClassBns):
        if set(per_class_stats.classes) <= set(centroids.per_class):
            return _stacked_centroid_loss(per_class_stats, centroids)
        per_class_stats = per_class_stats.as_map()
    return _sum_terms(_centroid_terms(per_class_stats, centroids))


def dbns_loss(per_class_stats, centroids: ClassCentroids,
              distortion: DistortionParams, rng: np.random.Generator) -> Tensor:
    """Centroid alignment against noise-distorted targets.

    Each centroid entry is perturbed elementwise with fresh Gaussian noise on
    every call (std ``mean_std`` for means, ``var_std`` for variances); the
    distorted targets carry no gradient. Distorted variance targets may go
    negative; they are regression targets, not normalizers, and are used
    as-is. Accepts the per-class map or the stacked form.
    """
    if isinstance(per_class_stats, StackedClassBns):
        noise = _draw_noise(per_class_stats.classes, centroids, distortion, rng)
        if set(per_class_stats.classes) <= set(centroids.per_class):
            return _stacked_centroid_loss(per_class_stats, centroids, noise=noise)
        per_class_stats = per_class_stats.as_map()
    else:
        noise = _draw_noise(per_class_stats, centroids, distortion, rng)
    terms = _centroid_terms(per_class_stats, centroids, noise=noise)
    return _sum_terms(terms)
