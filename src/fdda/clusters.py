"""Silhouette-coefficient diagnostics over per-image BN statistics, plus raw
CSV export of the underlying vectors for external plotting."""

from __future__ import annotations

import csv
from typing import Sequence

import numpy as np

from .bns import BnStats


def _distances(vectors: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix, one channel's squared differences at a time,
    so memory stays at a few (n, n) buffers whatever the channel count."""
    n = len(vectors)
    sq = np.zeros((n, n))
    diff = np.empty((n, n))
    # unit-stride columns, so each outer difference runs contiguous loops
    for col in np.ascontiguousarray(vectors.T):
        np.subtract.outer(col, col, out=diff)
        diff *= diff
        sq += diff
    return np.sqrt(sq, out=sq)


def silhouette_values(vectors: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Silhouette value (b - a) / max(a, b) per row, clusters given by
    integer labels.

    ``a`` is a row's mean Euclidean distance to the other members of its
    cluster; ``b`` is its smallest mean distance to another cluster. A row
    alone in its cluster, and a row with a = b = 0, score 0.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    classes, cluster, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    if len(classes) < 2:
        raise ValueError("silhouette needs at least two clusters")
    dist = _distances(vectors)
    # summed distance from every row to every cluster, one cluster at a time
    sums = np.stack([dist[:, cluster == k].sum(axis=1) for k in range(len(classes))], axis=1)
    rows = np.arange(len(vectors))
    own_size = sizes[cluster]
    a = sums[rows, cluster] / np.maximum(own_size - 1, 1)  # the row itself adds 0
    to_other = sums / sizes
    to_other[rows, cluster] = np.inf
    b = to_other.min(axis=1)
    denom = np.maximum(a, b)
    out = np.zeros(len(vectors))
    np.divide(b - a, denom, out=out, where=(own_size > 1) & (denom != 0.0))
    return out


def mean_silhouette_per_layer(rows: Sequence[np.ndarray], labels: np.ndarray) -> np.ndarray:
    """Average silhouette over all samples, one value per layer; ``rows``
    holds one (N, C_l) matrix per layer, row i belonging to ``labels[i]``."""
    if len(np.unique(labels)) < 2:
        raise ValueError("silhouette needs at least two classes")
    return np.array([silhouette_values(r, labels).mean() for r in rows])


def export_bns_csv(stats: BnStats, labels: np.ndarray, layer: int, path) -> None:
    """Write one layer's raw per-image statistics as CSV.

    Header is ``label,stat,c0,c1,...``; each image contributes a 'mean' row
    and a 'variance' row.
    """
    if not 1 <= layer <= stats.layer_count:
        raise ValueError(f"layer {layer} out of range 1..{stats.layer_count}")
    means, variances = stats.means[layer - 1], stats.variances[layer - 1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "stat"] + [f"c{i}" for i in range(means.shape[1])])
        for i, label in enumerate(labels):
            writer.writerow([int(label), "mean"] + [f"{x:.6g}" for x in means[i]])
            writer.writerow([int(label), "variance"] + [f"{x:.6g}" for x in variances[i]])
