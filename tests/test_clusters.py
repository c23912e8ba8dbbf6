"""Silhouette diagnostics: hand-worked values, a pure-Python brute-force
oracle, metric invariances, the memory bound, and the CSV export contract."""

import csv
import math
import tracemalloc

import numpy as np
import pytest

from fdda.bns import PerImageBns
from fdda.clusters import (
    LabeledBnsDataset,
    export_bns_csv,
    mean_silhouette_per_layer,
    silhouette_values,
)


# ---------------------------------------------------------------------------
# brute-force oracle (independent of the numpy implementation)
# ---------------------------------------------------------------------------

def brute_silhouette(vectors, labels):
    """O(n^2) silhouette per sample, plain Python floats."""
    n = len(vectors)
    out = []
    for i in range(n):
        same = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not same:
            out.append(0.0)
            continue
        a = sum(math.dist(vectors[i], vectors[j]) for j in same) / len(same)
        b = math.inf
        for c in set(labels):
            if c == labels[i]:
                continue
            members = [j for j in range(n) if labels[j] == c]
            b = min(b, sum(math.dist(vectors[i], vectors[j]) for j in members) / len(members))
        denom = max(a, b)
        out.append(0.0 if denom == 0 else (b - a) / denom)
    return out


# ---------------------------------------------------------------------------
# silhouette_values
# ---------------------------------------------------------------------------

def test_silhouette_hand_example():
    a_cluster = np.array([[0.0], [0.1]])
    b_cluster = np.array([[10.0], [10.1]])
    sc = silhouette_values(np.vstack([a_cluster, b_cluster]), [0, 0, 1, 1])[0]
    assert sc == pytest.approx((10.05 - 0.1) / 10.05)
    assert sc == pytest.approx(0.99005, abs=1e-5)


def test_silhouette_equal_distances_is_zero():
    own = np.array([[0.0], [2.0]])
    other = np.array([[4.0], [0.0]])  # b = (4 + 0)/2 = 2 = a
    assert silhouette_values(np.vstack([own, other]), [0, 0, 1, 1])[0] == pytest.approx(0.0)


def test_silhouette_negative_when_inside_other_cluster():
    # 4-point configuration; verified by the brute-force oracle
    vectors = [[0.0], [10.0], [10.2], [0.4]]
    labels = [0, 0, 1, 1]
    brute = brute_silhouette(vectors, labels)
    assert brute[0] < 0  # point 0 sits on top of cluster 1's member at 0.4
    assert silhouette_values(np.array(vectors), labels)[0] == pytest.approx(brute[0], abs=1e-9)


def test_silhouette_singleton_cluster_is_zero():
    assert silhouette_values(np.array([[1.0], [2.0]]), [0, 1])[0] == 0.0


def test_silhouette_requires_other_cluster():
    with pytest.raises(ValueError):
        silhouette_values(np.array([[1.0], [2.0]]), [0, 0])


def test_silhouette_coincident_cluster_is_zero_without_warnings():
    # a = b = 0: the 0/0 case scores 0 (warnings are errors in this suite)
    vals = silhouette_values(np.zeros((4, 2)), [0, 0, 1, 1])
    np.testing.assert_array_equal(vals, 0.0)


def test_silhouette_matches_brute_force_unequal_classes_with_singleton():
    rng = np.random.default_rng(9)
    sizes = [1, 7, 30, 50, 112]  # n = 200, one singleton class
    labels = np.repeat(np.arange(len(sizes)), sizes)
    rng.shuffle(labels)
    x = rng.normal(size=(len(labels), 6)) + labels[:, None] * 0.3
    vals = silhouette_values(x, labels)
    np.testing.assert_allclose(vals, brute_silhouette(x.tolist(), labels.tolist()), atol=1e-9)
    assert vals[labels == 0] == 0.0


def test_silhouette_memory_stays_small():
    # n = 320 images x 32 channels: an (n, n, C) float64 temporary alone is 26 MB
    rng = np.random.default_rng(10)
    x = rng.normal(size=(320, 32)).astype(np.float32)
    labels = np.repeat(np.arange(8), 40)
    tracemalloc.start()
    try:
        silhouette_values(x, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_silhouette_range_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = rng.normal(size=(12, 3))
        labels = rng.integers(0, 3, size=12)
        if len(np.unique(labels)) < 2:
            continue
        vals = silhouette_values(x, labels)
        assert np.all(vals >= -1.0 - 1e-12) and np.all(vals <= 1.0 + 1e-12)


def test_silhouette_matches_brute_force_random_instances():
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.normal(size=(20, 4))
        labels = np.array([i % 3 for i in range(20)])
        rng.shuffle(labels)
        vals = silhouette_values(x, labels)
        brute = brute_silhouette(x.tolist(), labels.tolist())
        np.testing.assert_allclose(vals, brute, atol=1e-9)


def test_silhouette_translation_and_scale_invariance():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(15, 3))
    labels = np.array([i % 3 for i in range(15)])
    base = silhouette_values(x, labels)
    shifted = silhouette_values(x + 7.3, labels)
    scaled = silhouette_values(x * 42.0, labels)
    np.testing.assert_allclose(base, shifted, atol=1e-6)
    np.testing.assert_allclose(base, scaled, atol=1e-6)


# ---------------------------------------------------------------------------
# per-layer averaging
# ---------------------------------------------------------------------------

def _fake_dataset(layer_vectors, labels):
    """layer_vectors: list over layers of (n, C_l) arrays."""
    stats = PerImageBns(
        tuple(lv.astype(np.float32) for lv in layer_vectors),
        tuple(np.abs(lv).astype(np.float32) for lv in layer_vectors),
    )
    return LabeledBnsDataset(stats, np.array(labels, dtype=np.int64))


def test_dataset_rows_must_match_labels():
    stats = PerImageBns((np.zeros((3, 2), np.float32),), (np.zeros((3, 2), np.float32),))
    with pytest.raises(ValueError):
        LabeledBnsDataset(stats, np.array([0, 1]))


def test_mean_silhouette_overlapping_classes_near_zero():
    rng = np.random.default_rng(3)
    shared = rng.normal(size=(20, 4))
    ds = _fake_dataset([shared], labels=[i % 2 for i in range(20)])
    sc = mean_silhouette_per_layer(ds, "mean")
    assert len(sc) == 1
    assert abs(sc[0]) < 0.25


def test_mean_silhouette_separated_classes_near_one():
    rng = np.random.default_rng(4)
    x = rng.normal(scale=0.01, size=(20, 4))
    x[10:] += 50.0
    ds = _fake_dataset([x], labels=[0] * 10 + [1] * 10)
    sc = mean_silhouette_per_layer(ds, "mean")
    assert sc[0] > 0.95


def test_mean_silhouette_output_length_is_layer_count():
    rng = np.random.default_rng(5)
    layers = [rng.normal(size=(12, 3)), rng.normal(size=(12, 5)), rng.normal(size=(12, 2))]
    ds = _fake_dataset(layers, labels=[i % 2 for i in range(12)])
    assert len(mean_silhouette_per_layer(ds, "variance")) == 3


def test_mean_silhouette_needs_two_classes():
    rng = np.random.default_rng(6)
    ds = _fake_dataset([rng.normal(size=(5, 2))], labels=[1] * 5)
    with pytest.raises(ValueError):
        mean_silhouette_per_layer(ds, "mean")


def test_layer_matrix_validation():
    rng = np.random.default_rng(7)
    ds = _fake_dataset([rng.normal(size=(4, 2))], labels=[0, 1, 0, 1])
    with pytest.raises(ValueError):
        ds.layer_matrix(2, "mean")
    with pytest.raises(ValueError):
        ds.layer_matrix(1, "median")


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def test_csv_shape_and_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    layers = [rng.normal(size=(2, 3)).astype(np.float32)]
    ds = _fake_dataset(layers, labels=[0, 1])
    path = tmp_path / "bns.csv"
    export_bns_csv(ds, 1, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "stat", "c0", "c1", "c2"]
    assert len(rows) == 1 + 4  # 2 samples x {mean, variance}
    # 6-significant-digit round trip
    parsed = [float(v) for v in rows[1][2:]]
    np.testing.assert_allclose(parsed, ds.stats.means[0][0], rtol=1e-5)


def test_csv_empty_dataset_header_only(tmp_path):
    ds = LabeledBnsDataset(PerImageBns((), ()), np.zeros(0, dtype=np.int64))
    path = tmp_path / "empty.csv"
    export_bns_csv(ds, 1, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows == [["label", "stat"]]


def test_csv_layer_out_of_range_rejected_before_writing(tmp_path):
    rng = np.random.default_rng(11)
    ds = _fake_dataset([rng.normal(size=(2, 3))], labels=[0, 1])
    path = tmp_path / "bns.csv"
    for layer in (0, 2):
        with pytest.raises(ValueError, match="out of range"):
            export_bns_csv(ds, layer, path)
    assert not path.exists()
