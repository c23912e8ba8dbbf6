"""BN-statistics granularities and alignment losses: identity cases, the
Monte-Carlo oracle for noise-distorted targets, and finite-difference
gradients w.r.t. batch statistics."""

import numpy as np
import pytest

from fdda import autodiff as ad
from fdda.autodiff import Tensor
from fdda.bns import (
    BnRunningStats,
    ClassCentroids,
    DistortionParams,
    StackedClassBns,
    bns_loss,
    build_class_centroids,
    cbns_loss,
    collect_running_stats,
    dbns_loss,
    deep_layer_start,
    per_class_bns_stacked,
    per_image_bns,
)
from fdda.data import ToyDatasetSpec, extract_calibration, make_toy_dataset
from fdda.models import build_toy_classifier
from fdda.network import BN_EPS, channel_stats, forward


def t64(a, rg=False):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=rg)


# ---------------------------------------------------------------------------
# deep-layer cutoff
# ---------------------------------------------------------------------------

def test_deep_layer_start_formula():
    assert deep_layer_start(10) == 3
    assert deep_layer_start(20) == 8
    assert deep_layer_start(4) == 1  # formula gives 0, clamped
    assert deep_layer_start(1) == 1
    with pytest.raises(ValueError):
        deep_layer_start(0)


# ---------------------------------------------------------------------------
# statistics collection
# ---------------------------------------------------------------------------

def test_collect_running_stats_fresh_model():
    net = build_toy_classifier(seed=0)
    stats = collect_running_stats(net)
    assert stats.layer_count == net.bn_layer_count == 6
    for m, v in zip(stats.means, stats.variances):
        np.testing.assert_allclose(m, 0.0)
        np.testing.assert_allclose(v, 1.0)


def test_collect_running_stats_requires_bn():
    from fdda.network import Dense, Network

    net = Network([Dense("fc", 2, 2)],
                  {"fc.w": Tensor(np.eye(2, dtype=np.float32)),
                   "fc.b": Tensor(np.zeros(2, dtype=np.float32))}, {})
    with pytest.raises(ValueError):
        collect_running_stats(net)


def test_running_stats_converge_to_stationary_source():
    # EMA over many constant-statistics batches approaches the source stats
    net = build_toy_classifier(seed=1)
    rng = np.random.default_rng(0)
    base = rng.normal(size=(64, 1, 16, 16)).astype(np.float32)
    with ad.no_grad():
        for _ in range(60):
            forward(net, Tensor(base), train=True)
        cap = forward(net, Tensor(base), train=True, capture_bn=True)
    stats = collect_running_stats(net)
    batch_stats = [channel_stats(x) for x in cap.bn_inputs]
    for (bm, bv), rm, rv in zip(batch_stats, stats.means, stats.variances):
        np.testing.assert_allclose(rm, bm.data, atol=1e-2)
        np.testing.assert_allclose(rv, bv.data, rtol=0.05, atol=1e-2)


def test_train_mode_capture_records_bn_inputs_on_the_tape():
    net = build_toy_classifier(seed=4)
    net.set_requires_grad(False)
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-1, 1, size=(4, 1, 16, 16)).astype(np.float32), requires_grad=True)
    cap = forward(net, x, train=True, capture_bn=True, update_running=False)
    assert [t.shape[1] for t in cap.bn_inputs] == _bn_channels(net)
    conv1 = ad.conv2d(x.detach(), net.params["conv1.w"], net.params["conv1.b"], pad=1)
    np.testing.assert_array_equal(cap.bn_inputs[0].data, conv1.data)
    m, v = channel_stats(cap.bn_inputs[-1])
    ad.backward(m.sum() + v.sum())
    assert x.grad is not None and np.abs(x.grad).sum() > 0


def test_per_image_stats_hand_values():
    m, v = channel_stats(Tensor(np.array([[[[1.0, 3.0]]]])))
    np.testing.assert_allclose(m.data, [2.0])
    np.testing.assert_allclose(v.data, [1.0])

    m, v = channel_stats(Tensor(np.full((1, 2, 3, 3), 4.0)))
    np.testing.assert_allclose(v.data, [0.0, 0.0])


def test_per_image_bns_requires_an_image():
    net = build_toy_classifier(seed=0)
    with pytest.raises(ValueError):
        per_image_bns(net, np.zeros((0, 1, 16, 16), dtype=np.float32))


def batch_one_bns(net, images):
    """Reference: one eval-mode forward pass per image, its BN batch statistics."""
    means, variances = [], []
    with ad.no_grad():
        for i in range(len(images)):
            cap = forward(net, Tensor(images[i : i + 1]), train=False, capture_bn=True)
            stats = [channel_stats(x) for x in cap.bn_inputs]
            means.append([m.data for m, _ in stats])
            variances.append([v.data for _, v in stats])
    return [np.stack(layer) for layer in zip(*means)], [np.stack(layer) for layer in zip(*variances)]


@pytest.mark.parametrize("n", [1, 7, 300])  # 300 spans two forward chunks
def test_per_image_bns_is_bit_identical_to_batch_one_passes(n):
    net = build_toy_classifier(seed=5)
    net.set_requires_grad(False)
    images = np.random.default_rng(n).uniform(-1, 1, size=(n, 1, 16, 16)).astype(np.float32)
    stats = per_image_bns(net, images)
    ref_means, ref_vars = batch_one_bns(net, images)
    assert stats.layer_count == net.bn_layer_count
    for l in range(stats.layer_count):
        assert stats.means[l].shape == (n, net.bn_layers()[l].channels)
        np.testing.assert_array_equal(stats.means[l], ref_means[l])
        np.testing.assert_array_equal(stats.variances[l], ref_vars[l])


def test_per_image_bns_of_dense_input_is_value_with_zero_variance():
    from fdda.network import BatchNorm, Dense, Network

    rng = np.random.default_rng(4)
    w = rng.normal(size=(4, 3)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)
    net = Network(
        [Dense("fc", 3, 4), BatchNorm("bn", 4)],
        {"fc.w": Tensor(w), "fc.b": Tensor(b),
         "bn.gamma": Tensor(np.ones(4, np.float32)), "bn.beta": Tensor(np.zeros(4, np.float32))},
        {"bn.running_mean": np.zeros(4, np.float32), "bn.running_var": np.ones(4, np.float32)},
    )
    x = rng.normal(size=(5, 3)).astype(np.float32)
    stats = per_image_bns(net, x)
    np.testing.assert_array_equal(stats.means[0], x @ w.T + b)
    np.testing.assert_array_equal(stats.variances[0], np.zeros((5, 4), np.float32))


def _bn_channels(net):
    return [l.channels for l in net.bn_layers()]


def test_per_image_equals_batchnorm_batch_stats():
    # the statistics captured per image are exactly what the BN op would
    # compute with that image's activations as the entire batch
    net = build_toy_classifier(seed=2)
    rng = np.random.default_rng(1)
    img = rng.uniform(-1, 1, size=(1, 1, 16, 16)).astype(np.float32)
    stats = per_image_bns(net, img)
    with ad.no_grad():
        cap = forward(net, Tensor(img), train=False, capture_bn=True)
        for l, (x_in, c) in enumerate(zip(cap.bn_inputs, _bn_channels(net))):
            _, bm, bv = ad.batchnorm_train(
                x_in.detach(), Tensor(np.ones(c)), Tensor(np.zeros(c)), BN_EPS)
            np.testing.assert_allclose(stats.means[l][0], bm, atol=1e-6)
            np.testing.assert_allclose(stats.variances[l][0], bv, atol=1e-6)


def test_identical_images_batch_stats_match_per_image():
    # a batch of copies of one image carries that image's statistics
    net = build_toy_classifier(seed=2)
    rng = np.random.default_rng(2)
    img = rng.uniform(-1, 1, size=(1, 1, 16, 16)).astype(np.float32)
    batch = np.repeat(img, 4, axis=0)
    stats = per_image_bns(net, img)
    with ad.no_grad():
        cap = forward(net, Tensor(batch), train=False, capture_bn=True)
        batch_stats = [channel_stats(x) for x in cap.bn_inputs]
    for l, (bm, bv) in enumerate(batch_stats):
        np.testing.assert_allclose(stats.means[l][0], bm.data, atol=1e-5)
        np.testing.assert_allclose(stats.variances[l][0], bv.data, atol=1e-5)


# ---------------------------------------------------------------------------
# centroids
# ---------------------------------------------------------------------------

def _calib_subset(classes):
    train, _ = make_toy_dataset(ToyDatasetSpec())
    return extract_calibration(train, 8, classes)


def test_centroids_available_classes():
    net = build_toy_classifier(seed=0)
    cen = build_class_centroids(net, _calib_subset([0, 1]), deep_start=2)
    assert cen.available_classes == {0, 1}
    assert list(cen.deep_layers()) == [2, 3, 4, 5, 6]


def test_centroid_equals_per_image_stats():
    net = build_toy_classifier(seed=0)
    calib = _calib_subset([3])
    cen = build_class_centroids(net, calib, deep_start=4)
    img = calib.images[0:1]
    stats = per_image_bns(net, img)
    for l in cen.deep_layers():
        np.testing.assert_array_equal(cen.per_class[3][l][0], stats.means[l - 1][0])
        np.testing.assert_array_equal(cen.per_class[3][l][1], stats.variances[l - 1][0])


def test_centroids_are_the_per_image_rows_of_every_class():
    net = build_toy_classifier(seed=1)
    calib = _calib_subset([5, 0, 2, 7])
    cen = build_class_centroids(net, calib, deep_start=2)
    ref_means, ref_vars = batch_one_bns(net, calib.images)
    for row, c in enumerate(calib.labels):
        for l in cen.deep_layers():
            np.testing.assert_array_equal(cen.per_class[int(c)][l][0], ref_means[l - 1][row])
            np.testing.assert_array_equal(cen.per_class[int(c)][l][1], ref_vars[l - 1][row])


def test_empty_calibration_gives_empty_centroids():
    net = build_toy_classifier(seed=0)
    cen = build_class_centroids(net, _calib_subset([]), deep_start=1)
    assert cen.available_classes == frozenset()


def test_duplicate_class_rejected():
    from types import SimpleNamespace

    net = build_toy_classifier(seed=0)
    calib = SimpleNamespace(images=np.zeros((2, 1, 16, 16), dtype=np.float32),
                            labels=np.array([3, 3]))
    with pytest.raises(ValueError, match="duplicate"):
        build_class_centroids(net, calib, deep_start=1)


# ---------------------------------------------------------------------------
# coarse alignment loss
# ---------------------------------------------------------------------------

def _stats_pair(means, variances):
    return [(t64(m), t64(v)) for m, v in zip(means, variances)]


def test_bns_loss_zero_at_exact_match():
    running = BnRunningStats((np.array([0.5, -1.0]),), (np.array([1.0, 2.0]),))
    stats = _stats_pair([np.array([0.5, -1.0])], [np.array([1.0, 2.0])])
    assert float(bns_loss(stats, running).data) == 0.0


def test_bns_loss_hand_value():
    running = BnRunningStats((np.zeros(2),), (np.array([1.0, 1.0]),))
    stats = _stats_pair([np.array([1.0, 2.0])], [np.array([1.0, 1.0])])
    assert float(bns_loss(stats, running).data) == pytest.approx(5.0)


def test_bns_loss_permutation_invariant():
    rng = np.random.default_rng(3)
    means = [rng.normal(size=4), rng.normal(size=3)]
    variances = [rng.uniform(0.5, 2, size=4), rng.uniform(0.5, 2, size=3)]
    r_m = [rng.normal(size=4), rng.normal(size=3)]
    r_v = [rng.uniform(0.5, 2, size=4), rng.uniform(0.5, 2, size=3)]
    a = bns_loss(_stats_pair(means, variances), BnRunningStats(tuple(r_m), tuple(r_v)))
    b = bns_loss(_stats_pair(means[::-1], variances[::-1]),
                 BnRunningStats(tuple(r_m[::-1]), tuple(r_v[::-1])))
    assert float(a.data) == pytest.approx(float(b.data), rel=1e-12)


def test_bns_loss_layer_count_mismatch():
    running = BnRunningStats((np.zeros(2), np.zeros(2)), (np.ones(2), np.ones(2)))
    with pytest.raises(ValueError):
        bns_loss(_stats_pair([np.zeros(2)], [np.ones(2)]), running)


def test_bns_loss_nonnegative_random():
    rng = np.random.default_rng(4)
    for _ in range(10):
        stats = _stats_pair([rng.normal(size=3)], [rng.uniform(0, 2, size=3)])
        running = BnRunningStats((rng.normal(size=3),), (rng.uniform(0, 2, size=3),))
        assert float(bns_loss(stats, running).data) >= 0.0


# ---------------------------------------------------------------------------
# centroid losses
# ---------------------------------------------------------------------------

def _simple_centroids(deep_start=2, layer_count=3, channels=2, classes=(0, 1), seed=5):
    rng = np.random.default_rng(seed)
    per_class = {
        c: {
            l: (rng.normal(size=channels), rng.uniform(0.5, 2.0, size=channels))
            for l in range(deep_start, layer_count + 1)
        }
        for c in classes
    }
    return ClassCentroids(deep_start, layer_count, per_class)


def _stacked(per_class):
    """StackedClassBns from {class: {layer: (mean, variance)}} arrays."""
    classes = tuple(sorted(per_class))
    layers = sorted(per_class[classes[0]])
    return StackedClassBns(classes, {
        l: (t64(np.stack([per_class[c][l][0] for c in classes])),
            t64(np.stack([per_class[c][l][1] for c in classes])))
        for l in layers
    })


def _matching_stats(cen):
    return _stacked(cen.per_class)


def _dense_inputs_and_centroids(labels, layer_count, deep_start, channels=2, seed=13):
    """Dense BN inputs with one sample per label, and centroids that the
    samples of each class hit exactly (a lone dense sample has zero variance)."""
    rng = np.random.default_rng(seed)
    inputs = [t64(rng.normal(size=(len(labels), channels))) for _ in range(layer_count)]
    per_class = {
        int(c): {l: (inputs[l - 1].data[row].copy(), np.zeros(channels))
                 for l in range(deep_start, layer_count + 1)}
        for row, c in enumerate(labels)
    }
    return inputs, ClassCentroids(deep_start, layer_count, per_class)


def test_cbns_zero_at_centroids():
    cen = _simple_centroids()
    assert float(cbns_loss(_matching_stats(cen), cen).data) == 0.0


def test_cbns_ignores_shallow_layers():
    labels = np.array([0, 1])
    inputs, cen = _dense_inputs_and_centroids(labels, layer_count=3, deep_start=2)
    inputs[0] = t64(np.full((2, 2), 100.0))  # layer 1 < K
    stacked = per_class_bns_stacked(inputs, labels, cen)
    assert sorted(stacked.layers) == [2, 3]
    assert float(cbns_loss(stacked, cen).data) == 0.0


def test_cbns_hand_value():
    cen = ClassCentroids(1, 1, {0: {1: (np.zeros(2), np.ones(2))}})
    stats = _stacked({0: {1: (np.array([1.0, 1.0]), np.ones(2))}})
    assert float(cbns_loss(stats, cen).data) == pytest.approx(2.0)


def test_cbns_decomposes_over_classes_and_layers():
    cen = _simple_centroids(deep_start=1, layer_count=2, classes=(0, 1, 2))
    rng = np.random.default_rng(6)
    stats = {}
    expect = 0.0
    for c in cen.per_class:
        stats[c] = {}
        for l in range(1, 3):
            m = rng.normal(size=2)
            v = rng.uniform(0.5, 2, size=2)
            tm, tv = cen.per_class[c][l]
            expect += ((m - tm) ** 2).sum() + ((v - tv) ** 2).sum()
            stats[c][l] = (m, v)
    assert float(cbns_loss(_stacked(stats), cen).data) == pytest.approx(expect, rel=1e-12)


def test_cbns_skips_classes_without_centroid():
    labels = np.array([0, 5])
    inputs, cen = _dense_inputs_and_centroids(labels, layer_count=3, deep_start=2)
    del cen.per_class[5]  # class 5 has no centroid: silently skipped
    stacked = per_class_bns_stacked(inputs, labels, cen)
    assert stacked.classes == (0,)
    assert float(cbns_loss(stacked, cen).data) == 0.0


def test_dbns_zero_noise_equals_cbns_exactly():
    cen = _simple_centroids()
    stats = _matching_stats(cen)
    rng = np.random.default_rng(7)
    d0 = DistortionParams(0.0, 0.0)
    a = dbns_loss(stats, cen, d0, rng)
    b = cbns_loss(stats, cen)
    assert float(a.data) == float(b.data)


def test_dbns_resamples_noise_per_call():
    cen = _simple_centroids()
    stats = _matching_stats(cen)
    rng = np.random.default_rng(8)
    d = DistortionParams(0.5, 1.0)
    a = float(dbns_loss(stats, cen, d, rng).data)
    b = float(dbns_loss(stats, cen, d, rng).data)
    assert a != b


def test_dbns_fixed_seed_deterministic():
    cen = _simple_centroids()
    stats = _matching_stats(cen)
    d = DistortionParams(0.5, 1.0)
    a = float(dbns_loss(stats, cen, d, np.random.default_rng(99)).data)
    b = float(dbns_loss(stats, cen, d, np.random.default_rng(99)).data)
    assert a == b


def test_dbns_monte_carlo_mean():
    # E||a - (c + eps)||^2 = ||a - c||^2 + dim * std^2, summed per class/layer
    cen = _simple_centroids(deep_start=2, layer_count=3, channels=4, classes=(0, 1))
    stats = _matching_stats(cen)
    d = DistortionParams(0.5, 1.0)
    base = float(cbns_loss(stats, cen).data)
    channels = 4
    n_class, n_layer = 2, 2
    expect = base + n_class * n_layer * channels * (d.mean_std**2 + d.var_std**2)
    rng = np.random.default_rng(123)
    draws = [float(dbns_loss(stats, cen, d, rng).data) for _ in range(10_000)]
    assert np.mean(draws) == pytest.approx(expect, rel=0.05)


def test_distortion_params_validate():
    with pytest.raises(ValueError):
        DistortionParams(-0.1, 1.0)


# ---------------------------------------------------------------------------
# gradients w.r.t. batch statistics (finite differences, 64-bit)
# ---------------------------------------------------------------------------

def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    running = BnRunningStats((rng.normal(size=3),), (rng.uniform(0.5, 2, size=3),))
    m = t64(rng.normal(size=3), rg=True)
    v = t64(rng.uniform(0.5, 2, size=3), rg=True)
    assert ad.grad_check(lambda: bns_loss([(m, v)], running), [m, v], h=1e-4) < 1e-6

    cen = _simple_centroids(deep_start=1, layer_count=1, channels=3, classes=(0,))

    def stats():  # the reshapes go on the tape of each call
        return StackedClassBns((0,), {1: (m.reshape((1, 3)), v.reshape((1, 3)))})

    assert ad.grad_check(lambda: cbns_loss(stats(), cen), [m, v], h=1e-4) < 1e-6

    d = DistortionParams(0.5, 1.0)
    # frozen draw: rebuild the rng inside the closure so FD sees one function
    assert ad.grad_check(
        lambda: dbns_loss(stats(), cen, d, np.random.default_rng(5)), [m, v], h=1e-4
    ) < 1e-6


# ---------------------------------------------------------------------------
# per-class batch statistics
# ---------------------------------------------------------------------------

def test_per_class_stats_match_direct_computation():
    rng = np.random.default_rng(10)
    t1 = Tensor(rng.normal(size=(6, 3, 2, 2)).astype(np.float64))
    t2 = Tensor(rng.normal(size=(6, 4)).astype(np.float64))
    labels = np.array([0, 1, 0, 2, 1, 0])
    cen = _simple_centroids(deep_start=1, layer_count=2, classes=(0, 1, 2))
    out = per_class_bns_stacked([t1, t2], labels, cen)
    assert out.classes == (0, 1, 2)
    for row, c in enumerate(out.classes):
        rows = labels == c
        sub = t1.data[rows]
        np.testing.assert_allclose(out.layers[1][0].data[row], sub.mean(axis=(0, 2, 3)), rtol=1e-10)
        np.testing.assert_allclose(out.layers[1][1].data[row], sub.var(axis=(0, 2, 3)), rtol=1e-10)
        sub2 = t2.data[rows]
        np.testing.assert_allclose(out.layers[2][0].data[row], sub2.mean(axis=0), rtol=1e-10)
        np.testing.assert_allclose(out.layers[2][1].data[row], sub2.var(axis=0), rtol=1e-10, atol=1e-12)


def test_per_class_stats_skip_absent_and_deep_start():
    rng = np.random.default_rng(11)
    t1 = Tensor(rng.normal(size=(4, 2, 2, 2)).astype(np.float64))
    t2 = Tensor(rng.normal(size=(4, 3)).astype(np.float64))
    labels = np.array([0, 0, 1, 1])
    cen = _simple_centroids(deep_start=2, layer_count=2, classes=(0, 1, 5))
    out = per_class_bns_stacked([t1, t2], labels, cen)
    assert out.classes == (0, 1)
    assert 1 not in out.layers  # layer 1 below the cutoff
    assert 2 in out.layers
    absent = _simple_centroids(deep_start=2, layer_count=2, classes=(5,))
    assert per_class_bns_stacked([t1, t2], labels, absent) is None


def _oracle_centroid_losses(bn_inputs, labels, cen, d, rng):
    """Plain-numpy cbns and dbns: a loop over the classes present in the
    batch and the deep layers, drawing noise class by class, then layer by
    layer."""
    cbns = dbns = 0.0
    for c in sorted(set(cen.per_class) & set(labels.tolist())):
        for l in cen.deep_layers():
            x = bn_inputs[l - 1].data[labels == c].astype(np.float64)
            m, v = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
            tm, tv = cen.per_class[c][l]
            nm = rng.normal(0.0, d.mean_std, size=tm.shape)
            nv = rng.normal(0.0, d.var_std, size=tv.shape)
            cbns += ((m - tm) ** 2).sum() + ((v - tv) ** 2).sum()
            dbns += ((m - tm - nm) ** 2).sum() + ((v - tv - nv) ** 2).sum()
    return cbns, dbns


def test_stacked_and_map_losses_agree():
    """The stacked losses against a per-class, per-layer numpy loop."""
    net = build_toy_classifier(seed=3)
    net.set_requires_grad(False)
    rng = np.random.default_rng(12)
    imgs = Tensor(rng.uniform(-1, 1, size=(16, 1, 16, 16)).astype(np.float32))
    labels = np.tile(np.arange(8), 2)
    calib = _calib_subset(list(range(8)))
    cen = build_class_centroids(net, calib, deep_start=3)
    d = DistortionParams(0.5, 1.0)
    with ad.no_grad():
        cap = forward(net, imgs, train=False, capture_bn=True)
        stacked = per_class_bns_stacked(cap.bn_inputs, labels, cen)
        a = float(cbns_loss(stacked, cen).data)
        da = float(dbns_loss(stacked, cen, d, np.random.default_rng(3)).data)
    b, db = _oracle_centroid_losses(cap.bn_inputs, labels, cen, d, np.random.default_rng(3))
    assert a == pytest.approx(b, rel=1e-5)
    assert da == pytest.approx(db, rel=1e-5)
