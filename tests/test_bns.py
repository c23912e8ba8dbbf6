"""BN-statistics granularities and alignment losses: the moment reductions
against plain numpy formulas, identity cases, the Monte-Carlo oracle for
noise-distorted targets, and finite-difference gradients w.r.t. batch
statistics."""

import numpy as np
import pytest

from fdda import autodiff as ad
from fdda.autodiff import Tensor
from fdda.bns import (
    BnStats,
    ClassCentroids,
    DistortionParams,
    alignment_loss,
    build_class_centroids,
    collect_running_stats,
    deep_layer_start,
    distort,
    group_moments,
    per_class_moments,
    per_image_bns,
    sample_moments,
)
from fdda.data import ToyDatasetSpec, extract_calibration, make_toy_dataset
from fdda.models import build_toy_classifier
from fdda.network import BN_EPS, forward

from helpers import detach, grad_check

# float32 tolerance of the moment reductions against the numpy references
# below, for values of order 1 (measured error: about 3e-7 relative)
F32 = dict(rtol=1e-6, atol=1e-6)


def t64(a, rg=False):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=rg)


def ref_batch_stats(x):
    """Reference: per-channel mean and biased variance over the batch and
    spatial axes of an (N, C, H, W) or (N, C) array."""
    axes = (0, 2, 3) if x.ndim == 4 else (0,)
    centered = x - x.mean(axis=axes, keepdims=True)
    return x.mean(axis=axes), (centered * centered).mean(axis=axes)


def ref_class_stats(x, labels, classes):
    """Reference: the batch statistics of each class's samples, stacked."""
    stats = [ref_batch_stats(x[labels == c]) for c in classes]
    return np.stack([m for m, _ in stats]), np.stack([v for _, v in stats])


def batch_stats(x):
    """A batch's statistics the way the generator loss takes them: one group
    of per-sample moments."""
    m, v = sample_moments(x)
    return group_moments(m, v, np.zeros(x.shape[0], dtype=np.intp), 1)


def moments_of(inputs):
    return [sample_moments(x) for x in inputs]


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
    for x, rm, rv in zip(cap.bn_inputs, stats.means, stats.variances):
        bm, bv = ref_batch_stats(x.data)
        np.testing.assert_allclose(rm, bm, atol=1e-2)
        np.testing.assert_allclose(rv, bv, rtol=0.05, atol=1e-2)


def test_train_mode_capture_records_bn_inputs_on_the_tape():
    net = build_toy_classifier(seed=4)
    net.set_requires_grad(False)
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-1, 1, size=(4, 1, 16, 16)).astype(np.float32), requires_grad=True)
    cap = forward(net, x, train=True, capture_bn=True)
    assert [t.shape[1] for t in cap.bn_inputs] == _bn_channels(net)
    conv1 = ad.conv2d(detach(x), net.params["conv1.w"], net.params["conv1.b"], pad=1)
    np.testing.assert_array_equal(cap.bn_inputs[0].data, conv1.data)
    m, v = sample_moments(cap.bn_inputs[-1])
    ad.backward(m.sum() + v.sum())
    assert x.grad is not None and np.abs(x.grad).sum() > 0


def _taped_moments(moments, x, gm, gv):
    """Per-sample moments of x and the input gradient of <m, gm> + <v, gv>."""
    xt = Tensor(x, requires_grad=True)
    m, v = moments(xt)
    ad.backward((m * Tensor(gm)).sum() + (v * Tensor(gv)).sum())
    return m.data, v.data, xt.grad


def _moments_through_mul_and_mean(x):
    """sample_moments as a product and a mean op, which tape the square."""
    n, c = x.shape[:2]
    flat = x.reshape((n, c, -1))
    m = flat.mean(axis=2, keepdims=True)
    centered = flat - m
    return m.reshape((n, c)), (centered * centered).mean(axis=2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(64, 8, 16, 16), (64, 16, 8, 8), (64, 32, 2, 2),
                                   (7, 24, 4, 4), (64, 64)], ids=str)
def test_sample_moments_equal_the_product_and_mean_ops_bit_for_bit(shape, dtype):
    rng = np.random.default_rng(sum(shape))
    x = (rng.standard_normal(shape) * 3 + 1).astype(dtype)
    gm = rng.standard_normal(shape[:2]).astype(dtype)
    gv = rng.standard_normal(shape[:2]).astype(dtype)
    got = _taped_moments(sample_moments, x, gm, gv)
    ref = _taped_moments(_moments_through_mul_and_mean, x, gm, gv)
    for a, b in zip(got, ref):
        assert a.dtype == dtype
        np.testing.assert_array_equal(a, b)


def test_sample_moments_keep_no_square_on_the_tape():
    import tracemalloc

    x = Tensor(np.random.default_rng(0).standard_normal((64, 16, 8, 8)).astype(np.float32),
               requires_grad=True)
    tracemalloc.start()
    try:
        moments = sample_moments(x)  # held while measuring
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        ad._tape.clear()
    # the centered input, and not its square as well
    assert x.data.nbytes <= kept < 1.5 * x.data.nbytes
    assert all(t.shape == (64, 16) for t in moments)


def test_per_image_stats_hand_values():
    m, v = sample_moments(Tensor(np.array([[[[1.0, 3.0]]], [[[5.0, 5.0]]]])))
    np.testing.assert_allclose(m.data, [[2.0], [5.0]])
    np.testing.assert_allclose(v.data, [[1.0], [0.0]])

    m, v = sample_moments(Tensor(np.full((1, 2, 3, 3), 4.0)))
    np.testing.assert_allclose(v.data, [[0.0, 0.0]])

    m, v = sample_moments(Tensor(np.array([[1.0, -2.0]])))  # dense: the value itself
    np.testing.assert_array_equal(m.data, [[1.0, -2.0]])
    np.testing.assert_array_equal(v.data, [[0.0, 0.0]])


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
            stats = [ref_batch_stats(x.data) for x in cap.bn_inputs]
            means.append([m for m, _ in stats])
            variances.append([v for _, v in stats])
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
                detach(x_in), Tensor(np.ones(c)), Tensor(np.zeros(c)), BN_EPS)
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
        stats_of_batch = [batch_stats(x) for x in cap.bn_inputs]
    for l, (bm, bv) in enumerate(stats_of_batch):
        np.testing.assert_allclose(stats.means[l][0], bm.data[0], atol=1e-5)
        np.testing.assert_allclose(stats.variances[l][0], bv.data[0], atol=1e-5)


# ---------------------------------------------------------------------------
# moment reductions against the numpy references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(12, 5, 4, 4), (12, 5)], ids=["conv", "dense"])
def test_one_group_is_the_batch_statistics(shape):
    x = np.random.default_rng(20).normal(1.0, 2.0, size=shape).astype(np.float32)
    m, v = batch_stats(Tensor(x))
    assert m.shape == v.shape == (1, shape[1]) and m.dtype == np.float32
    ref_m, ref_v = ref_batch_stats(x)
    np.testing.assert_allclose(m.data[0], ref_m, **F32)
    np.testing.assert_allclose(v.data[0], ref_v, **F32)


@pytest.mark.parametrize("shape", [(12, 5, 4, 4), (12, 5)], ids=["conv", "dense"])
def test_class_groups_are_the_per_class_statistics(shape):
    rng = np.random.default_rng(21)
    x = rng.normal(1.0, 2.0, size=shape).astype(np.float32)
    labels = np.array([3, 0, 3, 1, 0, 3, 1, 1, 3, 0, 2, 3])
    classes = [0, 1, 3]  # class 2 is in no group
    groups = np.array([classes.index(c) if c in classes else -1 for c in labels])
    m, v = group_moments(*sample_moments(Tensor(x)), groups, len(classes))
    ref_m, ref_v = ref_class_stats(x, labels, classes)
    np.testing.assert_allclose(m.data, ref_m, **F32)
    np.testing.assert_allclose(v.data, ref_v, **F32)


def test_group_moments_gradient_matches_finite_differences():
    rng = np.random.default_rng(22)
    x = t64(rng.normal(size=(6, 2, 2, 3)), rg=True)
    groups = np.array([1, 0, -1, 1, 1, 0])
    wm, wv = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))

    def loss():
        m, v = group_moments(*sample_moments(x), groups, 2)
        return (m * Tensor(wm)).sum() + (v * Tensor(wv)).sum()

    assert grad_check(loss, [x], h=1e-5) < 1e-6
    assert np.all(x.grad[2] == 0.0)  # the sample in no group


# ---------------------------------------------------------------------------
# centroids
# ---------------------------------------------------------------------------

def _calib_subset(classes):
    train, _ = make_toy_dataset(ToyDatasetSpec())
    return extract_calibration(train, 8, classes)


def test_centroids_available_classes():
    net = build_toy_classifier(seed=0)
    cen = build_class_centroids(net, _calib_subset([0, 1]), deep_start=2)
    assert cen.classes == (0, 1)
    assert cen.deep_start == 2 and cen.stats.layer_count == 5  # layers 2..6


def test_centroid_equals_per_image_stats():
    net = build_toy_classifier(seed=0)
    calib = _calib_subset([3])
    cen = build_class_centroids(net, calib, deep_start=4)
    img = calib.images[0:1]
    stats = per_image_bns(net, img)
    assert cen.classes == (3,)
    for i, l in enumerate(range(cen.deep_start, net.bn_layer_count + 1)):
        np.testing.assert_array_equal(cen.stats.means[i][0], stats.means[l - 1][0])
        np.testing.assert_array_equal(cen.stats.variances[i][0], stats.variances[l - 1][0])


def test_centroids_are_the_per_image_rows_of_every_class():
    net = build_toy_classifier(seed=1)
    calib = _calib_subset([5, 0, 2, 7])
    cen = build_class_centroids(net, calib, deep_start=2)
    ref_means, ref_vars = batch_one_bns(net, calib.images)
    assert cen.classes == (0, 2, 5, 7)
    for row, c in enumerate(calib.labels):
        for k, l in enumerate(range(cen.deep_start, net.bn_layer_count + 1)):
            i = cen.classes.index(int(c))
            np.testing.assert_array_equal(cen.stats.means[k][i], ref_means[l - 1][row])
            np.testing.assert_array_equal(cen.stats.variances[k][i], ref_vars[l - 1][row])


def test_empty_calibration_gives_empty_centroids():
    net = build_toy_classifier(seed=0)
    cen = build_class_centroids(net, _calib_subset([]), deep_start=1)
    assert cen.classes == ()
    assert [m.shape for m in cen.stats.means] == [(0, c) for c in _bn_channels(net)]


@pytest.mark.parametrize("classes", [(1, 0), (2, 2)], ids=["unsorted", "duplicate"])
def test_centroid_classes_must_be_sorted_and_unique(classes):
    rows = (np.zeros((2, 3)),)
    with pytest.raises(ValueError, match="not sorted and unique"):
        ClassCentroids(1, classes, BnStats(rows, rows))


# ---------------------------------------------------------------------------
# coarse alignment: the loss against the running statistics
# ---------------------------------------------------------------------------

def _stats_pair(means, variances):
    return [(t64(m), t64(v)) for m, v in zip(means, variances)]


def test_bns_loss_zero_at_exact_match():
    running = BnStats((np.array([0.5, -1.0]),), (np.array([1.0, 2.0]),))
    stats = _stats_pair([np.array([0.5, -1.0])], [np.array([1.0, 2.0])])
    assert float(alignment_loss(stats, running).data) == 0.0


def test_bns_loss_hand_value():
    running = BnStats((np.zeros(2),), (np.array([1.0, 1.0]),))
    stats = _stats_pair([np.array([1.0, 2.0])], [np.array([1.0, 1.0])])
    assert float(alignment_loss(stats, running).data) == pytest.approx(5.0)


def test_bns_loss_permutation_invariant():
    rng = np.random.default_rng(3)
    means = [rng.normal(size=4), rng.normal(size=3)]
    variances = [rng.uniform(0.5, 2, size=4), rng.uniform(0.5, 2, size=3)]
    r_m = [rng.normal(size=4), rng.normal(size=3)]
    r_v = [rng.uniform(0.5, 2, size=4), rng.uniform(0.5, 2, size=3)]
    a = alignment_loss(_stats_pair(means, variances), BnStats(tuple(r_m), tuple(r_v)))
    b = alignment_loss(_stats_pair(means[::-1], variances[::-1]),
                       BnStats(tuple(r_m[::-1]), tuple(r_v[::-1])))
    assert float(a.data) == pytest.approx(float(b.data), rel=1e-12)


def test_bns_loss_layer_count_mismatch():
    running = BnStats((np.zeros(2), np.zeros(2)), (np.ones(2), np.ones(2)))
    with pytest.raises(ValueError):
        alignment_loss(_stats_pair([np.zeros(2)], [np.ones(2)]), running)


def test_bns_loss_nonnegative_random():
    rng = np.random.default_rng(4)
    for _ in range(10):
        stats = _stats_pair([rng.normal(size=3)], [rng.uniform(0, 2, size=3)])
        running = BnStats((rng.normal(size=3),), (rng.uniform(0, 2, size=3),))
        assert float(alignment_loss(stats, running).data) >= 0.0


# ---------------------------------------------------------------------------
# centroid alignment: the loss against centroid rows, plain and distorted
# ---------------------------------------------------------------------------

def cbns(per_class):
    """The centroid term of ``per_class_moments``' (statistics, targets)."""
    stats, targets = per_class
    return alignment_loss(stats, targets)


def dbns(per_class, d, rng):
    """The distorted-centroid term, as the generator loss takes it."""
    stats, targets = per_class
    return alignment_loss(stats, distort(targets, d, rng))


def _simple_centroids(deep_start=2, layer_count=3, channels=2, classes=(0, 1), seed=5):
    rng = np.random.default_rng(seed)
    deep = range(deep_start, layer_count + 1)
    means = tuple(rng.normal(size=(len(classes), channels)) for _ in deep)
    variances = tuple(rng.uniform(0.5, 2.0, size=(len(classes), channels)) for _ in deep)
    return ClassCentroids(deep_start, tuple(classes), BnStats(means, variances))


def _targets(cen, classes=None):
    """The centroid rows of ``classes`` (default: all), per deep layer."""
    rows = [cen.classes.index(c) for c in (cen.classes if classes is None else classes)]
    return BnStats(tuple(m[rows] for m in cen.stats.means),
                   tuple(v[rows] for v in cen.stats.variances))


def _assert_targets_are(targets, cen, classes):
    ref = _targets(cen, classes)
    assert targets.layer_count == ref.layer_count
    for a, b in zip(targets.means + targets.variances, ref.means + ref.variances):
        np.testing.assert_array_equal(a, b)


def _matching_stats(cen):
    """Per-class statistics equal to the centroids of every class."""
    stats = [(t64(m), t64(v)) for m, v in zip(cen.stats.means, cen.stats.variances)]
    return stats, _targets(cen)


def _dense_inputs_and_centroids(labels, layer_count, deep_start, channels=2, seed=13):
    """Dense BN inputs with one sample per distinct label, and centroids that
    the samples of each class hit exactly (a lone dense sample has zero
    variance)."""
    rng = np.random.default_rng(seed)
    inputs = [t64(rng.normal(size=(len(labels), channels))) for _ in range(layer_count)]
    order = np.argsort(labels)
    deep = range(deep_start, layer_count + 1)
    return inputs, ClassCentroids(
        deep_start, tuple(int(c) for c in labels[order]),
        BnStats(tuple(inputs[l - 1].data[order] for l in deep),
                tuple(np.zeros((len(labels), channels)) for _ in deep)))


def test_cbns_zero_at_centroids():
    cen = _simple_centroids()
    assert float(cbns(_matching_stats(cen)).data) == 0.0


def test_cbns_ignores_shallow_layers():
    labels = np.array([0, 1])
    inputs, cen = _dense_inputs_and_centroids(labels, layer_count=3, deep_start=2)
    inputs[0] = t64(np.full((2, 2), 100.0))  # layer 1 < K
    per_class = per_class_moments(moments_of(inputs), labels, cen)
    assert len(per_class[0]) == 2  # layers 2 and 3
    _assert_targets_are(per_class[1], cen, (0, 1))
    assert float(cbns(per_class).data) == 0.0


def test_cbns_hand_value():
    cen = ClassCentroids(1, (0,), BnStats((np.zeros((1, 2)),), (np.ones((1, 2)),)))
    stats = [(t64([[1.0, 1.0]]), t64([[1.0, 1.0]]))]
    assert float(cbns((stats, _targets(cen))).data) == pytest.approx(2.0)


def test_cbns_decomposes_over_classes_and_layers():
    cen = _simple_centroids(deep_start=1, layer_count=2, classes=(0, 1, 2))
    rng = np.random.default_rng(6)
    stats = []
    expect = 0.0
    for l in range(1, 3):
        m, v = rng.normal(size=(3, 2)), rng.uniform(0.5, 2, size=(3, 2))
        for row in range(3):
            tm, tv = cen.stats.means[l - 1][row], cen.stats.variances[l - 1][row]
            expect += ((m[row] - tm) ** 2).sum() + ((v[row] - tv) ** 2).sum()
        stats.append((t64(m), t64(v)))
    assert float(cbns((stats, _targets(cen))).data) == pytest.approx(expect, rel=1e-12)


def test_cbns_skips_classes_without_centroid():
    labels = np.array([0, 5])
    inputs, cen = _dense_inputs_and_centroids(labels, layer_count=3, deep_start=2)
    # class 5 has no centroid: silently skipped
    cen = ClassCentroids(cen.deep_start, (0,),
                         BnStats(tuple(m[:1] for m in cen.stats.means),
                                 tuple(v[:1] for v in cen.stats.variances)))
    per_class = per_class_moments(moments_of(inputs), labels, cen)
    _assert_targets_are(per_class[1], cen, (0,))
    assert [m.shape[0] for m, _ in per_class[0]] == [1, 1]  # one class row per layer
    assert float(cbns(per_class).data) == 0.0


def test_dbns_zero_noise_equals_cbns_exactly():
    cen = _simple_centroids()
    stats = _matching_stats(cen)
    rng = np.random.default_rng(7)
    d0 = DistortionParams(0.0, 0.0)
    a = dbns(stats, d0, rng)
    b = cbns(stats)
    assert float(a.data) == float(b.data)


def test_dbns_resamples_noise_per_call():
    cen = _simple_centroids()
    stats = _matching_stats(cen)
    rng = np.random.default_rng(8)
    d = DistortionParams(0.5, 1.0)
    a = float(dbns(stats, d, rng).data)
    b = float(dbns(stats, d, rng).data)
    assert a != b


def test_dbns_fixed_seed_deterministic():
    cen = _simple_centroids()
    stats = _matching_stats(cen)
    d = DistortionParams(0.5, 1.0)
    a = float(dbns(stats, d, np.random.default_rng(99)).data)
    b = float(dbns(stats, d, np.random.default_rng(99)).data)
    assert a == b


def test_dbns_monte_carlo_mean():
    # E||a - (c + eps)||^2 = ||a - c||^2 + dim * std^2, summed per class/layer
    cen = _simple_centroids(deep_start=2, layer_count=3, channels=4, classes=(0, 1))
    stats = _matching_stats(cen)
    d = DistortionParams(0.5, 1.0)
    base = float(cbns(stats).data)
    channels = 4
    n_class, n_layer = 2, 2
    expect = base + n_class * n_layer * channels * (d.mean_std**2 + d.var_std**2)
    rng = np.random.default_rng(123)
    draws = [float(dbns(stats, d, rng).data) for _ in range(10_000)]
    assert np.mean(draws) == pytest.approx(expect, rel=0.05)


def test_distortion_params_validate():
    with pytest.raises(ValueError):
        DistortionParams(-0.1, 1.0)


# ---------------------------------------------------------------------------
# gradients w.r.t. batch statistics (finite differences, 64-bit)
# ---------------------------------------------------------------------------

def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    running = BnStats((rng.normal(size=3),), (rng.uniform(0.5, 2, size=3),))
    m = t64(rng.normal(size=3), rg=True)
    v = t64(rng.uniform(0.5, 2, size=3), rg=True)
    assert grad_check(lambda: alignment_loss([(m, v)], running), [m, v], h=1e-4) < 1e-6

    cen = _simple_centroids(deep_start=1, layer_count=1, channels=3, classes=(0,))

    def stats():  # the reshapes go on the tape of each call
        return [(m.reshape((1, 3)), v.reshape((1, 3)))], _targets(cen)

    assert grad_check(lambda: cbns(stats()), [m, v], h=1e-4) < 1e-6

    d = DistortionParams(0.5, 1.0)
    # frozen draw: rebuild the rng inside the closure so FD sees one function
    assert grad_check(
        lambda: dbns(stats(), d, np.random.default_rng(5)), [m, v], h=1e-4
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
    stats, targets = per_class_moments(moments_of([t1, t2]), labels, cen)
    _assert_targets_are(targets, cen, (0, 1, 2))
    for (m, v), t in zip(stats, (t1, t2)):
        ref_m, ref_v = ref_class_stats(t.data, labels, (0, 1, 2))
        np.testing.assert_allclose(m.data, ref_m, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(v.data, ref_v, rtol=1e-10, atol=1e-12)


def test_per_class_stats_skip_absent_and_deep_start():
    rng = np.random.default_rng(11)
    t1 = Tensor(rng.normal(size=(4, 2, 2, 2)).astype(np.float64))
    t2 = Tensor(rng.normal(size=(4, 3)).astype(np.float64))
    labels = np.array([0, 0, 1, 1])
    cen = _simple_centroids(deep_start=2, layer_count=2, classes=(0, 1, 5))
    stats, targets = per_class_moments(moments_of([t1, t2]), labels, cen)
    _assert_targets_are(targets, cen, (0, 1))
    # layer 1 (2 channels) is below the cutoff; layer 2 (3 channels) is in
    assert [m.shape for m, _ in stats] == [(2, 3)]
    absent = _simple_centroids(deep_start=2, layer_count=2, classes=(5,))
    assert per_class_moments(moments_of([t1, t2]), labels, absent) is None


def _oracle_centroid_losses(bn_inputs, labels, cen, d, rng):
    """Plain-numpy cbns and dbns: a loop over the deep layers and the classes
    present in the batch, drawing each layer's noise as one matrix for the
    means, then one for the variances, a row per class."""
    present = sorted(set(cen.classes) & set(labels.tolist()))
    cbns = dbns = 0.0
    for k, l in enumerate(range(cen.deep_start, len(bn_inputs) + 1)):
        shape = (len(present), cen.stats.means[k].shape[1])
        nm = rng.normal(0.0, d.mean_std, size=shape)
        nv = rng.normal(0.0, d.var_std, size=shape)
        for row, c in enumerate(present):
            x = bn_inputs[l - 1].data[labels == c].astype(np.float64)
            m, v = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
            i = cen.classes.index(c)
            tm, tv = cen.stats.means[k][i], cen.stats.variances[k][i]
            cbns += ((m - tm) ** 2).sum() + ((v - tv) ** 2).sum()
            dbns += ((m - tm - nm[row]) ** 2).sum() + ((v - tv - nv[row]) ** 2).sum()
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
        per_class = per_class_moments(moments_of(cap.bn_inputs), labels, cen)
        a = float(cbns(per_class).data)
        da = float(dbns(per_class, d, np.random.default_rng(3)).data)
    b, db = _oracle_centroid_losses(cap.bn_inputs, labels, cen, d, np.random.default_rng(3))
    assert a == pytest.approx(b, rel=1e-5)
    assert da == pytest.approx(db, rel=1e-5)
