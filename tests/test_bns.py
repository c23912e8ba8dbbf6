"""BN-statistics granularities and the one taped loss on them: per-sample
moments against plain numpy formulas, each term of ``alignment_loss``
against numpy oracles and hand values, identity cases, its noise draws, the
Monte-Carlo oracle for noise-distorted targets, and finite-difference
gradients of the op and of the whole generator loss."""

import tracemalloc

import numpy as np
import pytest

from fdda import autodiff as ad
from fdda.autodiff import Tensor
from fdda.bns import (
    BnStats,
    DistortionParams,
    alignment_loss,
    collect_running_stats,
    deep_layer_start,
    per_image_bns,
    sample_moments,
)
from fdda.config import RunSettings, TrainConfig
from fdda.data import LabeledImages, ToyDatasetSpec, extract_calibration, make_toy_dataset
from fdda.generator import LossWeights, generator_total_loss
from fdda.models import build_toy_classifier
from fdda.network import BN_EPS, forward
from fdda.trainer import start_run

from helpers import astype, batch_innermost, class_centroids, detach, grad_check


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


NO_CENTROIDS = BnStats((np.zeros((0, 1)),), (np.zeros((0, 1)),))  # K = 0


def align(inputs, labels, running=None, centroids=NO_CENTROIDS, d=DistortionParams(),
          rng=None, w=(1.0, 1.0, 1.0)):
    """``alignment_loss`` with weights (bns, cbns, dbns); ``running`` defaults
    to zero means and unit variances."""
    if running is None:
        running = BnStats(tuple(np.zeros(x.shape[1]) for x in inputs),
                          tuple(np.ones(x.shape[1]) for x in inputs))
    rng = np.random.default_rng(0) if rng is None else rng
    return alignment_loss(inputs, np.asarray(labels), running, centroids, d, rng,
                          w_bns=w[0], w_cbns=w[1], w_dbns=w[2])


def centroid_terms(inputs, labels, centroids, d=DistortionParams(), rng=None):
    """The cbns and dbns values, with the batch term weighted 0."""
    return align(inputs, labels, centroids=centroids, d=d, rng=rng, w=(0.0, 1.0, 1.0))[1]


def sq_dist(stats, targets):
    """Oracle: the sum of squared distances of (mean, variance) pairs."""
    return sum(((m - tm) ** 2).sum() + ((v - tv) ** 2).sum()
               for (m, v), (tm, tv) in zip(stats, targets))


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
    loss, _ = align(cap.bn_inputs, np.zeros(4, np.int64), collect_running_stats(net))
    ad.backward(loss)
    assert x.grad is not None and np.abs(x.grad).sum() > 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(64, 8, 16, 16), (64, 16, 8, 8), (64, 32, 2, 2),
                                   (7, 24, 4, 4), (64, 64)], ids=str)
def test_sample_moments_equal_the_product_and_mean_ops_bit_for_bit(shape, dtype):
    # the expressions per-image statistics, centroids and analyze-bns have
    # always used, whatever the input's memory layout
    rng = np.random.default_rng(sum(shape))
    x = (rng.standard_normal(shape) * 3 + 1).astype(dtype)
    n, c = shape[:2]
    flat = x.reshape(n, c, -1)
    m = flat.mean(axis=2, keepdims=True)
    centered = flat - m
    ref = (m.reshape(n, c), (centered * centered).mean(axis=2), centered)
    layouts = [x] if x.ndim == 2 else [x, batch_innermost(x)]
    for data in layouts:
        got = sample_moments(data)
        for a, b in zip(got, ref):
            assert a.dtype == dtype
            np.testing.assert_array_equal(a, b)


def test_sample_moments_keep_no_square_on_the_tape():
    x = Tensor(np.random.default_rng(0).standard_normal((64, 16, 8, 8)).astype(np.float32),
               requires_grad=True)
    tracemalloc.start()
    try:
        loss = align([x], np.zeros(64, np.int64))  # held while measuring
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        ad._tape.clear()
    # the centered input, and not its square as well
    assert x.data.nbytes <= kept < 1.5 * x.data.nbytes
    assert loss[0].shape == ()


def test_per_image_stats_hand_values():
    m, v, _ = sample_moments(np.array([[[[1.0, 3.0]]], [[[5.0, 5.0]]]]))
    np.testing.assert_allclose(m, [[2.0], [5.0]])
    np.testing.assert_allclose(v, [[1.0], [0.0]])

    m, v, _ = sample_moments(np.full((1, 2, 3, 3), 4.0))
    np.testing.assert_allclose(v, [[0.0, 0.0]])

    m, v, dev = sample_moments(np.array([[1.0, -2.0]]))  # dense: the value itself
    np.testing.assert_array_equal(m, [[1.0, -2.0]])
    np.testing.assert_array_equal(v, [[0.0, 0.0]])
    np.testing.assert_array_equal(dev, [[[0.0], [0.0]]])


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


# 300 and 320 take two passes, of 150 and of 160 images
@pytest.mark.parametrize("n", [1, 7, 300, 320])
def test_per_image_bns_is_bit_identical_to_batch_one_passes(n):
    net = build_toy_classifier(seed=5)
    net.set_requires_grad(False)
    images = np.random.default_rng(n).uniform(-1, 1, size=(n, 1, 16, 16)).astype(np.float32)
    stats, _ = per_image_bns(net, images)
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
    stats, _ = per_image_bns(net, x)
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
    stats, _ = per_image_bns(net, img)
    with ad.no_grad():
        cap = forward(net, Tensor(img), train=False, capture_bn=True)
        for l, (x_in, c) in enumerate(zip(cap.bn_inputs, _bn_channels(net))):
            _, bm, bv = ad.batchnorm_train(
                detach(x_in), Tensor(np.ones(c)), Tensor(np.zeros(c)), BN_EPS)
            np.testing.assert_allclose(stats.means[l][0], bm, atol=1e-6)
            np.testing.assert_allclose(stats.variances[l][0], bv, atol=1e-6)


def test_identical_images_batch_stats_match_per_image():
    # a batch of copies of one image carries that image's statistics: against
    # them as running targets, the batch term is zero up to rounding
    net = build_toy_classifier(seed=2)
    rng = np.random.default_rng(2)
    img = rng.uniform(-1, 1, size=(1, 1, 16, 16)).astype(np.float32)
    batch = np.repeat(img, 4, axis=0)
    stats, _ = per_image_bns(net, img)
    running = BnStats(tuple(m[0] for m in stats.means), tuple(v[0] for v in stats.variances))
    with ad.no_grad():
        cap = forward(net, Tensor(batch), train=False, capture_bn=True)
        _, terms = align(cap.bn_inputs, np.zeros(4, np.int64), running)
    channels = sum(_bn_channels(net))
    assert terms["bns"] < 2 * channels * 1e-5 ** 2


# ---------------------------------------------------------------------------
# pooled statistics against the numpy references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(12, 5, 4, 4), (12, 5)], ids=["conv", "dense"])
def test_one_group_is_the_batch_statistics(shape):
    rng = np.random.default_rng(20)
    x = rng.normal(1.0, 2.0, size=shape).astype(np.float32)
    running = BnStats((rng.normal(size=shape[1]),), (rng.uniform(0.5, 2.0, size=shape[1]),))
    loss, terms = align([Tensor(x)], np.zeros(shape[0], np.int64), running)
    assert loss.shape == () and loss.dtype == np.float32
    ref_m, ref_v = ref_batch_stats(x.astype(np.float64))
    expect = sq_dist([(ref_m, ref_v)], [(running.means[0], running.variances[0])])
    assert terms == {"bns": pytest.approx(expect, rel=1e-5)}


@pytest.mark.parametrize("shape", [(12, 5, 4, 4), (12, 5)], ids=["conv", "dense"])
def test_class_groups_are_the_per_class_statistics(shape):
    rng = np.random.default_rng(21)
    x = rng.normal(1.0, 2.0, size=shape).astype(np.float32)
    labels = np.array([2, 0, 2, 1, 0, 2, 1, 1, 2, 0, 3, 2])
    # centroids for classes 0..2; class 3 has none
    cen = BnStats((rng.normal(size=(3, shape[1])),), (rng.uniform(0.5, 2, size=(3, shape[1])),))
    d = DistortionParams(0.0, 0.0)
    terms = centroid_terms([Tensor(x)], labels, cen, d)
    ref_m, ref_v = ref_class_stats(x.astype(np.float64), labels, range(3))
    expect = sq_dist(zip(ref_m, ref_v), zip(cen.means[0], cen.variances[0]))
    assert terms["cbns"] == pytest.approx(expect, rel=1e-5)
    assert terms["dbns"] == terms["cbns"]


def test_group_moments_gradient_matches_finite_differences():
    # a sample whose class has no centroid is in no class group, and with the
    # batch term weighted 0 its gradient is exactly 0
    rng = np.random.default_rng(22)
    x = t64(rng.normal(size=(6, 2, 2, 3)), rg=True)
    labels = np.array([1, 0, 4, 1, 1, 0])
    cen = BnStats((rng.normal(size=(2, 2)),), (rng.uniform(0.5, 2, size=(2, 2)),))

    def loss():
        return align([x], labels, centroids=cen, rng=np.random.default_rng(5),
                     w=(0.0, 0.3, 0.7))[0]

    assert grad_check(loss, [x], h=1e-5) < 1e-6
    assert np.all(x.grad[2] == 0.0)  # the sample in no group


# ---------------------------------------------------------------------------
# centroids
# ---------------------------------------------------------------------------

def _calib(num_classes):
    train, _ = make_toy_dataset(ToyDatasetSpec())
    return extract_calibration(train, num_classes)


def test_centroids_available_classes():
    net = build_toy_classifier(seed=0)
    cen = class_centroids(net, _calib(2), deep_start=2)
    assert [len(m) for m in cen.means] == [2] * 5  # classes 0 and 1
    assert net.bn_layer_count - cen.layer_count + 1 == 2 and cen.layer_count == 5  # layers 2..6


def test_centroid_equals_per_image_stats():
    net = build_toy_classifier(seed=0)
    calib = _calib(4)
    cen = class_centroids(net, calib, deep_start=4)
    img = calib.images[3:4]
    stats, _ = per_image_bns(net, img)
    assert [len(m) for m in cen.means] == [4] * 3
    L = net.bn_layer_count
    for i, l in enumerate(range(L - cen.layer_count + 1, L + 1)):
        np.testing.assert_array_equal(cen.means[i][3], stats.means[l - 1][0])
        np.testing.assert_array_equal(cen.variances[i][3], stats.variances[l - 1][0])


def test_centroids_are_the_per_image_rows_of_every_class():
    net = build_toy_classifier(seed=1)
    calib = _calib(8)
    cen = class_centroids(net, calib, deep_start=2)
    ref_means, ref_vars = batch_one_bns(net, calib.images)
    assert calib.labels.tolist() == list(range(8))
    L = net.bn_layer_count
    for c in range(8):
        for k, l in enumerate(range(L - cen.layer_count + 1, L + 1)):
            np.testing.assert_array_equal(cen.means[k][c], ref_means[l - 1][c])
            np.testing.assert_array_equal(cen.variances[k][c], ref_vars[l - 1][c])


def test_empty_calibration_gives_empty_centroids():
    # a run with no calibration images (per_image_bns needs one) starts with
    # no centroid rows and no teacher logits
    spec = ToyDatasetSpec(samples_per_class=2)
    settings = RunSettings(dataset=spec, classes=0,
                           train=TrainConfig(warmup_epochs=0, batch_size=4))
    net = build_toy_classifier(seed=0)
    state, _ = start_run(settings, net, make_toy_dataset(spec)[0])
    cen = state.centroids
    assert net.bn_layer_count - cen.layer_count + 1 == 1
    assert [m.shape for m in cen.means] == [(0, c) for c in _bn_channels(net)]
    assert [v.shape for v in cen.variances] == [(0, c) for c in _bn_channels(net)]
    assert state.teacher_calib.shape == (0, 8)


# ---------------------------------------------------------------------------
# coarse alignment: the batch term against the running statistics
# ---------------------------------------------------------------------------

def test_bns_loss_zero_at_exact_match():
    # two dense rows whose batch mean is (0.5, -1) and biased variance (1, 4)
    running = BnStats((np.array([0.5, -1.0]),), (np.array([1.0, 4.0]),))
    x = t64([[1.5, 1.0], [-0.5, -3.0]])
    assert align([x], [0, 0], running)[1]["bns"] == 0.0


def test_bns_loss_hand_value():
    running = BnStats((np.zeros(2),), (np.array([1.0, 1.0]),))
    x = t64([[2.0, 3.0], [0.0, 1.0]])  # batch mean (1, 2), variance (1, 1)
    assert align([x], [0, 0], running)[1]["bns"] == pytest.approx(5.0)


def test_bns_loss_permutation_invariant():
    rng = np.random.default_rng(3)
    xs = [t64(rng.normal(size=(5, 4))), t64(rng.normal(size=(5, 3, 2, 2)))]
    r_m = [rng.normal(size=4), rng.normal(size=3)]
    r_v = [rng.uniform(0.5, 2, size=4), rng.uniform(0.5, 2, size=3)]
    a = align(xs, np.zeros(5, np.int64), BnStats(tuple(r_m), tuple(r_v)))[1]["bns"]
    b = align(xs[::-1], np.zeros(5, np.int64),
              BnStats(tuple(r_m[::-1]), tuple(r_v[::-1])))[1]["bns"]
    assert a == pytest.approx(b, rel=1e-12)


def test_bns_loss_layer_count_mismatch():
    running = BnStats((np.zeros(2), np.zeros(2)), (np.ones(2), np.ones(2)))
    with pytest.raises(ValueError, match="layer count mismatch"):
        align([t64(np.zeros((3, 2)))], [0, 0, 0], running)


def test_bns_loss_nonnegative_random():
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = t64(rng.normal(size=(4, 3)))
        running = BnStats((rng.normal(size=3),), (rng.uniform(0, 2, size=3),))
        assert align([x], np.zeros(4, np.int64), running)[1]["bns"] >= 0.0


# ---------------------------------------------------------------------------
# centroid alignment: the per-class terms against centroid rows, plain and
# distorted
# ---------------------------------------------------------------------------

def _simple_centroids(deep_start=2, layer_count=3, channels=2, count=2, seed=5):
    """Random centroids for classes 0..count-1."""
    rng = np.random.default_rng(seed)
    deep = range(deep_start, layer_count + 1)
    means = tuple(rng.normal(size=(count, channels)) for _ in deep)
    variances = tuple(rng.uniform(0.5, 2.0, size=(count, channels)) for _ in deep)
    return BnStats(means, variances)


def _dense_inputs_and_centroids(labels, layer_count, deep_start, channels=2, seed=13):
    """Dense BN inputs with one sample per label, the labels an order of
    0..len(labels)-1, and centroids that the samples of each class hit
    exactly (a lone dense sample has zero variance)."""
    assert sorted(labels.tolist()) == list(range(len(labels)))
    rng = np.random.default_rng(seed)
    inputs = [t64(rng.normal(size=(len(labels), channels))) for _ in range(layer_count)]
    order = np.argsort(labels)
    deep = range(deep_start, layer_count + 1)
    return inputs, BnStats(tuple(inputs[l - 1].data[order] for l in deep),
                           tuple(np.zeros((len(labels), channels)) for _ in deep))


def _conv_inputs(labels, layer_count=3, channels=2, seed=14):
    rng = np.random.default_rng(seed)
    return [t64(rng.normal(size=(len(labels), channels, 2, 2))) for _ in range(layer_count)]


def _oracle_cbns(inputs, labels, cen):
    """Plain numpy: a loop over the deep layers and the classes present in
    the batch that have a centroid."""
    total = 0.0
    for k, l in enumerate(range(len(inputs) - cen.layer_count + 1, len(inputs) + 1)):
        for c in range(len(cen.means[k])):
            if c in labels:
                m, v = ref_batch_stats(inputs[l - 1].data[labels == c])
                total += sq_dist([(m, v)], [(cen.means[k][c], cen.variances[k][c])])
    return total


def test_cbns_zero_at_centroids():
    labels = np.array([1, 0])
    inputs, cen = _dense_inputs_and_centroids(labels, layer_count=3, deep_start=2)
    assert centroid_terms(inputs, labels, cen)["cbns"] == 0.0


def test_cbns_ignores_shallow_layers():
    labels = np.array([0, 1])
    inputs, cen = _dense_inputs_and_centroids(labels, layer_count=3, deep_start=2)
    inputs[0] = t64(np.full((2, 2), 100.0))  # layer 1 < K
    assert centroid_terms(inputs, labels, cen)["cbns"] == 0.0


def test_cbns_hand_value():
    cen = BnStats((np.zeros((1, 2)),), (np.ones((1, 2)),))
    x = t64([[[[0.0, 2.0]], [[2.0, 0.0]]]])  # each channel: mean 1, variance 1
    assert centroid_terms([x], [0], cen)["cbns"] == pytest.approx(2.0)


def test_cbns_decomposes_over_classes_and_layers():
    cen = _simple_centroids(deep_start=1, layer_count=2, count=3)
    labels = np.array([2, 0, 1, 1, 0, 2])
    inputs = _conv_inputs(labels, layer_count=2)
    expect = _oracle_cbns(inputs, labels, cen)
    assert centroid_terms(inputs, labels, cen)["cbns"] == pytest.approx(expect, rel=1e-12)


def test_cbns_skips_classes_without_centroid():
    labels = np.array([0, 1])
    inputs, cen = _dense_inputs_and_centroids(labels, layer_count=3, deep_start=2)
    # drop the last class's centroid: class 1 is then silently skipped
    cen = BnStats(tuple(m[:1] for m in cen.means), tuple(v[:1] for v in cen.variances))
    assert centroid_terms(inputs, labels, cen)["cbns"] == 0.0


def test_dbns_zero_noise_equals_cbns_exactly():
    labels = np.array([0, 1, 1, 0])
    inputs = [Tensor(x.data.astype(np.float32)) for x in _conv_inputs(labels)]
    terms = centroid_terms(inputs, labels, _simple_centroids(), DistortionParams(0.0, 0.0))
    assert terms["cbns"] > 0
    assert terms["dbns"] == terms["cbns"]


def test_dbns_resamples_noise_per_call():
    labels = np.array([0, 1])
    inputs, cen = _dense_inputs_and_centroids(labels, layer_count=3, deep_start=2)
    rng = np.random.default_rng(8)
    a = centroid_terms(inputs, labels, cen, rng=rng)["dbns"]
    b = centroid_terms(inputs, labels, cen, rng=rng)["dbns"]
    assert a != b


def test_dbns_fixed_seed_deterministic():
    labels = np.array([0, 1])
    inputs, cen = _dense_inputs_and_centroids(labels, layer_count=3, deep_start=2)
    a = centroid_terms(inputs, labels, cen, rng=np.random.default_rng(99))["dbns"]
    b = centroid_terms(inputs, labels, cen, rng=np.random.default_rng(99))["dbns"]
    assert a == b


def test_zero_dbns_weight_draws_no_noise():
    labels = np.array([0, 1])
    inputs, cen = _dense_inputs_and_centroids(labels, layer_count=3, deep_start=2)
    rng = np.random.default_rng(17)
    _, terms = align(inputs, labels, centroids=cen, rng=rng, w=(1.0, 1.0, 0.0))
    assert set(terms) == {"bns", "cbns"}
    assert rng.bit_generator.state == np.random.default_rng(17).bit_generator.state


def test_dbns_monte_carlo_mean():
    # E||a - (c + eps)||^2 = ||a - c||^2 + dim * std^2, summed per class/layer
    labels = np.array([0, 1])
    inputs, cen = _dense_inputs_and_centroids(labels, layer_count=3, deep_start=2, channels=4)
    d = DistortionParams(0.5, 1.0)
    base = centroid_terms(inputs, labels, cen)["cbns"]
    n_class, n_layer, channels = 2, 2, 4
    expect = base + n_class * n_layer * channels * (d.mean_std**2 + d.var_std**2)
    rng = np.random.default_rng(123)
    draws = [centroid_terms(inputs, labels, cen, d, rng)["dbns"] for _ in range(10_000)]
    assert np.mean(draws) == pytest.approx(expect, rel=0.05)


def test_distortion_params_validate():
    with pytest.raises(ValueError):
        DistortionParams(-0.1, 1.0)


# ---------------------------------------------------------------------------
# gradients (finite differences, 64-bit)
# ---------------------------------------------------------------------------

def test_loss_gradients_match_finite_differences():
    labels = np.array([0, 1, 1, 0, 1])
    xs = [t64(x.data, rg=True) for x in _conv_inputs(labels, seed=9)]
    xs[1] = t64(np.random.default_rng(10).normal(size=(5, 3)), rg=True)  # a dense layer
    cen = BnStats((np.ones((2, 3)), np.zeros((2, 2))), (np.full((2, 3), 0.5), np.ones((2, 2))))
    rng = np.random.default_rng(9)
    running = BnStats(tuple(rng.normal(size=x.shape[1]) for x in xs),
                      tuple(rng.uniform(0.5, 2, size=x.shape[1]) for x in xs))

    for w in [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]:  # each term alone
        def loss():  # frozen draw: a new rng per call, so FD sees one function
            return align(xs, labels, running, cen, DistortionParams(0.5, 1.0),
                         np.random.default_rng(5), w)[0]

        assert grad_check(loss, xs, h=1e-4) < 1e-6


def test_generator_loss_gradient_matches_finite_differences():
    # the whole generator loss w.r.t. the images, in float64, with deep
    # layers from 3 on and a batch class (7) that has no centroid
    f = astype(build_toy_classifier(in_shape=(1, 8, 8), seed=3), np.float64)
    f.set_requires_grad(False)
    rng = np.random.default_rng(6)
    calib = LabeledImages(rng.uniform(-1, 1, size=(2, 1, 8, 8)), np.array([0, 1]))
    cen = class_centroids(f, calib, deep_start=3)
    labels = np.array([0, 1, 7, 0])
    images = t64(rng.uniform(-1, 1, size=(4, 1, 8, 8)), rg=True)

    def loss():
        return generator_total_loss(images, labels, f, collect_running_stats(f), cen,
                                    LossWeights(), DistortionParams(),
                                    np.random.default_rng(7))[0]

    assert grad_check(loss, [images], h=1e-4) < 1e-5


# ---------------------------------------------------------------------------
# per-class batch statistics
# ---------------------------------------------------------------------------

def test_per_class_stats_match_direct_computation():
    rng = np.random.default_rng(10)
    t1 = Tensor(rng.normal(size=(6, 3, 2, 2)).astype(np.float64))
    t2 = Tensor(rng.normal(size=(6, 4)).astype(np.float64))
    labels = np.array([0, 1, 0, 2, 1, 0])
    cen = BnStats((rng.normal(size=(3, 3)), rng.normal(size=(3, 4))),
                  (rng.uniform(0.5, 2, size=(3, 3)), rng.uniform(0.5, 2, size=(3, 4))))
    got = centroid_terms([t1, t2], labels, cen)["cbns"]
    assert got == pytest.approx(_oracle_cbns([t1, t2], labels, cen), rel=1e-10)


def test_per_class_stats_skip_absent_and_deep_start():
    rng = np.random.default_rng(11)
    t1 = Tensor(rng.normal(size=(4, 2, 2, 2)).astype(np.float64))
    t2 = Tensor(rng.normal(size=(4, 3)).astype(np.float64))
    labels = np.array([0, 0, 1, 1])
    # layer 1 (2 channels) is below the cutoff; layer 2 (3 channels) is in;
    # class 2 has a centroid but no sample
    cen = _simple_centroids(deep_start=2, layer_count=2, channels=3, count=3)
    got = centroid_terms([t1, t2], labels, cen)["cbns"]
    assert got == pytest.approx(_oracle_cbns([t1, t2], labels, cen), rel=1e-10)
    # no class of the batch has a centroid: both centroid terms are absent
    # and no noise is drawn
    rng = np.random.default_rng(3)
    _, terms = align([t1, t2], labels + 3, centroids=cen, rng=rng)
    assert set(terms) == {"bns"}
    assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state


def _oracle_centroid_losses(bn_inputs, labels, cen, d, rng):
    """Plain-numpy cbns and dbns: a loop over the deep layers and the classes
    present in the batch, drawing each layer's noise as one matrix for the
    means, then one for the variances, a row per class."""
    present = sorted(set(range(len(cen.means[0]))) & set(labels.tolist()))
    cbns = dbns = 0.0
    for k, l in enumerate(range(len(bn_inputs) - cen.layer_count + 1, len(bn_inputs) + 1)):
        shape = (len(present), cen.means[k].shape[1])
        nm = rng.normal(0.0, d.mean_std, size=shape)
        nv = rng.normal(0.0, d.var_std, size=shape)
        for row, c in enumerate(present):
            x = bn_inputs[l - 1].data[labels == c].astype(np.float64)
            m, v = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
            tm, tv = cen.means[k][c], cen.variances[k][c]
            cbns += ((m - tm) ** 2).sum() + ((v - tv) ** 2).sum()
            dbns += ((m - tm - nm[row]) ** 2).sum() + ((v - tv - nv[row]) ** 2).sum()
    return cbns, dbns


def test_stacked_and_map_losses_agree():
    """The op's three terms against the numpy oracles: the batch statistics
    of every layer, and a per-class, per-layer loop for the centroid terms
    with the same noise draws."""
    net = build_toy_classifier(seed=3)
    net.set_requires_grad(False)
    rng = np.random.default_rng(12)
    imgs = Tensor(rng.uniform(-1, 1, size=(16, 1, 16, 16)).astype(np.float32))
    labels = np.tile(np.arange(8), 2)
    calib = _calib(8)
    cen = class_centroids(net, calib, deep_start=3)
    running = collect_running_stats(net)
    d = DistortionParams(0.5, 1.0)
    with ad.no_grad():
        cap = forward(net, imgs, train=False, capture_bn=True)
        _, terms = align(cap.bn_inputs, labels, running, cen, d, np.random.default_rng(3))
    stats = [ref_batch_stats(x.data.astype(np.float64)) for x in cap.bn_inputs]
    bns = sq_dist(stats, zip(running.means, running.variances))
    cbns, dbns = _oracle_centroid_losses(cap.bn_inputs, labels, cen, d, np.random.default_rng(3))
    assert terms == {"bns": pytest.approx(bns, rel=1e-5), "cbns": pytest.approx(cbns, rel=1e-5),
                     "dbns": pytest.approx(dbns, rel=1e-5)}
