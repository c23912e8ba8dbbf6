"""Conditional synthesis and the composite generator loss: determinism,
output range, loss weighting arithmetic over the returned terms, and the
frozen-classifier contract."""

import numpy as np
import pytest

from fdda import autodiff as ad
from fdda.autodiff import Tensor
from fdda.bns import DistortionParams, collect_running_stats, deep_layer_start
from fdda.data import ToyDatasetSpec, extract_calibration, make_toy_dataset
from fdda.generator import LossWeights, generate, generator_total_loss, sample_labels
from fdda.models import build_generator, build_toy_classifier
from fdda.network import forward

from helpers import class_centroids


@pytest.fixture(scope="module")
def setup():
    f = build_toy_classifier(seed=0)
    f.set_requires_grad(False)
    g = build_generator(seed=0)
    train, _ = make_toy_dataset(ToyDatasetSpec())
    calib = extract_calibration(train, 8)
    running = collect_running_stats(f)
    centroids = class_centroids(f, calib, deep_layer_start(f.bn_layer_count))
    return f, g, running, centroids


def test_generate_deterministic_given_seed(setup):
    _, g, _, _ = setup
    labels = np.arange(8)
    with ad.no_grad():
        a = generate(g, labels, np.random.default_rng(42)).data
        b = generate(g, labels, np.random.default_rng(42)).data
    assert np.array_equal(a, b)


def test_generate_output_in_tanh_range(setup):
    _, g, _, _ = setup
    with ad.no_grad():
        imgs = generate(g, np.arange(8), np.random.default_rng(0)).data
    assert np.all(imgs > -1.0) and np.all(imgs < 1.0)


def test_generate_shapes(setup):
    _, g, _, _ = setup
    with ad.no_grad():
        imgs = generate(g, np.array([3] * 5), np.random.default_rng(0))
    assert imgs.shape == (5, 1, 16, 16)


def test_generate_rejects_bad_label(setup):
    _, g, _, _ = setup
    with pytest.raises(ValueError):
        generate(g, np.array([8]), np.random.default_rng(0))


def test_sample_labels_stratified_covers_all_classes():
    rng = np.random.default_rng(1)
    labels = sample_labels(8, 64, rng)
    assert set(labels) == set(range(8))
    labels_small = sample_labels(8, 4, rng)
    assert len(labels_small) == 4


def _fixed_batch_loss(setup, w, seed=5):
    """The loss and terms of one fixed batch of 16, off the tape."""
    f, g, running, centroids = setup
    labels = sample_labels(8, 16, np.random.default_rng(3))
    with ad.no_grad():
        images = generate(g, labels, np.random.default_rng(4))
        total, terms, _ = generator_total_loss(images, labels, f, running, centroids, w,
                                               DistortionParams(), np.random.default_rng(seed))
    return float(total.data), terms


def test_combine_loss_weighted_sum_of_unit_parts(setup):
    # with unit weights the total is the plain sum of the returned terms, and
    # with the defaults their weighted sum
    unit = LossWeights(ce=1.0, bns=1.0, dbns=1.0, cbns=1.0)
    total, terms = _fixed_batch_loss(setup, unit)
    assert set(terms) == {"ce", "bns", "cbns", "dbns"}
    assert total == pytest.approx(sum(terms.values()), rel=1e-6)
    w = LossWeights()
    total, terms = _fixed_batch_loss(setup, w)
    assert total == pytest.approx(sum(getattr(w, k) * v for k, v in terms.items()), rel=1e-6)


def test_combine_loss_linear_in_weights(setup):
    w = LossWeights(ce=0.5, bns=0.2, dbns=0.9, cbns=0.05, kd=20.0)
    w2 = LossWeights(ce=1.0, bns=0.4, dbns=1.8, cbns=0.1, kd=40.0)
    (a, terms), (b, terms2) = _fixed_batch_loss(setup, w), _fixed_batch_loss(setup, w2)
    assert terms == terms2  # the same noise draws
    assert b == pytest.approx(2.0 * a, rel=1e-6)


def test_loss_weights_reject_negative():
    with pytest.raises(ValueError):
        LossWeights(ce=-0.1)


def test_total_loss_zero_when_all_parts_zero(setup):
    # every weighted part is zero when every weight is; the centroid terms
    # are then not computed at all
    total, terms = _fixed_batch_loss(setup, LossWeights(ce=0.0, bns=0.0, dbns=0.0, cbns=0.0))
    assert total == 0.0
    assert set(terms) == {"ce", "bns"}


def test_total_loss_runs_and_flows_to_generator_only(setup):
    f, g, running, centroids = setup
    labels = sample_labels(8, 16, np.random.default_rng(3))
    images = generate(g, labels, np.random.default_rng(4))
    loss, parts, _ = generator_total_loss(
        images, labels, f, running, centroids, LossWeights(),
        DistortionParams(), np.random.default_rng(5),
    )
    assert np.isfinite(float(loss.data))
    for key in ("ce", "bns", "cbns", "dbns"):
        assert parts[key] >= 0.0
    ad.backward(loss)
    grads = [p.grad for p in g.params.values()]
    assert all(gr is not None for gr in grads)
    assert any(np.abs(gr).max() > 0 for gr in grads)
    assert all(p.grad is None for p in f.params.values())


def test_total_loss_returns_the_classifier_logits_of_its_pass(setup):
    # the quantized step reuses them as the teacher's logits
    f, g, running, centroids = setup
    labels = sample_labels(8, 16, np.random.default_rng(3))
    images = generate(g, labels, np.random.default_rng(4))
    _, _, logits = generator_total_loss(
        images, labels, f, running, centroids, LossWeights(),
        DistortionParams(), np.random.default_rng(5),
    )
    with ad.no_grad():
        ref = forward(f, images, train=False).output.data
    np.testing.assert_array_equal(logits.data, ref)


def test_classifier_bit_identical_after_generator_update(setup):
    f, _, running, centroids = setup
    g2 = build_generator(seed=7)
    before = {k: p.data.copy() for k, p in f.params.items()}
    buf_before = {k: v.copy() for k, v in f.buffers.items()}
    from fdda.optim import Adam

    opt = Adam(g2.params)
    labels = sample_labels(8, 16, np.random.default_rng(6))
    images = generate(g2, labels, np.random.default_rng(7))
    loss, _, _ = generator_total_loss(
        images, labels, f, running, centroids, LossWeights(),
        DistortionParams(), np.random.default_rng(8),
    )
    ad.backward(loss)
    opt.step(1e-3)
    for k in before:
        assert np.array_equal(before[k], f.params[k].data)
    for k in buf_before:
        assert np.array_equal(buf_before[k], f.buffers[k])


def test_coarse_reduction_matches_manual_sum(setup):
    # with centroid terms disabled the total is exactly ce*w1 + bns*w2
    f, g, running, centroids = setup
    labels = sample_labels(8, 16, np.random.default_rng(9))
    with ad.no_grad():
        images = generate(g, labels, np.random.default_rng(10))
        w = LossWeights(dbns=0.0, cbns=0.0)
        total, parts, _ = generator_total_loss(
            images, labels, f, running, centroids, w,
            DistortionParams(), np.random.default_rng(11),
        )
    expect = 0.5 * parts["ce"] + 0.2 * parts["bns"]
    assert float(total.data) == pytest.approx(expect, rel=1e-6)
    assert "cbns" not in parts and "dbns" not in parts


def test_missing_centroids_skip_their_classes(setup):
    f, g, running, _ = setup
    train, _ = make_toy_dataset(ToyDatasetSpec())
    calib5 = extract_calibration(train, 5)
    cen5 = class_centroids(f, calib5, deep_layer_start(f.bn_layer_count))
    labels = np.arange(8)
    w = LossWeights(dbns=0.0)
    with ad.no_grad():
        images = generate(g, labels, np.random.default_rng(12))
        _, parts, _ = generator_total_loss(
            images, labels, f, running, cen5, w,
            DistortionParams(), np.random.default_rng(13),
        )
        # the same centroid term as a batch of only the classes with a centroid
        _, parts_kept, _ = generator_total_loss(
            Tensor(images.data[:5]), labels[:5], f, running, cen5, w,
            DistortionParams(), np.random.default_rng(13),
        )
    assert len(cen5.means[0]) == 5  # classes 5, 6 and 7 have no centroid
    assert parts["cbns"] == pytest.approx(parts_kept["cbns"], rel=1e-5)
