"""Training-loop contracts: schedules, the quantized-model loss, frozen
teacher, the teacher-logit table of the calibration images, null updates,
divergence, selective weight decay, and the missing-class rule."""

import inspect
import tracemalloc

import numpy as np
import pytest

from fdda import autodiff as ad
from fdda import trainer
from fdda.autodiff import Tensor
from fdda.bns import (
    DistortionParams,
    build_class_centroids,
    collect_running_stats,
    deep_layer_start,
)
from fdda.config import RunSettings, TrainConfig
from fdda.data import LabeledImages, ToyDatasetSpec, extract_calibration, make_toy_dataset
from fdda.generator import LossWeights, generate, generator_total_loss, sample_labels
from fdda.models import build_generator, build_toy_classifier
from fdda.network import forward
from fdda.optim import Adam, NesterovSGD, decays_weight
from fdda.quantizer import FakeQuantRuntime, QuantPolicy, calibrate_activation_bounds
from fdda.trainer import (
    TrainingDiverged,
    TrainState,
    _mixed_batch,
    batch_split,
    cosine_lr,
    evaluate,
    quantized_model_loss,
    step_lr,
    train_epoch,
    warmup_generator,
)

from helpers import astype


# ---------------------------------------------------------------------------
# lr schedule
# ---------------------------------------------------------------------------

def test_step_schedule_values():
    assert step_lr(1e-3, 0) == pytest.approx(1e-3)
    assert step_lr(1e-3, 99) == pytest.approx(1e-3)
    assert step_lr(1e-3, 100) == pytest.approx(1e-4)
    assert step_lr(1e-3, 250) == pytest.approx(1e-5)


def test_cosine_schedule_endpoints():
    assert cosine_lr(0.5, 0, 100) == pytest.approx(0.5)
    assert cosine_lr(0.5, 100, 100) == pytest.approx(0.0, abs=1e-12)
    assert cosine_lr(0.5, 50, 100) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

SPEC = ToyDatasetSpec(samples_per_class=20, seed=0)


@pytest.fixture(scope="module")
def world():
    f = build_toy_classifier(seed=0)
    # a few pretraining steps so running stats are meaningful
    train, test = make_toy_dataset(SPEC)
    opt = Adam(f.params)
    rng = np.random.default_rng(0)
    for _ in range(30):
        idx = rng.integers(0, len(train), size=32)
        logits = forward(f, Tensor(train.images[idx]), train=True).output
        loss = ad.softmax_cross_entropy(logits, train.labels[idx])
        f.zero_grad()
        ad.backward(loss)
        opt.step(1e-3)
    f.set_requires_grad(False)
    calib = extract_calibration(train, 8)
    return f, train, test, calib


def make_state(world, settings, calib=None, seed=0):
    f, train, test, full_calib = world
    calib = full_calib if calib is None else calib
    cfg = settings.train
    running = collect_running_stats(f)
    centroids = build_class_centroids(f, calib, deep_layer_start(f.bn_layer_count))
    q = f.copy()
    q.set_requires_grad(True)
    split = batch_split(cfg, len(calib))
    g = build_generator(seed=seed) if split[1] else None
    act = calibrate_activation_bounds(f, train.images[:16], settings.policy)
    return TrainState(
        g_net=g, q_net=q, f_net=f, running=running, centroids=centroids,
        calib=calib, quant=FakeQuantRuntime(settings.policy, act),
        g_opt=Adam(g.params) if g else None,
        q_opt=NesterovSGD(q.params, momentum=cfg.momentum, weight_decay=cfg.weight_decay),
        rng_labels=np.random.default_rng([seed, 3]),
        rng_noise=np.random.default_rng([seed, 4]),
        rng_distort=np.random.default_rng([seed, 5]),
        rng_mix=np.random.default_rng([seed, 6]),
        split=split,
    )


def tiny_settings(calibration_only=False, **kw):
    train_kw = {"warmup_epochs": 1, "total_epochs": 2, "steps_per_epoch": 3,
                "batch_size": 16}
    if calibration_only:
        train_kw["mix_ratio"] = 1.0
    train_kw.update(kw.pop("train_kw", {}))
    return RunSettings(dataset=SPEC, train=TrainConfig(**train_kw), **kw)


# ---------------------------------------------------------------------------
# quantized-model loss
# ---------------------------------------------------------------------------

def _runtime8(f, images):
    """An 8-bit runtime whose activation bounds are calibrated on ``images``."""
    policy = QuantPolicy(default_bits=8)
    return FakeQuantRuntime(policy, calibrate_activation_bounds(f, images, policy))


def test_qloss_identity_case_kd_zero(world):
    f, train, _, _ = world
    xs = Tensor(train.images[:8])
    ys = train.labels[:8]
    quant = _runtime8(f, train.images[:8])
    # student == teacher up to 8-bit quantization when Q is an exact copy
    q = f.copy()
    q.set_requires_grad(True)
    with ad.no_grad():
        logits_f = forward(f, xs, train=False).output
    loss, parts = quantized_model_loss(q, logits_f.data, xs, ys, LossWeights(kd=20.0), quant)
    # weights per channel and activations per layer are fake-quantized at 8 bits;
    # compare up to that
    assert parts["kd"] < 1e-3
    ce_only, parts0 = quantized_model_loss(q, logits_f.data, xs, ys, LossWeights(kd=0.0),
                                           quant)
    assert float(ce_only.data) == pytest.approx(parts0["ce"], rel=1e-6)


def test_qloss_weighted_sum_arithmetic():
    # 0.7 + 20 * 0.01 = 0.9
    w = LossWeights(kd=20.0)
    assert 0.7 + w.kd * 0.01 == pytest.approx(0.9)


def test_qloss_empty_batch_errors(world):
    f, train, _, _ = world
    q = f.copy()
    rt = _runtime8(f, train.images[:8])
    with pytest.raises(ValueError):
        quantized_model_loss(q, np.zeros((0, 8), np.float32),
                             Tensor(np.zeros((0, 1, 16, 16), np.float32)),
                             np.zeros(0, np.int64), LossWeights(), rt)


# ---------------------------------------------------------------------------
# warm-up and epochs
# ---------------------------------------------------------------------------

def test_zero_warmup_leaves_generator_unchanged(world):
    settings = tiny_settings(train_kw={"warmup_epochs": 0})
    state = make_state(world, settings)
    before = {k: p.data.copy() for k, p in state.g_net.params.items()}
    losses = warmup_generator(state, settings.train, settings)
    assert losses == []
    for k in before:
        assert np.array_equal(before[k], state.g_net.params[k].data)


def test_warmup_reduces_generator_loss(world):
    f, *_ , calib = world
    outcomes = []
    for seed in range(3):
        settings = tiny_settings(train_kw={"warmup_epochs": 6, "steps_per_epoch": 10})
        state = make_state(world, settings, seed=seed)

        def eval_loss():
            labels = sample_labels(8, 32, np.random.default_rng(999))
            with ad.no_grad():
                imgs = generate(state.g_net, labels, np.random.default_rng(998))
                loss, _ = generator_total_loss(
                    imgs, labels, state.f_net, state.running, state.centroids,
                    settings.weights, settings.distortion, np.random.default_rng(997),
                )
            return float(loss.data)

        before = eval_loss()
        warmup_generator(state, settings.train, settings)
        outcomes.append(eval_loss() <= before)
    assert np.median(outcomes) == 1.0


def test_warmup_deterministic_given_seed(world):
    settings = tiny_settings()
    s1 = make_state(world, settings, seed=11)
    s2 = make_state(world, settings, seed=11)
    warmup_generator(s1, settings.train, settings)
    warmup_generator(s2, settings.train, settings)
    for k in s1.g_net.params:
        assert np.array_equal(s1.g_net.params[k].data, s2.g_net.params[k].data)


def test_train_epoch_keeps_teacher_frozen_and_metrics_finite(world, monkeypatch):
    f = world[0]
    settings = tiny_settings()
    state = make_state(world, settings)
    assert state.g_net is not None
    calls = {"_generator_step": 0, "_quantized_step": 0}
    for name in calls:
        def counted(*args, _step=getattr(trainer, name), _name=name):
            calls[_name] += 1
            return _step(*args)
        monkeypatch.setattr(trainer, name, counted)
    before = {k: p.data.copy() for k, p in f.params.items()}
    buf_before = {k: v.copy() for k, v in f.buffers.items()}
    metrics = train_epoch(state, settings.train, settings, epoch=0)
    for k in before:
        assert np.array_equal(before[k], f.params[k].data)
    for k in buf_before:
        assert np.array_equal(buf_before[k], f.buffers[k])
    # one generator and one quantized-model step per step of the epoch
    assert calls == {"_generator_step": settings.train.steps_per_epoch,
                     "_quantized_step": settings.train.steps_per_epoch}
    # train_epoch raises TrainingDiverged on any non-finite step, so having
    # returned, every step was finite; it returns the epoch's report entry
    assert set(metrics) == {"epoch", "lossG", "lossQ"} and metrics["epoch"] == 0
    assert metrics["lossG"] is not None


def test_zero_lr_and_zero_weights_change_nothing(world):
    settings = tiny_settings(
        weights=LossWeights(ce=0.0, bns=0.0, dbns=0.0, cbns=0.0, kd=0.0),
        train_kw={"lr_generator": 0.0, "lr_quantized": 0.0, "weight_decay": 0.0},
    )
    state = make_state(world, settings)
    g_before = {k: p.data.copy() for k, p in state.g_net.params.items()}
    q_before = {k: p.data.copy() for k, p in state.q_net.params.items()}
    train_epoch(state, settings.train, settings, epoch=0)
    for k in g_before:
        assert np.array_equal(g_before[k], state.g_net.params[k].data)
    for k in q_before:
        assert np.array_equal(q_before[k], state.q_net.params[k].data)


def test_no_synthetic_uses_calibration_batches(world):
    settings = tiny_settings(calibration_only=True)
    state = make_state(world, settings)
    metrics = train_epoch(state, settings.train, settings, epoch=0)
    assert metrics["lossG"] is None
    assert metrics["lossQ"] is not None


@pytest.mark.parametrize("mix_ratio,n_calib,split", [
    (0.25, 8, (4, 12)),
    (0.25, 0, (0, 16)),
    (0.0, 8, (0, 16)),
    (1.0, 8, (16, 0)),
    (0.99, 8, (16, 0)),  # rounds to a whole batch: no synthetic rows
    (0.99, 0, None),
    (1.0, 0, None),
], ids=["mixed", "no-calibration", "synthetic-only", "calibration-only", "rounds-to-calibration-only",
        "no-data-after-rounding", "no-data"])
def test_batch_split(mix_ratio, n_calib, split):
    cfg = TrainConfig(batch_size=16, mix_ratio=mix_ratio)
    if split is None:
        with pytest.raises(ValueError, match="no training data"):
            batch_split(cfg, n_calib)
    else:
        assert batch_split(cfg, n_calib) == split


def test_calibration_only_run_has_no_generator(world):
    settings = tiny_settings(calibration_only=True)
    state = make_state(world, settings)
    assert state.g_net is None and state.split == (16, 0)
    images, _, _ = _mixed_batch(state, settings.train)
    assert images.shape[0] == 16


# ---------------------------------------------------------------------------
# teacher logits of the calibration images
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("calibration_only", [False, True], ids=["mixed", "calibration-only"])
def test_teacher_logits_equal_rows_of_the_mixed_batch_forward(world, calibration_only):
    settings = tiny_settings(calibration_only=calibration_only, train_kw={"batch_size": 64})
    state = make_state(world, settings)
    images, _, teacher = _mixed_batch(state, settings.train)
    assert images.shape[0] == 64
    with ad.no_grad():
        ref = forward(state.f_net, images, train=False).output.data
    np.testing.assert_array_equal(teacher, ref)
    assert state.teacher_calib.shape == (len(state.calib), 8)


def test_teacher_table_is_built_once_per_run(world):
    settings = tiny_settings(calibration_only=True)
    state = make_state(world, settings)
    assert state.teacher_calib is None
    train_epoch(state, settings.train, settings, epoch=0)
    table = state.teacher_calib
    assert table is not None
    train_epoch(state, settings.train, settings, epoch=1)
    assert state.teacher_calib is table


def test_teacher_table_covers_more_images_than_one_batch(world):
    settings = tiny_settings(calibration_only=True, train_kw={"batch_size": 3})
    state = make_state(world, settings)
    _mixed_batch(state, settings.train)
    with ad.no_grad():
        ref = forward(state.f_net, Tensor(state.calib.images), train=False).output.data
    # chunks of 3 rows, not one batch of 8: equal up to GEMM blocking
    np.testing.assert_allclose(state.teacher_calib, ref, rtol=1e-5, atol=1e-5)


def test_teacher_table_not_built_without_calibration_rows(world):
    f, train, _, _ = world
    empty = extract_calibration(train, 8, classes=[])
    settings = tiny_settings()
    state = make_state(world, settings, calib=empty)
    train_epoch(state, settings.train, settings, epoch=0)
    assert state.teacher_calib is None


# ---------------------------------------------------------------------------
# divergence
# ---------------------------------------------------------------------------

def test_non_finite_quantized_loss_raises_naming_epoch_and_step(world, monkeypatch):
    settings = tiny_settings(calibration_only=True)
    state = make_state(world, settings)
    losses = iter([0.5, float("nan")])
    monkeypatch.setattr(trainer, "_quantized_step", lambda *a: next(losses))
    with pytest.raises(TrainingDiverged, match="quantized-model loss became nan at "
                                               "training epoch 4, step 1"):
        train_epoch(state, settings.train, settings, epoch=4)


def test_non_finite_generator_loss_raises_in_warmup(world, monkeypatch):
    settings = tiny_settings()
    state = make_state(world, settings)
    monkeypatch.setattr(trainer, "_generator_step", lambda *a: float("inf"))
    with pytest.raises(TrainingDiverged, match="generator loss became inf at "
                                               "warm-up epoch 0, step 0"):
        warmup_generator(state, settings.train, settings)


# ---------------------------------------------------------------------------
# memory of a training step
# ---------------------------------------------------------------------------

def _step_peak_bytes(step, state, settings):
    step(state, settings.train, settings, 1e-3)  # allocates the optimizer's moments
    tracemalloc.start()
    try:
        step(state, settings.train, settings, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_generator_step_peak_memory_at_batch_64(world):
    # about 17.7 MB: the taped forward at backward's start, with the
    # generator's column matrices (about 7 MB), which its weight gradients
    # read. Convs that read a 2x-upsampled map instead of sub-pixel convs on
    # the low-resolution input made those 19 MB and the step about 33 MB;
    # teacher convs that keep their column matrices too reach about 40 MB,
    # and a backward that also keeps the whole tape to its end, 57 MB.
    settings = tiny_settings(train_kw={"batch_size": 64})
    state = make_state(world, settings)
    assert _step_peak_bytes(trainer._generator_step, state, settings) < 20e6


# ---------------------------------------------------------------------------
# pretraining defaults
# ---------------------------------------------------------------------------

def test_pretrain_steps_per_epoch_default_is_the_train_config_default():
    # the benchmark's set-up reads this keyword default by name
    # (perfbench/workloads.py), so it must exist and agree with TrainConfig
    params = inspect.signature(trainer.pretrain_classifier).parameters
    assert params["steps_per_epoch"].default == TrainConfig.steps_per_epoch


# ---------------------------------------------------------------------------
# weight decay targeting
# ---------------------------------------------------------------------------

def test_decay_targets_kernels_only():
    assert decays_weight("conv1.w")
    assert decays_weight("fc2.w")
    assert not decays_weight("conv1.b")
    assert not decays_weight("bn3.gamma")
    assert not decays_weight("bn3.beta")
    assert not decays_weight("embed.w")


def test_bias_and_bn_follow_pure_gradient_trajectory():
    # same gradients, decay on vs off: only .w kernels may differ
    rng = np.random.default_rng(1)
    params_a, params_b = {}, {}
    for name, shape in [("conv.w", (4, 3)), ("conv.b", (4,)), ("bn.gamma", (4,)), ("bn.beta", (4,))]:
        base = rng.normal(size=shape).astype(np.float32)
        grad = rng.normal(size=shape).astype(np.float32)
        for params in (params_a, params_b):
            t = Tensor(base.copy(), requires_grad=True)
            t.grad = grad.copy()
            params[name] = t
    NesterovSGD(params_a, weight_decay=0.0).step(0.1)
    NesterovSGD(params_b, weight_decay=0.5).step(0.1)
    assert not np.array_equal(params_a["conv.w"].data, params_b["conv.w"].data)
    for name in ("conv.b", "bn.gamma", "bn.beta"):
        assert np.array_equal(params_a[name].data, params_b[name].data)


# ---------------------------------------------------------------------------
# missing-class rule
# ---------------------------------------------------------------------------

def test_missing_class_changes_only_its_own_terms(world):
    # removing class c's centroid changes the loss by exactly c's centroid
    # contribution (verified in float64 with a frozen noise draw)
    f64 = astype(world[0], np.float64)
    f64.set_requires_grad(False)
    train, _ = make_toy_dataset(SPEC)
    calib = extract_calibration(train, 8)
    K = deep_layer_start(f64.bn_layer_count)
    cen_full = build_class_centroids(f64, calib, K)
    drop = 5
    cen_wo = build_class_centroids(
        f64, extract_calibration(train, 8, [c for c in range(8) if c != drop]), K)

    g = astype(build_generator(seed=1), np.float64)
    labels = sample_labels(8, 32, np.random.default_rng(2))
    with ad.no_grad():
        images = generate(g, labels, np.random.default_rng(3))
        w = LossWeights()
        d = DistortionParams()
        total_full, parts_full = generator_total_loss(
            images, labels, f64, collect_running_stats(f64), cen_full, w, d,
            np.random.default_rng(7),
        )
        total_wo, parts_wo = generator_total_loss(
            images, labels, f64, collect_running_stats(f64), cen_wo, w, d,
            np.random.default_rng(7),
        )
    # ce and bns are untouched by the missing class
    assert float(parts_full["ce"].data) == pytest.approx(float(parts_wo["ce"].data), rel=1e-12)
    assert float(parts_full["bns"].data) == pytest.approx(float(parts_wo["bns"].data), rel=1e-12)
    assert set(labels) - set(cen_wo.classes) == {drop}

    # per-class decomposition: difference equals class `drop`'s own terms,
    # with the same frozen noise draw on the shared classes
    from fdda.bns import alignment_loss, per_class_moments, sample_moments
    from fdda.network import forward as fwd

    cen_only = build_class_centroids(f64, extract_calibration(train, 8, [drop]), K)
    with ad.no_grad():
        cap = fwd(f64, images, train=False, capture_bn=True)
        moments = [sample_moments(x) for x in cap.bn_inputs]
        cb_full, cb_wo, cb_only = (
            float(alignment_loss(*per_class_moments(moments, labels, cen)).data)
            for cen in (cen_full, cen_wo, cen_only))
    assert cb_full - cb_wo == pytest.approx(cb_only, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_all_correct_and_chance(world):
    f, train, test, _ = world
    acc = evaluate(f, train)
    assert 0.0 <= acc <= 1.0
    # a constant-logit network guesses one class: chance level on balanced set
    from fdda.network import Dense, Flatten, Network

    const = Network(
        [Flatten(), Dense("fc", 256, 8)],
        {"fc.w": Tensor(np.zeros((8, 256), np.float32)),
         "fc.b": Tensor(np.zeros(8, np.float32))},
        {}, meta={"kind": "classifier", "num_classes": 8},
    )
    assert evaluate(const, test) == pytest.approx(1.0 / 8.0, abs=0.01)


def test_evaluate_empty_set_errors(world):
    f = world[0]
    empty = LabeledImages(np.zeros((0, 1, 16, 16), np.float32), np.zeros(0, np.int64))
    with pytest.raises(ValueError):
        evaluate(f, empty)
