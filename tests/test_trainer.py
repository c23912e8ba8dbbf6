"""Training-loop contracts: schedules, the quantized-model loss, a run's
set-up, frozen teacher, the quantized step's reuse of the generator step's
batch, a generator independent of the student, the teacher-logit table of
the calibration images, null updates, divergence, selective weight decay,
and the missing-class rule."""

import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest

from fdda import autodiff as ad
from fdda import bns, trainer
from fdda.autodiff import Tensor
from fdda.bns import (
    BnStats,
    ClassCentroids,
    DistortionParams,
    collect_running_stats,
    deep_layer_start,
)
from fdda.config import ConfigError, RunSettings, TrainConfig
from fdda.data import LabeledImages, ToyDatasetSpec, extract_calibration, make_toy_dataset
from fdda.generator import LossWeights, generate, generator_total_loss, sample_labels
from fdda.models import build_generator, build_toy_classifier
from fdda.network import forward
from fdda.optim import Adam, decays_weight
from fdda.quantizer import QuantPolicy, calibrate_activation_bounds
from fdda.trainer import (
    TrainingDiverged,
    _mixed_batch,
    cosine_lr,
    evaluate,
    quantized_model_loss,
    start_run,
    step_lr,
    train_epoch,
)

from helpers import astype, class_centroids, is_batch_innermost


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
        ad.backward(loss)
        opt.step(1e-3)
    f.set_requires_grad(False)
    return f, train, test


def run_state(world, settings):
    """The state of a run of ``settings`` on the fixture's classifier, after
    its warm-up."""
    f, train, _ = world
    return start_run(settings, f, train)[0]


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
    return calibrate_activation_bounds(f, images, QuantPolicy(default_bits=8))


def test_qloss_identity_case_kd_zero(world):
    f, train, _ = world
    xs = Tensor(train.images[:8])
    ys = train.labels[:8]
    quant = _runtime8(f, train.images[:8])
    # student == teacher up to 8-bit quantization when Q is an exact copy
    q = f.copy()
    q.set_requires_grad(True)
    with ad.no_grad():
        logits_f = forward(f, xs, train=False).output
    loss, parts = quantized_model_loss(q, logits_f.data, xs, np.arange(8), ys,
                                       LossWeights(kd=20.0), quant)
    # weights per channel and activations per layer are fake-quantized at 8 bits;
    # compare up to that
    assert parts["kd"] < 1e-3
    ce_only, parts0 = quantized_model_loss(q, logits_f.data, xs, np.arange(8), ys,
                                           LossWeights(kd=0.0), quant)
    assert float(ce_only.data) == pytest.approx(parts0["ce"], rel=1e-6)


def test_qloss_weighted_sum_arithmetic():
    # 0.7 + 20 * 0.01 = 0.9
    w = LossWeights(kd=20.0)
    assert 0.7 + w.kd * 0.01 == pytest.approx(0.9)


def test_qloss_empty_batch_errors(world):
    f, train, _ = world
    q = f.copy()
    rt = _runtime8(f, train.images[:8])
    with pytest.raises(ValueError):
        quantized_model_loss(q, np.zeros((0, 8), np.float32),
                             Tensor(np.zeros((0, 1, 16, 16), np.float32)), np.arange(0),
                             np.zeros(0, np.int64), LossWeights(), rt)


# ---------------------------------------------------------------------------
# a run's set-up
# ---------------------------------------------------------------------------

def _act_bounds(quant):
    return [(q.bits, float(q.lower), float(q.upper)) for q in quant.act_params]


def test_activation_bounds_come_from_the_calibration_images(world):
    f, train, _ = world
    settings = tiny_settings(policy=QuantPolicy(default_bits=3, first_layer_bits=8))
    state = run_state(world, settings)
    ref = calibrate_activation_bounds(f, extract_calibration(train, 8).images, settings.policy)
    assert _act_bounds(state.quant) == _act_bounds(ref)


def test_zero_shot_activation_bounds_come_from_a_synthetic_batch_after_the_warm_up(world):
    settings = tiny_settings(classes=0)
    cfg = settings.train
    state = run_state(world, settings)
    assert len(state.calib) == 0
    # the label and noise streams continue from the warm-up's draws, one
    # batch per step, and the warmed-up generator draws the calibration batch
    rng_labels, rng_noise = (np.random.default_rng([cfg.seed, k]) for k in (3, 4))
    for _ in range(cfg.warmup_epochs * cfg.steps_per_epoch + 1):
        labels = sample_labels(8, cfg.batch_size, rng_labels)
        with ad.no_grad():
            images = generate(state.g_net, labels, rng_noise).data
    ref = calibrate_activation_bounds(world[0], images, settings.policy)
    assert _act_bounds(state.quant) == _act_bounds(ref)


# ---------------------------------------------------------------------------
# warm-up and epochs
# ---------------------------------------------------------------------------

def test_zero_warmup_leaves_generator_unchanged(world):
    settings = tiny_settings(train_kw={"warmup_epochs": 0})
    state, losses = start_run(settings, world[0], world[1])
    assert losses == []
    fresh = build_generator(seed=settings.train.seed)
    for k, p in fresh.params.items():
        assert np.array_equal(p.data, state.g_net.params[k].data)


def test_warmup_reduces_generator_loss(world):
    def eval_loss(state):
        labels = sample_labels(8, 32, np.random.default_rng(999))
        with ad.no_grad():
            imgs = generate(state.g_net, labels, np.random.default_rng(998))
            loss, _, _ = generator_total_loss(
                imgs, labels, state.f_net, state.running, state.centroids,
                state.settings.weights, state.settings.distortion, np.random.default_rng(997),
            )
        return float(loss.data)

    outcomes = []
    for seed in range(3):
        # the same run before and after its warm-up: the generator's initial
        # weights depend only on the seed
        before, after = (
            run_state(world, tiny_settings(train_kw={"warmup_epochs": epochs,
                                                     "steps_per_epoch": 10, "seed": seed}))
            for epochs in (0, 6))
        outcomes.append(eval_loss(after) <= eval_loss(before))
    assert np.median(outcomes) == 1.0


def test_warmup_deterministic_given_seed(world):
    settings = tiny_settings(train_kw={"seed": 11})
    s1, s2 = run_state(world, settings), run_state(world, settings)
    for k in s1.g_net.params:
        assert np.array_equal(s1.g_net.params[k].data, s2.g_net.params[k].data)


def test_train_epoch_keeps_teacher_frozen_and_metrics_finite(world, monkeypatch):
    f = world[0]
    settings = tiny_settings()
    state = run_state(world, settings)
    assert state.g_net is not None
    calls = {"_generator_step": 0, "_quantized_step": 0}
    for name in calls:
        def counted(*args, _step=getattr(trainer, name), _name=name):
            calls[_name] += 1
            return _step(*args)
        monkeypatch.setattr(trainer, name, counted)
    before = {k: p.data.copy() for k, p in f.params.items()}
    buf_before = {k: v.copy() for k, v in f.buffers.items()}
    metrics = train_epoch(state, epoch=0)
    for k in before:
        assert np.array_equal(before[k], f.params[k].data)
    for k in buf_before:
        assert np.array_equal(buf_before[k], f.buffers[k])
    # one generator and one quantized-model step per step of the epoch
    assert calls == {"_generator_step": settings.train.steps_per_epoch,
                     "_quantized_step": settings.train.steps_per_epoch}
    # train_epoch raises TrainingDiverged on any non-finite step, so having
    # returned, every step was finite; it returns the epoch's report entry
    assert set(metrics) == {"epoch", "lossG", "lossQ", "lossG_terms", "lossQ_terms"}
    assert metrics["epoch"] == 0
    assert metrics["lossG"] is not None


def test_zero_lr_and_zero_weights_change_nothing(world):
    settings = tiny_settings(
        weights=LossWeights(ce=0.0, bns=0.0, dbns=0.0, cbns=0.0, kd=0.0),
        train_kw={"lr_generator": 0.0, "lr_quantized": 0.0},
    )
    state = run_state(world, settings)
    g_before = {k: p.data.copy() for k, p in state.g_net.params.items()}
    q_before = {k: p.data.copy() for k, p in state.q_net.params.items()}
    train_epoch(state, epoch=0)
    for k in g_before:
        assert np.array_equal(g_before[k], state.g_net.params[k].data)
    for k in q_before:
        assert np.array_equal(q_before[k], state.q_net.params[k].data)


def test_no_synthetic_uses_calibration_batches(world):
    settings = tiny_settings(calibration_only=True)
    state = run_state(world, settings)
    metrics = train_epoch(state, epoch=0)
    assert metrics["lossG"] is None
    assert metrics["lossQ"] is not None


@pytest.mark.parametrize("mix_ratio,classes,split", [
    (0.25, None, (4, 12)),
    (0.25, 0, (0, 16)),
    (0.0, 8, (0, 16)),
    (1.0, 1, (16, 0)),
    (0.99, 8, (16, 0)),  # rounds to a whole batch: no synthetic rows
    (0.99, 0, None),
    (1.0, 0, None),
], ids=["mixed", "no-calibration", "synthetic-only", "calibration-only", "rounds-to-calibration-only",
        "no-data-after-rounding", "no-data"])
def test_batch_split(mix_ratio, classes, split):
    # the settings refuse a split with no data source when they are built
    cfg = TrainConfig(batch_size=16, mix_ratio=mix_ratio)
    if split is None:
        with pytest.raises(ConfigError, match="no training data"):
            RunSettings(train=cfg, classes=classes)
    else:
        assert RunSettings(train=cfg, classes=classes).batch_split() == split


def test_calibration_only_run_has_no_generator(world):
    settings = tiny_settings(calibration_only=True)
    state = run_state(world, settings)
    assert state.g_net is None and settings.batch_split() == (16, 0)
    images, rows, _, _ = _mixed_batch(state, None)
    # 16 rows drawn from the 8 calibration images, each image run once
    assert len(rows) == 16 and images.shape[0] == len(np.unique(rows)) <= 8


@pytest.mark.parametrize("calibration_only,unset", [(False, []), (True, ["g_net", "g_opt"])],
                         ids=["mixed", "calibration-only"])
def test_start_run_leaves_no_state_unset_but_an_absent_generator(world, calibration_only,
                                                                  unset):
    state = run_state(world, tiny_settings(calibration_only=calibration_only))
    assert [f.name for f in dataclasses.fields(state) if getattr(state, f.name) is None] == unset


# ---------------------------------------------------------------------------
# the quantized step trains on the generator step's batch
# ---------------------------------------------------------------------------

def test_quantized_step_trains_on_the_first_rows_of_the_generator_steps_batch(
        world, monkeypatch):
    settings = tiny_settings()
    state = run_state(world, settings)
    n_cal, n_syn = settings.batch_split()
    assert n_cal > 0 and n_syn > 0
    events = []
    loss_fn, q_loss_fn = trainer.generator_total_loss, trainer.quantized_model_loss

    def spy_loss(images, labels, *args):
        out = loss_fn(images, labels, *args)
        events.append(("G", images.data.copy(), labels.copy(), out[2].data.copy()))
        return out

    def spy_q_loss(q_net, teacher_logits, images, rows, labels, *args):
        events.append(("Q", images.data[rows], labels.copy(), teacher_logits.copy()))
        return q_loss_fn(q_net, teacher_logits, images, rows, labels, *args)

    monkeypatch.setattr(trainer, "generator_total_loss", spy_loss)
    monkeypatch.setattr(trainer, "quantized_model_loss", spy_q_loss)
    train_epoch(state, epoch=0)
    assert [e[0] for e in events] == ["G", "Q"] * settings.train.steps_per_epoch
    for (_, g_images, g_labels, g_logits), (_, q_images, q_labels, q_logits) in zip(
            events[::2], events[1::2]):
        np.testing.assert_array_equal(q_images[:n_syn], g_images[:n_syn])
        np.testing.assert_array_equal(q_labels[:n_syn], g_labels[:n_syn])
        # the teacher logits of the generator step's own captured forward pass
        np.testing.assert_array_equal(q_logits[:n_syn], g_logits[:n_syn])
        assert len(q_images) == n_cal + n_syn


def test_quantized_step_runs_neither_generator_nor_teacher(world, monkeypatch):
    settings = tiny_settings()
    state = run_state(world, settings)
    _, _, synthetic = trainer._generator_step(state, 1e-3)
    calls = []
    fwd, gen = trainer.forward, trainer.generate

    def spy_generate(*args):
        calls.append("generate")
        return gen(*args)

    def spy_forward(net, *args, **kw):
        calls.append("teacher" if net is state.f_net else "student")
        return fwd(net, *args, **kw)

    monkeypatch.setattr(trainer, "generate", spy_generate)
    monkeypatch.setattr(trainer, "forward", spy_forward)
    trainer._quantized_step(state, 1e-3, synthetic)
    assert calls == ["student"]


def test_zero_shot_batch_is_the_whole_generator_batch(world):
    settings = tiny_settings(classes=0)
    state = run_state(world, settings)
    assert settings.batch_split() == (0, settings.train.batch_size)
    _, _, synthetic = trainer._generator_step(state, 1e-3)
    images, rows, labels, teacher = _mixed_batch(state, synthetic)
    np.testing.assert_array_equal(rows, np.arange(settings.train.batch_size))
    for got, want in zip((images, labels, teacher), synthetic):
        assert len(want) == settings.train.batch_size
        np.testing.assert_array_equal(got.data if isinstance(got, Tensor) else got, want)


def test_generator_does_not_read_the_student(world, monkeypatch):
    # runs at one seed share their generator whatever the student's policy,
    # so single-policy runs at one seed are paired
    generators = []
    build = trainer.build_generator

    def keep(*args, **kw):
        generators.append(build(*args, **kw))
        return generators[-1]

    monkeypatch.setattr(trainer, "build_generator", keep)
    w3, w2 = (trainer.run_fdda(tiny_settings(policy=QuantPolicy(default_bits=bits)), *world)[1]
              for bits in (3, 2))
    assert [e["lossQ"] for e in w3["per_epoch"]] != [e["lossQ"] for e in w2["per_epoch"]]
    for key in ("warmup_loss_first", "warmup_loss_last"):
        assert w3[key] == w2[key]
    assert [e["lossG"] for e in w3["per_epoch"]] == [e["lossG"] for e in w2["per_epoch"]]
    g3, g2 = generators
    assert g3.params.keys() == g2.params.keys()
    for k in g3.params:
        np.testing.assert_array_equal(g3.params[k].data, g2.params[k].data)


# ---------------------------------------------------------------------------
# teacher logits of the calibration images
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("calibration_only", [False, True], ids=["mixed", "calibration-only"])
def test_teacher_logits_equal_rows_of_the_mixed_batch_forward(world, calibration_only):
    settings = tiny_settings(calibration_only=calibration_only, train_kw={"batch_size": 64})
    state = run_state(world, settings)
    synthetic = None
    if not calibration_only:
        _, _, synthetic = trainer._generator_step(state, 1e-3)
    images, rows, _, teacher = _mixed_batch(state, synthetic)
    assert len(rows) == 64
    with ad.no_grad():
        ref = forward(state.f_net, Tensor(images.data[rows]), train=False).output.data
    np.testing.assert_array_equal(teacher, ref)
    assert state.teacher_calib.shape == (len(state.calib), 8)


def test_teacher_table_is_built_once_per_run(world):
    settings = tiny_settings(calibration_only=True)
    state = run_state(world, settings)
    table = state.teacher_calib
    assert table.shape == (len(state.calib), 8)
    train_epoch(state, epoch=0)
    train_epoch(state, epoch=1)
    assert state.teacher_calib is table


def test_teacher_table_covers_more_images_than_one_batch(world):
    settings = tiny_settings(calibration_only=True, train_kw={"batch_size": 3})
    state = run_state(world, settings)
    with ad.no_grad():
        ref = forward(state.f_net, Tensor(state.calib.images), train=False).output.data
    # chunks of 3 rows, not one batch of 8: equal up to GEMM blocking
    np.testing.assert_allclose(state.teacher_calib, ref, rtol=1e-5, atol=1e-5)


def test_teacher_table_not_built_without_calibration_rows(world, monkeypatch):
    def refuse(*args):
        raise AssertionError("teacher pass over no calibration images")

    monkeypatch.setattr(trainer, "per_image_bns", refuse)
    state = run_state(world, tiny_settings(classes=0))
    assert state.teacher_calib.shape == (0, 8)
    train_epoch(state, epoch=0)


@pytest.mark.parametrize("batch_size", [3, 16])
@pytest.mark.parametrize("calibration_only", [False, True], ids=["mixed", "calibration-only"])
def test_start_run_is_the_one_teacher_pass_over_the_calibration_images(
        world, monkeypatch, calibration_only, batch_size):
    # per_image_bns's passes, counted wherever the teacher's eval forward
    # runs outside the generator and the activation calibration
    f, train, _ = world
    calib = {x.tobytes() for x in extract_calibration(train, 8).images}
    passes = []

    def spy(module):
        fwd = module.forward

        def spy_forward(net, x, *args, **kw):
            if net is f and all(img.tobytes() in calib for img in x.data):
                passes.append(x.shape[0])
            return fwd(net, x, *args, **kw)
        monkeypatch.setattr(module, "forward", spy_forward)

    spy(trainer)
    spy(bns)
    state = run_state(world, tiny_settings(calibration_only=calibration_only,
                                           train_kw={"batch_size": batch_size}))
    assert passes == [batch_size] * -(-len(state.calib) // batch_size)
    passes.clear()
    train_epoch(state, epoch=0)
    assert passes == []


@pytest.mark.parametrize("batch_size", [3, 16, 64])
def test_start_run_centroids_do_not_depend_on_the_batch_size(world, batch_size):
    # the run's centroids come from cycled passes of batch_size rows; they
    # equal those of per_image_bns's own passes, bit for bit
    f, train, _ = world
    state = run_state(world, tiny_settings(calibration_only=True,
                                           train_kw={"batch_size": batch_size}))
    want = class_centroids(f, state.calib, state.centroids.deep_start)
    assert [m.shape for m in state.centroids.stats.means] == [m.shape for m in want.stats.means]
    for got, ref in zip(state.centroids.stats.means + state.centroids.stats.variances,
                        want.stats.means + want.stats.variances):
        assert got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# the student runs each distinct image of a batch once
# ---------------------------------------------------------------------------

SPLITS = pytest.mark.parametrize("calibration_only", [False, True],
                                 ids=["mixed", "calibration-only"])


def _batch64(world, calibration_only):
    """A batch-64 run's state after its warm-up, and the synthetic batch of
    one generator step (None in a calibration-only run)."""
    state = run_state(world, tiny_settings(calibration_only=calibration_only,
                                           train_kw={"batch_size": 64}))
    synthetic = None if calibration_only else trainer._generator_step(state, 1e-3)[2]
    return state, synthetic


@SPLITS
def test_mixed_batch_keeps_the_draws_and_runs_each_image_once(world, calibration_only):
    state, synthetic = _batch64(world, calibration_only)
    n_cal, n_syn = state.settings.batch_split()
    calib = state.calib
    pick = np.random.default_rng([state.settings.train.seed, 6]).integers(
        0, len(calib), size=n_cal)
    images, rows, labels, teacher = _mixed_batch(state, synthetic)
    drawn = (calib.images[pick], calib.labels[pick], state.teacher_calib[pick])
    want_images, want_labels, want_teacher = (
        np.concatenate([part[:n_syn], d]) for part, d in zip(synthetic or drawn, drawn))
    np.testing.assert_array_equal(labels, want_labels)
    np.testing.assert_array_equal(teacher, want_teacher)
    # the batch of a pass over every row, rebuilt bit for bit
    np.testing.assert_array_equal(images.data[rows], want_images)
    np.testing.assert_array_equal(rows[:n_syn], np.arange(n_syn))
    distinct = images.data[n_syn:].reshape(images.shape[0] - n_syn, -1)
    assert len(np.unique(distinct, axis=0)) == len(distinct) == len(np.unique(pick))


def _loss_and_grads(state, images, rows, labels, teacher):
    loss, terms = quantized_model_loss(state.q_net, teacher, images, rows, labels,
                                       state.settings.weights, state.quant)
    for p in state.q_net.params.values():  # no step consumed the last call's gradients
        p.grad = None
    ad.backward(loss)
    return loss.data, terms, {k: p.grad.copy() for k, p in state.q_net.params.items()}


@SPLITS
def test_step_loss_equals_a_pass_over_every_row(world, calibration_only):
    state, synthetic = _batch64(world, calibration_only)
    images, rows, labels, teacher = _mixed_batch(state, synthetic)
    assert images.shape[0] < len(rows)  # some calibration image repeats
    every_row = (Tensor(images.data[rows]), np.arange(len(rows)), labels, teacher)
    # float32: the loss and both terms, bit for bit
    loss, terms, _ = _loss_and_grads(state, images, rows, labels, teacher)
    ref_loss, ref_terms, _ = _loss_and_grads(state, *every_row)
    assert loss.tobytes() == ref_loss.tobytes() and terms == ref_terms
    # float64: the gradients, summed over a repeated image's rows in another order
    state.q_net = astype(state.q_net, np.float64)
    f64 = [(Tensor(x.data.astype(np.float64)), r, y, t.astype(np.float64))
           for x, r, y, t in ((images, rows, labels, teacher), every_row)]
    (_, _, grads), (_, _, ref_grads) = (_loss_and_grads(state, *b) for b in f64)
    for k, g in grads.items():
        assert np.abs(g - ref_grads[k]).max() <= 1e-12 * np.abs(ref_grads[k]).max(), k


@SPLITS
def test_student_forward_gets_one_row_per_distinct_image(world, monkeypatch, calibration_only):
    state, synthetic = _batch64(world, calibration_only)
    n_cal, n_syn = state.settings.batch_split()
    rng = np.random.default_rng()
    rng.bit_generator.state = state.rng_mix.bit_generator.state
    distinct = len(np.unique(rng.integers(0, len(state.calib), size=n_cal)))
    rows = []
    fwd = trainer.forward

    def spy_forward(net, x, *args, **kw):
        rows.append(x.shape[0])
        return fwd(net, x, *args, **kw)

    monkeypatch.setattr(trainer, "forward", spy_forward)
    trainer._quantized_step(state, 1e-3, synthetic)
    assert rows == [n_syn + distinct]
    assert distinct <= len(state.calib) < n_cal


# ---------------------------------------------------------------------------
# divergence
# ---------------------------------------------------------------------------

def test_non_finite_quantized_loss_raises_naming_epoch_and_step(world, monkeypatch):
    settings = tiny_settings(calibration_only=True)
    state = run_state(world, settings)
    losses = iter([0.5, float("nan")])
    monkeypatch.setattr(trainer, "_quantized_step", lambda *a: (next(losses), {}))
    with pytest.raises(TrainingDiverged, match="quantized-model loss became nan at "
                                               "training epoch 4, step 1"):
        train_epoch(state, epoch=4)


def test_non_finite_generator_loss_raises_in_warmup(world, monkeypatch):
    monkeypatch.setattr(trainer, "_generator_step", lambda *a: (float("inf"), {}, None))
    with pytest.raises(TrainingDiverged, match="generator loss became inf at "
                                               "warm-up epoch 0, step 0"):
        run_state(world, tiny_settings())


# ---------------------------------------------------------------------------
# memory of a training step
# ---------------------------------------------------------------------------

def _step(name, state):
    """A call of one training step at lr 1e-3; a quantized step's synthetic
    rows come from a generator step run here, beforehand, when the run has a
    generator."""
    args = (state, 1e-3)
    if name == "_generator_step":
        return lambda: trainer._generator_step(*args)
    synthetic = trainer._generator_step(*args)[2] if state.g_net is not None else None
    return lambda: trainer._quantized_step(*args, synthetic)


def _step_peak_bytes(name, state):
    _step(name, state)()  # allocates the optimizer's moments
    step = _step(name, state)
    tracemalloc.start()
    try:
        step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_generator_step_peak_memory_at_batch_64(world):
    # about 17.3 MB: the taped forward at backward's start, with the
    # generator's column matrices (about 7 MB), which its weight gradients
    # read; 17.7 MB while the teacher's and the input-gradient convs built
    # whole column matrices too, instead of cache-sized blocks. A backward
    # that copied every gradient an op returned made it 18.2 MB, and
    # 19.5 MB while the BN-statistics op also kept all its
    # per-layer deviations until backward had copied their gradients out.
    # Convs that read a 2x-upsampled map instead of sub-pixel convs on the
    # low-resolution input made the step about 33 MB; teacher convs that
    # keep their column matrices too reach about 40 MB, and a backward that
    # also keeps the whole tape to its end, 57 MB.
    settings = tiny_settings(train_kw={"batch_size": 64})
    state = run_state(world, settings)
    assert _step_peak_bytes("_generator_step", state) < 18e6


def test_quantized_step_peak_memory_at_batch_64(world):
    # about 12.9 MB, with the generator step's batch made beforehand: the
    # student runs 48 synthetic rows and the 5-8 distinct images of the 16
    # calibration rows (15.4 MB when it ran all 64 rows, 13.5 MB while its
    # input-gradient convs built whole column matrices)
    settings = tiny_settings(train_kw={"batch_size": 64})
    state = run_state(world, settings)
    assert _step_peak_bytes("_quantized_step", state) < 14e6


def test_calibration_only_step_peak_memory_at_batch_64(world):
    # about 2.1 MB: the student runs once over the at most 8 distinct
    # calibration images of its 64 rows; a pass over all 64 rows took 15.4 MB
    settings = tiny_settings(calibration_only=True, train_kw={"batch_size": 64})
    state = run_state(world, settings)
    assert _step_peak_bytes("_quantized_step", state) < 4e6


# ---------------------------------------------------------------------------
# memory layout of a training step
# ---------------------------------------------------------------------------

def _conv_inputs(monkeypatch, name, state):
    """Every array a step's convs read, through the zero-padded copy each
    conv makes of its input, and the subset that are forward inputs of an
    exempt conv: a classifier's first conv, which reads the network's input
    images (one channel), and the generator's first, which reads the
    normalized output of its Reshape layer (upsampling)."""
    step = _step(name, state)
    seen, exempt = [], []
    padded, conv2d = ad._padded, ad.conv2d

    def spy_padded(x, pad):
        seen.append(x)
        return padded(x, pad)

    def spy_conv2d(x, w, b, pad=0, upsample=False):
        if x.shape[1] == 1 or (upsample and x.shape[1] == state.g_net.params["gconv1.w"].shape[1]):
            exempt.append(x.data)
        return conv2d(x, w, b, pad=pad, upsample=upsample)

    monkeypatch.setattr(ad, "_padded", spy_padded)
    monkeypatch.setattr(ad, "conv2d", spy_conv2d)
    step()
    return seen, exempt


@pytest.mark.parametrize("step,n_calls", [
    # forward: 3 generator and 6 teacher convs; backward: the input
    # gradients of all 9, as the images require a gradient
    ("_generator_step", 18),
    # forward: the 6 student convs, on the generator step's images and
    # teacher logits; backward: the student's input gradients but conv1's
    ("_quantized_step", 11),
])
def test_step_hands_im2col_batch_innermost_arrays(world, monkeypatch, step, n_calls):
    settings = tiny_settings(train_kw={"batch_size": 64})
    state = run_state(world, settings)
    seen, exempt = _conv_inputs(monkeypatch, step, state)
    assert len(seen) == n_calls
    odd = [x for x in seen if not is_batch_innermost(x)]
    assert all(any(x is e for e in exempt) for x in odd)


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


# ---------------------------------------------------------------------------
# missing-class rule
# ---------------------------------------------------------------------------

def test_missing_class_changes_only_its_own_terms(world):
    # removing the last class's centroid changes the loss by exactly that
    # class's centroid contribution (verified in float64 with a frozen noise
    # draw)
    f64 = astype(world[0], np.float64)
    f64.set_requires_grad(False)
    train, _ = make_toy_dataset(SPEC)
    calib = extract_calibration(train, 8)
    K = deep_layer_start(f64.bn_layer_count)
    cen_full = class_centroids(f64, calib, K)
    drop = 7
    cen_wo = class_centroids(f64, extract_calibration(train, drop), K)

    g = astype(build_generator(seed=1), np.float64)
    labels = sample_labels(8, 32, np.random.default_rng(2))
    with ad.no_grad():
        images = generate(g, labels, np.random.default_rng(3))
        w = LossWeights()
        d = DistortionParams()
        total_full, parts_full, _ = generator_total_loss(
            images, labels, f64, collect_running_stats(f64), cen_full, w, d,
            np.random.default_rng(7),
        )
        total_wo, parts_wo, _ = generator_total_loss(
            images, labels, f64, collect_running_stats(f64), cen_wo, w, d,
            np.random.default_rng(7),
        )
    # ce and bns are untouched by the missing class
    assert parts_full["ce"] == pytest.approx(parts_wo["ce"], rel=1e-12)
    assert parts_full["bns"] == pytest.approx(parts_wo["bns"], rel=1e-12)
    assert drop in labels and len(cen_wo.stats.means[0]) == drop

    # per-class decomposition: difference equals class `drop`'s own terms
    from fdda.bns import alignment_loss
    from fdda.network import forward as fwd

    # class `drop`'s own term: its samples as class 0, the one class of a
    # one-row centroid set
    cen_only = ClassCentroids(K, BnStats(tuple(m[drop:] for m in cen_full.stats.means),
                                         tuple(v[drop:] for v in cen_full.stats.variances)))
    only_labels = np.where(labels == drop, 0, 8)
    with ad.no_grad():
        cap = fwd(f64, images, train=False, capture_bn=True)
        cb_full, cb_wo, cb_only = (
            alignment_loss(cap.bn_inputs, lab, collect_running_stats(f64), cen, d,
                           np.random.default_rng(7), w_bns=0.0, w_cbns=1.0, w_dbns=0.0)[1]["cbns"]
            for lab, cen in ((labels, cen_full), (labels, cen_wo), (only_labels, cen_only)))
    assert cb_full - cb_wo == pytest.approx(cb_only, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_all_correct_and_chance(world):
    f, train, test = world
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
