"""The optimizers update flat arrays with whole-array calls; each step must
give the bits of the per-array update formulas they replace."""

import tracemalloc

import numpy as np
import pytest

from fdda.autodiff import Tensor
from fdda.optim import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, SGD_MOMENTUM, SGD_WEIGHT_DECAY, Adam,
                        NesterovSGD, decays_weight)

# one array of each kind the classifier has: a conv kernel (its gradient laid
# out as the conv's weight GEMM writes it), a bias, BN affine parameters and a
# dense kernel; Adam also trains the generator, so its arrays add the label
# embedding
CLASSIFIER_SHAPES = {"conv.w": (8, 4, 3, 3), "conv.b": (8,), "bn.gamma": (8,), "bn.beta": (8,),
                     "fc.w": (5, 12)}
SHAPES = {**CLASSIFIER_SHAPES, "embed.w": (10, 6)}
OPTIMIZERS = pytest.mark.parametrize("make,shapes", [(Adam, SHAPES),
                                                     (NesterovSGD, CLASSIFIER_SHAPES)],
                                     ids=["adam", "nesterov-sgd"])


def _params(shapes, seed=0):
    rng = np.random.default_rng(seed)
    return {k: Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
            for k, s in shapes.items()}


def _grads(rng, shapes):
    grads = {k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()}
    o, c, k, _ = shapes["conv.w"]
    grads["conv.w"] = np.ascontiguousarray(grads["conv.w"].reshape(o, -1).T).T.reshape(o, c, k, k)
    return grads


def ref_adam(params, grads, lr, t, m, v):
    """The per-array Adam update, one array at a time."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for k, p in params.items():
        g = grads[k]
        m[k] = b1 * m[k] + (1 - b1) * g
        v[k] = b2 * v[k] + (1 - b2) * (g * g)
        mhat = m[k] / bias1
        vhat = v[k] / bias2
        p -= (lr * mhat / (np.sqrt(vhat) + ADAM_EPS)).astype(p.dtype)


def ref_sgd(params, grads, lr, buf):
    """The per-array Nesterov SGD update, one array at a time."""
    mu, wd = SGD_MOMENTUM, SGD_WEIGHT_DECAY
    for k, p in params.items():
        g = grads[k]
        if decays_weight(k):
            g = g + wd * p
        buf[k] = mu * buf[k] + g
        p -= (lr * (g + mu * buf[k])).astype(p.dtype)


def _run(make_opt, ref_step, shapes, steps=3):
    params = _params(shapes)
    ref = {k: p.data.copy() for k, p in params.items()}
    opt = make_opt(params)
    rng = np.random.default_rng(1)
    for t in range(1, steps + 1):
        grads = _grads(rng, shapes)
        for k, p in params.items():
            p.grad = grads[k]
        opt.step(0.01 * t)
        ref_step(ref, grads, 0.01 * t, t)
        for k, p in params.items():
            assert p.data.shape == shapes[k]
            assert p.data.tobytes() == ref[k].tobytes(), (t, k)


def test_adam_equals_the_per_array_update_bit_for_bit():
    m = {k: np.zeros(s, np.float32) for k, s in SHAPES.items()}
    v = {k: np.zeros(s, np.float32) for k, s in SHAPES.items()}
    _run(Adam, lambda ref, grads, lr, t: ref_adam(ref, grads, lr, t, m, v), SHAPES)


def test_nesterov_sgd_equals_the_per_array_update_bit_for_bit():
    buf = {k: np.zeros(s, np.float32) for k, s in CLASSIFIER_SHAPES.items()}
    _run(NesterovSGD, lambda ref, grads, lr, t: ref_sgd(ref, grads, lr, buf), CLASSIFIER_SHAPES)


def test_weight_decay_moves_kernels_only():
    params = _params(CLASSIFIER_SHAPES)
    before = {k: p.data.copy() for k, p in params.items()}
    opt = NesterovSGD(params)
    for p in params.values():
        p.grad = np.zeros_like(p.data)
    opt.step(0.5)
    moved = {k for k, p in params.items() if not np.array_equal(p.data, before[k])}
    assert moved == {"conv.w", "fc.w"}


@OPTIMIZERS
def test_a_step_consumes_the_gradients(make, shapes):
    params = _params(shapes)
    opt = make(params)
    for p in params.values():
        p.grad = np.ones_like(p.data)
    opt.step(0.1)
    assert [k for k, p in params.items() if p.grad is not None] == []


@OPTIMIZERS
def test_a_second_step_without_new_gradients_is_an_error(make, shapes):
    # it must not re-apply the gradients of the step before
    params = _params(shapes)
    opt = make(params)
    for p in params.values():
        p.grad = np.ones_like(p.data)
    opt.step(0.1)
    after_one = {k: p.data.copy() for k, p in params.items()}
    with pytest.raises(ValueError, match="parameter conv.w has no gradient"):
        opt.step(0.1)
    assert all(np.array_equal(p.data, after_one[k]) for k, p in params.items())


def test_a_parameter_without_a_gradient_is_an_error():
    params = _params(SHAPES)
    opt = Adam(params)
    for k, p in params.items():
        p.grad = None if k == "bn.beta" else np.zeros_like(p.data)
    with pytest.raises(ValueError, match="bn.beta has no gradient"):
        opt.step(0.1)


@pytest.mark.parametrize("make", [Adam, NesterovSGD], ids=["adam", "nesterov-sgd"])
def test_a_step_allocates_no_array(make):
    # a step works in the optimizer's own arrays: it allocates nothing the
    # size of the parameters
    rng = np.random.default_rng(2)
    params = {k: Tensor(rng.standard_normal((256, 256)).astype(np.float32), requires_grad=True)
              for k in ("conv.w", "conv.b")}
    opt = make(params)
    grads = {k: rng.standard_normal(p.shape).astype(np.float32) for k, p in params.items()}
    for k, p in params.items():
        p.grad = grads[k]
    opt.step(0.1)
    for k, p in params.items():  # the step consumed them
        p.grad = grads[k]
    tracemalloc.start()
    try:
        opt.step(0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < params["conv.w"].data.nbytes // 16
