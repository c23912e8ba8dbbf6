"""The optimizers update flat arrays with whole-array calls; each step must
give the bits of the per-array update formulas they replace."""

import tracemalloc

import numpy as np
import pytest

from fdda.autodiff import Tensor
from fdda.optim import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, Adam, NesterovSGD, decays_weight

# one array of each kind the models have: a conv kernel (its gradient laid
# out as the conv's weight GEMM writes it), a bias, BN affine parameters, a
# dense kernel and the generator's label embedding
SHAPES = {"conv.w": (8, 4, 3, 3), "conv.b": (8,), "bn.gamma": (8,), "bn.beta": (8,),
          "fc.w": (5, 12), "embed.w": (10, 6)}


def _params(seed=0):
    rng = np.random.default_rng(seed)
    return {k: Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
            for k, s in SHAPES.items()}


def _grads(rng):
    grads = {k: rng.standard_normal(s).astype(np.float32) for k, s in SHAPES.items()}
    o, c, k, _ = SHAPES["conv.w"]
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


def ref_sgd(params, grads, lr, mu, wd, buf):
    """The per-array Nesterov SGD update, one array at a time."""
    for k, p in params.items():
        g = grads[k]
        if wd and decays_weight(k):
            g = g + wd * p
        buf[k] = mu * buf[k] + g
        p -= (lr * (g + mu * buf[k])).astype(p.dtype)


def _run(make_opt, ref_step, steps=3):
    params = _params()
    ref = {k: p.data.copy() for k, p in params.items()}
    opt = make_opt(params)
    rng = np.random.default_rng(1)
    for t in range(1, steps + 1):
        grads = _grads(rng)
        for k, p in params.items():
            p.grad = grads[k]
        opt.step(0.01 * t)
        ref_step(ref, grads, 0.01 * t, t)
        for k, p in params.items():
            assert p.data.shape == SHAPES[k]
            assert p.data.tobytes() == ref[k].tobytes(), (t, k)


def test_adam_equals_the_per_array_update_bit_for_bit():
    m = {k: np.zeros(s, np.float32) for k, s in SHAPES.items()}
    v = {k: np.zeros(s, np.float32) for k, s in SHAPES.items()}
    _run(Adam, lambda ref, grads, lr, t: ref_adam(ref, grads, lr, t, m, v))


@pytest.mark.parametrize("weight_decay", [1e-4, 0.0])
def test_nesterov_sgd_equals_the_per_array_update_bit_for_bit(weight_decay):
    buf = {k: np.zeros(s, np.float32) for k, s in SHAPES.items()}
    _run(lambda params: NesterovSGD(params, momentum=0.9, weight_decay=weight_decay),
         lambda ref, grads, lr, t: ref_sgd(ref, grads, lr, 0.9, weight_decay, buf))


def test_weight_decay_moves_kernels_only():
    params = _params()
    before = {k: p.data.copy() for k, p in params.items()}
    opt = NesterovSGD(params, momentum=0.9, weight_decay=0.1)
    for p in params.values():
        p.grad = np.zeros_like(p.data)
    opt.step(0.5)
    moved = {k for k, p in params.items() if not np.array_equal(p.data, before[k])}
    assert moved == {"conv.w", "fc.w"}


def test_a_parameter_without_a_gradient_is_an_error():
    params = _params()
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
    for p in params.values():
        p.grad = rng.standard_normal(p.shape).astype(np.float32)
    opt.step(0.1)
    tracemalloc.start()
    try:
        opt.step(0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < params["conv.w"].data.nbytes // 16
