"""Tensor/tape core: op semantics, losses, and gradient fidelity against
central finite differences (the independent oracle for every backward rule)."""

import tracemalloc

import numpy as np
import pytest

from fdda import autodiff as ad
from fdda.autodiff import Tensor
from fdda.bns import BnStats, ClassCentroids, DistortionParams, alignment_loss
from fdda.network import BN_EPS, BN_MOMENTUM, batchnorm_forward

from helpers import batch_innermost, grad_check, is_batch_innermost


def tensor64(arr, requires_grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------

def test_dense_identity_weight():
    y = ad.dense(Tensor([[1.0, 2.0]]), Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([0.0, 0.0]))
    np.testing.assert_allclose(y.data, [[1.0, 2.0]])


def test_dense_hand_arithmetic():
    y = ad.dense(Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]]), Tensor([1.0]))
    np.testing.assert_allclose(y.data, [[12.0]])


def test_dense_zero_input_passes_bias():
    y = ad.dense(Tensor([[0.0, 0.0]]), Tensor([[2.0, -7.0]]), Tensor([5.0]))
    np.testing.assert_allclose(y.data, [[5.0]])


def test_dense_shape_mismatch():
    with pytest.raises(ValueError):
        ad.dense(Tensor([[1.0, 2.0, 3.0]]), Tensor([[1.0, 2.0]]), Tensor([0.0]))


@pytest.mark.parametrize("op", [ad.add, ad.mul], ids=["add", "mul"])
def test_elementwise_ops_do_not_broadcast(op):
    with pytest.raises(ValueError, match=r"shape mismatch: \(2, 1\) and \(2,\)"):
        op(Tensor([[1.0], [2.0]], requires_grad=True), Tensor([1.0, 2.0]))


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def test_conv_scalar_product():
    x = Tensor(np.full((1, 1, 1, 1), 2.0))
    w = Tensor(np.full((1, 1, 1, 1), 3.0))
    out = ad.conv2d(x, w, Tensor(np.zeros(1)), pad=0)
    np.testing.assert_allclose(out.data, np.full((1, 1, 1, 1), 6.0))


def test_conv_all_ones_sums_window():
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = ad.conv2d(x, w, Tensor(np.zeros(1)), pad=0)
    np.testing.assert_allclose(out.data, np.full((1, 1, 1, 1), 9.0))


def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 1, 4, 5)).astype(np.float32))
    w = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
    out = ad.conv2d(x, w, Tensor(np.zeros(1, dtype=np.float32)), pad=0)
    np.testing.assert_allclose(out.data, x.data)


@pytest.mark.parametrize("wshape,pad", [((1, 1, 3, 3), 3), ((1, 1, 3, 3), 4), ((1, 1, 1, 1), 1),
                                         ((1, 1, 3, 2), 1), ((1, 1, 2, 3), 0)],
                         ids=["pad-eq-k", "pad-gt-k", "k1-pad1", "non-square", "non-square-valid"])
def test_conv_rejects_pad_not_below_kernel_and_non_square_kernel(wshape, pad):
    x = Tensor(np.ones((1, 1, 8, 8)))
    with pytest.raises(ValueError, match="square kernel and 0 <= pad < kernel"):
        ad.conv2d(x, Tensor(np.ones(wshape)), Tensor(np.zeros(1)), pad=pad)


def test_conv_matches_brute_force():
    # direct nested-loop cross-correlation as an independent oracle
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3, 6, 6))
    w = rng.normal(size=(4, 3, 3, 3))
    pad = 1
    out = ad.conv2d(tensor64(x), tensor64(w), tensor64(np.zeros(4)), pad=pad).data
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    expect = np.zeros_like(out)
    for n in range(2):
        for o in range(4):
            for i in range(6):
                for j in range(6):
                    patch = xp[n, :, i : i + 3, j : j + 3]
                    expect[n, o, i, j] = (patch * w[o]).sum()
    np.testing.assert_allclose(out, expect, rtol=1e-12)


# ---------------------------------------------------------------------------
# batchnorm
# ---------------------------------------------------------------------------

def _bn_buffers(c, dtype=np.float32):
    return np.zeros(c, dtype=dtype), np.ones(c, dtype=dtype)


def test_batchnorm_already_normalized_is_identity():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(512, 3, 4, 4)).astype(np.float64)
    x -= x.mean(axis=(0, 2, 3), keepdims=True)
    x /= x.std(axis=(0, 2, 3), keepdims=True)
    rm, rv = _bn_buffers(3, np.float64)
    y = batchnorm_forward(
        tensor64(x), tensor64(np.ones(3)), tensor64(np.zeros(3)),
        train=True, running_mean=rm, running_var=rv,
    )
    np.testing.assert_allclose(y.data, x, atol=1e-4)


def test_batchnorm_constant_channel_outputs_zero():
    x = Tensor(np.full((4, 2, 3, 3), 7.0))
    rm, rv = _bn_buffers(2)
    y = batchnorm_forward(
        x, Tensor(np.ones(2)), Tensor(np.zeros(2)),
        train=True, running_mean=rm, running_var=rv,
    )
    np.testing.assert_allclose(y.data, 0.0, atol=1e-6)


def test_batchnorm_batch_stats_biased():
    x = Tensor(np.array([[1.0], [3.0]]))
    _, bm, bv = ad.batchnorm_train(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), BN_EPS)
    np.testing.assert_allclose(bm, [2.0])
    np.testing.assert_allclose(bv, [1.0])  # ((1-2)^2 + (3-2)^2) / 2


def test_batchnorm_normalizes_to_unit_stats():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(2.0, 3.0, size=(64, 4, 8, 8)).astype(np.float32))
    rm, rv = _bn_buffers(4)
    y = batchnorm_forward(
        x, Tensor(np.ones(4)), Tensor(np.zeros(4)),
        train=True, running_mean=rm, running_var=rv,
    )
    np.testing.assert_allclose(y.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
    np.testing.assert_allclose(y.data.var(axis=(0, 2, 3)), 1.0, atol=1e-3)


def test_batchnorm_running_update_is_ema():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(32, 2, 4, 4)).astype(np.float32))
    rm, rv = _bn_buffers(2)
    momentum = BN_MOMENTUM
    batchnorm_forward(
        x, Tensor(np.ones(2)), Tensor(np.zeros(2)),
        train=True, running_mean=rm, running_var=rv,
    )
    bm, bv = x.data.mean(axis=(0, 2, 3)), x.data.var(axis=(0, 2, 3))
    np.testing.assert_allclose(rm, momentum * bm, rtol=1e-6)
    np.testing.assert_allclose(rv, (1 - momentum) * 1.0 + momentum * bv, rtol=1e-6)


def test_batchnorm_zero_batch_errors():
    rm, rv = _bn_buffers(1)
    with pytest.raises(ValueError):
        batchnorm_forward(
            Tensor(np.zeros((0, 1))), Tensor(np.ones(1)), Tensor(np.zeros(1)),
            train=True, running_mean=rm, running_var=rv,
        )


def test_batchnorm_fused_and_composed_paths_agree():
    """The fused train-mode op against the composed float64 formula and the
    EMA update of the running buffers."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(8, 3, 4, 4))
    gam = rng.normal(size=3)
    bet = rng.normal(size=3)
    rm, rv = _bn_buffers(3, np.float64)
    y = batchnorm_forward(
        tensor64(x), tensor64(gam), tensor64(bet), train=True,
        running_mean=rm, running_var=rv,
    )
    bm, bv = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    c = (1, 3, 1, 1)
    expect = (x - bm.reshape(c)) / np.sqrt(bv.reshape(c) + BN_EPS) * gam.reshape(c) + bet.reshape(c)
    np.testing.assert_allclose(y.data, expect, rtol=1e-12)
    np.testing.assert_allclose(rm, BN_MOMENTUM * bm, rtol=1e-12)
    np.testing.assert_allclose(rv, (1 - BN_MOMENTUM) + BN_MOMENTUM * bv, rtol=1e-12)


# ---------------------------------------------------------------------------
# activations and losses
# ---------------------------------------------------------------------------

def test_relu_tanh_values():
    np.testing.assert_allclose(ad.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
    assert ad.tanh(Tensor([0.0])).data[0] == 0.0
    big = ad.tanh(Tensor([50.0, -50.0])).data
    assert np.all(np.abs(big) <= 1.0) and big[0] > 0.999 and big[1] < -0.999


def test_cross_entropy_uniform_logits():
    loss = ad.softmax_cross_entropy(Tensor(np.zeros((1, 4))), np.array([2]))
    np.testing.assert_allclose(loss.data, np.log(4.0), rtol=1e-6)


def test_cross_entropy_confident_limit():
    logits = np.zeros((1, 3), dtype=np.float32)
    logits[0, 1] = 50.0
    loss = ad.softmax_cross_entropy(Tensor(logits), np.array([1]))
    assert float(loss.data) < 1e-6


def test_cross_entropy_closed_form():
    loss = ad.softmax_cross_entropy(Tensor([[1.0, 0.0]]), np.array([0]))
    np.testing.assert_allclose(loss.data, np.log(1 + np.exp(-1.0)), rtol=1e-6)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError):
        ad.softmax_cross_entropy(Tensor(np.zeros((1, 3))), np.array([3]))


def test_cross_entropy_nonnegative_random():
    rng = np.random.default_rng(6)
    for _ in range(20):
        logits = Tensor(rng.normal(size=(5, 7)).astype(np.float32))
        labels = rng.integers(0, 7, size=5)
        assert float(ad.softmax_cross_entropy(logits, labels).data) >= 0.0


def test_kl_identical_logits_is_zero():
    logits = Tensor(np.array([[0.3, -1.2, 0.5]]))
    assert float(ad.kl_divergence(logits, Tensor(logits.data.copy())).data) == pytest.approx(0.0, abs=1e-7)


def test_kl_closed_form():
    teacher = Tensor([[np.log(2.0), 0.0]])
    student = Tensor([[0.0, 0.0]])
    expect = (2 / 3) * np.log(4 / 3) + (1 / 3) * np.log(2 / 3)
    np.testing.assert_allclose(ad.kl_divergence(student, teacher).data, expect, rtol=1e-6)


def test_kl_nonnegative_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = Tensor(rng.normal(size=(4, 6)).astype(np.float32))
        t = Tensor(rng.normal(size=(4, 6)).astype(np.float32))
        assert float(ad.kl_divergence(s, t).data) >= -1e-7


def test_kl_shape_mismatch():
    with pytest.raises(ValueError):
        ad.kl_divergence(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 3))))


def test_kl_teacher_gets_no_gradient():
    s = Tensor(np.array([[0.2, -0.1]]), requires_grad=True)
    t = Tensor(np.array([[1.0, 0.0]]), requires_grad=True)
    ad.backward(ad.kl_divergence(s, t))
    assert s.grad is not None
    assert t.grad is None


# ---------------------------------------------------------------------------
# backward mechanics
# ---------------------------------------------------------------------------

def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    ad.backward(x.sum())
    np.testing.assert_allclose(x.grad, np.ones((2, 3)))


def test_backward_sum_of_squares():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    ad.backward((x * x).sum())
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        ad.backward(x * x)


def test_backward_clears_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    ad.backward((x * x).sum())
    assert ad.tape_size() == 0


def test_no_grad_suppresses_taping():
    x = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        y = (x * x).sum()
    assert not y.requires_grad
    assert ad.tape_size() == 0


def test_gradient_accumulates_across_backwards():
    x = Tensor(np.array([2.0]), requires_grad=True)
    ad.backward((x * x).sum())
    ad.backward((x * x).sum())
    np.testing.assert_allclose(x.grad, [8.0])


def test_backward_error_mid_walk_still_clears_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    y = x * x

    def bwd(g):
        raise RuntimeError("adjoint failed")

    z = ad.record_op(y.data.copy(), (y,), bwd)
    with pytest.raises(RuntimeError, match="adjoint failed"):
        ad.backward(z.sum())
    assert ad.tape_size() == 0


def test_caller_held_intermediates_keep_their_grad():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    h = ad.tanh(x)
    ad.backward((h * h).sum())
    np.testing.assert_allclose(h.grad, 2 * np.tanh(x.data))
    np.testing.assert_allclose(x.grad, 2 * np.tanh(x.data) * (1 - np.tanh(x.data) ** 2))


def test_gradients_share_no_memory_with_each_other_or_with_values():
    # add hands its output's gradient to both inputs, add(a, a) to one input
    # twice, and reshape writes a new array: each .grad must be its own
    rng = np.random.default_rng(0)
    a, b, c = (Tensor(rng.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
               for _ in range(3))
    twice = ad.add(a, a)
    both = ad.add(a, b)
    flat = ad.reshape(ad.mul(both, c), (6,))
    loss = ad.add(twice.sum(), flat.sum())
    ad.backward(loss)
    tensors = [a, b, c, twice, both, flat, loss]
    grads = [t.grad for t in tensors]
    assert all(g is not None for g in grads)
    np.testing.assert_array_equal(a.grad, 2 + c.data)
    np.testing.assert_array_equal(b.grad, c.data)
    for i, g in enumerate(grads):
        assert not any(np.shares_memory(g, h) for h in grads[i + 1 :])
        assert not any(np.shares_memory(g, t.data) for t in tensors)


# ---------------------------------------------------------------------------
# memory layout: conv outputs are batch-innermost, (C, H, W, N) in memory,
# and every op that writes a gradient array itself writes it in its input's
# layout, so no channel-major gradient reaches a conv's im2col
# ---------------------------------------------------------------------------

def _alignment_loss(t):
    """The BN-statistics op on one layer, with a centroid for class 0 only."""
    c = t.shape[1]
    cen = ClassCentroids(1, BnStats((np.zeros((1, c)),), (np.ones((1, c)),)))
    return alignment_loss([t], np.array([0, 1, 0, 2]), BnStats((np.zeros(c),), (np.ones(c),)),
                          cen, DistortionParams(), np.random.default_rng(0),
                          w_bns=0.2, w_cbns=0.05, w_dbns=0.9)[0]


LAYOUT_OPS = {
    "avg_pool2d": lambda t: ad.avg_pool2d(t, 2),
    "alignment_loss": _alignment_loss,
    "sum": lambda t: ad.sum_(t, axis=(0, 2, 3)),
    "sum-all": lambda t: ad.sum_(t),
    "reshape": lambda t: ad.reshape(t, (t.shape[0], -1)),
}


@pytest.mark.parametrize("op", list(LAYOUT_OPS))
@pytest.mark.parametrize("layout", ["contiguous", "batch-innermost"])
def test_backward_returns_the_gradient_in_the_input_layout(op, layout):
    rng = np.random.default_rng(3)
    data = rng.normal(size=(4, 3, 6, 8)).astype(np.float32)
    x = Tensor(batch_innermost(data) if layout == "batch-innermost" else data,
               requires_grad=True)
    out = LAYOUT_OPS[op](x)
    weights = np.asarray(rng.normal(size=out.shape), dtype=np.float32)
    ad.backward((out * Tensor(weights)).sum())
    assert x.grad.strides == x.data.strides


def test_phase_grid_interleaving_is_batch_innermost_both_ways():
    phases = batch_innermost(np.random.default_rng(4).normal(size=(3, 8, 5, 4)))
    out = ad._interleave(phases)
    back = ad._deinterleave(out)
    assert out.shape == (3, 2, 8, 6) and back.shape == phases.shape
    assert is_batch_innermost(out) and is_batch_innermost(back)


# ---------------------------------------------------------------------------
# memory: an op keeps only what its gradient reads, and backward consumes
# the tape as it walks (tracemalloc counts numpy's buffers)
# ---------------------------------------------------------------------------

def _retained_bytes(fn):
    """Bytes still allocated after ``fn()`` returns, while its result is held."""
    tracemalloc.start()
    try:
        result = fn()  # held while measuring, so its buffers count
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        ad._tape.clear()
    return current


@pytest.mark.parametrize("weight_grad", [False, True])
def test_conv_keeps_its_column_matrix_only_for_a_weight_gradient(weight_grad):
    rng = np.random.default_rng(0)
    n, c, h, o, k = 64, 16, 16, 8, 3
    x = Tensor(rng.normal(size=(n, c, h, h)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(o, c, k, k)).astype(np.float32), requires_grad=weight_grad)
    b = Tensor(np.zeros(o, dtype=np.float32))
    out_bytes = n * o * h * h * 4
    cols_bytes = c * k * k * n * h * h * 4
    kept = _retained_bytes(lambda: ad.conv2d(x, w, b, pad=1))
    if weight_grad:
        assert kept >= out_bytes + cols_bytes
    else:
        assert kept < out_bytes + cols_bytes // 4


@pytest.mark.parametrize("gamma_grad", [False, True])
def test_batchnorm_eval_keeps_its_normalized_input_only_for_a_gamma_gradient(gamma_grad):
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(64, 32, 8, 8)).astype(np.float32), requires_grad=True)
    gamma = Tensor(np.ones(32, dtype=np.float32), requires_grad=gamma_grad)
    beta = Tensor(np.zeros(32, dtype=np.float32))
    mean, inv = np.zeros(32, dtype=np.float32), np.ones(32, dtype=np.float32)
    kept = _retained_bytes(lambda: ad.batchnorm_eval(x, gamma, beta, mean, inv))
    if gamma_grad:
        assert kept >= 2 * x.data.nbytes  # the output and the normalized input
    else:
        assert kept < 1.25 * x.data.nbytes  # the output only


def test_backward_frees_the_tape_as_it_walks():
    # twelve array-sized outputs are alive when backward starts; a walk that
    # keeps every node and gradient to the end adds more than one array per
    # node (19 arrays here), one that drops them holds a few at a time: the
    # input's gradient and one node's output gradient, temporaries and result
    rng = np.random.default_rng(2)
    size = 1 << 18
    x = Tensor(rng.normal(size=size).astype(np.float32), requires_grad=True)
    c = Tensor(rng.uniform(0.5, 1.5, size=size).astype(np.float32))
    h = x
    for _ in range(4):
        h = ad.relu(ad.tanh(h) * c + c)
    loss = h.sum()
    tracemalloc.start()  # counts what backward allocates, not the forward
    try:
        ad.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.grad is not None
    assert peak <= 6 * x.data.nbytes


# ---------------------------------------------------------------------------
# finite-difference fidelity (64-bit verification mode)
# ---------------------------------------------------------------------------

def test_grad_check_quadratic_is_machine_exact():
    p = tensor64([1.0, -2.0, 0.5], requires_grad=True)
    err = grad_check(lambda: (p * p).sum(), [p], h=1e-3)
    assert err < 1e-6


@pytest.mark.parametrize("op_name", ["relu_safe", "tanh", "avg_pool", "upsample", "take"])
def test_grad_check_elementwise_ops(op_name):
    rng = np.random.default_rng(8)
    if op_name == "relu_safe":
        # keep params away from the kink at 0 (outside the op's smooth domain)
        p = tensor64(rng.normal(size=(3, 4)) + 3.0, requires_grad=True)
        f = lambda: ad.relu(p).sum()
    elif op_name == "tanh":
        p = tensor64(rng.normal(size=(3, 4)), requires_grad=True)
        f = lambda: (ad.tanh(p) * ad.tanh(p)).sum()
    elif op_name == "avg_pool":
        p = tensor64(rng.normal(size=(2, 2, 4, 4)), requires_grad=True)
        f = lambda: (ad.avg_pool2d(p, 2) * ad.avg_pool2d(p, 2)).sum()
    elif op_name == "upsample":
        # the input gradient of the sub-pixel conv; tests/test_kernel_parity.py
        # checks its weight and bias gradients too
        p = tensor64(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
        w, b = tensor64(rng.normal(size=(2, 2, 3, 3))), tensor64(np.zeros(2))
        f = lambda: (ad.conv2d(p, w, b, pad=1, upsample=True)
                     * ad.conv2d(p, w, b, pad=1, upsample=True)).sum()
    else:
        p = tensor64(rng.normal(size=(5, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 4])
        f = lambda: (ad.take(p, idx) * ad.take(p, idx)).sum()
    assert grad_check(f, [p], h=1e-4) < 1e-6


def test_grad_check_conv_and_dense():
    rng = np.random.default_rng(9)
    x = tensor64(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
    w = tensor64(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    b = tensor64(rng.normal(size=3), requires_grad=True)
    dw = tensor64(rng.normal(size=(4, 3)), requires_grad=True)
    db = tensor64(rng.normal(size=4), requires_grad=True)

    def f():
        h = ad.conv2d(x, w, b, pad=1)
        h = ad.avg_pool2d(h, 5).reshape((2, 3))
        out = ad.dense(h, dw, db)
        return (out * out).sum()

    assert grad_check(f, [x, w, b, dw, db], h=1e-4) < 1e-6


def test_grad_check_softmax_ce_and_kl():
    rng = np.random.default_rng(11)
    logits = tensor64(rng.normal(size=(4, 5)), requires_grad=True)
    labels = np.array([0, 3, 2, 4])
    assert grad_check(lambda: ad.softmax_cross_entropy(logits, labels), [logits], h=1e-4) < 1e-6

    teacher = tensor64(rng.normal(size=(4, 5)))
    assert grad_check(lambda: ad.kl_divergence(logits, teacher), [logits], h=1e-4) < 1e-6


def test_grad_check_batchnorm_both_paths():
    """Train mode (the fused op); eval mode is checked below."""
    rng = np.random.default_rng(12)
    x = tensor64(rng.normal(size=(6, 3, 2, 2)), requires_grad=True)
    gam = tensor64(rng.uniform(0.5, 1.5, size=3), requires_grad=True)
    bet = tensor64(rng.normal(size=3), requires_grad=True)

    def f():
        rm = np.zeros(3)
        rv = np.ones(3)
        y = batchnorm_forward(x, gam, bet, train=True, running_mean=rm, running_var=rv)
        return (y * y * y).sum()

    assert grad_check(f, [x, gam, bet], h=1e-4) < 1e-6


def test_grad_check_batchnorm_eval_mode():
    rng = np.random.default_rng(13)
    x = tensor64(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
    gam = tensor64(rng.uniform(0.5, 1.5, size=2), requires_grad=True)
    bet = tensor64(rng.normal(size=2), requires_grad=True)
    rm = rng.normal(size=2)
    rv = rng.uniform(0.5, 2.0, size=2)

    def f():
        y = batchnorm_forward(
            x, gam, bet, train=False, running_mean=rm, running_var=rv,
        )
        return (y * y).sum()

    assert grad_check(f, [x, gam, bet], h=1e-4) < 1e-6


def test_finite_outputs_through_composite_net():
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(4, 2, 8, 8)).astype(np.float32))
    w1 = Tensor(rng.normal(size=(3, 2, 3, 3)).astype(np.float32))
    b1 = Tensor(np.zeros(3, dtype=np.float32))
    w2 = Tensor(rng.normal(size=(2, 3, 3, 3)).astype(np.float32))
    b2 = Tensor(np.zeros(2, dtype=np.float32))
    out = ad.tanh(ad.conv2d(ad.relu(ad.conv2d(x, w1, b1, pad=1)), w2, b2, pad=1))
    assert np.all(np.isfinite(out.data))
