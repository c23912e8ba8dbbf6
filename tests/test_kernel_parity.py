"""Parity of the conv, pooling and upsampling kernels with the plain numpy
formulas they replace, in float32.

The references below are the earlier implementations: a sliding-window
im2col after ``np.pad``, and reductions over reshaped block axes. Where the
kernels keep the reference's order of additions the results must be equal
bit for bit, because seeded reports and archives depend on it.
"""

import numpy as np
import pytest

from fdda import autodiff as ad
from fdda.autodiff import Tensor
from fdda.models import build_generator, build_toy_classifier
from fdda.network import Conv2d

F32_EPS = float(np.finfo(np.float32).eps)


def _rand(rng, shape):
    return rng.standard_normal(shape).astype(np.float32)


def _channel_major(x):
    """Same values, laid out (C, N, H, W) in memory as conv outputs are."""
    return np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


# ---------------------------------------------------------------------------
# reference formulas
# ---------------------------------------------------------------------------

def ref_im2col(x, k, pad):
    n, c = x.shape[:2]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    ho, wo = win.shape[2], win.shape[3]  # win: (N, C, Ho, Wo, k, k)
    return win.transpose(1, 4, 5, 0, 2, 3).reshape(c * k * k, n * ho * wo), ho, wo


def ref_conv_raw(x, w, pad):
    n = x.shape[0]
    o, c, k, _ = w.shape
    cols, ho, wo = ref_im2col(x, k, pad)
    out = (w.reshape(o, c * k * k) @ cols).reshape(o, n, ho, wo).transpose(1, 0, 2, 3)
    return out, cols


def ref_conv(x, w, b, g, pad):
    """Output and (gx, gw, gb) for upstream gradient g, as the old conv2d."""
    o, _, k, _ = w.shape
    out, cols = ref_conv_raw(x, w, pad)
    out = out + b.reshape(1, o, 1, 1)
    n, _, ho, wo = g.shape
    g_mat = g.transpose(1, 0, 2, 3).reshape(o, n * ho * wo)
    w_t = np.ascontiguousarray(w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
    gx, _ = ref_conv_raw(g, w_t, k - 1 - pad)
    gw = (g_mat @ cols.T).reshape(w.shape)
    return out, gx, gw, g.sum(axis=(0, 2, 3))


def ref_avg_pool(x, k):
    n, c, h, w = x.shape
    return x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))


def ref_upsample(x):
    return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)


def ref_upsample_bwd(g):
    n, c, h2, w2 = g.shape
    return g.reshape(n, c, h2 // 2, 2, w2 // 2, 2).sum(axis=(3, 5))


def _taped(op, *arrays, g):
    """Run ``op`` on leaf tensors, backpropagate g, return (out, grads)."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*leaves)
    ad.backward((out * Tensor(g)).sum())
    return out.data, [t.grad for t in leaves]


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

# (layer, input shape at batch 64, out channels): every conv of both models
MODEL_CONVS = [
    ("conv1", (64, 1, 16, 16), 8),
    ("conv2", (64, 8, 8, 8), 16),
    ("conv3", (64, 16, 8, 8), 16),
    ("conv4", (64, 16, 4, 4), 24),
    ("conv5", (64, 24, 4, 4), 32),
    ("conv6", (64, 32, 4, 4), 32),
    ("gconv1", (64, 32, 8, 8), 16),
    ("gconv2", (64, 16, 16, 16), 8),
    ("gconv3", (64, 8, 16, 16), 1),
]

# (case, x shape, out channels, kernel, pad)
CONV_CASES = (
    [(name, shape, o, 3, 1) for name, shape, o in MODEL_CONVS]
    + [(f"{name}-batch1", (1,) + shape[1:], o, 3, 1)
       for name, shape, o in MODEL_CONVS if name.startswith("conv")]
    + [
        ("one-channel-k1", (4, 1, 5, 5), 3, 1, 0),
        ("non-square", (3, 2, 5, 7), 4, 3, 1),
        ("non-square-valid", (3, 2, 6, 9), 4, 3, 0),
        # window edges of the two-stage im2col fill: taps whose shifted
        # columns lie partly or wholly in the padding
        ("k5-pad2", (3, 2, 7, 6), 4, 5, 2),
        ("k5-pad2-2x2", (2, 3, 2, 2), 3, 5, 2),
        ("2x2-k3", (4, 3, 2, 2), 5, 3, 1),
        ("one-pixel-wide", (3, 2, 6, 1), 4, 3, 1),
        ("one-pixel-wide-k5", (2, 2, 5, 1), 3, 5, 2),
        ("k7-pad3-two-wide", (2, 2, 3, 2), 3, 7, 3),
    ]
)


def test_model_conv_table_covers_both_models():
    specs = [l for net in (build_toy_classifier(), build_generator())
             for l in net.layers if isinstance(l, Conv2d)]
    assert [(l.name, l.in_channels, l.out_channels) for l in specs] == \
        [(name, shape[1], o) for name, shape, o in MODEL_CONVS]
    assert all((l.kernel, l.pad) == (3, 1) for l in specs)


@pytest.mark.parametrize("case,xshape,o,k,pad", CONV_CASES,
                         ids=[c[0] for c in CONV_CASES])
@pytest.mark.parametrize("layout", ["contiguous", "channel-major"])
def test_conv2d_forward_and_grads_equal_reference(case, xshape, o, k, pad, layout):
    rng = np.random.default_rng(sum(xshape) + o + k)
    x = _rand(rng, xshape)
    if layout == "channel-major":
        x = _channel_major(x)
    w = _rand(rng, (o, xshape[1], k, k))
    b = _rand(rng, (o,))
    ho = xshape[2] + 2 * pad - k + 1
    wo = xshape[3] + 2 * pad - k + 1
    g = _rand(rng, (xshape[0], o, ho, wo))

    out, (gx, gw, gb) = _taped(lambda a, c, d: ad.conv2d(a, c, d, pad=pad), x, w, b, g=g)
    ref_out, ref_gx, ref_gw, ref_gb = ref_conv(x, w, b, g, pad)
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(gx, ref_gx)
    np.testing.assert_array_equal(gw, ref_gw)
    np.testing.assert_array_equal(gb, ref_gb)


# ---------------------------------------------------------------------------
# avg_pool2d
# ---------------------------------------------------------------------------

POOL_SHAPES = [(64, 8, 16, 16), (64, 16, 8, 8), (64, 32, 4, 4), (1, 8, 16, 16), (3, 2, 4, 6)]


@pytest.mark.parametrize("shape", POOL_SHAPES, ids=str)
@pytest.mark.parametrize("layout", ["contiguous", "channel-major"])
def test_avg_pool2d_k2_equals_reshape_mean(shape, layout):
    rng = np.random.default_rng(sum(shape))
    x = _rand(rng, shape) * 10
    if layout == "channel-major":
        x = _channel_major(x)
    np.testing.assert_array_equal(ad.avg_pool2d(Tensor(x), 2).data, ref_avg_pool(x, 2))


def test_avg_pool2d_k5_matches_reshape_mean_within_float32():
    rng = np.random.default_rng(5)
    x = _rand(rng, (4, 3, 10, 15)) * 10
    got = ad.avg_pool2d(Tensor(x), 5).data
    # each order makes 24 additions with partial sums below 25 * max|x|, each
    # rounded by at most eps/2 of that; the division by 25 scales the gap back
    np.testing.assert_allclose(got, ref_avg_pool(x, 5), rtol=0,
                               atol=25 * F32_EPS * float(np.abs(x).max()))


# ---------------------------------------------------------------------------
# upsample2x
# ---------------------------------------------------------------------------

UPSAMPLE_SHAPES = [(64, 32, 4, 4), (64, 16, 8, 8), (1, 3, 2, 5)]


@pytest.mark.parametrize("shape", UPSAMPLE_SHAPES, ids=str)
@pytest.mark.parametrize("layout", ["contiguous", "channel-major"])
def test_upsample2x_forward_and_backward_equal_reference(shape, layout):
    rng = np.random.default_rng(sum(shape))
    x = _rand(rng, shape)
    n, c, h, w = shape
    g = _rand(rng, (n, c, 2 * h, 2 * w))
    if layout == "channel-major":
        x, g = _channel_major(x), _channel_major(g)
    out, (gx,) = _taped(ad.upsample2x, x, g=g)
    np.testing.assert_array_equal(out, ref_upsample(x))
    np.testing.assert_array_equal(gx, ref_upsample_bwd(g))


# ---------------------------------------------------------------------------
# im2col memory
# ---------------------------------------------------------------------------

def test_im2col_peak_memory_is_columns_plus_one_shift_buffer():
    # gconv2 at batch 64: the column matrix and one (C, N, Hp, Wo) buffer,
    # reused by every column tap; a buffer per tap costs page faults
    import tracemalloc

    n, c, h, w, k, pad = 64, 16, 16, 16, 3, 1
    x = _rand(np.random.default_rng(0), (n, c, h, w))
    itemsize = x.dtype.itemsize
    cols_bytes = c * k * k * n * h * w * itemsize
    shift_bytes = c * n * (h + 2 * pad) * w * itemsize
    tracemalloc.start()
    try:
        cols, _, _ = ad._im2col(x, k, pad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cols.nbytes == cols_bytes
    assert peak <= 1.1 * (cols_bytes + shift_bytes)
