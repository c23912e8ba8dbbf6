"""Parity of the conv and pooling kernels with the plain numpy formulas
they replace, in float32.

The references below are the earlier implementations: a sliding-window
im2col after ``np.pad``, reductions over reshaped block axes, and nearest 2x
upsampling by ``np.repeat``. Where the kernels keep the reference's order of
additions the results must be equal bit for bit, because seeded reports and
archives depend on it. The conv on an upsampled input runs as a sub-pixel
conv, which adds in another order; it is held to a stated tolerance.
"""

import numpy as np
import pytest

from fdda import autodiff as ad
from fdda.autodiff import Tensor
from fdda.models import build_generator, build_toy_classifier
from fdda.network import Conv2d, layer_from_dict, layer_to_dict

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

# (layer, input shape at batch 64, out channels): every conv of both models.
# gconv1 and gconv2 upsample their input first: they are listed at the
# upsampled shape the plain conv would read, and the models run them as
# sub-pixel convs on the half-size input (UPSAMPLE_CONVS below)
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
    assert [l.name for l in specs if l.upsample] == ["gconv1", "gconv2"]


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
# conv2d on a 2x-upsampled input
# ---------------------------------------------------------------------------

# (low-resolution input shape -> out channels): gconv1 and gconv2 at batch 64
# (a generator step) and 48 (the synthetic rows of a quantized step), batch
# 1, odd and non-square extents, and a 1x1 input
UPSAMPLE_CONVS = {
    (64, 32, 4, 4): 16,
    (64, 16, 8, 8): 8,
    (48, 32, 4, 4): 16,
    (48, 16, 8, 8): 8,
    (1, 32, 4, 4): 16,
    (1, 3, 2, 5): 2,
    (3, 2, 3, 6): 4,
    (2, 3, 1, 1): 2,
}


def _upsample_conv_vs_reference(shape, dtype, layout="contiguous"):
    """Largest |diff| / max|ref| of the sub-pixel conv's output, gx and gw
    against conv2d of the upsampled input; the bias gradients must be equal."""
    rng = np.random.default_rng(sum(shape))
    n, c, h, w = shape
    o = UPSAMPLE_CONVS[shape]
    x = rng.standard_normal(shape).astype(dtype)
    wt = rng.standard_normal((o, c, 3, 3)).astype(dtype)
    b = rng.standard_normal(o).astype(dtype)
    g = rng.standard_normal((n, o, 2 * h, 2 * w)).astype(dtype)
    if layout == "channel-major":
        x = _channel_major(x)
    got_out, (gx, gw, gb) = _taped(
        lambda a, k, d: ad.conv2d(a, k, d, pad=1, upsample=True), x, wt, b, g=g)
    ref_out, ref_gxu, ref_gw, ref_gb = ref_conv(ref_upsample(x), wt, b, g, 1)
    np.testing.assert_array_equal(gb, ref_gb)
    pairs = [(got_out, ref_out), (gx, ref_upsample_bwd(ref_gxu)), (gw, ref_gw)]
    assert all(got.shape == ref.shape and got.dtype == dtype for got, ref in pairs)
    return max(float(np.abs(got - ref).max() / np.abs(ref).max()) for got, ref in pairs)


@pytest.mark.parametrize("shape", list(UPSAMPLE_CONVS), ids=str)
@pytest.mark.parametrize("layout", ["contiguous", "channel-major"])
def test_upsample2x_forward_and_backward_equal_reference(shape, layout):
    # equal within float32 rounding, not bit for bit: a phase kernel adds
    # the taps that read one input pixel before the GEMM multiplies, so each
    # output sums the same products in another order (about 7e-7 measured)
    assert _upsample_conv_vs_reference(shape, np.float32, layout) <= 1e-5


@pytest.mark.parametrize("shape", list(UPSAMPLE_CONVS), ids=str)
def test_upsample_conv_matches_reference_in_float64(shape):
    assert _upsample_conv_vs_reference(shape, np.float64) <= 1e-12


def test_upsample_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    x = Tensor(rng.standard_normal((2, 3, 2, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((2, 3, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(2), requires_grad=True)
    g = Tensor(rng.standard_normal((2, 2, 4, 6)))

    def f():
        out = ad.conv2d(x, w, b, pad=1, upsample=True)
        return (out * out * g).sum()

    assert ad.grad_check(f, [x, w, b], h=1e-4) < 1e-6


@pytest.mark.parametrize("weight_grad", [False, True])
def test_upsample_conv_keeps_its_column_matrix_only_for_a_weight_gradient(weight_grad):
    import tracemalloc

    # gconv2 at batch 64: a (4C, N*(H+1)*(W+1)) column matrix of the
    # low-resolution input, and a (N, O, 2H, 2W) output
    n, c, h, o = 64, 16, 8, 8
    rng = np.random.default_rng(0)
    x = Tensor(_rand(rng, (n, c, h, h)), requires_grad=True)
    w = Tensor(_rand(rng, (o, c, 3, 3)), requires_grad=weight_grad)
    b = Tensor(np.zeros(o, dtype=np.float32))
    out_bytes = n * o * (2 * h) ** 2 * 4
    cols_bytes = 4 * c * n * (h + 1) ** 2 * 4
    tracemalloc.start()
    try:
        out = ad.conv2d(x, w, b, pad=1, upsample=True)  # held while measuring
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        ad._tape.clear()
    assert out.shape == (n, o, 2 * h, 2 * h)
    # neither case keeps the phase grid (out_bytes * 81/64) or an upsampled input
    if weight_grad:
        assert out_bytes + cols_bytes <= kept < out_bytes + cols_bytes + out_bytes // 4
    else:
        assert kept < out_bytes + out_bytes // 4


@pytest.mark.parametrize("kernel,pad", [(1, 0), (5, 2), (5, 1), (3, 0), (3, 2)])
def test_upsample_conv_needs_kernel_3_and_pad_1(kernel, pad):
    x = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
    w = Tensor(np.zeros((3, 2, kernel, kernel), dtype=np.float32))
    with pytest.raises(ValueError):
        ad.conv2d(x, w, None, pad=pad, upsample=True)
    with pytest.raises(ValueError):
        Conv2d("up", 2, 3, kernel, pad=pad, upsample=True)


@pytest.mark.parametrize("flag", [1, 0, "true", None])
def test_upsample_conv_spec_needs_a_boolean_flag(flag):
    with pytest.raises(ValueError, match="needs a boolean upsample"):
        Conv2d("up", 2, 3, 3, pad=1, upsample=flag)


def test_only_upsampling_conv_specs_write_the_flag():
    # a classifier's archive keeps the bytes it had before the flag existed
    for layer in build_toy_classifier().layers:
        d = layer_to_dict(layer)
        assert "upsample" not in d and layer_from_dict(d) == layer
    gen = {l.name: l for l in build_generator().layers if isinstance(l, Conv2d)}
    assert layer_to_dict(gen["gconv1"]) == {"kind": "conv2d", "name": "gconv1", "in_channels": 32,
                                            "out_channels": 16, "kernel": 3, "pad": 1,
                                            "upsample": True}
    assert "upsample" not in layer_to_dict(gen["gconv3"])
    assert all(layer_from_dict(layer_to_dict(l)) == l for l in gen.values())


# ---------------------------------------------------------------------------
# im2col memory
# ---------------------------------------------------------------------------

def test_im2col_peak_memory_is_columns_plus_one_shift_buffer():
    # a 16-channel 16x16 map at batch 64: the column matrix and one
    # (C, N, Hp, Wo) buffer, reused by every column tap; a buffer per tap
    # costs page faults
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
