"""Parity of the conv, pooling and batch-norm kernels with the plain numpy
formulas they replace, in float32.

The references below are the earlier implementations: a sliding-window
im2col after ``np.pad``, reductions over reshaped block axes, nearest 2x
upsampling by ``np.repeat``, and batch norm's expressions before it wrote
into arrays it owns. Where the kernels keep the reference's order of
additions the results must be equal bit for bit, because seeded reports and
archives depend on it. Two results add in another order and are held to a
stated tolerance: the conv weight gradient, whose GEMM sums over the batch
and output positions in the batch-innermost column order, and the conv on an
upsampled input, which runs as a sub-pixel conv.

Each kernel is checked on three input layouts: C-contiguous (N, C, H, W),
channel-major (C, N, H, W), and batch-innermost (C, H, W, N), the layout
conv outputs have and so the one every activation and gradient of a
training step has after the first conv.
"""

import numpy as np
import pytest

from fdda import autodiff as ad
from fdda.autodiff import Tensor
from fdda.generator import generate
from fdda.models import build_generator, build_toy_classifier, toy_classifier_layers
from fdda.network import AvgPool2d, Conv2d, Reshape, forward

from helpers import batch_innermost, grad_check, is_batch_innermost

F32_EPS = float(np.finfo(np.float32).eps)
LAYOUTS = ["contiguous", "channel-major", "batch-innermost"]


def _rand(rng, shape):
    return rng.standard_normal(shape).astype(np.float32)


def _in_layout(x, layout):
    """Same values and shape (N, C, H, W), laid out in memory as named."""
    if layout == "channel-major":
        return np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    if layout == "batch-innermost":
        return batch_innermost(x)
    return x


# ---------------------------------------------------------------------------
# reference formulas
# ---------------------------------------------------------------------------

def ref_im2col(x, k, pad, batch_last=False):
    """The column matrix, its columns in (N, Ho, Wo) order as the earlier
    conv had them, or with ``batch_last`` in the kernels' (Ho, Wo, N) order."""
    n, c = x.shape[:2]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    ho, wo = win.shape[2], win.shape[3]  # win: (N, C, Ho, Wo, k, k)
    axes = (1, 4, 5, 2, 3, 0) if batch_last else (1, 4, 5, 0, 2, 3)
    return win.transpose(axes).reshape(c * k * k, n * ho * wo), ho, wo


def _columns_to_nchw(mat, n, ho, wo, batch_last):
    """(O, columns) GEMM output -> (N, O, Ho, Wo)."""
    if batch_last:
        return mat.reshape(len(mat), ho, wo, n).transpose(3, 0, 1, 2)
    return mat.reshape(len(mat), n, ho, wo).transpose(1, 0, 2, 3)


def ref_conv_raw(x, w, pad, batch_last=False):
    o, c, k, _ = w.shape
    cols, ho, wo = ref_im2col(x, k, pad, batch_last)
    out = _columns_to_nchw(w.reshape(o, c * k * k) @ cols, x.shape[0], ho, wo, batch_last)
    return out, cols


def ref_conv(x, w, b, g, pad, batch_last=False):
    """Output and (gx, gw, gb) for upstream gradient g, as the earlier conv2d
    computed them, with its GEMMs' columns in the order ``ref_im2col`` says."""
    o, _, k, _ = w.shape
    out, cols = ref_conv_raw(x, w, pad, batch_last)
    out = out + b.reshape(1, o, 1, 1)
    g_mat = g.transpose((1, 2, 3, 0) if batch_last else (1, 0, 2, 3)).reshape(o, -1)
    w_t = np.ascontiguousarray(w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
    gx, _ = ref_conv_raw(g, w_t, k - 1 - pad, batch_last)
    gw = (g_mat @ cols.T).reshape(w.shape)
    return out, gx, gw, g.sum(axis=(0, 2, 3))


def ref_avg_pool(x, k):
    # on a C-contiguous copy: numpy's reduction order follows the memory
    # layout, and the kernel adds in the C-contiguous order for any layout
    n, c, h, w = x.shape
    return np.ascontiguousarray(x).reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))


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

def _model_convs():
    """(layer spec, the (C, H, W) map it reads) of every conv of both models,
    walking each model's layer specs from its input shape; an upsampling
    conv reads the half-size map it upsamples."""
    convs = []
    for layers, shape in [(toy_classifier_layers(8, (1, 16, 16)), (1, 16, 16)),
                          (build_generator().layers, None)]:
        for layer in layers:
            if isinstance(layer, Reshape):
                shape = layer.shape
            elif isinstance(layer, AvgPool2d):
                shape = (shape[0], shape[1] // layer.kernel, shape[2] // layer.kernel)
            elif isinstance(layer, Conv2d):
                convs.append((layer, shape))
                h, w = (2 * e + 2 * layer.pad - layer.kernel + 1 if layer.upsample
                        else e + 2 * layer.pad - layer.kernel + 1 for e in shape[1:])
                shape = (layer.out_channels, h, w)
    return convs


MODEL_CONV_SPECS = _model_convs()

# (layer, input shape at batch 64, out channels, kernel, pad): every conv of
# both models. gconv1 and gconv2 upsample their input first: they are listed
# at the upsampled shape the plain conv would read, and the models run them
# as sub-pixel convs on the half-size input (UPSAMPLE_CONVS below)
MODEL_CONVS = [
    (l.name, (64, c) + ((2 * h, 2 * w) if l.upsample else (h, w)), l.out_channels, l.kernel, l.pad)
    for l, (c, h, w) in MODEL_CONV_SPECS
]

# (case, x shape, out channels, kernel, pad)
CONV_CASES = (
    MODEL_CONVS
    + [(f"{name}-batch1", (1,) + shape[1:], o, k, pad)
       for name, shape, o, k, pad in MODEL_CONVS if name.startswith("conv")]
    + [
        ("one-channel-k1", (4, 1, 5, 5), 3, 1, 0),
        ("non-square", (3, 2, 5, 7), 4, 3, 1),
        ("non-square-valid", (3, 2, 6, 9), 4, 3, 0),
        # window edges of the padded copy: taps that read partly or wholly
        # from the padding
        ("k5-pad2", (3, 2, 7, 6), 4, 5, 2),
        ("k5-pad2-2x2", (2, 3, 2, 2), 3, 5, 2),
        ("2x2-k3", (4, 3, 2, 2), 5, 3, 1),
        ("one-pixel-wide", (3, 2, 6, 1), 4, 3, 1),
        ("one-pixel-wide-k5", (2, 2, 5, 1), 3, 5, 2),
        ("k7-pad3-two-wide", (2, 2, 3, 2), 3, 7, 3),
    ]
)


def test_model_conv_table_covers_both_models(monkeypatch):
    # the walk over the layer specs gives every conv the map a forward pass
    # hands it
    seen, conv2d = [], ad.conv2d

    def spy(x, w, b, pad=0, upsample=False):
        seen.append((x.shape[1:], w.shape[0], w.shape[2], pad, upsample))
        return conv2d(x, w, b, pad=pad, upsample=upsample)

    monkeypatch.setattr(ad, "conv2d", spy)
    with ad.no_grad():
        forward(build_toy_classifier(), Tensor(np.zeros((2, 1, 16, 16), np.float32)), train=False)
        generate(build_generator(), np.arange(2), np.random.default_rng(0))
    assert seen == [(shape, l.out_channels, l.kernel, l.pad, l.upsample)
                    for l, shape in MODEL_CONV_SPECS]
    assert [l.name for l, _ in MODEL_CONV_SPECS if l.upsample] == ["gconv1", "gconv2"]


def _conv_case(xshape, o, k, pad, layout, dtype=np.float32):
    """Inputs of one conv case, and its taped output and gradients. The
    upstream gradient g has the input's layout, as in a training step, where
    conv gradients are batch-innermost like the outputs they belong to."""
    rng = np.random.default_rng(sum(xshape) + o + k)
    ho = xshape[2] + 2 * pad - k + 1
    wo = xshape[3] + 2 * pad - k + 1
    x = _in_layout(rng.standard_normal(xshape).astype(dtype), layout)
    w = rng.standard_normal((o, xshape[1], k, k)).astype(dtype)
    b = rng.standard_normal(o).astype(dtype)
    g = _in_layout(rng.standard_normal((xshape[0], o, ho, wo)).astype(dtype), layout)
    out, grads = _taped(lambda a, c, d: ad.conv2d(a, c, d, pad=pad), x, w, b, g=g)
    return (x, w, b, g), out, grads


def _weight_grad_bound(x, g, k, pad):
    """K * eps * sum_j |g_j * x_j| for each weight entry, whose gradient sums
    K = N*Ho*Wo products: the most that two orders of those additions can
    differ by in float32."""
    cols, _, _ = ref_im2col(np.abs(x).astype(np.float64), k, pad)
    g_mat = np.abs(g).astype(np.float64).transpose(1, 0, 2, 3).reshape(g.shape[1], -1)
    return (g_mat.shape[1] * F32_EPS * (g_mat @ cols.T)).reshape(g.shape[1], x.shape[1], k, k)


@pytest.mark.parametrize("case,xshape,o,k,pad", CONV_CASES,
                         ids=[c[0] for c in CONV_CASES])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_conv2d_forward_and_grads_equal_reference(case, xshape, o, k, pad, layout):
    (x, w, b, g), out, (gx, gw, gb) = _conv_case(xshape, o, k, pad, layout)
    assert is_batch_innermost(out) and is_batch_innermost(gx)
    # the forward and input-gradient GEMMs are the formula's, with the
    # columns permuted: the same bits for each column
    ref_out, ref_gx, _, ref_gb = ref_conv(x, w, b, g, pad, batch_last=True)
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(gx, ref_gx)
    np.testing.assert_array_equal(gb, ref_gb)
    old_out, old_gx, old_gw, _ = ref_conv(x, w, b, g, pad)
    if case.split("-")[0] in {conv[0] for conv in MODEL_CONVS}:
        # and so the earlier conv's: OpenBLAS computes a column alike at any
        # position but the last (columns mod 16), and every model conv's
        # GEMMs have a multiple of 16 columns at any batch size
        np.testing.assert_array_equal(out, old_out)
        np.testing.assert_array_equal(gx, old_gx)
    # the weight gradient's GEMM adds its N*Ho*Wo products in the columns'
    # (Ho, Wo, N) order, the earlier conv in (N, Ho, Wo) order
    assert np.all(np.abs(gw - old_gw) <= _weight_grad_bound(x, g, k, pad))


@pytest.mark.parametrize("case,xshape,o,k,pad", CONV_CASES,
                         ids=[c[0] for c in CONV_CASES])
def test_conv2d_weight_gradient_matches_reference_in_float64(case, xshape, o, k, pad):
    (x, w, b, g), _, (_, gw, _) = _conv_case(xshape, o, k, pad, "batch-innermost",
                                             dtype=np.float64)
    ref_gw = ref_conv(x, w, b, g, pad)[2]
    assert np.abs(gw - ref_gw).max() <= 1e-12 * np.abs(ref_gw).max()


def _raw_convs(monkeypatch, layer, shape, batch):
    """(x, kernel, pad, keep_cols) of each raw conv that one model conv with
    a frozen weight runs at ``batch``: its forward conv and its
    input-gradient conv, on the phase grid for an upsampling conv."""
    rng = np.random.default_rng(batch)
    c, h, w = shape
    x = Tensor(batch_innermost(_rand(rng, (batch, c, h, w))), requires_grad=True)
    wt = Tensor(_rand(rng, (layer.out_channels, c, layer.kernel, layer.kernel)))
    b = Tensor(np.zeros(layer.out_channels, np.float32))
    calls, conv_raw = [], ad._conv_raw

    def spy(x, w, pad, keep_cols=False):
        calls.append((x, w, pad, keep_cols))
        return conv_raw(x, w, pad, keep_cols)

    with monkeypatch.context() as m:
        m.setattr(ad, "_conv_raw", spy)
        out = ad.conv2d(x, wt, b, pad=layer.pad, upsample=layer.upsample)
        ad.backward((out * Tensor(batch_innermost(_rand(rng, out.shape)))).sum())
    return calls


@pytest.mark.parametrize("batch", [1, 7, 8, 55, 64, 160, 256])
@pytest.mark.parametrize("layer,shape", MODEL_CONV_SPECS, ids=[l.name for l, _ in MODEL_CONV_SPECS])
def test_blocked_conv_equals_one_block_bit_for_bit(monkeypatch, layer, shape, batch):
    # a conv that keeps no column matrix runs in blocks of output rows; each
    # output column sums C*k*k products in the one-block GEMM's order when
    # every block has a multiple of 16 columns (OpenBLAS computes the last
    # columns mod 16 with another kernel), so the blocks must have that many
    # or the conv must run as one block
    calls = _raw_convs(monkeypatch, layer, shape, batch)
    assert [keep_cols for *_, keep_cols in calls] == [False, False]
    for x, w, pad, _ in calls:
        blocks, matmul = [], np.matmul

        def spy(a, b, out):
            blocks.append(out.shape[1])
            return matmul(a, b, out=out)

        with monkeypatch.context() as m:
            m.setattr(np, "matmul", spy)
            blocked, cols = ad._conv_raw(x, w, pad)
        one_block, _ = ad._conv_raw(x, w, pad, keep_cols=True)
        assert cols is None and is_batch_innermost(blocked)
        np.testing.assert_array_equal(blocked, one_block)
        assert len(blocks) == 1 or all(n % 16 == 0 for n in blocks), blocks
        assert sum(blocks) == one_block[:, 0].size


# ---------------------------------------------------------------------------
# avg_pool2d
# ---------------------------------------------------------------------------

POOL_SHAPES = [(64, 8, 16, 16), (64, 16, 8, 8), (64, 32, 4, 4), (1, 8, 16, 16), (3, 2, 4, 6)]


@pytest.mark.parametrize("shape", POOL_SHAPES, ids=str)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_avg_pool2d_k2_equals_reshape_mean(shape, layout):
    rng = np.random.default_rng(sum(shape))
    x = _in_layout(_rand(rng, shape) * 10, layout)
    n, c, h, w = shape
    g = _in_layout(_rand(rng, (n, c, h // 2, w // 2)), layout)
    out, (gx,) = _taped(lambda a: ad.avg_pool2d(a, 2), x, g=g)
    np.testing.assert_array_equal(out, ref_avg_pool(x, 2))
    np.testing.assert_array_equal(gx, ref_upsample(g) / 4)
    assert gx.strides == x.strides


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
    against conv2d of the upsampled input; the bias gradients must be equal.
    The upstream gradient g has the input's layout."""
    rng = np.random.default_rng(sum(shape))
    n, c, h, w = shape
    o = UPSAMPLE_CONVS[shape]
    x = rng.standard_normal(shape).astype(dtype)
    wt = rng.standard_normal((o, c, 3, 3)).astype(dtype)
    b = rng.standard_normal(o).astype(dtype)
    g = _in_layout(rng.standard_normal((n, o, 2 * h, 2 * w)).astype(dtype), layout)
    x = _in_layout(x, layout)
    got_out, (gx, gw, gb) = _taped(
        lambda a, k, d: ad.conv2d(a, k, d, pad=1, upsample=True), x, wt, b, g=g)
    ref_out, ref_gxu, ref_gw, ref_gb = ref_conv(ref_upsample(x), wt, b, g, 1)
    np.testing.assert_array_equal(gb, ref_gb)
    pairs = [(got_out, ref_out), (gx, ref_upsample_bwd(ref_gxu)), (gw, ref_gw)]
    assert all(got.shape == ref.shape and got.dtype == dtype for got, ref in pairs)
    assert is_batch_innermost(got_out) and is_batch_innermost(gx)
    return max(float(np.abs(got - ref).max() / np.abs(ref).max()) for got, ref in pairs)


@pytest.mark.parametrize("shape", list(UPSAMPLE_CONVS), ids=str)
@pytest.mark.parametrize("layout", LAYOUTS)
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

    assert grad_check(f, [x, w, b], h=1e-4) < 1e-6


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
        ad.conv2d(x, w, Tensor(np.zeros(3, dtype=np.float32)), pad=pad, upsample=True)


# ---------------------------------------------------------------------------
# conv memory
# ---------------------------------------------------------------------------

def _conv_peak_bytes(c, o, weight_grad):
    """Peak traced bytes of a 3x3 pad-1 conv of a batch-innermost (64, C,
    16, 16) input to O channels, and the byte counts of its (O, 16, 16, 64)
    output, zero-padded (C, 18, 18, 64) input copy and (C*9, 16*16*64)
    column matrix."""
    import tracemalloc

    n, h, k = 64, 16, 3
    rng = np.random.default_rng(0)
    x = Tensor(batch_innermost(_rand(rng, (n, c, h, h))), requires_grad=True)
    w = Tensor(_rand(rng, (o, c, k, k)), requires_grad=weight_grad)
    b = Tensor(np.zeros(o, dtype=np.float32))
    tracemalloc.start()
    try:
        ad.conv2d(x, w, b, pad=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        ad._tape.clear()
    return peak, o * h * h * n * 4, c * (h + 2) ** 2 * n * 4, c * k * k * h * h * n * 4


def test_im2col_peak_memory_is_columns_plus_one_padded_buffer():
    # a conv whose weight gradient reads the column matrix builds it whole:
    # a 16-channel 16x16 map at batch 64, the column matrix and the
    # zero-padded (C, H+2p, W+2p, N) copy of the input that every tap reads,
    # and the output its one GEMM writes
    peak, out_bytes, padded_bytes, cols_bytes = _conv_peak_bytes(16, 8, weight_grad=True)
    total = out_bytes + padded_bytes + cols_bytes
    assert total <= peak <= 1.1 * total


def test_frozen_weight_conv_peak_memory_is_output_padded_copy_and_one_block():
    # gconv3's input in a generator step, (64, 8, 16, 16), through a frozen
    # weight: one output row's (72, 16*64) column block at a time, not the
    # 4.7 MB column matrix
    peak, out_bytes, padded_bytes, cols_bytes = _conv_peak_bytes(8, 8, weight_grad=False)
    block_bytes = cols_bytes // 16
    total = out_bytes + padded_bytes + block_bytes
    assert total <= peak <= 1.1 * total
    assert peak < cols_bytes / 3


# ---------------------------------------------------------------------------
# batch norm: the ops write into arrays they own; these are the expressions
# they were written as, whose bits seeded archives and reports depend on
# ---------------------------------------------------------------------------

def _bn_shapes(x):
    axes = (0, 2, 3) if x.ndim == 4 else (0,)
    return axes, (1, x.shape[1]) + (1,) * (x.ndim - 2)


def ref_batchnorm_train(x, gamma, beta, g, eps):
    """Output, batch mean and variance, and the x, gamma, beta gradients."""
    axes, cshape = _bn_shapes(x)
    bm = x.mean(axis=axes)
    xc = x - bm.reshape(cshape)
    bv = np.mean(xc * xc, axis=axes)
    inv = 1.0 / np.sqrt(bv + eps)
    xhat = xc * inv.reshape(cshape)
    gm = gamma.reshape(cshape)
    y = xhat * gm + beta.reshape(cshape)
    dxhat = g * gm
    m1 = dxhat.mean(axis=axes).reshape(cshape)
    m2 = (dxhat * xhat).mean(axis=axes).reshape(cshape)
    gx = inv.reshape(cshape) * (dxhat - m1 - xhat * m2)
    return y, bm, bv, gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)


def ref_batchnorm_eval(x, gamma, beta, mean, inv_std, g):
    """Output and the x, gamma, beta gradients."""
    axes, cshape = _bn_shapes(x)
    ri = inv_std.reshape(cshape)
    xhat = (x - mean.reshape(cshape)) * ri
    y = xhat * gamma.reshape(cshape) + beta.reshape(cshape)
    gx = g * (gamma.reshape(cshape) * ri)
    return y, gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)


def _rule(out, g):
    """Run the adjoint rule of the op that made ``out`` on g as it is (no
    loss in between reorders g's memory)."""
    node = ad._tape.pop()
    ad._tape.clear()
    assert node.out is out
    return node.bwd(g)


def _bn_case(shape, x_layout, g_layout):
    rng = np.random.default_rng(sum(shape))
    c = shape[1]
    x = _in_layout(_rand(rng, shape) * 3 + 1, x_layout)
    g = _in_layout(_rand(rng, shape), g_layout)
    gamma = _rand(rng, (c,)) + 1
    beta = _rand(rng, (c,))
    return x, g, gamma, beta


# (input shape, x's layout, g's layout): the classifier's first BN at batch
# 64, the generator's gbn0 (its input C-contiguous, its gradient from a conv
# batch-innermost) and a batch-1 map in every pair of layouts, and a 2-D input
BN_LAYOUTS = [("contiguous", "contiguous"), ("batch-innermost", "batch-innermost"),
              ("contiguous", "batch-innermost"), ("batch-innermost", "contiguous")]
BN_CASES = [(shape, *layouts) for shape in [(64, 8, 16, 16), (64, 32, 4, 4), (1, 16, 4, 4)]
            for layouts in BN_LAYOUTS] + [((64, 32), "contiguous", "contiguous")]
BN_IDS = [f"{shape}-{xl}-{gl}" for shape, xl, gl in BN_CASES]


@pytest.mark.parametrize("shape,x_layout,g_layout", BN_CASES, ids=BN_IDS)
def test_batchnorm_train_equals_its_expressions(shape, x_layout, g_layout):
    x, g, gamma, beta = _bn_case(shape, x_layout, g_layout)
    leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
    out, bm, bv = ad.batchnorm_train(*leaves, 1e-5)
    grads = _rule(out, g)
    ref = ref_batchnorm_train(x, gamma, beta, g, 1e-5)
    for got, want in zip((out.data, bm, bv, *grads), ref):
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want)
    # the x gradient is written in g's layout; the expression's layout is
    # numpy's choice between x's and g's when they differ
    assert out.data.strides == x.strides and grads[0].strides == g.strides


@pytest.mark.parametrize("shape,x_layout,g_layout", BN_CASES, ids=BN_IDS)
@pytest.mark.parametrize("gamma_grad", [True, False])
def test_batchnorm_eval_equals_its_expressions(shape, x_layout, g_layout, gamma_grad):
    x, g, gamma, beta = _bn_case(shape, x_layout, g_layout)
    rng = np.random.default_rng(7)
    mean = _rand(rng, (shape[1],))
    inv_std = (1.0 / np.sqrt(rng.uniform(0.5, 2.0, shape[1]) + 1e-5)).astype(np.float32)
    leaves = [Tensor(x, requires_grad=True), Tensor(gamma, requires_grad=gamma_grad),
              Tensor(beta, requires_grad=True)]
    out = ad.batchnorm_eval(*leaves, mean, inv_std)
    gx, gg, gb = _rule(out, g)
    ref_y, ref_gx, ref_gg, ref_gb = ref_batchnorm_eval(x, gamma, beta, mean, inv_std, g)
    pairs = [(out.data, ref_y), (gx, ref_gx), (gb, ref_gb)] + ([(gg, ref_gg)] if gamma_grad else [])
    for got, want in pairs:
        assert got.dtype == np.float32 and got.strides == want.strides
        np.testing.assert_array_equal(got, want)
    assert gamma_grad or gg is None
