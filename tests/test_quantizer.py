"""Quantizer semantics: scale/round/clip arithmetic, the straight-through
gradient, per-channel bounds, and activation calibration in the runtime's
observe scope."""

import numpy as np
import pytest

from fdda import autodiff as ad
from fdda.autodiff import Tensor
from fdda.models import build_toy_classifier
from fdda.network import forward, quant_point_count
from fdda.quantizer import (
    FakeQuantRuntime,
    QuantParams,
    QuantPolicy,
    channel_bounds,
    fake_quantize_ste,
)

from helpers import observed_runtime


# ---------------------------------------------------------------------------
# scale
# ---------------------------------------------------------------------------

def test_compute_scale_examples():
    assert QuantParams(2, 0.0, 3.0).scale == pytest.approx(1.0)
    assert QuantParams(8, -1.0, 1.0).scale == pytest.approx(2.0 / 255.0)
    assert QuantParams(4, 0.0, 15.0).scale == pytest.approx(1.0)


def test_compute_scale_rejects_bad_bounds():
    with pytest.raises(ValueError):
        QuantParams(4, 1.0, 1.0)
    with pytest.raises(ValueError):
        QuantParams(4, 2.0, 1.0)


@pytest.mark.parametrize("lower,upper", [(float("nan"), 1.0), (0.0, float("inf")),
                                         (-float("inf"), 0.0),
                                         (np.array([0.0, np.nan]), np.array([1.0, 1.0]))],
                         ids=["nan-lower", "inf-upper", "inf-lower", "nan-channel"])
def test_quant_params_rejects_non_finite_bounds(lower, upper):
    with pytest.raises(ValueError, match="bounds must be finite"):
        QuantParams(4, lower, upper)


def test_quant_params_recompute_scale_exactly():
    q = QuantParams(5, -0.7, 1.9)
    assert q.scale == (1.9 - -0.7) / (2**5 - 1)


# ---------------------------------------------------------------------------
# quantize / dequantize: the integer-level spec that fake quantization follows
# ---------------------------------------------------------------------------

def round_half_away(x):
    """Round to the nearest integer, ties away from zero."""
    return np.where(x < 0, np.ceil(x - 0.5), np.floor(x + 0.5))


def level_window(lower, scale, bits: int):
    """The integer levels [qmin, qmin + 2^bits - 1], qmin = round(l / s) in float64."""
    qmin = round_half_away(np.asarray(lower, np.float64) / np.asarray(scale, np.float64))
    return qmin, qmin + (2**bits - 1)


def quantize(x, q: QuantParams) -> np.ndarray:
    """Map values to integer levels: round(clip(x, l, u) / s), clamped to the
    2^bits-level window anchored at round(l / s)."""
    clipped = np.clip(np.asarray(x, dtype=np.float64), q.lower, q.upper)
    qmin, qmax = level_window(q.lower, q.scale, q.bits)
    levels = np.clip(round_half_away(clipped / q.scale), qmin, qmax)
    return levels.astype(np.int64)


def dequantize(qv, q: QuantParams) -> np.ndarray:
    """Reconstruct real values from integer levels: q * s."""
    return np.asarray(qv, dtype=np.float64) * q.scale


def test_quantize_hand_example():
    q = QuantParams(2, 0.0, 3.0)
    assert quantize(1.4, q) == 1


def test_quantize_clips_at_bounds():
    q = QuantParams(2, 0.0, 3.0)
    assert quantize(5.0, q) == 3
    assert quantize(-2.0, q) == 0


def test_dequantize_values():
    q = QuantParams(2, 0.0, 3.0)
    assert dequantize(3, q) == pytest.approx(3.0)
    assert dequantize(0, q) == 0.0


def test_round_trip_hand_example():
    q = QuantParams(4, -1.0, 1.0)
    assert q.scale == pytest.approx(2.0 / 15.0)
    qv = quantize(0.5, q)
    assert qv == 4  # 0.5 / (2/15) = 3.75, ties/rounding away from zero
    assert dequantize(qv, q) == pytest.approx(8.0 / 15.0)


def test_ties_round_half_away_from_zero():
    q = QuantParams(4, -4.0, 11.0)  # scale 1
    assert quantize(0.5, q) == 1
    assert quantize(-0.5, q) == -1
    assert quantize(2.5, q) == 3
    assert quantize(-2.5, q) == -3


@pytest.mark.parametrize("bits", [2, 4, 8])
def test_round_trip_bound_and_level_count(bits):
    lo, hi = -1.3, 2.1
    q = QuantParams(bits, lo, hi)
    xs = np.linspace(lo - 2.0, hi + 2.0, 4001)
    deq = dequantize(quantize(xs, q), q)
    clipped = np.clip(xs, lo, hi)
    assert np.max(np.abs(deq - clipped)) <= q.scale / 2 + 1e-12
    levels = np.unique(quantize(xs, q))
    assert len(levels) <= 2**bits
    assert levels.min() >= round(lo / q.scale) and levels.max() <= round(hi / q.scale)


def test_quantize_monotone():
    rng = np.random.default_rng(0)
    q = QuantParams(3, -0.5, 1.5)
    xs = np.sort(rng.uniform(-3, 3, size=500))
    qs = quantize(xs, q)
    assert np.all(np.diff(qs) >= 0)


# ---------------------------------------------------------------------------
# fake quantization / STE
# ---------------------------------------------------------------------------

def test_fake_quant_forward_value():
    q = QuantParams(2, 0.0, 3.0)
    y = fake_quantize_ste(Tensor(np.array([1.4], dtype=np.float32)), q)
    np.testing.assert_allclose(y.data, [1.0])


def test_fake_quant_grid_point_is_fixed():
    q = QuantParams(2, 0.0, 3.0)
    y = fake_quantize_ste(Tensor(np.array([2.0], dtype=np.float32)), q)
    np.testing.assert_allclose(y.data, [2.0])


def test_ste_gradient_mask():
    q = QuantParams(2, 0.0, 3.0)
    x = Tensor(np.array([1.4, 5.0, -2.0, 0.0, 3.0], dtype=np.float32), requires_grad=True)
    ad.backward(fake_quantize_ste(x, q).sum())
    np.testing.assert_allclose(x.grad, [1.0, 0.0, 0.0, 1.0, 1.0])


def ref_fake_quantize(x, q):
    """The earlier fake_quantize_ste forward: a new array per step, then a
    cast back to x's dtype; and its straight-through mask. Scalar bounds stay
    Python floats; per-channel bounds lie along axis 0, cast to x's dtype
    after the level window is taken from them in float64."""
    lower, upper, scale = q.lower, q.upper, q.scale
    if np.ndim(lower):
        shape = (-1,) + (1,) * (x.ndim - 1)
        lower, upper, scale = (v.reshape(shape) for v in (lower, upper, scale))
    qmin, qmax = level_window(lower, scale, q.bits)
    if np.ndim(lower):
        lower, upper, scale = (v.astype(x.dtype) for v in (lower, upper, scale))
    clipped = np.clip(x, lower, upper)
    levels = np.clip(round_half_away(clipped / scale), qmin.astype(x.dtype), qmax.astype(x.dtype))
    return (levels * scale).astype(x.dtype), (x >= lower) & (x <= upper)


def _with_ties_and_outliers(rng, shape, q, dtype):
    """Random values plus exact rounding ties (l/s + k + 1/2 steps, exact
    because the scales are powers of two) and values beyond both bounds."""
    x = rng.uniform(-2, 2, size=shape)
    flat = x.reshape(shape[0], -1)
    lower = np.asarray(q.lower, np.float64).reshape(-1, 1)
    scale = np.asarray(q.scale, np.float64).reshape(-1, 1)
    ties = (np.round(lower / scale) + rng.integers(0, 2**q.bits - 1, size=flat.shape) + 0.5) * scale
    flat[:, ::3] = ties[:, ::3]
    flat[:, 1::7] = lower - 3.0
    flat[:, 2::7] = lower + scale * 2**q.bits + 3.0
    return x.astype(dtype)


def _params(kind, bits):
    """Bounds on power-of-two scales; l/s = -2.5 puts both ends on rounding
    ties, where only the level-window clamp keeps 2^bits levels."""
    levels = 2**bits - 1
    if kind == "per-layer":
        return QuantParams(bits, -0.625, -0.625 + 0.25 * levels)
    scale = np.array([0.25, 0.5, 0.125, 0.0625, 1.0, 0.25])
    lower = np.array([-0.625, -1.5, 0.1875, -0.25, -2.0, 0.0])
    return QuantParams(bits, lower, lower + scale * levels)


@pytest.mark.parametrize("kind", ["per-layer", "per-channel"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bits", [2, 3, 4, 8])
def test_fake_quantize_equals_reference(kind, dtype, bits):
    rng = np.random.default_rng(bits)
    q = _params(kind, bits)
    x = _with_ties_and_outliers(rng, (6, 5, 4, 4), q, dtype)
    scale = np.asarray(q.scale).reshape(-1, 1, 1, 1)
    assert np.any(np.abs(x / scale) % 1 == 0.5)
    x0 = x.copy()
    xt = Tensor(x, requires_grad=True)
    y = fake_quantize_ste(xt, q)
    ref, mask = ref_fake_quantize(x0, q)
    assert y.data.dtype == dtype
    np.testing.assert_array_equal(y.data, ref)
    np.testing.assert_array_equal(x, x0)  # the input is not overwritten
    g = rng.standard_normal(x.shape).astype(dtype)
    ad.backward((y * Tensor(g)).sum())
    np.testing.assert_array_equal(xt.grad, g * mask)
    assert mask.any() and not mask.all()


@pytest.mark.parametrize("bits", [2, 3, 8])
def test_runtime_activation_quantizer_equals_reference(bits):
    # the runtime prepares each point's bounds once per dtype and reuses them
    # for inputs of any rank
    q = _params("per-layer", bits)
    runtime = FakeQuantRuntime(QuantPolicy(default_bits=bits), [(q.lower, q.upper)])
    rng = np.random.default_rng(bits)
    for shape in [(6, 5, 4, 4), (6, 5), (6, 5, 4, 4)]:
        for dtype in (np.float32, np.float64):
            x = _with_ties_and_outliers(rng, shape, q, dtype)
            xt = Tensor(x.copy(), requires_grad=True)
            y = runtime.on_activation(xt, 0)
            ref, mask = ref_fake_quantize(x, q)
            assert y.data.dtype == dtype
            np.testing.assert_array_equal(y.data, ref)
            g = rng.standard_normal(shape).astype(dtype)
            ad.backward((y * Tensor(g)).sum())
            np.testing.assert_array_equal(xt.grad, g * mask)


def test_ste_surrogate_matches_finite_differences():
    # the STE rule is the true gradient of the surrogate clip(x, l, u)
    rng = np.random.default_rng(1)
    q = QuantParams(4, -0.5, 0.9)
    vals = rng.uniform(-1.5, 1.5, size=12)
    vals = vals[np.abs(vals - q.lower) > 1e-2]
    vals = vals[np.abs(vals - q.upper) > 1e-2]  # keep away from the clip kinks
    g = rng.standard_normal(vals.shape)
    x = Tensor(vals.copy(), requires_grad=True)
    ad.backward((fake_quantize_ste(x, q) * Tensor(g)).sum())

    def f(v):
        return (np.clip(v, q.lower, q.upper) * g).sum()

    h = 1e-4
    fd = np.array([(f(vals + h * e) - f(vals - h * e)) / (2 * h) for e in np.eye(len(vals))])
    assert np.max(np.abs(x.grad - fd) / np.maximum(np.abs(fd), 1e-6)) < 1e-6


def test_per_layer_and_one_channel_round_ties_alike():
    # -l/s = 1.5 is a tie: both granularities take one level window from the
    # float64 bounds
    x = Tensor(np.array([-1.0, -0.5, 0.0, 0.5, 1.0], dtype=np.float32))
    per_layer = fake_quantize_ste(x, QuantParams(2, -1.0, 1.0))
    one_channel = fake_quantize_ste(x.reshape((1, 5)),
                                    QuantParams(2, np.array([-1.0]), np.array([1.0])))
    np.testing.assert_array_equal(per_layer.data, one_channel.data[0])
    np.testing.assert_allclose(per_layer.data, [-4 / 3, -2 / 3, 0.0, 2 / 3, 2 / 3], rtol=1e-6)


# ---------------------------------------------------------------------------
# per-channel weights
# ---------------------------------------------------------------------------

def test_per_channel_scales_and_error_bounds():
    w = Tensor(np.array([[0.0, 1.1, 2.2, 3.0], [0.0, 11.0, 22.0, 30.0]], dtype=np.float32))
    params = channel_bounds(w.data, bits=2)
    fq = fake_quantize_ste(w, params)
    np.testing.assert_allclose(params.scale, [1.0, 10.0])
    err = np.abs(fq.data - w.data)
    assert np.all(err[0] <= 0.5 + 1e-6)
    assert np.all(err[1] <= 5.0 + 1e-6)


def test_single_channel_matches_layerwise():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(1, 6)).astype(np.float32)
    fq = fake_quantize_ste(Tensor(w), channel_bounds(w, bits=4))
    q = QuantParams(4, float(w.min()), float(w.max()))
    np.testing.assert_allclose(fq.data, dequantize(quantize(w, q), q).astype(np.float32), rtol=1e-6)


def test_on_grid_weights_unchanged():
    w = np.array([[0.0, 1.0, 2.0, 3.0]], dtype=np.float32)
    fq = fake_quantize_ste(Tensor(w), channel_bounds(w, bits=2))
    np.testing.assert_allclose(fq.data, w)


def test_per_channel_independence():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(3, 8)).astype(np.float32)
    fq1 = fake_quantize_ste(Tensor(w), channel_bounds(w, bits=3))
    w2 = w.copy()
    w2[2] *= 100.0  # editing channel 2 must not move channels 0-1
    fq2 = fake_quantize_ste(Tensor(w2), channel_bounds(w2, bits=3))
    np.testing.assert_allclose(fq1.data[:2], fq2.data[:2])


def test_degenerate_channel_widened():
    w = np.full((1, 4), 5.0, dtype=np.float32)
    params = channel_bounds(w, bits=4)
    assert params.lower[0] == pytest.approx(4.999)
    assert params.upper[0] == pytest.approx(5.001)


# ---------------------------------------------------------------------------
# policy / calibration
# ---------------------------------------------------------------------------

def test_policy_bit_bounds():
    with pytest.raises(ValueError):
        QuantPolicy(default_bits=1)
    with pytest.raises(ValueError):
        QuantPolicy(default_bits=4, first_layer_bits=9)
    with pytest.raises(ValueError):
        QuantParams(9, 0.0, 1.0)
    p = QuantPolicy(default_bits=4, first_layer_bits=8, last_layer_bits=8)
    assert p.weight_bits(0, 7) == 8
    assert p.weight_bits(3, 7) == 4
    assert p.weight_bits(6, 7) == 8


def test_channel_params_validation():
    with pytest.raises(ValueError):
        QuantParams(4, np.array([0.0, 1.0]), np.array([1.0, 1.0]))


def test_runtime_needs_activation_quantizers():
    with pytest.raises(TypeError):
        FakeQuantRuntime(QuantPolicy(), None)


def test_runtime_activation_bits_come_from_the_policy():
    policy = QuantPolicy(default_bits=3, act_bits=4, first_layer_bits=8, last_layer_bits=6)
    runtime = FakeQuantRuntime(policy, [(-1.0, 1.0)] * 5)
    assert [q.bits for q in runtime.act_params] == [8, 4, 4, 4, 6]
    assert [(q.lower, q.upper) for q in runtime.act_params] == [(-1.0, 1.0)] * 5


def test_calibration_observes_min_max():
    net = build_toy_classifier(seed=0)
    rng = np.random.default_rng(4)
    data = rng.uniform(-1, 1, size=(8, 1, 16, 16)).astype(np.float32)
    params = observed_runtime(net, data, QuantPolicy(default_bits=4)).act_params
    assert params[0].lower == pytest.approx(float(data.min()))
    assert params[0].upper == pytest.approx(float(data.max()))
    # post-relu points have nonnegative bounds, with zero present
    for q in params[1:]:
        assert q.lower == pytest.approx(0.0, abs=1e-6)
        assert q.upper > 0


def test_calibration_empty_batch_errors():
    net = build_toy_classifier(seed=0)
    with pytest.raises(ValueError):
        observed_runtime(net, np.zeros((0, 1, 16, 16), dtype=np.float32), QuantPolicy())


def test_calibration_degenerate_constant_activation():
    # constant observed range collapses to a point and must widen by 1e-3:
    # the network's input, here constant, is the first quantization point
    net = build_toy_classifier(seed=0)
    data = np.full((2, 1, 16, 16), 5.0, dtype=np.float32)
    qp = observed_runtime(net, data, QuantPolicy(default_bits=4)).act_params[0]
    assert qp.lower == pytest.approx(4.999)
    assert qp.upper == pytest.approx(5.001)


def test_observe_accumulates_over_passes_in_point_order():
    # two passes in one scope give the range of their union, the points in
    # network order
    net = build_toy_classifier(seed=0)
    rng = np.random.default_rng(5)
    a, b = (rng.uniform(lo, hi, size=(4, 1, 16, 16)).astype(np.float32)
            for lo, hi in [(-1, 0.5), (-0.5, 2)])
    runtime = FakeQuantRuntime(QuantPolicy(default_bits=4), ())
    with ad.no_grad(), runtime.observe():
        for data in (a, b):
            forward(net, Tensor(data), train=False, quant=runtime)
    both = observed_runtime(net, np.concatenate([a, b]), QuantPolicy(default_bits=4))
    assert len(runtime.act_params) == quant_point_count(net)
    assert [(q.lower, q.upper) for q in runtime.act_params] == \
        [(q.lower, q.upper) for q in both.act_params]
    assert runtime.act_params[0].lower == float(a.min())
    assert runtime.act_params[0].upper == float(b.max())


def test_observe_without_a_pass_errors_and_keeps_the_bounds():
    runtime = FakeQuantRuntime(QuantPolicy(), [(-1.0, 1.0)])
    with pytest.raises(ValueError, match="no activations"):
        with runtime.observe():
            pass
    assert [(q.lower, q.upper) for q in runtime.act_params] == [(-1.0, 1.0)]
