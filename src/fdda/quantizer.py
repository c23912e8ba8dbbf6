"""Asymmetric uniform quantization: per-channel for weights, per-layer for
activations, with a clipped straight-through estimator for fine-tuning.

The quantizer maps x -> round(clip(x, l, u) / s) with s = (u - l) / (2^b - 1)
and de-quantizes by multiplying back with s; there is no zero-point term, the
asymmetry lives entirely in (l, u). Ties round half away from zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .network import Network, forward

# bounds collapsed to a point are widened by this margin on each side
DEGENERATE_MARGIN = 1e-3


def compute_scale(bits: int, lower: float, upper: float) -> float:
    """Step size projecting [lower, upper] onto 2^bits integer levels."""
    if upper <= lower:
        raise ValueError(f"upper bound {upper} must exceed lower bound {lower}")
    return (upper - lower) / (2**bits - 1)


@dataclass(frozen=True)
class QuantParams:
    """Bit-width, clip bounds, and the derived scale for one quantizer."""

    bits: int
    lower: float
    upper: float
    scale: float = field(init=False)

    def __post_init__(self):
        if self.bits < 2:
            raise ValueError(f"bit-width must be >= 2, got {self.bits}")
        object.__setattr__(self, "scale", compute_scale(self.bits, self.lower, self.upper))


@dataclass(frozen=True)
class ChannelQuantParams:
    """Per-output-channel bounds sharing one bit-width."""

    bits: int
    lower: np.ndarray
    upper: np.ndarray
    scale: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.bits < 2:
            raise ValueError(f"bit-width must be >= 2, got {self.bits}")
        if np.any(self.upper <= self.lower):
            raise ValueError("each channel needs upper > lower")
        object.__setattr__(self, "scale", (self.upper - self.lower) / (2**self.bits - 1))

    def __len__(self) -> int:
        return len(self.lower)


@dataclass(frozen=True)
class QuantPolicy:
    """Bit-width assignment. ``default_bits`` covers interior weights and,
    unless overridden by ``act_bits``, interior activations; the first and
    last weight layers (and the quantizers feeding them) can be set apart.
    BN parameters and biases always stay in float."""

    default_bits: int = 4
    act_bits: int | None = None
    first_layer_bits: int | None = None
    last_layer_bits: int | None = None

    def __post_init__(self):
        for name in ("default_bits", "act_bits", "first_layer_bits", "last_layer_bits"):
            v = getattr(self, name)
            if v is not None and not (2 <= v <= 8):
                raise ValueError(f"{name} must be in [2, 8], got {v}")

    def weight_bits(self, index: int, total: int) -> int:
        if index == 0 and self.first_layer_bits is not None:
            return self.first_layer_bits
        if index == total - 1 and self.last_layer_bits is not None:
            return self.last_layer_bits
        return self.default_bits

    def activation_bits(self, point: int, total_points: int) -> int:
        if point == 0 and self.first_layer_bits is not None:
            return self.first_layer_bits
        if point == total_points - 1 and self.last_layer_bits is not None:
            return self.last_layer_bits
        return self.act_bits if self.act_bits is not None else self.default_bits


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def _level_window(lower, scale, bits: int):
    """Integer level range [qmin, qmax] spanning exactly 2^bits values.

    round(clip(x)/s) alone can reach 2^bits + 1 integers when both interval
    ends fall on rounding ties; clamping into this window restores the level
    budget while keeping the reconstruction error within scale/2.
    """
    qmin = _round_half_away(np.asarray(lower, dtype=np.float64) / np.asarray(scale, dtype=np.float64))
    return qmin, qmin + (2**bits - 1)


def _bounds_for(x: Tensor, q: QuantParams | ChannelQuantParams):
    if isinstance(q, QuantParams):
        return q.lower, q.upper, q.scale
    # per-channel bounds broadcast along axis 0 of the weight tensor
    shape = (len(q),) + (1,) * (x.ndim - 1)
    dt = x.dtype
    return (
        q.lower.reshape(shape).astype(dt),
        q.upper.reshape(shape).astype(dt),
        q.scale.reshape(shape).astype(dt),
    )


def fake_quantize_ste(x: Tensor, q: QuantParams | ChannelQuantParams,
                      surrogate: bool = False) -> Tensor:
    """Quantize-dequantize in float with a clipped straight-through gradient.

    Forward is round(clip(x, l, u) / s) * s, the rounded level clamped to the
    2^bits-level window anchored at round(l / s); the backward rule passes gradients
    unchanged where l <= x <= u and blocks them outside. With ``surrogate``
    the rounding is disabled (forward becomes clip(x, l, u)), which makes the
    op differentiable so finite differences can validate the backward rule.
    """
    lower, upper, scale = _bounds_for(x, q)
    out = np.clip(x.data, lower, upper)
    if not surrogate:
        # in x's dtype, in place: divide, round half away from zero, clamp to
        # the level window, scale back
        qmin, qmax = _level_window(lower, scale, q.bits)
        np.divide(out, scale, out=out)
        mag = np.abs(out)
        mag += 0.5
        np.floor(mag, out=mag)
        np.copysign(mag, out, out=out)
        np.clip(out, qmin.astype(x.dtype), qmax.astype(x.dtype), out=out)
        np.multiply(out, scale, out=out)

    def bwd(g):
        mask = (x.data >= lower) & (x.data <= upper)
        return (g * mask,)

    return ad.record_op(out, (x,), bwd)


def channel_bounds(w: np.ndarray, bits: int) -> ChannelQuantParams:
    """Min/max bounds per output channel (axis 0), widened when degenerate."""
    flat = w.reshape(w.shape[0], -1)
    lo = flat.min(axis=1).astype(np.float64)
    hi = flat.max(axis=1).astype(np.float64)
    degenerate = hi - lo < 1e-12
    lo = np.where(degenerate, lo - DEGENERATE_MARGIN, lo)
    hi = np.where(degenerate, hi + DEGENERATE_MARGIN, hi)
    return ChannelQuantParams(bits, lo, hi)


def quantize_weights_per_channel(w: Tensor, bits: int) -> tuple[Tensor, ChannelQuantParams]:
    """Fake-quantize each output-channel slice against its own min/max."""
    q = channel_bounds(w.data, bits)
    return fake_quantize_ste(w, q), q


# ---------------------------------------------------------------------------
# forward-pass hooks
# ---------------------------------------------------------------------------

class FakeQuantRuntime:
    """Quantization hooks for ``network.forward``: weights are re-bounded from
    the current float values on every pass, activations use frozen calibrated
    bounds (pass ``act_params=None`` to leave activations unquantized)."""

    def __init__(self, policy: QuantPolicy, act_params: list[QuantParams] | None):
        self.policy = policy
        self.act_params = act_params

    def on_weight(self, w: Tensor, index: int, total: int) -> Tensor:
        bits = self.policy.weight_bits(index, total)
        fq, _ = quantize_weights_per_channel(w, bits)
        return fq

    def on_activation(self, x: Tensor, point: int) -> Tensor:
        if self.act_params is None:
            return x
        return fake_quantize_ste(x, self.act_params[point])


class RangeCalibrator(FakeQuantRuntime):
    """Observes per-point activation min/max while weights run fake-quantized
    exactly as in :class:`FakeQuantRuntime`."""

    def __init__(self, policy: QuantPolicy, n_points: int):
        super().__init__(policy, None)
        self.lo = [np.inf] * n_points
        self.hi = [-np.inf] * n_points

    def on_activation(self, x: Tensor, point: int) -> Tensor:
        self.lo[point] = min(self.lo[point], float(x.data.min()))
        self.hi[point] = max(self.hi[point], float(x.data.max()))
        return x

    def finalize(self) -> list[QuantParams]:
        n = len(self.lo)
        params = []
        for point, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            if not np.isfinite(lo) or not np.isfinite(hi):
                raise ValueError("calibration saw no activations at some point")
            if hi - lo < 1e-12:
                lo, hi = lo - DEGENERATE_MARGIN, hi + DEGENERATE_MARGIN
            params.append(QuantParams(self.policy.activation_bits(point, n), lo, hi))
        return params


def calibrate_activation_bounds(net: Network, data: np.ndarray,
                                policy: QuantPolicy) -> list[QuantParams]:
    """One eval-mode pass over ``data`` recording (min, max) per quant point.

    Bounds that collapse to a point are widened by +-1e-3. The list is ordered
    network input first, then one entry per activation in layer order.
    """
    data = np.asarray(data)
    if data.shape[0] == 0:
        raise ValueError("cannot calibrate on an empty batch")
    from .network import quant_point_count

    calib = RangeCalibrator(policy, quant_point_count(net))
    with ad.no_grad():
        forward(net, Tensor(data), train=False, quant=calib)
    return calib.finalize()
