"""Asymmetric uniform quantization: per-channel for weights, per-layer for
activations, with a clipped straight-through estimator for fine-tuning.

The quantizer maps x -> round(clip(x, l, u) / s) with s = (u - l) / (2^b - 1)
and de-quantizes by multiplying back with s; there is no zero-point term, the
asymmetry lives entirely in (l, u). Ties round half away from zero.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

# bounds collapsed to a point are widened by this margin on each side
DEGENERATE_MARGIN = 1e-3


@dataclass(frozen=True)
class QuantParams:
    """Bit-width, clip bounds, and the derived scale of one quantizer: scalar
    bounds for an activation, ``(C,)`` arrays for a weight's output channels
    (axis 0)."""

    bits: int
    lower: float | np.ndarray
    upper: float | np.ndarray
    scale: float | np.ndarray = field(init=False)

    def __post_init__(self):
        if type(self.bits) is not int or not 2 <= self.bits <= 8:
            raise ValueError(f"bit-width must be an integer in [2, 8], got {self.bits!r}")
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise ValueError(f"bounds must be finite, got {self.lower}, {self.upper}")
        if np.any(self.upper <= self.lower):
            raise ValueError(f"upper bound {self.upper} must exceed lower bound {self.lower}")
        object.__setattr__(self, "scale", (self.upper - self.lower) / (2**self.bits - 1))

    def levels(self, dtype, ndim: int) -> tuple[np.ndarray, ...]:
        """The bounds, the scale and the level window [qmin, qmin + 2^bits - 1]
        in ``dtype``, shaped so that array bounds apply along axis 0 of an
        ``ndim``-D input. qmin = round(l / s), half away from zero, comes from
        the float64 bounds whatever their shape. round(clip(x)/s) alone can
        reach 2^bits + 1 integers when both ends fall on rounding ties; the
        window restores the level budget, keeping the error within scale/2."""
        shape = np.shape(self.lower) + (1,) * (ndim - np.ndim(self.lower))
        ratio = np.asarray(self.lower, np.float64) / np.asarray(self.scale, np.float64)
        qmin = np.copysign(np.floor(np.abs(ratio) + 0.5), ratio)
        return tuple(np.reshape(v, shape).astype(dtype) for v in
                     (self.lower, self.upper, self.scale, qmin, qmin + (2**self.bits - 1)))


def observed_bounds(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """The bounds of an observed [lo, hi] (scalars or per-channel arrays),
    widened by DEGENERATE_MARGIN on each side where the range collapses to a point."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    degenerate = hi - lo < 1e-12
    return (np.where(degenerate, lo - DEGENERATE_MARGIN, lo),
            np.where(degenerate, hi + DEGENERATE_MARGIN, hi))


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
            if v is not None and (type(v) is not int or not 2 <= v <= 8):
                raise ValueError(f"{name} must be an integer in [2, 8], got {v!r}")

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


def fake_quantize_ste(x: Tensor, q: QuantParams) -> Tensor:
    """Quantize-dequantize in float with a clipped straight-through gradient.

    Forward is round(clip(x, l, u) / s) * s, the rounded level clamped to the
    2^bits-level window anchored at round(l / s); the backward rule passes gradients
    unchanged where l <= x <= u and blocks them outside. Array bounds apply
    along axis 0 of ``x``. The window comes from the float64 bounds whatever
    the bounds' shape, so bounds on a rounding tie (l = -1, u = 1 at any
    bit-width) give one window for a layer and for a channel.
    """
    return _fake_quantize(x, q.levels(x.dtype, x.ndim))


def _fake_quantize(x: Tensor, levels: tuple[np.ndarray, ...]) -> Tensor:
    """:func:`fake_quantize_ste` on bounds already cast and shaped by :meth:`QuantParams.levels`."""
    lower, upper, scale, qmin, qmax = levels
    # in x's dtype: clip into a new array, then in place divide, round half
    # away from zero, clamp to the level window, scale back
    out = np.clip(x.data, lower, upper)
    np.divide(out, scale, out=out)
    mag = np.abs(out)
    mag += 0.5
    np.floor(mag, out=mag)
    np.copysign(mag, out, out=out)
    np.clip(out, qmin, qmax, out=out)
    np.multiply(out, scale, out=out)

    def bwd(g):
        mask = (x.data >= lower) & (x.data <= upper)
        return (g * mask,)

    return ad.record_op(out, (x,), bwd)


def channel_bounds(w: np.ndarray, bits: int) -> QuantParams:
    """Min/max bounds per output channel (axis 0), widened when degenerate."""
    flat = w.reshape(w.shape[0], -1)
    return QuantParams(bits, *observed_bounds(flat.min(axis=1), flat.max(axis=1)))


# ---------------------------------------------------------------------------
# forward-pass hooks
# ---------------------------------------------------------------------------

class FakeQuantRuntime:
    """Quantization hooks for ``network.forward``: weights are re-bounded from
    the current float values on every pass, activations use the runtime's
    current bounds, one ``(lower, upper)`` pair per quantization point, each
    point at the bit-width ``policy`` gives it. Passes inside :meth:`observe`
    set those bounds; no other pass changes them."""

    def __init__(self, policy: QuantPolicy, bounds: Sequence[tuple]):
        self.policy = policy
        # point -> (min, max) seen so far inside observe(), else None
        self._observed: dict[int, tuple[float, float]] | None = None
        self._set_bounds(bounds)

    def _set_bounds(self, bounds: Sequence[tuple]) -> None:
        n = len(bounds)
        self.act_params = tuple(QuantParams(self.policy.activation_bits(point, n), lower, upper)
                                for point, (lower, upper) in enumerate(bounds))
        # (point, dtype) -> the point's prepared scalar bounds; they broadcast
        # against an input of any rank
        self._act_levels: dict[tuple, tuple[np.ndarray, ...]] = {}

    @contextmanager
    def observe(self) -> Iterator[None]:
        """A scope whose passes run activations unquantized (weights stay
        fake-quantized) and record each point's min and max. When the block
        ends without an error, the observed ranges, widened where they collapse
        to a point (:func:`observed_bounds`), become the activation bounds;
        an error leaves the previous bounds. The points are the network input
        first, then one per activation in layer order."""
        self._observed = {}
        try:
            yield
            observed = self._observed
        finally:
            self._observed = None
        if not observed:
            raise ValueError("observe() saw no activations")
        self._set_bounds([observed_bounds(lo, hi) for lo, hi in observed.values()])

    def on_weight(self, w: Tensor, index: int, total: int) -> Tensor:
        return fake_quantize_ste(w, channel_bounds(w.data, self.policy.weight_bits(index, total)))

    def on_activation(self, x: Tensor, point: int) -> Tensor:
        if self._observed is not None:
            lo, hi = self._observed.get(point, (np.inf, -np.inf))
            self._observed[point] = (min(lo, float(x.data.min())), max(hi, float(x.data.max())))
            return x
        key = (point, x.dtype)
        if key not in self._act_levels:
            self._act_levels[key] = self.act_params[point].levels(x.dtype, 0)
        return _fake_quantize(x, self._act_levels[key])
