"""Layer-graph networks built on the autodiff tensor type.

A ``Network`` is an ordered list of layer specs plus named parameter tensors
and named float buffers (batch-norm running statistics). The same container
serves as classifier, quantized copy, and generator backbone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

BN_EPS = 1e-5
EVAL_BATCH = 256  # images per eval-mode forward pass


# ---------------------------------------------------------------------------
# layer specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dense:
    name: str
    in_features: int
    out_features: int


@dataclass(frozen=True)
class Conv2d:
    name: str
    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    pad: int = 0


@dataclass(frozen=True)
class BatchNorm:
    name: str
    channels: int


@dataclass(frozen=True)
class ReLU:
    pass


@dataclass(frozen=True)
class Tanh:
    pass


@dataclass(frozen=True)
class AvgPool2d:
    kernel: int


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class Reshape:
    shape: tuple[int, ...]  # per-sample shape, batch excluded


@dataclass(frozen=True)
class Upsample2x:
    pass


LAYER_KINDS = {
    "dense": Dense,
    "conv2d": Conv2d,
    "batchnorm": BatchNorm,
    "relu": ReLU,
    "tanh": Tanh,
    "avgpool": AvgPool2d,
    "flatten": Flatten,
    "reshape": Reshape,
    "upsample2x": Upsample2x,
}
_KIND_BY_TYPE = {cls: kind for kind, cls in LAYER_KINDS.items()}


def layer_to_dict(layer) -> dict:
    d = {"kind": _KIND_BY_TYPE[type(layer)]}
    for field in dataclasses.fields(layer):
        v = getattr(layer, field.name)
        d[field.name] = list(v) if isinstance(v, tuple) else v
    return d


def layer_from_dict(d: dict):
    """Inverse of :func:`layer_to_dict`; raises ValueError on a malformed spec."""
    kind = d.get("kind") if isinstance(d, dict) else None
    cls = LAYER_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown layer spec {d!r}")
    kwargs = {k: v for k, v in d.items() if k != "kind"}
    try:
        if cls is Reshape:
            kwargs["shape"] = tuple(kwargs["shape"])
        return cls(**kwargs)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad {d['kind']} layer spec {d!r} ({exc})") from exc


def layer_state_shapes(layer) -> tuple[dict[str, tuple[int, ...]], dict[str, tuple[int, ...]]]:
    """Names and shapes of the parameters and buffers a layer spec reads."""
    if isinstance(layer, Dense):
        return {f"{layer.name}.w": (layer.out_features, layer.in_features),
                f"{layer.name}.b": (layer.out_features,)}, {}
    if isinstance(layer, Conv2d):
        k = layer.kernel
        return {f"{layer.name}.w": (layer.out_channels, layer.in_channels, k, k),
                f"{layer.name}.b": (layer.out_channels,)}, {}
    if isinstance(layer, BatchNorm):
        c = (layer.channels,)
        return ({f"{layer.name}.gamma": c, f"{layer.name}.beta": c},
                {f"{layer.name}.running_mean": c, f"{layer.name}.running_var": c})
    return {}, {}


# ---------------------------------------------------------------------------
# network container
# ---------------------------------------------------------------------------

class Network:
    """Ordered layer graph with named parameters and BN running buffers."""

    def __init__(self, layers, params: dict[str, Tensor], buffers: dict[str, np.ndarray],
                 meta: dict | None = None):
        self.layers = tuple(layers)
        self.params = params
        self.buffers = buffers
        self.meta = dict(meta or {})

    @property
    def bn_layer_count(self) -> int:
        return sum(1 for l in self.layers if isinstance(l, BatchNorm))

    @property
    def dtype(self):
        return next(iter(self.params.values())).dtype

    def bn_layers(self) -> list[BatchNorm]:
        return [l for l in self.layers if isinstance(l, BatchNorm)]

    def weight_layers(self) -> list:
        return [l for l in self.layers if isinstance(l, (Dense, Conv2d))]

    def activation_count(self) -> int:
        return sum(1 for l in self.layers if isinstance(l, (ReLU, Tanh)))

    def set_requires_grad(self, flag: bool) -> None:
        for p in self.params.values():
            p.requires_grad = flag

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def copy(self) -> "Network":
        params = {k: Tensor(v.data.copy(), requires_grad=v.requires_grad)
                  for k, v in self.params.items()}
        buffers = {k: v.copy() for k, v in self.buffers.items()}
        return Network(self.layers, params, buffers, dict(self.meta))

    def astype(self, dtype) -> "Network":
        params = {k: Tensor(v.data.astype(dtype), requires_grad=v.requires_grad)
                  for k, v in self.params.items()}
        buffers = {k: v.astype(dtype) for k, v in self.buffers.items()}
        return Network(self.layers, params, buffers, dict(self.meta))

    def state_equal(self, other: "Network") -> bool:
        """Bitwise equality of all parameters and buffers."""
        if set(self.params) != set(other.params) or set(self.buffers) != set(other.buffers):
            return False
        return all(np.array_equal(self.params[k].data, other.params[k].data)
                   for k in self.params) and \
               all(np.array_equal(self.buffers[k], other.buffers[k])
                   for k in self.buffers)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

def channel_stats(x: Tensor) -> tuple[Tensor, Tensor]:
    """Per-channel mean and biased variance over batch and spatial axes.

    Accepts (N, C, H, W) or (N, C); returns two (C,) tensors on the tape.
    """
    if x.ndim == 4:
        axes = (0, 2, 3)
    elif x.ndim == 2:
        axes = (0,)
    else:
        raise ValueError(f"unsupported input rank {x.ndim} for channel stats")
    m = x.mean(axis=axes, keepdims=True)
    centered = x - m
    v = (centered * centered).mean(axis=axes, keepdims=True)
    c = x.shape[1]
    return m.reshape((c,)), v.reshape((c,))


def _bcast_channel(t: Tensor, ndim: int, c: int) -> Tensor:
    shape = (1, c, 1, 1) if ndim == 4 else (1, c)
    return t.reshape(shape)


def batchnorm_forward(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    train: bool,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    momentum: float = 0.1,
    update_running: bool = True,
    need_stats: bool | None = None,
) -> tuple[Tensor, Tensor | None, Tensor | None]:
    """Batch normalization returning (output, batch_mean, batch_var).

    Train mode normalizes with the current batch's per-channel statistics
    (biased variance) and, when ``update_running`` is set, folds them into the
    running buffers with ``(1 - momentum) * old + momentum * new``. Eval mode
    normalizes with the running buffers; batch statistics are then only
    computed when ``need_stats`` asks for them.
    """
    if x.shape[0] == 0:
        raise ValueError("batchnorm on zero-size batch")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(f"batchnorm affine shape mismatch for {c} channels")
    if need_stats is None:
        need_stats = train

    if train and not need_stats:
        # fused fast path; statistics only feed the running-buffer update
        y, bm_arr, bv_arr = ad.batchnorm_train(x, gamma, beta, BN_EPS)
        if update_running:
            running_mean *= 1.0 - momentum
            running_mean += momentum * bm_arr.astype(running_mean.dtype)
            running_var *= 1.0 - momentum
            running_var += momentum * bv_arr.astype(running_var.dtype)
        return y, Tensor(bm_arr), Tensor(bv_arr)

    if train:
        bm, bv = channel_stats(x)
        if update_running:
            running_mean *= 1.0 - momentum
            running_mean += momentum * bm.data.astype(running_mean.dtype)
            running_var *= 1.0 - momentum
            running_var += momentum * bv.data.astype(running_var.dtype)
        mean_b = _bcast_channel(bm, x.ndim, c)
        var_b = _bcast_channel(bv, x.ndim, c)
        inv = ad.div(
            Tensor(np.ones((), dtype=x.dtype)),
            ad.sqrt(var_b + Tensor(np.asarray(BN_EPS, dtype=x.dtype))),
        )
        xhat = (x - mean_b) * inv
        y = xhat * _bcast_channel(gamma, x.ndim, c) + _bcast_channel(beta, x.ndim, c)
        return y, bm, bv

    # eval mode: normalization against constant running statistics. The
    # statistics are taped after the normalization, so backward adds their
    # gradient into x first; seeded reports depend on that order of sums.
    inv_std = (1.0 / np.sqrt(running_var + BN_EPS)).astype(x.dtype)
    y = ad.batchnorm_eval(x, gamma, beta, running_mean.astype(x.dtype), inv_std)
    bm = bv = None
    if need_stats:
        bm, bv = channel_stats(x)
    return y, bm, bv


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

class QuantHooks(Protocol):
    """Injected by the quantizer: transforms weights and activation tensors."""

    def on_weight(self, w: Tensor, layer_name: str, index: int, total: int) -> Tensor: ...

    def on_activation(self, x: Tensor, point: int) -> Tensor: ...


@dataclass
class ForwardResult:
    output: Tensor
    bn_inputs: list[Tensor] | None = None
    bn_stats: list[tuple[Tensor, Tensor]] | None = None


def forward(
    net: Network,
    x: Tensor,
    *,
    train: bool,
    capture_bn: bool = False,
    quant: QuantHooks | None = None,
    momentum: float = 0.1,
    update_running: bool = True,
) -> ForwardResult:
    """Run the layer stack. ``capture_bn`` records each BN layer's input
    tensor and its per-channel batch statistics (taped, so losses built from
    them differentiate back to ``x``)."""
    bn_inputs: list[Tensor] = []
    bn_stats: list[tuple[Tensor, Tensor]] = []
    weight_layers = net.weight_layers()
    n_weights = len(weight_layers)
    w_index = {id(l): i for i, l in enumerate(weight_layers)}
    point = 0

    if quant is not None:
        x = quant.on_activation(x, point)
        point += 1

    for layer in net.layers:
        if isinstance(layer, Dense):
            w = net.params[f"{layer.name}.w"]
            b = net.params[f"{layer.name}.b"]
            if quant is not None:
                w = quant.on_weight(w, layer.name, w_index[id(layer)], n_weights)
            x = ad.dense(x, w, b)
        elif isinstance(layer, Conv2d):
            w = net.params[f"{layer.name}.w"]
            b = net.params[f"{layer.name}.b"]
            if quant is not None:
                w = quant.on_weight(w, layer.name, w_index[id(layer)], n_weights)
            x = ad.conv2d(x, w, b, stride=layer.stride, pad=layer.pad)
        elif isinstance(layer, BatchNorm):
            if capture_bn:
                bn_inputs.append(x)
            x, bm, bv = batchnorm_forward(
                x,
                net.params[f"{layer.name}.gamma"],
                net.params[f"{layer.name}.beta"],
                train=train,
                running_mean=net.buffers[f"{layer.name}.running_mean"],
                running_var=net.buffers[f"{layer.name}.running_var"],
                momentum=momentum,
                update_running=update_running,
                need_stats=capture_bn,
            )
            if capture_bn:
                bn_stats.append((bm, bv))
        elif isinstance(layer, ReLU):
            x = ad.relu(x)
            if quant is not None:
                x = quant.on_activation(x, point)
                point += 1
        elif isinstance(layer, Tanh):
            x = ad.tanh(x)
            if quant is not None:
                x = quant.on_activation(x, point)
                point += 1
        elif isinstance(layer, AvgPool2d):
            x = ad.avg_pool2d(x, layer.kernel)
        elif isinstance(layer, Flatten):
            x = x.reshape((x.shape[0], -1))
        elif isinstance(layer, Reshape):
            x = x.reshape((x.shape[0],) + layer.shape)
        elif isinstance(layer, Upsample2x):
            x = ad.upsample2x(x)
        else:
            raise TypeError(f"unknown layer spec {layer!r}")

    return ForwardResult(
        output=x,
        bn_inputs=bn_inputs if capture_bn else None,
        bn_stats=bn_stats if capture_bn else None,
    )


def quant_point_count(net: Network) -> int:
    """Activation-quantizer slots: the network input plus one per activation."""
    return 1 + net.activation_count()
