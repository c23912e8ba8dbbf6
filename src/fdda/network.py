"""Layer-graph networks built on the autodiff tensor type.

A ``Network`` is an ordered list of layer specs plus named parameter tensors
and named float buffers (batch-norm running statistics). The same container
serves as classifier, quantized copy, and generator backbone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

if TYPE_CHECKING:
    from .quantizer import FakeQuantRuntime

BN_EPS = 1e-5
BN_MOMENTUM = 0.1  # weight of the newest batch in the running statistics
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
    pad: int = 0
    upsample: bool = False  # nearest 2x upsampling of the input first

    def __post_init__(self):
        if not 0 <= self.pad < self.kernel:
            raise ValueError(f"conv2d layer {self.name!r} needs kernel >= 1 and "
                             f"0 <= pad < kernel, got kernel {self.kernel}, pad {self.pad}")
        if not isinstance(self.upsample, bool):
            raise ValueError(f"conv2d layer {self.name!r} needs a boolean upsample, "
                             f"got {self.upsample!r}")
        if self.upsample and (self.kernel, self.pad) != (3, 1):
            raise ValueError(f"conv2d layer {self.name!r} upsamples only with kernel 3 "
                             f"and pad 1, got kernel {self.kernel}, pad {self.pad}")


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


LAYER_KINDS = {
    "dense": Dense,
    "conv2d": Conv2d,
    "batchnorm": BatchNorm,
    "relu": ReLU,
    "tanh": Tanh,
    "avgpool": AvgPool2d,
    "flatten": Flatten,
    "reshape": Reshape,
}
_KIND_BY_TYPE = {cls: kind for kind, cls in LAYER_KINDS.items()}


def layer_to_dict(layer) -> dict:
    d = {"kind": _KIND_BY_TYPE[type(layer)]}
    for field in dataclasses.fields(layer):
        v = getattr(layer, field.name)
        if field.name == "upsample" and not v:
            continue  # so a classifier's specs keep their bytes
        d[field.name] = list(v) if isinstance(v, tuple) else v
    return d


def layer_from_dict(d: dict):
    """Inverse of :func:`layer_to_dict`; raises ValueError on a malformed spec,
    such as a conv whose padding is not below its kernel size."""
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


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

def batchnorm_forward(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    train: bool,
    running_mean: np.ndarray,
    running_var: np.ndarray,
) -> Tensor:
    """Batch normalization.

    Train mode normalizes with the current batch's per-channel statistics
    (biased variance) and folds them into the running buffers with
    ``(1 - BN_MOMENTUM) * old + BN_MOMENTUM * new``.
    Eval mode normalizes with the running buffers.
    """
    if x.shape[0] == 0:
        raise ValueError("batchnorm on zero-size batch")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(f"batchnorm affine shape mismatch for {c} channels")

    if train:
        y, bm, bv = ad.batchnorm_train(x, gamma, beta, BN_EPS)
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * bm.astype(running_mean.dtype)
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * bv.astype(running_var.dtype)
        return y

    inv_std = (1.0 / np.sqrt(running_var + BN_EPS)).astype(x.dtype)
    return ad.batchnorm_eval(x, gamma, beta, running_mean.astype(x.dtype), inv_std)


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

@dataclass
class ForwardResult:
    output: Tensor
    bn_inputs: list[Tensor] | None = None


def forward(
    net: Network,
    x: Tensor,
    *,
    train: bool,
    capture_bn: bool = False,
    quant: FakeQuantRuntime | None = None,
) -> ForwardResult:
    """Run the layer stack. ``capture_bn`` records each BN layer's input
    tensor, in either mode; callers take the statistics they need from
    ``bn_inputs`` (``bns.sample_moments``), so losses built on them
    differentiate back to ``x``."""
    bn_inputs: list[Tensor] = []
    n_weights = len(net.weight_layers())
    weight = point = 0

    if quant is not None:
        x = quant.on_activation(x, point)
        point += 1

    for layer in net.layers:
        if isinstance(layer, (Dense, Conv2d)):
            w = net.params[f"{layer.name}.w"]
            b = net.params[f"{layer.name}.b"]
            if quant is not None:
                w = quant.on_weight(w, weight, n_weights)
            weight += 1
            if isinstance(layer, Dense):
                x = ad.dense(x, w, b)
            else:
                x = ad.conv2d(x, w, b, pad=layer.pad, upsample=layer.upsample)
        elif isinstance(layer, BatchNorm):
            if capture_bn:
                bn_inputs.append(x)
            x = batchnorm_forward(
                x,
                net.params[f"{layer.name}.gamma"],
                net.params[f"{layer.name}.beta"],
                train=train,
                running_mean=net.buffers[f"{layer.name}.running_mean"],
                running_var=net.buffers[f"{layer.name}.running_var"],
            )
        elif isinstance(layer, (ReLU, Tanh)):
            x = ad.relu(x) if isinstance(layer, ReLU) else ad.tanh(x)
            if quant is not None:
                x = quant.on_activation(x, point)
                point += 1
        elif isinstance(layer, AvgPool2d):
            x = ad.avg_pool2d(x, layer.kernel)
        elif isinstance(layer, Flatten):
            x = x.reshape((x.shape[0], -1))
        elif isinstance(layer, Reshape):
            x = x.reshape((x.shape[0],) + layer.shape)
        else:
            raise TypeError(f"unknown layer spec {layer!r}")

    return ForwardResult(output=x, bn_inputs=bn_inputs if capture_bn else None)


def quant_point_count(net: Network) -> int:
    """Activation-quantizer slots: the network input plus one per activation."""
    return 1 + net.activation_count()
