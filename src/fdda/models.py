"""Concrete toy architectures: the classifier under quantization and the
label-conditioned generator that synthesizes its training data."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .network import (
    AvgPool2d,
    BatchNorm,
    Conv2d,
    Dense,
    Flatten,
    Network,
    ReLU,
    Reshape,
    Tanh,
)


def _he_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(np.float32)


def _add_conv(layers, params, name: str, c_in: int, c_out: int, rng,
              kernel: int = 3, pad: int = 1, upsample: bool = False) -> None:
    layers.append(Conv2d(name, c_in, c_out, kernel, pad=pad, upsample=upsample))
    params[f"{name}.w"] = Tensor(
        _he_init(rng, (c_out, c_in, kernel, kernel), c_in * kernel * kernel),
        requires_grad=True,
    )
    params[f"{name}.b"] = Tensor(np.zeros(c_out, dtype=np.float32), requires_grad=True)


def _add_dense(layers, params, name: str, n_in: int, n_out: int, rng) -> None:
    layers.append(Dense(name, n_in, n_out))
    params[f"{name}.w"] = Tensor(_he_init(rng, (n_out, n_in), n_in), requires_grad=True)
    params[f"{name}.b"] = Tensor(np.zeros(n_out, dtype=np.float32), requires_grad=True)


def _add_bn(layers, params, buffers, name: str, channels: int) -> None:
    layers.append(BatchNorm(name, channels))
    params[f"{name}.gamma"] = Tensor(np.ones(channels, dtype=np.float32), requires_grad=True)
    params[f"{name}.beta"] = Tensor(np.zeros(channels, dtype=np.float32), requires_grad=True)
    buffers[f"{name}.running_mean"] = np.zeros(channels, dtype=np.float32)
    buffers[f"{name}.running_var"] = np.ones(channels, dtype=np.float32)


def build_toy_classifier(num_classes: int = 8, in_shape: tuple[int, int, int] = (1, 16, 16),
                         seed: int = 0) -> Network:
    """Small CNN classifier with six conv-BN-ReLU stages and a two-layer head.

    Input is (N, 1, 16, 16) in [-1, 1]; the head emits raw logits. There is
    deliberately no BN at the input, and every BN sits on a conv feature map
    with spatial extent, so per-image variance statistics stay informative
    through the deepest BN layer.
    """
    rng = np.random.default_rng([seed, 0])
    c, h, w = in_shape
    layers: list = []
    params: dict[str, Tensor] = {}
    buffers: dict[str, np.ndarray] = {}

    widths = (8, 16, 16, 24, 32, 32)
    pool_after = {1, 3, 6}  # 16x16 -> 8x8 -> 4x4 -> 2x2
    prev = c
    for i, cw in enumerate(widths, start=1):
        _add_conv(layers, params, f"conv{i}", prev, cw, rng)
        _add_bn(layers, params, buffers, f"bn{i}", cw)
        layers.append(ReLU())
        if i in pool_after:
            layers.append(AvgPool2d(2))
        prev = cw

    layers.append(Flatten())
    flat = prev * (h // 8) * (w // 8)
    _add_dense(layers, params, "fc1", flat, 64, rng)
    layers.append(ReLU())
    _add_dense(layers, params, "fc2", 64, num_classes, rng)

    meta = {"kind": "classifier", "input_shape": list(in_shape), "num_classes": num_classes}
    return Network(layers, params, buffers, meta)


def build_generator(num_classes: int = 8, noise_dim: int = 64,
                    out_shape: tuple[int, int, int] = (1, 16, 16), seed: int = 0) -> Network:
    """Label-conditioned generator: noise * label-embedding -> dense ->
    4x4 feature map -> two blocks of a conv on the 2x-upsampled map ->
    tanh image in (-1, 1)."""
    rng = np.random.default_rng([seed, 1])
    c_out, h, w = out_shape
    if h % 4 or w % 4:
        raise ValueError("generator output extents must be multiples of 4")
    layers: list = []
    params: dict[str, Tensor] = {}
    buffers: dict[str, np.ndarray] = {}

    params["embed.w"] = Tensor(
        rng.standard_normal((num_classes, noise_dim)).astype(np.float32),
        requires_grad=True,
    )

    base = 32
    h0, w0 = h // 4, w // 4
    _add_dense(layers, params, "fc", noise_dim, base * h0 * w0, rng)
    layers.append(Reshape((base, h0, w0)))
    _add_bn(layers, params, buffers, "gbn0", base)

    _add_conv(layers, params, "gconv1", base, base // 2, rng, upsample=True)
    _add_bn(layers, params, buffers, "gbn1", base // 2)
    layers.append(ReLU())

    _add_conv(layers, params, "gconv2", base // 2, base // 4, rng, upsample=True)
    _add_bn(layers, params, buffers, "gbn2", base // 4)
    layers.append(ReLU())

    _add_conv(layers, params, "gconv3", base // 4, c_out, rng)
    layers.append(Tanh())

    meta = {
        "kind": "generator",
        "noise_dim": noise_dim,
        "num_classes": num_classes,
        "output_shape": list(out_shape),
    }
    return Network(layers, params, buffers, meta)
