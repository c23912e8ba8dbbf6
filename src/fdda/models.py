"""Concrete toy architectures: the classifier under quantization and the
label-conditioned generator that synthesizes its training data."""

from __future__ import annotations

import math

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
    state_shapes,
)


def _init_state(layers, rng: np.random.Generator) -> tuple[dict, dict]:
    """Fresh parameters and buffers of ``layers``, drawn in layer order:
    He-normal weights by fan-in, zero biases and BN shifts, unit BN scales,
    zero running means and unit running variances."""
    param_shapes, buffer_shapes = state_shapes(layers)
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes.items():
        if name.endswith(".w"):
            value = rng.standard_normal(shape) * np.sqrt(2.0 / math.prod(shape[1:]))
        else:
            value = np.ones(shape) if name.endswith(".gamma") else np.zeros(shape)
        params[name] = Tensor(value.astype(np.float32), requires_grad=True)
    buffers = {name: np.full(shape, 1.0 if name.endswith(".running_var") else 0.0, np.float32)
               for name, shape in buffer_shapes.items()}
    return params, buffers


def toy_classifier_layers(num_classes: int, in_shape: tuple[int, int, int]) -> list:
    """Layer specs of the toy classifier; allocates no arrays. Archives store
    only the parameters and buffers and rebuild the graph from these two
    values, so any change to the graph needs a new archive format version."""
    layers, prev = [], in_shape[0]
    for i, width in enumerate((8, 16, 16, 24, 32, 32), start=1):
        layers += [Conv2d(f"conv{i}", prev, width, 3, pad=1), BatchNorm(f"bn{i}", width), ReLU()]
        if i in (1, 3, 6):  # 16x16 -> 8x8 -> 4x4 -> 2x2
            layers.append(AvgPool2d(2))
        prev = width
    flat = prev * (in_shape[1] // 8) * (in_shape[2] // 8)
    return layers + [Flatten(), Dense("fc1", flat, 64), ReLU(), Dense("fc2", 64, num_classes)]


def toy_classifier_meta(num_classes: int, in_shape: tuple[int, int, int]) -> dict:
    """The ``meta`` of a toy classifier, from which an archive rebuilds its graph."""
    return {"kind": "classifier", "input_shape": list(in_shape), "num_classes": num_classes}


def build_toy_classifier(num_classes: int = 8, in_shape: tuple[int, int, int] = (1, 16, 16),
                         seed: int = 0) -> Network:
    """Small CNN classifier with six conv-BN-ReLU stages and a two-layer head.

    Input is (N, 1, 16, 16) in [-1, 1]; the head emits raw logits. There is
    deliberately no BN at the input, and every BN sits on a conv feature map
    with spatial extent, so per-image variance statistics stay informative
    through the deepest BN layer.
    """
    layers = toy_classifier_layers(num_classes, in_shape)
    params, buffers = _init_state(layers, np.random.default_rng([seed, 0]))
    return Network(layers, params, buffers, toy_classifier_meta(num_classes, in_shape))


NOISE_DIM = 64  # the generator's noise and label-embedding width


def build_generator(num_classes: int = 8,
                    out_shape: tuple[int, int, int] = (1, 16, 16), seed: int = 0) -> Network:
    """Label-conditioned generator: noise * label-embedding -> dense ->
    4x4 feature map -> two blocks of a conv on the 2x-upsampled map ->
    tanh image in (-1, 1)."""
    rng = np.random.default_rng([seed, 1])
    c_out, h, w = out_shape
    embed = rng.standard_normal((num_classes, NOISE_DIM)).astype(np.float32)

    base = 32
    h0, w0 = h // 4, w // 4
    layers = [
        Dense("fc", NOISE_DIM, base * h0 * w0), Reshape((base, h0, w0)), BatchNorm("gbn0", base),
        Conv2d("gconv1", base, base // 2, 3, pad=1, upsample=True),
        BatchNorm("gbn1", base // 2), ReLU(),
        Conv2d("gconv2", base // 2, base // 4, 3, pad=1, upsample=True),
        BatchNorm("gbn2", base // 4), ReLU(),
        Conv2d("gconv3", base // 4, c_out, 3, pad=1), Tanh(),
    ]
    params, buffers = _init_state(layers, rng)
    params = {"embed.w": Tensor(embed, requires_grad=True), **params}

    meta = {
        "kind": "generator",
        "noise_dim": NOISE_DIM,
        "num_classes": num_classes,
        "output_shape": list(out_shape),
    }
    return Network(layers, params, buffers, meta)
