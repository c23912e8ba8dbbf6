"""Optimizers for the two training loops: Adam for the generator, Nesterov
SGD with selective weight decay for the quantized model."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def decays_weight(name: str) -> bool:
    """Weight decay targets conv/dense kernels only, never biases or BN affine."""
    return name.endswith(".w") and not name.startswith("embed")


class Adam:
    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * (g * g)
            mhat = self.m[k] / bias1
            vhat = self.v[k] / bias2
            p.data -= (lr * mhat / (np.sqrt(vhat) + ADAM_EPS)).astype(p.dtype)


class NesterovSGD:
    def __init__(self, params: dict[str, Tensor], momentum: float = 0.9,
                 weight_decay: float = 1e-4):
        self.params = params
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.buf = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float) -> None:
        mu = self.momentum
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay and decays_weight(k):
                g = g + self.weight_decay * p.data
            self.buf[k] = mu * self.buf[k] + g
            p.data -= (lr * (g + mu * self.buf[k])).astype(p.dtype)
