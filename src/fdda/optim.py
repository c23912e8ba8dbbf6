"""Optimizers: Adam for pretraining and the generator, Nesterov SGD with
selective weight decay for the quantized model.

Each optimizer keeps its parameters, their gradients, a scratch array and
its state as the rows of one array: on construction every parameter's
``data`` becomes a view into the first row, and a step moves the gradients
into the second (every ``.grad`` is None afterwards), then updates all of
them with a few whole-array numpy calls that allocate nothing. The update
of each element is the per-array formula's, with the same operations in the
same order, so the bits are those of updating each array on its own."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
SGD_MOMENTUM, SGD_WEIGHT_DECAY = 0.9, 1e-4


def decays_weight(name: str) -> bool:
    """Weight decay targets the classifier's conv/dense kernels only, never
    biases or BN affine."""
    return name.endswith(".w")


class _FlatParams:
    """Parameters of one dtype as rows of one block: ``data``, whose slices
    the parameters' ``data`` become, ``grad``, ``tmp`` and ``states`` rows
    for the optimizer. The parameters that ``first`` selects lead, so they
    are the slice ``[:lead]`` of each row."""

    def __init__(self, params: dict[str, Tensor], states: int, first=lambda name: False):
        names = sorted(params, key=lambda k: not first(k))  # stable: keeps dict order
        tensors = [params[k] for k in names]
        if len({p.dtype for p in tensors}) > 1:
            raise ValueError("an optimizer's parameters must share one dtype")
        self.lead = sum(params[k].data.size for k in names if first(k))
        block = np.zeros((3 + states, sum(p.data.size for p in tensors)), tensors[0].dtype)
        self.data, self.grad, self.tmp = block[:3]
        self.states = block[3:]
        np.concatenate([p.data.reshape(-1) for p in tensors], out=self.data)
        self.slots, at = [], 0  # (name, tensor, its view of grad)
        for name, p in zip(names, tensors):
            size = p.data.size
            p.data = self.data[at : at + size].reshape(p.shape)
            self.slots.append((name, p, self.grad[at : at + size].reshape(p.shape)))
            at += size

    def gather_grads(self) -> np.ndarray:
        """The flat gradient array, filled from every parameter's ``.grad``,
        which it then sets to None: a step consumes the gradients it reads."""
        for name, p, view in self.slots:
            if p.grad is None:
                raise ValueError(f"parameter {name} has no gradient")
            view[...] = p.grad
            p.grad = None
        return self.grad


class Adam:
    def __init__(self, params: dict[str, Tensor]):
        self.flat = _FlatParams(params, states=2)
        self.t = 0
        self.m, self.v = self.flat.states

    def step(self, lr: float) -> None:
        """m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g), and
        p -= lr * (m/bias1) / (sqrt(v/bias2) + eps)."""
        g, tmp = self.flat.gather_grads(), self.flat.tmp
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        self.m *= b1
        self.m += np.multiply(g, 1 - b1, out=tmp)
        self.v *= b2
        g *= g
        g *= 1 - b2
        self.v += g
        step = np.divide(self.m, bias1, out=tmp)
        step *= lr
        den = np.divide(self.v, bias2, out=g)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        step /= den
        self.flat.data -= step


class NesterovSGD:
    def __init__(self, params: dict[str, Tensor]):
        self.flat = _FlatParams(params, states=1, first=decays_weight)
        (self.buf,) = self.flat.states

    def step(self, lr: float) -> None:
        """g += wd * p where ``decays_weight``, buf = mu*buf + g, and
        p -= lr * (g + mu*buf)."""
        mu, lead = SGD_MOMENTUM, self.flat.lead
        g, tmp = self.flat.gather_grads(), self.flat.tmp
        g[:lead] += np.multiply(self.flat.data[:lead], SGD_WEIGHT_DECAY, out=tmp[:lead])
        self.buf *= mu
        self.buf += g
        g += np.multiply(self.buf, mu, out=tmp)
        g *= lr
        self.flat.data -= g
