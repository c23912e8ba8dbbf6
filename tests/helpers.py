"""Helpers that only the tests use: a finite-difference gradient check,
float64 copies of networks, bitwise comparison of networks, a tensor cut
off the tape, the batch-innermost memory layout of 4-D arrays, and the
class centroids of a calibration set. No command needs them, so they live
here and not in the package."""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from fdda import autodiff as ad
from fdda.autodiff import Tensor
from fdda.bns import ClassCentroids, build_class_centroids, per_image_bns
from fdda.data import LabeledImages
from fdda.network import Network


def detach(t: Tensor) -> Tensor:
    """The same values, with no gradient and no tie to the tape."""
    return Tensor(t.data)


def batch_innermost(x: np.ndarray) -> np.ndarray:
    """Same values and shape (N, C, H, W), laid out (C, H, W, N) in memory as
    conv outputs are."""
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def is_batch_innermost(x: np.ndarray) -> bool:
    """Whether a 4-D (N, C, H, W) array is laid out (C, H, W, N) in memory."""
    return x.ndim == 4 and x.transpose(1, 2, 3, 0).flags.c_contiguous


def class_centroids(net: Network, calib: LabeledImages, deep_start: int) -> ClassCentroids:
    """The centroids of a non-empty calibration set, from the per-image
    statistics of one default pass over its images."""
    return build_class_centroids(per_image_bns(net, calib.images)[0], calib.labels, deep_start)


def astype(net: Network, dtype) -> Network:
    """A copy of ``net`` whose parameters and buffers are cast to ``dtype``."""
    params = {k: Tensor(v.data.astype(dtype), requires_grad=v.requires_grad)
              for k, v in net.params.items()}
    buffers = {k: v.astype(dtype) for k, v in net.buffers.items()}
    return Network(net.layers, params, buffers, dict(net.meta))


def state_equal(a: Network, b: Network) -> bool:
    """Bitwise equality of all parameters and buffers."""
    if set(a.params) != set(b.params) or set(a.buffers) != set(b.buffers):
        return False
    return all(np.array_equal(a.params[k].data, b.params[k].data) for k in a.params) and \
        all(np.array_equal(a.buffers[k], b.buffers[k]) for k in a.buffers)


def grad_check(f: Callable[[], Tensor], params: Iterable[Tensor], h: float = 1e-3) -> float:
    """Max relative error between taped gradients and central finite differences.

    ``f`` must be a deterministic scalar-valued closure over ``params`` and
    differentiable at the current parameter values (kinks such as relu(0) are
    outside the contract). Run with float64 parameters: finite differences in
    float32 are dominated by roundoff.
    """
    params = list(params)
    for p in params:
        p.grad = None
    ad.backward(f())
    taped = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    max_rel = 0.0
    with ad.no_grad():
        for p, g in zip(params, taped):
            flat = p.data.reshape(-1)
            gflat = g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = float(f().data)
                flat[i] = orig - h
                fm = float(f().data)
                flat[i] = orig
                fd = (fp - fm) / (2.0 * h)
                rel = abs(float(gflat[i]) - fd) / max(abs(fd), 1e-6)
                max_rel = max(max_rel, rel)
    return max_rel
