"""Minimal dense-tensor library with reverse-mode automatic differentiation.

Values are stored in numpy arrays (float32 by default; build tensors as
float64 for gradient verification). Operations executed while gradients are
enabled are recorded on a process-global tape; ``backward`` replays the tape
in reverse exactly once and then clears it, so a tape covers a single
forward pass.

Memory: ``backward`` consumes the tape. It pops each node before running the
node's rule, so the arrays the node saved and its output's gradient are
released as the walk moves toward the inputs; afterwards only tensors the
caller still holds (parameters, inputs, kept intermediates) have a
``.grad``. Each op saves only the arrays its rule reads for the inputs that
need a gradient: a conv keeps its column matrix only for a weight gradient,
and eval-mode batch norm keeps its normalized input only for a gamma
gradient. A pass through a frozen network, such as the teacher in a
generator step, therefore keeps its activations but not those arrays.

Layout: a conv writes its output batch-innermost, with logical shape
(N, C, H, W) and (C, H, W, N) in memory. Elementwise ops keep their inputs'
layout, and the ops that write a gradient array themselves (``avg_pool2d``,
``sum_``, ``reshape``, the phase-grid interleaving below, and
``bns.alignment_loss``, which is taped through ``record_op``) write it in
their input's layout, so every array a conv reads after a network's first
conv is batch-innermost. ``reshape`` returns a C-contiguous array,
copying when its input is not. The conv's im2col copies its input once into
a zero-padded (C, H + 2*pad, W + 2*pad, N) buffer, then each of the k*k
taps out of it into the (C*k*k, Ho*Wo*N) column matrix as runs of Wo*N
floats; the GEMM's (O, Ho*Wo*N) result is the output with no copy.

Numerics: the forward and input-gradient GEMMs keep the plain formula's sum
over C*k*k for each output value and only permute the columns, so outputs
and input gradients equal a sliding-window im2col's bit for bit. (OpenBLAS
computes the last column-count mod 16 columns with another kernel; every
model conv's GEMMs have a multiple of 16 columns.) ``avg_pool2d`` adds width
first, then height, the order of ``reshape(...).mean`` over the block axes
of a C-contiguous array, whatever its input's layout. What adds in another
order than a channel-major layout did: the conv weight gradient, whose GEMM
sums its N*Ho*Wo products in (Ho, Wo, N) column order, and numpy's
reductions over the batch and spatial axes of a batch-innermost array (the
conv bias gradient, batch-norm statistics and their gradients), which
follow memory order. The tests keep the plain formulas as references.

The conv on a 2x-upsampled input, ``conv2d(x, w, b, pad=1,
upsample=True)``, never builds the upsampled map: a 3x3 kernel on it reads
only a 2x2 window of x for each output parity, so it runs one 2x2 conv of x
with the four parities' kernels stacked as 4*O output channels, and
interleaves their outputs. Each 2x2 tap is the sum of the 3x3 taps that read
the same pixel of x. Merging taps before the GEMM adds the same products in
another order, so results differ from the upsample-then-conv formula by
rounding, by at most 1e-5 times the largest entry of the output or gradient
in float32 (about 7e-7 measured) and 1e-12 times in float64. The bias
gradient is equal bit for bit.

The conv moves its window one pixel at a time, with a square k x k kernel
and 0 <= pad < k: that is all the models use, and it keeps the input
gradient a cross-correlation too.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32

_tape: list["_Node"] = []
_grad_enabled: bool = True


class _Node:
    """One recorded operation: output, inputs, and the adjoint rule."""

    __slots__ = ("out", "inputs", "bwd")

    def __init__(self, out: "Tensor", inputs: tuple["Tensor", ...], bwd: Callable):
        self.out = out
        self.inputs = inputs
        self.bwd = bwd


class Tensor:
    """Dense n-dimensional real array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    # arithmetic sugar; scalars are promoted without changing dtype
    def __add__(self, other):
        return add(self, _wrap(other, self.dtype))

    def __mul__(self, other):
        return mul(self, _wrap(other, self.dtype))

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return sum_(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)


def _wrap(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / constant math)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def tape_size() -> int:
    return len(_tape)


def record_op(data: np.ndarray, inputs: Sequence[Tensor], bwd: Callable) -> Tensor:
    """Create the output tensor of an op and record it on the tape.

    ``bwd(grad_out)`` must return one gradient array (or None) per input, in
    order. It is called at most once. Ops should only compute a gradient for
    inputs whose ``requires_grad`` flag is set, and keep only the arrays those
    gradients read. A returned array may become an input's ``.grad`` as it
    is, so apart from ``grad_out`` it must be one that nothing else holds.
    """
    req = _grad_enabled and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=req)
    if req:
        _tape.append(_Node(out, tuple(inputs), bwd))
    return out


def backward(loss: Tensor) -> None:
    """Populate gradients of every requires_grad tensor reachable from loss.

    The tape is consumed: each node is popped before its rule runs and
    dropped after it, so saved arrays and intermediate gradients are freed as
    the walk goes, and only tensors the caller still holds keep their
    ``.grad``. The tape is empty afterwards whether or not the walk succeeds,
    so each forward pass needs its own backward.
    """
    try:
        if loss.data.size != 1:
            raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
        loss.grad = np.ones_like(loss.data)
        while _tape:
            _apply(_tape.pop())
    finally:
        _tape.clear()


def _apply(node: _Node) -> None:
    """Run one node's adjoint rule and accumulate into its inputs' ``.grad``.

    An input's first gradient is the rule's array itself, not a copy, unless
    it may share memory with the output's gradient (``add`` passes that on,
    once per input) or with a gradient this node has already handed over.
    A function of its own so that the node, its output gradient and the
    gradients it returns are dropped when it returns."""
    g_out = node.out.grad
    if g_out is None:
        return
    adopted = [g_out]
    for t, g in zip(node.inputs, node.bwd(g_out)):
        if g is None or not t.requires_grad:
            continue
        if t.grad is None:
            if g.dtype != t.dtype or any(np.may_share_memory(g, a) for a in adopted):
                g = g.astype(t.dtype, copy=True)
            t.grad = g
            adopted.append(g)
        else:
            t.grad += g.astype(t.dtype, copy=False)


# ---------------------------------------------------------------------------
# elementwise / arithmetic ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape; it does not broadcast."""
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} and {b.shape}")

    def bwd(g):
        return (g if a.requires_grad else None, g if b.requires_grad else None)

    return record_op(a.data + b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two tensors of one shape; it does not broadcast."""
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} and {b.shape}")

    def bwd(g):
        return (g * b.data if a.requires_grad else None, g * a.data if b.requires_grad else None)

    return record_op(a.data * b.data, (a, b), bwd)


def relu(a: Tensor) -> Tensor:
    def bwd(g):
        return (g * (a.data > 0),)

    return record_op(np.maximum(a.data, 0), (a,), bwd)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def bwd(g):
        return (g * (1.0 - out_data * out_data),)

    return record_op(out_data, (a,), bwd)


def _filled_like(a: np.ndarray, values) -> np.ndarray:
    """A new array in a's memory layout holding ``values`` broadcast to a's
    shape: a gradient that keeps its input's layout, so no channel-major
    gradient reaches a conv."""
    out = np.empty_like(a)
    out[...] = values
    return out


def reshape(a: Tensor, shape) -> Tensor:
    """a's values in row-major order, reshaped. The result is C-contiguous,
    a copy when a is not, so a reduction over its trailing axes adds in the
    same order whatever a's memory layout."""
    shape = tuple(shape)

    def bwd(g):
        return (_filled_like(a.data, g.reshape(a.shape)),)

    return record_op(np.ascontiguousarray(a.data).reshape(shape), (a,), bwd)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def bwd(g):
        gk = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (_filled_like(a.data, gk),)

    return record_op(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def take(a: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows along axis 0 (an embedding lookup, or each batch row's
    logits from a pass over the batch's distinct images); the gradient of a
    repeated row is summed over its copies."""
    idx = np.asarray(indices)

    def bwd(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return record_op(a.data[idx], (a,), bwd)


# ---------------------------------------------------------------------------
# linear-algebra / layer ops
# ---------------------------------------------------------------------------

def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map y = x @ w.T + b with w of shape (out, in)."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ValueError(f"dense shape mismatch: x {x.shape}, w {w.shape}")
    if b.shape != (w.shape[0],):
        raise ValueError(f"dense bias shape {b.shape} != ({w.shape[0]},)")

    def bwd(g):
        return (
            g @ w.data if x.requires_grad else None,
            g.T @ x.data if w.requires_grad else None,
            g.sum(axis=0) if b.requires_grad else None,
        )

    return record_op(x.data @ w.data.T + b.data, (x, w, b), bwd)


def _im2col(x: np.ndarray, k: int, pad: int):
    # x: (N, C, H, W) in any layout -> (C*k*k, Ho*Wo*N), a single-GEMM layout
    n, c, h, w = x.shape
    ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=x.dtype)
    padded[:, pad : pad + h, pad : pad + w] = x.transpose(1, 2, 3, 0)
    cols = np.empty((c, k, k, ho, wo, n), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = padded[:, i : i + ho, j : j + wo]
    return cols.reshape(c * k * k, ho * wo * n), ho, wo


def _conv_raw(x: np.ndarray, w: np.ndarray, pad: int):
    """Cross-correlation on raw arrays; returns (out, cols), out (N,O,Ho,Wo)
    laid out (O, Ho, Wo, N) in memory."""
    n = x.shape[0]
    o, c, k, _ = w.shape
    cols, ho, wo = _im2col(x, k, pad)
    out = (w.reshape(o, c * k * k) @ cols).reshape(o, ho, wo, n)
    return out.transpose(3, 0, 1, 2), cols


# An output row of parity a (0 even, 1 odd) on a 2x-upsampled axis reads, with
# a 3-tap kernel at pad 1, low-resolution rows (r-1, r, r) or (r, r, r+1):
# _MERGE[2*a + s, i] = 1 where kernel tap i reads tap s of a 2-tap window.
# Their Kronecker product maps a flattened 3x3 kernel (i, j) to the 2x2
# kernels of the four output parities, one row per (a, s, e, t).
_MERGE = np.array([[1, 0, 0], [0, 1, 1],
                   [1, 1, 0], [0, 0, 1]])
_PHASE_TAPS = np.kron(_MERGE, _MERGE)  # (16, 9)


def _phase_kernels(w: np.ndarray) -> np.ndarray:
    """(O, C, 3, 3) -> (4*O, C, 2, 2): one 2x2 kernel per output parity,
    each tap the sum of the 3x3 taps that read the same input pixel."""
    o, c = w.shape[:2]
    taps = w.reshape(o * c, 9) @ _PHASE_TAPS.T.astype(w.dtype)  # (O*C, a s e t)
    return taps.reshape(o, c, 2, 2, 2, 2).transpose(2, 4, 0, 1, 3, 5).reshape(4 * o, c, 2, 2)


def _fold_phase_kernels(gp: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`_phase_kernels`: (4*O, C, 2, 2) -> (O, C, 3, 3)."""
    o, c = gp.shape[0] // 4, gp.shape[1]
    taps = gp.reshape(2, 2, o, c, 2, 2).transpose(2, 3, 0, 4, 1, 5).reshape(o * c, 16)
    return (taps @ _PHASE_TAPS.astype(gp.dtype)).reshape(o, c, 3, 3)


def _interleave(phases: np.ndarray) -> np.ndarray:
    """(N, 4*O, H+1, W+1) phase grid -> (N, O, 2H, 2W), laid out batch-innermost."""
    n, o4, h1, w1 = phases.shape
    o, h, w = o4 // 4, h1 - 1, w1 - 1
    grid = phases.transpose(1, 2, 3, 0).reshape(2, 2, o, h1, w1, n)
    out = np.empty((o, 2 * h, 2 * w, n), dtype=phases.dtype)
    for a in range(2):
        for e in range(2):
            out[:, a::2, e::2] = grid[a, e, :, a : a + h, e : e + w]
    return out.transpose(3, 0, 1, 2)


def _deinterleave(g: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`_interleave`: (N, O, 2H, 2W) -> (N, 4*O, H+1, W+1),
    laid out batch-innermost, zero where no output reads the phase grid."""
    n, o, h2, w2 = g.shape
    h, w = h2 // 2, w2 // 2
    gt = g.transpose(1, 2, 3, 0)
    grid = np.zeros((2, 2, o, h + 1, w + 1, n), dtype=g.dtype)
    for a in range(2):
        for e in range(2):
            grid[a, e, :, a : a + h, e : e + w] = gt[:, a::2, e::2]
    return grid.reshape(4 * o, h + 1, w + 1, n).transpose(3, 0, 1, 2)


def conv2d(x: Tensor, w: Tensor, b: Tensor, pad: int = 0, upsample: bool = False) -> Tensor:
    """Cross-correlation of x (N,C,H,W) with a square kernel w (O,C,k,k),
    plus a bias b (O,), moved one pixel at a time, x zero-padded by
    0 <= pad < k on each side.

    With ``upsample`` (kernel 3, pad 1 only) the input is first upsampled 2x
    by nearest neighbour. That runs as a sub-pixel conv on x itself: a 2x2
    kernel per output parity at pad 1, interleaved into the (N, O, 2H, 2W)
    output. The output is laid out batch-innermost, (O, Ho, Wo, N) in
    memory, whatever x's layout."""
    n, c, h, wd = x.shape
    o, cw, k, kw = w.shape
    if cw != c:
        raise ValueError(f"conv2d channel mismatch: input {c}, weight {cw}")
    if kw != k or not 0 <= pad < k:
        raise ValueError(f"conv2d needs a square kernel and 0 <= pad < kernel, "
                         f"got kernel {k}x{kw}, pad {pad}")
    if upsample and (k, pad) != (3, 1):
        raise ValueError(f"conv2d upsamples only with kernel 3 and pad 1, got kernel {k}, pad {pad}")
    if min(h, wd) + 2 * pad < k:
        raise ValueError(f"kernel {k} larger than padded input {(h + 2 * pad, wd + 2 * pad)}")
    # the conv actually run: the phase kernels at pad 1, or w itself
    kern, kpad = (_phase_kernels(w.data), 1) if upsample else (w.data, pad)
    out, cols = _conv_raw(x.data, kern, kpad)
    if upsample:
        out = _interleave(out)
    if not w.requires_grad:
        cols = None  # only the weight gradient reads the column matrix
    out += b.data.reshape(1, o, 1, 1)  # out is this op's own array

    def bwd(g):
        gx = gw = gb = None
        gk = _deinterleave(g) if upsample else g  # the gradient of kern's output
        ko, _, kk, _ = kern.shape
        if x.requires_grad:
            # gradient w.r.t. the input is itself a cross-correlation
            # with the channel-swapped, spatially flipped kernel
            w_t = np.ascontiguousarray(kern.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
            gx, _ = _conv_raw(gk, w_t, kk - 1 - kpad)
        if w.requires_grad:
            g_mat = gk.transpose(1, 2, 3, 0).reshape(ko, -1)
            # the transpose of g_mat @ cols.T: the same bits on OpenBLAS, and
            # about twice as fast when O is small (the GEMM's M and N swap)
            gw = (cols @ g_mat.T).T.reshape(kern.shape)
            if upsample:
                gw = _fold_phase_kernels(gw)
        if b.requires_grad:
            gb = g.sum(axis=(0, 2, 3))
        return gx, gw, gb

    return record_op(out, (x, w, b), bwd)


def _block_sum(x: np.ndarray, k: int) -> np.ndarray:
    """Sum over non-overlapping k x k spatial blocks of (N, C, H, W).

    Adds along width first, then height: the order in which
    ``x.reshape(n, c, h // k, k, w // k, k).sum(axis=(3, 5))`` reduces a
    C-contiguous x, whatever x's layout.
    """
    total = None
    for i in range(k):
        row = x[:, :, i::k, 0::k]
        for j in range(1, k):
            row = row + x[:, :, i::k, j::k]
        total = row if total is None else total + row
    return total


def avg_pool2d(x: Tensor, k: int) -> Tensor:
    """Non-overlapping k x k average pooling; extents must divide by k."""
    n, c, h, w = x.shape
    if h % k or w % k:
        raise ValueError(f"avg_pool2d: extents ({h},{w}) not divisible by {k}")
    out = _block_sum(x.data, k) / (k * k)

    def bwd(g):
        gx = np.empty_like(x.data)  # in x's memory layout
        scaled = g / (k * k)
        for i in range(k):
            for j in range(k):
                gx[:, :, i::k, j::k] = scaled
        return (gx,)

    return record_op(out, (x,), bwd)


def batchnorm_eval(x: Tensor, gamma: Tensor, beta: Tensor,
                   running_mean: np.ndarray, inv_std: np.ndarray) -> Tensor:
    """Eval-mode batch normalization against constant running statistics.

    y = (x - mean) * inv_std * gamma + beta; gradients flow to x and to the
    affine parameters (the running statistics are constants).
    """
    axes = (0, 2, 3) if x.ndim == 4 else (0,)
    cshape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    rm = running_mean.reshape(cshape)
    ri = inv_std.reshape(cshape)
    xhat = x.data - rm
    xhat *= ri
    if gamma.requires_grad:
        y = xhat * gamma.data.reshape(cshape)
    else:  # only the gamma gradient reads the normalized input
        y, xhat = xhat, None
        y *= gamma.data.reshape(cshape)
    y += beta.data.reshape(cshape)

    def bwd(g):
        return (
            g * (gamma.data.reshape(cshape) * ri) if x.requires_grad else None,
            (g * xhat).sum(axis=axes) if gamma.requires_grad else None,
            g.sum(axis=axes) if beta.requires_grad else None,
        )

    return record_op(y, (x, gamma, beta), bwd)


def batchnorm_train(x: Tensor, gamma: Tensor, beta: Tensor, eps: float):
    """Fused train-mode batch normalization.

    Normalizes per channel over the batch (and spatial) axes with biased
    variance. Returns (y, batch_mean, batch_var); the statistics are plain
    arrays that carry no gradient. A loss on batch statistics takes them
    from the captured BN input with ``bns.alignment_loss`` instead.
    """
    axes = (0, 2, 3) if x.ndim == 4 else (0,)
    cshape = (1, x.shape[1]) + (1,) * (x.ndim - 2)

    bm = x.data.mean(axis=axes)
    xhat = x.data - bm.reshape(cshape)  # centred here, normalized below
    y = xhat * xhat  # the squares, then the output
    bv = y.mean(axis=axes)
    inv = 1.0 / np.sqrt(bv + eps)
    xhat *= inv.reshape(cshape)
    gm = gamma.data.reshape(cshape)
    np.multiply(xhat, gm, out=y)
    y += beta.data.reshape(cshape)

    def bwd(g):
        gx = gg = gb = prod = None
        if gamma.requires_grad:
            prod = g * xhat
            gg = prod.sum(axis=axes)
        if beta.requires_grad:
            gb = g.sum(axis=axes)
        if x.requires_grad:
            # inv * (dxhat - m1 - xhat * m2), written into dxhat; prod has
            # the layout of dxhat * xhat, so m2 adds in the same order
            dxhat = g * gm
            m1 = dxhat.mean(axis=axes).reshape(cshape)
            prod = np.multiply(dxhat, xhat, out=prod)
            m2 = prod.mean(axis=axes).reshape(cshape)
            dxhat -= m1
            dxhat -= np.multiply(xhat, m2, out=prod)
            dxhat *= inv.reshape(cshape)
            gx = dxhat
        return (gx, gg, gb)

    return record_op(y, (x, gamma, beta), bwd), bm, bv


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _log_softmax(z: np.ndarray) -> np.ndarray:
    zs = z - z.max(axis=1, keepdims=True)
    return zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax(logits)."""
    labels = np.asarray(labels)
    batch, k = logits.shape
    if labels.shape != (batch,):
        raise ValueError(f"labels shape {labels.shape} != ({batch},)")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label out of range [0, {k})")
    logp = _log_softmax(logits.data)
    loss = -logp[np.arange(batch), labels].mean()

    def bwd(g):
        p = np.exp(logp)
        p[np.arange(batch), labels] -= 1.0
        return (g * p / batch,)

    return record_op(np.asarray(loss, dtype=logits.dtype), (logits,), bwd)


def kl_divergence(student_logits: Tensor, teacher_logits: Tensor) -> Tensor:
    """Mean KL(softmax(teacher) || softmax(student)); teacher has no gradient."""
    if student_logits.shape != teacher_logits.shape:
        raise ValueError(
            f"logit shape mismatch: {student_logits.shape} vs {teacher_logits.shape}"
        )
    batch = student_logits.shape[0]
    logq = _log_softmax(student_logits.data)
    logp = _log_softmax(teacher_logits.data)
    p = np.exp(logp)
    loss = (p * (logp - logq)).sum(axis=1).mean()

    def bwd(g):
        # teacher side is constant by contract
        return (g * (np.exp(logq) - p) / batch, None)

    return record_op(np.asarray(loss, dtype=student_logits.dtype), (student_logits, teacher_logits), bwd)
