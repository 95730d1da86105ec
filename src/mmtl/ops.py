"""Neural-network primitives on Tensor: convolutions, pooling, activations,
batch normalization, linear maps, and cross-entropy.

Layout convention is channels-first with no batch axis: a feature map is
[C, H, W], a volume is [C, D, H, W], a sequence is [C, L]. Convolutions use
the cross-correlation convention (no kernel flip) and zero padding; output
spatial size is floor((in + 2*pad - k)/stride) + 1.

The windowed ops (convolve, depthwise_conv2d, avg_pool) share one im2col
pair: ``_windows`` builds columns [C, k, *out], one contiguous copy per
kernel offset, and ``_unwindow`` is its adjoint for the backward pass.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np
from scipy.special import erf

from .errors import ArgumentError, DimensionError
from .tensor import Tensor, accumulate, record

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _as_tuple(v, n: int) -> tuple:
    if isinstance(v, (tuple, list)):
        if len(v) != n:
            raise ArgumentError(f"expected {n} values, got {v}")
        return tuple(int(x) for x in v)
    return (int(v),) * n


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------

def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map over the last axis: y[..., o] = sum_i x[..., i] w[i, o] + b[o]."""
    if weight.ndim != 2:
        raise DimensionError(f"linear: weight must be 2-d, got {weight.shape}")
    if x.shape[-1] != weight.shape[0]:
        raise DimensionError(
            f"linear: x last dim {x.shape[-1]} != weight rows {weight.shape[0]}")
    if bias is not None and bias.shape != (weight.shape[1],):
        raise DimensionError(f"linear: bias {bias.shape} vs out dim {weight.shape[1]}")
    y = x.data @ weight.data
    if bias is not None:
        y = y + bias.data
    out = Tensor(y)
    x2 = x.data.reshape(-1, x.shape[-1])

    def back(g):
        g2 = g.reshape(-1, weight.shape[1])
        accumulate(x, (g2 @ weight.data.T).reshape(x.shape))
        accumulate(weight, x2.T @ g2)
        if bias is not None:
            accumulate(bias, g2.sum(axis=0))

    ins = (x, weight) if bias is None else (x, weight, bias)
    return record("linear", ins, out, back)


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _window_layout(shape: tuple, kernel: tuple, stride: tuple, pad: tuple):
    """For x of ``shape`` [C, *sp]: the zero-padded buffer's shape, the slice
    of it that holds x, the output size, and for each kernel offset (row-major)
    the slice of the buffer that it reads at every output position."""
    padded = (shape[0],) + tuple(s + 2 * p for s, p in zip(shape[1:], pad))
    inner = (slice(None),) + tuple(slice(p, p + s) for p, s in zip(pad, shape[1:]))
    out_sp = tuple((n - k) // st + 1 for n, k, st in zip(padded[1:], kernel, stride))
    offsets = tuple((slice(None),) + tuple(slice(o, o + st * (n - 1) + 1, st)
                                           for o, st, n in zip(koff, stride, out_sp))
                    for koff in np.ndindex(*kernel))
    return padded, inner, out_sp, offsets


def _windows(x: np.ndarray, kernel, stride, pad, op: str) -> np.ndarray:
    """Im2col columns [C, k, *out] of x [C, *sp]: one copy per kernel offset,
    so each column is contiguous over the output positions."""
    if any(k > s + 2 * p for s, k, p in zip(x.shape[1:], kernel, pad)):
        raise DimensionError(
            f"{op}: kernel {kernel} larger than padded input {x.shape[1:]} (pad {pad})")
    padded, inner, out_sp, offsets = _window_layout(x.shape, kernel, stride, pad)
    xp = x
    if any(pad):
        xp = np.zeros(padded)
        xp[inner] = x
    cols = np.empty((x.shape[0], len(offsets)) + out_sp)
    for j, sl in enumerate(offsets):
        cols[:, j] = xp[sl]
    return cols


def _unwindow(dcols: np.ndarray, x_shape, kernel, stride, pad) -> np.ndarray:
    """Adjoint of _windows: scatter-add columns [C, k, *out] onto the padded
    buffer and strip the padding, giving [C, *sp]."""
    padded, inner, _, offsets = _window_layout(x_shape, kernel, stride, pad)
    dxp = np.zeros(padded)
    for j, sl in enumerate(offsets):
        dxp[sl] += dcols[:, j]
    return dxp[inner]


def convolve(x: Tensor, w: Tensor, b: Optional[Tensor] = None,
             stride=1, padding=0) -> Tensor:
    """N-d cross-correlation: x [Cin, *sp], w [Cout, Cin, *k] -> [Cout, *out]."""
    nd = w.ndim - 2
    if nd < 1 or x.ndim != nd + 1:
        raise DimensionError(f"convolve: x {x.shape} incompatible with kernel {w.shape}")
    if x.shape[0] != w.shape[1]:
        raise DimensionError(
            f"convolve: input channels {x.shape[0]} != kernel channels {w.shape[1]}")
    stride = _as_tuple(stride, nd)
    pad = _as_tuple(padding, nd)
    kernel = w.shape[2:]
    cin, cout = x.shape[0], w.shape[0]
    cols = _windows(x.data, kernel, stride, pad, "convolve")  # [Cin, k, *out]
    out_sp = cols.shape[2:]
    cols = cols.reshape(cin * cols.shape[1], -1)
    w2 = w.data.reshape(cout, -1)
    y = w2 @ cols
    if b is not None:
        if b.shape != (cout,):
            raise DimensionError(f"convolve: bias {b.shape} vs out channels {cout}")
        y = y + b.data[:, None]
    out = Tensor(y.reshape((cout,) + out_sp))

    def back(g):
        g2 = g.reshape(cout, -1)
        accumulate(w, (g2 @ cols.T).reshape(w.shape))
        if b is not None:
            accumulate(b, g2.sum(axis=1))
        if x.requires_grad:
            dcols = (w2.T @ g2).reshape((cin, -1) + out_sp)
            accumulate(x, _unwindow(dcols, x.shape, kernel, stride, pad))

    ins = (x, w) if b is None else (x, w, b)
    return record("convolve", ins, out, back)


def depthwise_conv2d(x: Tensor, w: Tensor, b: Optional[Tensor] = None,
                     stride=1, padding=0) -> Tensor:
    """Per-channel 2-d conv with channel multiplier: x [C, H, W], w [C, M, kh, kw]
    -> [C*M, H', W'] with output channel c*M+m."""
    if x.ndim != 3 or w.ndim != 4 or x.shape[0] != w.shape[0]:
        raise DimensionError(f"depthwise_conv2d: x {x.shape} vs kernels {w.shape}")
    stride = _as_tuple(stride, 2)
    pad = _as_tuple(padding, 2)
    c, m = w.shape[0], w.shape[1]
    kernel = w.shape[2:]
    cols = _windows(x.data, kernel, stride, pad, "depthwise_conv2d")
    out_sp = cols.shape[2:]
    cols = cols.reshape(c, cols.shape[1], -1)
    w2 = w.data.reshape(c, m, -1)
    y = np.matmul(w2, cols)                              # [C, M, out]
    if b is not None:
        if b.shape != (c * m,):
            raise DimensionError(f"depthwise_conv2d: bias {b.shape} vs {c * m} channels")
        y = y + b.data.reshape(c, m)[:, :, None]
    out = Tensor(y.reshape((c * m,) + out_sp))

    def back(g):
        g3 = g.reshape(c, m, -1)
        accumulate(w, np.matmul(g3, cols.transpose(0, 2, 1)).reshape(w.shape))
        if b is not None:
            accumulate(b, g3.sum(axis=2).reshape(-1))
        if x.requires_grad:
            dcols = np.matmul(w2.transpose(0, 2, 1), g3).reshape((c, -1) + out_sp)
            accumulate(x, _unwindow(dcols, x.shape, kernel, stride, pad))

    ins = (x, w) if b is None else (x, w, b)
    return record("depthwise_conv2d", ins, out, back)


def grouped_pointwise(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Group-local 1x1 mixing over flattened positions: x [G*Cin, L], w [G, Cout, Cin]
    -> [G*Cout, L]. Keeps channel groups (e.g. per-frame blocks) separate."""
    g_, cout, cin = w.shape
    if x.ndim != 2 or x.shape[0] != g_ * cin:
        raise DimensionError(f"grouped_pointwise: x {x.shape} vs weight {w.shape}")
    length = x.shape[1]
    xg = x.data.reshape(g_, cin, length)
    y = np.einsum("goc,gcl->gol", w.data, xg)
    if b is not None:
        if b.shape != (g_ * cout,):
            raise DimensionError(f"grouped_pointwise: bias {b.shape} vs {g_ * cout}")
        y = y + b.data.reshape(g_, cout, 1)
    out = Tensor(y.reshape(g_ * cout, length))

    def back(grad):
        g3 = grad.reshape(g_, cout, length)
        accumulate(w, np.einsum("gol,gcl->goc", g3, xg))
        if b is not None:
            accumulate(b, g3.sum(axis=2).reshape(-1))
        accumulate(x, np.einsum("goc,gol->gcl", w.data, g3).reshape(x.shape))

    ins = (x, w) if b is None else (x, w, b)
    return record("grouped_pointwise", ins, out, back)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def avg_pool(x: Tensor, window, stride=None, padding=0) -> Tensor:
    """Fixed-window average pooling over all axes after the channel axis.

    Padding zeros count toward the average (divisor is always the full
    window size), keeping the divisor independent of position.
    """
    nd = x.ndim - 1
    window = _as_tuple(window, nd)
    if any(k <= 0 for k in window):
        raise ArgumentError(f"avg_pool: window must be positive, got {window}")
    stride = window if stride is None else _as_tuple(stride, nd)
    pad = _as_tuple(padding, nd)
    cols = _windows(x.data, window, stride, pad, "avg_pool")
    ksz = cols.shape[1]
    out = Tensor(cols.mean(axis=1))

    def back(g):
        dcols = np.broadcast_to((g / ksz)[:, None], (g.shape[0], ksz) + g.shape[1:])
        accumulate(x, _unwindow(dcols, x.shape, window, stride, pad))

    return record("avg_pool", (x,), out, back)


def _bin_bounds(length: int, target: int):
    # bin j covers [ceil(j*L/t), ceil((j+1)*L/t)); e.g. 5 -> 2 gives {0,1,2},{3,4}
    edges = [-(-(j * length) // target) for j in range(target + 1)]
    starts = edges[:-1]
    counts = [edges[j + 1] - edges[j] for j in range(target)]
    return np.array(starts), np.array(counts)


def adaptive_avg_pool(x: Tensor, target) -> Tensor:
    """Adaptive average pooling: axis i is split into target[i] contiguous bins
    [ceil(j*L/t), ceil((j+1)*L/t)) and each bin is averaged."""
    nd = x.ndim - 1
    target = _as_tuple(target, nd)
    if any(t <= 0 for t in target):
        raise ArgumentError(f"adaptive_avg_pool: target must be positive, got {target}")
    for t, s in zip(target, x.shape[1:]):
        if t > s:
            raise ArgumentError(f"adaptive_avg_pool: target {target} exceeds input {x.shape[1:]}")
    y = x.data
    axis_counts = []
    for ax in range(nd):
        starts, counts = _bin_bounds(x.shape[1 + ax], target[ax])
        y = np.add.reduceat(y, starts, axis=1 + ax)
        shape = [1] * y.ndim
        shape[1 + ax] = -1
        y = y / counts.reshape(shape)
        axis_counts.append(counts)
    out = Tensor(y)

    def back(g):
        d = g
        for ax in reversed(range(nd)):
            counts = axis_counts[ax]
            shape = [1] * d.ndim
            shape[1 + ax] = -1
            d = np.repeat(d / counts.reshape(shape), counts, axis=1 + ax)
        accumulate(x, d)

    return record("adaptive_avg_pool", (x,), out, back)


def expand_bins(x: Tensor, out_sizes) -> Tensor:
    """Nearest-neighbor inverse of adaptive_avg_pool: repeat each bin value over
    the positions its bin covered at size ``out_sizes``."""
    nd = x.ndim - 1
    out_sizes = _as_tuple(out_sizes, nd)
    y = x.data
    axis_counts = []
    for ax in range(nd):
        _, counts = _bin_bounds(out_sizes[ax], x.shape[1 + ax])
        y = np.repeat(y, counts, axis=1 + ax)
        axis_counts.append(counts)
    out = Tensor(y)

    def back(g):
        d = g
        for ax in reversed(range(nd)):
            starts = np.concatenate([[0], np.cumsum(axis_counts[ax])[:-1]])
            d = np.add.reduceat(d, starts, axis=1 + ax)
        accumulate(x, d)

    return record("expand_bins", (x,), out, back)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def sigmoid(x: Tensor) -> Tensor:
    y = np.empty_like(x.data)
    pos = x.data >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    ex = np.exp(x.data[~pos])
    y[~pos] = ex / (1.0 + ex)
    out = Tensor(y)

    def back(g):
        accumulate(x, g * y * (1.0 - y))

    return record("sigmoid", (x,), out, back)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF form: x * Phi(x), not the tanh approximation."""
    phi = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out = Tensor(x.data * phi)

    def back(g):
        dens = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
        accumulate(x, g * (phi + x.data * dens))

    return record("gelu", (x,), out, back)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if not -x.ndim <= axis < x.ndim:
        raise ArgumentError(f"softmax: axis {axis} invalid for shape {x.shape}")
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def back(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        accumulate(x, (g - dot) * y)

    return record("softmax", (x,), out, back)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

class RunningStats:
    """Non-learnable running mean/variance for one batchnorm site."""

    def __init__(self, channels: int):
        self.mean = np.zeros(channels)
        self.var = np.ones(channels)

    def update(self, mean: np.ndarray, var: np.ndarray, momentum: float) -> None:
        self.mean = (1.0 - momentum) * self.mean + momentum * mean
        self.var = (1.0 - momentum) * self.var + momentum * var


def batchnorm(x: Tensor, scale: Tensor, shift: Tensor, stats: RunningStats,
              eps: float = 1e-5, train: bool = True, channel_axis: int = 0,
              momentum: float = 0.1) -> Tensor:
    """Normalize over every axis except ``channel_axis``.

    Train mode uses batch statistics and folds them into ``stats`` with the
    given momentum; eval mode normalizes by the running statistics.
    """
    c = x.shape[channel_axis]
    if scale.shape != (c,) or shift.shape != (c,):
        raise DimensionError(
            f"batchnorm: scale {scale.shape} / shift {shift.shape} vs {c} channels")
    red = tuple(ax for ax in range(x.ndim) if ax != channel_axis)
    bshape = [1] * x.ndim
    bshape[channel_axis] = c
    bshape = tuple(bshape)
    m = x.size // c

    if train:
        mean = x.data.mean(axis=red)
        var = x.data.var(axis=red)
        stats.update(mean, var, momentum)
    else:
        mean, var = stats.mean, stats.var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean.reshape(bshape)) * inv_std.reshape(bshape)
    out = Tensor(xhat * scale.data.reshape(bshape) + shift.data.reshape(bshape))

    def back(g):
        accumulate(shift, g.sum(axis=red))
        accumulate(scale, (g * xhat).sum(axis=red))
        if x.requires_grad:
            dxhat = g * scale.data.reshape(bshape)
            if train:
                s1 = dxhat.sum(axis=red).reshape(bshape)
                s2 = (dxhat * xhat).sum(axis=red).reshape(bshape)
                dx = (dxhat - s1 / m - xhat * s2 / m) * inv_std.reshape(bshape)
            else:
                dx = dxhat * inv_std.reshape(bshape)
            accumulate(x, dx)

    return record("batchnorm", (x, scale, shift), out, back)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def cross_entropy(logits: Tensor, label: int) -> Tensor:
    """Negative log-likelihood of ``label`` under softmax(logits); stable."""
    if logits.ndim != 1:
        raise DimensionError(f"cross_entropy: logits must be 1-d, got {logits.shape}")
    k = logits.shape[0]
    if not 0 <= label < k:
        raise ArgumentError(f"cross_entropy: label {label} out of range for {k} classes")
    z = logits.data - logits.data.max()
    lse = math.log(np.exp(z).sum())
    out = Tensor(np.array(lse - z[label]))
    prob = np.exp(z - lse)

    def back(g):
        d = prob.copy()
        d[label] -= 1.0
        accumulate(logits, d * g)

    return record("cross_entropy", (logits,), out, back)
