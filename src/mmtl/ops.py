"""Neural-network primitives on Tensor: convolutions, pooling, activations,
batch normalization, linear maps, and cross-entropy.

Layout convention is channels-first with no batch axis: a feature map is
[C, H, W], a volume is [C, D, H, W], a sequence is [C, L]. Every op follows
it, the channel maps included: ``linear`` and ``grouped_pointwise`` mix the
leading axis and keep the trailing axes as they are. Convolutions use
the cross-correlation convention (no kernel flip) and zero padding; output
spatial size is floor((in + 2*pad - k)/stride) + 1.

The convolutions share one im2col pair: ``_windows`` builds columns
[C, k, *out], one contiguous copy per kernel offset, and ``_unwindow`` is its
adjoint for the backward pass. Pooling (avg_pool, adaptive_avg_pool,
expand_bins) is a fixed linear map along each spatial axis: one averaging
matrix per axis, applied axis by axis, with the transposes in the backward.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np
from scipy.special import erf, expit

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
    """Affine map over the channel axis, shared across positions: x [Cin, *sp],
    w [Cin, Cout] -> [Cout, *sp], y[o, ...] = sum_i w[i, o] x[i, ...] + b[o]."""
    if weight.ndim != 2:
        raise DimensionError(f"linear: weight must be 2-d, got {weight.shape}")
    cin, cout = weight.shape
    if x.shape[:1] != (cin,):
        raise DimensionError(f"linear: x {x.shape} channels != weight rows {cin}")
    if bias is not None and bias.shape != (cout,):
        raise DimensionError(f"linear: bias {bias.shape} vs out dim {cout}")
    x2 = x.data.reshape(cin, -1)
    y = weight.data.T @ x2
    if bias is not None:
        y = y + bias.data[:, None]
    out = Tensor(y.reshape((cout,) + x.shape[1:]))

    def back(g):
        g2 = g.reshape(cout, -1)
        accumulate(x, (weight.data @ g2).reshape(x.shape))
        accumulate(weight, x2 @ g2.T)
        if bias is not None:
            accumulate(bias, g2.sum(axis=1))

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
    """Group-local 1x1 mixing: x [G*Cin, *sp], w [G, Cout, Cin] -> [G*Cout, *sp].
    Keeps channel groups (e.g. per-frame blocks) separate."""
    g_, cout, cin = w.shape
    if x.shape[:1] != (g_ * cin,):
        raise DimensionError(f"grouped_pointwise: x {x.shape} vs weight {w.shape}")
    xg = x.data.reshape(g_, cin, -1)
    y = np.einsum("goc,gcl->gol", w.data, xg)
    if b is not None:
        if b.shape != (g_ * cout,):
            raise DimensionError(f"grouped_pointwise: bias {b.shape} vs {g_ * cout}")
        y = y + b.data.reshape(g_, cout, 1)
    out = Tensor(y.reshape((g_ * cout,) + x.shape[1:]))

    def back(grad):
        g3 = grad.reshape(g_, cout, -1)
        accumulate(w, np.einsum("gol,gcl->goc", g3, xg))
        if b is not None:
            accumulate(b, g3.sum(axis=2).reshape(-1))
        accumulate(x, np.einsum("goc,gol->gcl", w.data, g3).reshape(x.shape))

    ins = (x, w) if b is None else (x, w, b)
    return record("grouped_pointwise", ins, out, back)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _averaging_matrix(length: int, windows: tuple) -> np.ndarray:
    """Read-only [out, length] map of one axis: row j averages the positions
    [lo, hi) of windows[j] = (lo, hi, divisor); positions outside [0, length)
    are zero padding."""
    m = np.zeros((len(windows), length))
    for j, (lo, hi, div) in enumerate(windows):
        m[j, max(lo, 0):hi] = 1.0 / div
    m.flags.writeable = False
    return m


def _bin_windows(length: int, target: int, divisor=None) -> tuple:
    # bin j covers [ceil(j*L/t), ceil((j+1)*L/t)); e.g. 5 -> 2 gives {0,1,2},{3,4}
    edges = [-(-(j * length) // target) for j in range(target + 1)]
    return tuple((lo, hi, divisor or hi - lo) for lo, hi in zip(edges, edges[1:]))


def _map_axes(y: np.ndarray, mats) -> np.ndarray:
    """Multiply axis 1+i of y [C, *sp] by mats[i] [out, in]. Each step maps the
    first spatial axis and moves it last (one matmul batched over C), so the
    axes are back in order after the last matrix."""
    c = y.shape[0]
    for m in mats:
        y = y.reshape(c, m.shape[1], -1).transpose(0, 2, 1) @ m.T
    return y.reshape((c,) + tuple(m.shape[0] for m in mats))


def _pool(x: Tensor, mats, name: str) -> Tensor:
    """Record op ``name`` mapping x [C, *sp] axis by axis; the backward maps
    the gradient by the transposed matrices."""
    out = Tensor(_map_axes(x.data, mats))

    def back(g):
        accumulate(x, _map_axes(g, [m.T for m in mats]))

    return record(name, (x,), out, back)


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
    if any(k > n + 2 * p for n, k, p in zip(x.shape[1:], window, pad)):
        raise DimensionError(
            f"avg_pool: kernel {window} larger than padded input {x.shape[1:]} (pad {pad})")
    mats = [_averaging_matrix(n, tuple((o * s - p, o * s - p + k, k)
                                       for o in range((n + 2 * p - k) // s + 1)))
            for n, k, s, p in zip(x.shape[1:], window, stride, pad)]
    return _pool(x, mats, "avg_pool")


def adaptive_avg_pool(x: Tensor, target) -> Tensor:
    """Adaptive average pooling: axis i is split into target[i] contiguous bins
    [ceil(j*L/t), ceil((j+1)*L/t)) and each bin is averaged."""
    target = _as_tuple(target, x.ndim - 1)
    if any(t <= 0 for t in target):
        raise ArgumentError(f"adaptive_avg_pool: target must be positive, got {target}")
    if any(t > n for t, n in zip(target, x.shape[1:])):
        raise ArgumentError(f"adaptive_avg_pool: target {target} exceeds input {x.shape[1:]}")
    mats = [_averaging_matrix(n, _bin_windows(n, t)) for n, t in zip(x.shape[1:], target)]
    return _pool(x, mats, "adaptive_avg_pool")


def expand_bins(x: Tensor, out_sizes) -> Tensor:
    """Nearest-neighbor inverse of adaptive_avg_pool: repeat each bin value over
    the positions its bin covered at size ``out_sizes``."""
    out_sizes = _as_tuple(out_sizes, x.ndim - 1)
    if any(n < t for n, t in zip(out_sizes, x.shape[1:])):
        raise ArgumentError(
            f"expand_bins: out_sizes {out_sizes} smaller than bins {x.shape[1:]}")
    mats = [_averaging_matrix(n, _bin_windows(n, t, divisor=1)).T
            for n, t in zip(out_sizes, x.shape[1:])]
    return _pool(x, mats, "expand_bins")


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def sigmoid(x: Tensor) -> Tensor:
    y = expit(x.data)
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
              eps: float = 1e-5, train: bool = True, channel_axis: int = 0) -> Tensor:
    """Normalize over every axis except ``channel_axis``.

    Train mode uses batch statistics and folds them into ``stats`` with
    momentum 0.1; eval mode normalizes by the running statistics.
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
        stats.update(mean, var, 0.1)
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
