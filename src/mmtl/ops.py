"""Neural-network primitives on Tensor: convolutions, pooling, activations,
batch normalization, linear maps, and cross-entropy.

Layout convention is batch-first, then channels: a batch of feature maps is
[N, C, H, W], of volumes [N, C, D, H, W], of sequences [N, C, L]. Every op
follows it and treats the N samples independently, the channel maps included:
``linear`` and ``grouped_pointwise`` mix axis 1 and keep the trailing axes as
they are. Convolutions use the cross-correlation convention (no kernel flip)
and zero padding, and run at stride 1 with a bias, as every convolution of
the network does: output spatial size is in + 2*pad - k + 1.

The convolutions share one grouped kernel, ``_grouped_conv``: ``convolve`` is
its one-group case and ``depthwise_conv2d`` its one-group-per-channel case. It
reads the im2col columns [C, k, N, *out] that ``_windows`` builds, one
contiguous copy per kernel offset, so a convolution is one matmul over all
N x output positions. ``_unwindow`` is its adjoint for the backward pass: one
``np.bincount`` of the column gradients over ``_read_index``, a cached
read-only index of the input position each column entry reads (padding reads
go to one extra bin, which is dropped); a 1x1 unpadded kernel needs no
scatter, only a swap of the column gradient's first two axes.
Pooling (avg_pool, adaptive_avg_pool, expand_bins) is a fixed linear map along
each spatial axis: one averaging matrix per axis, applied axis by axis over
all N*C rows at once, with the transposes in the backward.
"""

from __future__ import annotations

import functools
import math
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

def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map over the channel axis, shared across positions: x [N, Cin, *sp],
    w [Cin, Cout] -> [N, Cout, *sp], y[n, o, ...] = sum_i w[i, o] x[n, i, ...] + b[o]."""
    if weight.ndim != 2:
        raise DimensionError(f"linear: weight must be 2-d, got {weight.shape}")
    cin, cout = weight.shape
    if x.shape[1:2] != (cin,):
        raise DimensionError(f"linear: x {x.shape} channels != weight rows {cin}")
    if bias.shape != (cout,):
        raise DimensionError(f"linear: bias {bias.shape} vs out dim {cout}")
    n = x.shape[0]
    x3 = x.data.reshape(n, cin, -1)
    y = np.matmul(weight.data.T, x3) + bias.data[:, None]
    out = Tensor(y.reshape((n, cout) + x.shape[2:]))

    def back(g):
        g3 = g.reshape(n, cout, -1)
        accumulate(x, np.matmul(weight.data, g3).reshape(x.shape))
        accumulate(weight, np.tensordot(x3, g3, axes=([0, 2], [0, 2])))
        accumulate(bias, g3.sum(axis=(0, 2)))

    return record("linear", (x, weight, bias), out, back)


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _window_layout(shape: tuple, kernel: tuple, pad: tuple):
    """For x of ``shape`` [N, C, *sp], held channels-first as [C, N, *sp]: the
    zero-padded buffer's shape, the slice of it that holds x, the output size,
    and for each kernel offset (row-major) the slice of the buffer that it
    reads at every output position."""
    sp = shape[2:]
    padded = (shape[1], shape[0]) + tuple(s + 2 * p for s, p in zip(sp, pad))
    both = (slice(None), slice(None))
    inner = both + tuple(slice(p, p + s) for p, s in zip(pad, sp))
    out_sp = tuple(n - k + 1 for n, k in zip(padded[2:], kernel))
    offsets = tuple(both + tuple(slice(o, o + n) for o, n in zip(koff, out_sp))
                    for koff in np.ndindex(*kernel))
    return padded, inner, out_sp, offsets


def _windows(x: np.ndarray, kernel, pad, op: str) -> np.ndarray:
    """Im2col columns [C, k, N, *out] of x [N, C, *sp]: one copy per kernel
    offset, so each column is contiguous over the samples' output positions."""
    if any(k > s + 2 * p for s, k, p in zip(x.shape[2:], kernel, pad)):
        raise DimensionError(
            f"{op}: kernel {kernel} larger than padded input {x.shape[2:]} (pad {pad})")
    padded, inner, out_sp, offsets = _window_layout(x.shape, kernel, pad)
    xp = xt = x.swapaxes(0, 1)
    if any(pad):
        xp = np.zeros(padded)
        xp[inner] = xt
    cols = np.empty((x.shape[1], len(offsets), x.shape[0]) + out_sp)
    for j, sl in enumerate(offsets):
        cols[:, j] = xp[sl]
    return cols


@functools.lru_cache(maxsize=64)
def _read_index(shape: tuple, kernel: tuple, pad: tuple) -> np.ndarray:
    """Read-only intp index [C, k, N, *out] of what each im2col column entry
    of x [N, C, *sp] reads: its flat position in x, or prod(shape), one past
    the end, where it reads the zero padding."""
    padded, inner, out_sp, offsets = _window_layout(shape, kernel, pad)
    where = np.full(padded, math.prod(shape), dtype=np.intp)
    where[inner] = np.arange(math.prod(shape)).reshape(shape).swapaxes(0, 1)
    index = np.empty((shape[1], len(offsets), shape[0]) + out_sp, dtype=np.intp)
    for j, sl in enumerate(offsets):
        index[:, j] = where[sl]
    index.flags.writeable = False
    return index


def _unwindow(dcols: np.ndarray, x_shape, kernel, pad) -> np.ndarray:
    """Adjoint of _windows: scatter-add columns [C, k, N, *out] onto x [N, C, *sp]
    in one bincount over ``_read_index``, dropping the padding's bin. The
    bincount adds each position's entries in kernel-offset order, as one
    ``+=`` per offset would."""
    if not any(pad) and all(k == 1 for k in kernel):
        # each column entry reads its own position: the columns are x's gradient
        return np.ascontiguousarray(
            dcols.reshape(x_shape[1::-1] + x_shape[2:]).swapaxes(0, 1))
    size = math.prod(x_shape)
    dx = np.bincount(_read_index(x_shape, kernel, pad).reshape(-1),
                     weights=dcols.reshape(-1), minlength=size + 1)
    return dx[:size].reshape(x_shape)


def _grouped_conv(op: str, x: Tensor, w: Tensor, b: Tensor, groups: int,
                  pad: tuple) -> Tensor:
    """Grouped cross-correlation, recorded as one node named ``op``: x [N, Cin, *sp]
    and w holding [G, Cout/G, Cin/G, *k] in row-major order -> [N, Cout, *out].
    Group g reads only its Cin/G input channels, the block from g*Cin/G, and
    writes only its Cout/G output channels, the block from g*Cout/G: one
    matmul of w [G, Cout/G, Cin/G * k] by the columns read as
    [G, Cin/G * k, N * prod(out)]."""
    n, cin = x.shape[:2]
    kernel = w.shape[2:]
    cols = _windows(x.data, kernel, pad, op)                  # [Cin, k, N, *out]
    out_sp = cols.shape[3:]
    cols = cols.reshape(groups, cin // groups * cols.shape[1], -1)
    w3 = w.data.reshape(groups, -1, cols.shape[1])
    cout = groups * w3.shape[1]
    y = np.matmul(w3, cols) + b.data.reshape(groups, -1, 1)  # [G, Cout/G, N*out]
    out = Tensor(y.reshape((cout, n) + out_sp).swapaxes(0, 1))

    def back(g):
        g3 = g.swapaxes(0, 1).reshape(groups, -1, cols.shape[2])
        accumulate(w, np.matmul(g3, cols.transpose(0, 2, 1)).reshape(w.shape))
        accumulate(b, g3.sum(axis=2).reshape(-1))
        if x.requires_grad:
            dcols = np.matmul(w3.transpose(0, 2, 1), g3).reshape((cin, -1, n) + out_sp)
            accumulate(x, _unwindow(dcols, x.shape, kernel, pad))

    return record(op, (x, w, b), out, back)


def convolve(x: Tensor, w: Tensor, b: Tensor, padding=0) -> Tensor:
    """N-d cross-correlation: x [N, Cin, *sp], w [Cout, Cin, *k] -> [N, Cout, *out]."""
    nd = w.ndim - 2
    if nd < 1 or x.ndim != nd + 2:
        raise DimensionError(f"convolve: x {x.shape} incompatible with kernel {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise DimensionError(
            f"convolve: input channels {x.shape[1]} != kernel channels {w.shape[1]}")
    if b.shape != (w.shape[0],):
        raise DimensionError(f"convolve: bias {b.shape} vs out channels {w.shape[0]}")
    return _grouped_conv("convolve", x, w, b, 1, _as_tuple(padding, nd))


def depthwise_conv2d(x: Tensor, w: Tensor, b: Tensor, padding=0) -> Tensor:
    """Per-channel 2-d conv with channel multiplier: x [N, C, H, W],
    w [C, M, kh, kw] -> [N, C*M, H', W'] with output channel c*M+m."""
    if x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[0]:
        raise DimensionError(f"depthwise_conv2d: x {x.shape} vs kernels {w.shape}")
    c, m = w.shape[:2]
    if b.shape != (c * m,):
        raise DimensionError(f"depthwise_conv2d: bias {b.shape} vs {c * m} channels")
    return _grouped_conv("depthwise_conv2d", x, w, b, c, _as_tuple(padding, 2))


def grouped_pointwise(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Group-local 1x1 mixing: x [N, G*Cin, *sp], w [G, Cout, Cin] -> [N, G*Cout, *sp].
    Keeps channel groups (e.g. per-frame blocks) separate."""
    g_, cout, cin = w.shape
    if x.shape[1:2] != (g_ * cin,):
        raise DimensionError(f"grouped_pointwise: x {x.shape} vs weight {w.shape}")
    if b.shape != (g_ * cout,):
        raise DimensionError(f"grouped_pointwise: bias {b.shape} vs {g_ * cout}")
    n = x.shape[0]
    xg = x.data.reshape(n, g_, cin, -1)
    y = np.matmul(w.data, xg) + b.data.reshape(g_, cout, 1)  # [N, G, Cout, L]
    out = Tensor(y.reshape((n, g_ * cout) + x.shape[2:]))

    def back(grad):
        g4 = grad.reshape(n, g_, cout, -1)
        accumulate(w, np.matmul(g4, xg.swapaxes(2, 3)).sum(axis=0))
        accumulate(b, g4.sum(axis=(0, 3)).reshape(-1))
        accumulate(x, np.matmul(w.data.transpose(0, 2, 1), g4).reshape(x.shape))

    return record("grouped_pointwise", (x, w, b), out, back)


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


@functools.lru_cache(maxsize=256)
def _bin_windows(length: int, target: int, divisor=None) -> tuple:
    # bin j covers [ceil(j*L/t), ceil((j+1)*L/t)); e.g. 5 -> 2 gives {0,1,2},{3,4}
    edges = [-(-(j * length) // target) for j in range(target + 1)]
    return tuple((lo, hi, divisor or hi - lo) for lo, hi in zip(edges, edges[1:]))


def _map_axes(y: np.ndarray, mats) -> np.ndarray:
    """Multiply axis 2+i of y [N, C, *sp] by mats[i] [out, in]. Each step maps
    the first spatial axis and moves it last (one matmul batched over N*C), so
    the axes are back in order after the last matrix."""
    lead = y.shape[:2]
    rows = lead[0] * lead[1]
    for m in mats:
        y = y.reshape(rows, m.shape[1], -1).transpose(0, 2, 1) @ m.T
    return y.reshape(lead + tuple(m.shape[0] for m in mats))


def _pool(x: Tensor, mats, name: str) -> Tensor:
    """Record op ``name`` mapping x [N, C, *sp] axis by axis; the backward maps
    the gradient by the transposed matrices."""
    out = Tensor(_map_axes(x.data, mats))

    def back(g):
        accumulate(x, _map_axes(g, [m.T for m in mats]))

    return record(name, (x,), out, back)


def avg_pool(x: Tensor, window, stride=None, padding=0) -> Tensor:
    """Fixed-window average pooling over all axes after the batch and channel axes.

    Padding zeros count toward the average (divisor is always the full
    window size), keeping the divisor independent of position.
    """
    nd = x.ndim - 2
    window = _as_tuple(window, nd)
    if any(k <= 0 for k in window):
        raise ArgumentError(f"avg_pool: window must be positive, got {window}")
    stride = window if stride is None else _as_tuple(stride, nd)
    pad = _as_tuple(padding, nd)
    if any(k > n + 2 * p for n, k, p in zip(x.shape[2:], window, pad)):
        raise DimensionError(
            f"avg_pool: kernel {window} larger than padded input {x.shape[2:]} (pad {pad})")
    mats = [_averaging_matrix(n, tuple((o * s - p, o * s - p + k, k)
                                       for o in range((n + 2 * p - k) // s + 1)))
            for n, k, s, p in zip(x.shape[2:], window, stride, pad)]
    return _pool(x, mats, "avg_pool")


def adaptive_avg_pool(x: Tensor, target) -> Tensor:
    """Adaptive average pooling: axis i is split into target[i] contiguous bins
    [ceil(j*L/t), ceil((j+1)*L/t)) and each bin is averaged."""
    target = _as_tuple(target, x.ndim - 2)
    if any(t <= 0 for t in target):
        raise ArgumentError(f"adaptive_avg_pool: target must be positive, got {target}")
    if any(t > n for t, n in zip(target, x.shape[2:])):
        raise ArgumentError(f"adaptive_avg_pool: target {target} exceeds input {x.shape[2:]}")
    mats = [_averaging_matrix(n, _bin_windows(n, t)) for n, t in zip(x.shape[2:], target)]
    return _pool(x, mats, "adaptive_avg_pool")


def expand_bins(x: Tensor, out_sizes) -> Tensor:
    """Nearest-neighbor inverse of adaptive_avg_pool: repeat each bin value over
    the positions its bin covered at size ``out_sizes``."""
    out_sizes = _as_tuple(out_sizes, x.ndim - 2)
    if any(n < t for n, t in zip(out_sizes, x.shape[2:])):
        raise ArgumentError(
            f"expand_bins: out_sizes {out_sizes} smaller than bins {x.shape[2:]}")
    mats = [_averaging_matrix(n, _bin_windows(n, t, divisor=1)).T
            for n, t in zip(out_sizes, x.shape[2:])]
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
    """Non-learnable running mean/variance for one batchnorm site.
    ``batchnorm`` takes them flat, one value per channel; each gate unit keeps
    its own as [C, 3] (see ``fusion.task_gates``)."""

    def __init__(self, shape: int | tuple):
        self.mean = np.zeros(shape)
        self.var = np.ones(shape)

    def update(self, mean: np.ndarray, var: np.ndarray, momentum: float) -> None:
        self.mean = (1.0 - momentum) * self.mean + momentum * mean
        self.var = (1.0 - momentum) * self.var + momentum * var


def batchnorm(x: Tensor, scale: Tensor, shift: Tensor, stats: RunningStats,
              eps: float = 1e-5, train: bool = True) -> Tensor:
    """Normalize each channel of x [N, C, *sp], then scale and shift it.

    Train mode differs from the batch normalization of Ioffe & Szegedy
    (arXiv 1502.03167), which pools its statistics over the batch and the
    positions: here channel c of sample n is normalized by the mean and biased
    variance of its own positions only, so no sample's output or gradient
    depends on another sample of the batch. The running statistics then take N
    momentum-0.1 updates, one per sample in batch order, so one call on N
    samples leaves ``stats`` as N one-sample calls would. Eval mode normalizes
    every sample by the running statistics.
    """
    if x.ndim < 3:
        raise DimensionError(f"batchnorm: x must be [N, C, *positions], got {x.shape}")
    n, c = x.shape[:2]
    if scale.shape != (c,) or shift.shape != (c,):
        raise DimensionError(
            f"batchnorm: scale {scale.shape} / shift {shift.shape} vs {c} channels")
    red = tuple(range(2, x.ndim))
    bshape = (1, c) + (1,) * len(red)
    m = x.size // (n * c)

    if train:   # np.mean's and np.var's arithmetic, with the centred array made once
        mean = x.data.sum(axis=red, keepdims=True) / m
        xhat = x.data - mean
        var = (xhat * xhat).sum(axis=red, keepdims=True) / m
        for mu, v in zip(mean.reshape(n, c), var.reshape(n, c)):
            stats.update(mu, v, 0.1)
    else:
        xhat = x.data - stats.mean.reshape(bshape)
        var = stats.var.reshape(bshape)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    out = Tensor(xhat * scale.data.reshape(bshape) + shift.data.reshape(bshape))

    def back(g):
        gsum = g.sum(axis=red, keepdims=True)
        gxhat = (g * xhat).sum(axis=red, keepdims=True)
        accumulate(shift, gsum.sum(axis=0).reshape(c))
        accumulate(scale, gxhat.sum(axis=0).reshape(c))
        if x.requires_grad:
            dx = g
            if train:   # g less its mean and xhat times the mean of g * xhat, per sample
                dx = xhat * gxhat
                dx += gsum
                dx *= -1.0 / m
                dx += g
            accumulate(x, dx * (scale.data.reshape(bshape) * inv_std))

    return record("batchnorm", (x, scale, shift), out, back)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of the negative log-likelihood of labels[n] under
    softmax(logits[n]); logits [N, K], labels N ints. Stable."""
    if logits.ndim != 2:
        raise DimensionError(f"cross_entropy: logits must be [N, K], got {logits.shape}")
    n, k = logits.shape
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (n,):
        raise DimensionError(f"cross_entropy: {labels.shape} labels for {n} logit rows")
    if np.any((labels < 0) | (labels >= k)):
        raise ArgumentError(f"cross_entropy: labels {labels.tolist()} out of range "
                            f"for {k} classes")
    rows = np.arange(n)
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    out = Tensor(np.array(np.mean(lse - z[rows, labels])))
    prob = np.exp(z - lse[:, None])

    def back(g):
        d = prob.copy()
        d[rows, labels] -= 1.0
        accumulate(logits, d * (g / n))

    return record("cross_entropy", (logits,), out, back)
