"""Dense float64 tensors with tape-based reverse-mode autodiff.

Tensors are immutable values: operations return fresh tensors and never
write into their inputs, so concurrent reads are always safe. Gradient
recording happens only while a Tape is active (``with Tape() as tape:``)
in the calling thread; without one, every operation is pure inference.

Layouts are batch-first, then channels, here and in ``ops``: [N, C, ...],
with N samples on axis 0 and, where an op has a channel axis, the channels on
axis 1. Broadcasting is deliberately minimal: same-shape elementwise ops,
scalar times tensor, and a channel vector over the batch and trailing axes (a
bias inside ``ops.linear``, a gate in ``scale_channels``).

Backward closures hand their gradient arrays to ``accumulate``, which adopts
the first one without copying and replaces the sum for each later one. A
``.grad`` may therefore be shared between tensors (``add`` hands both inputs
one array) or read-only (a ``broadcast_to`` view): it is read, never written
into.

Under glibc, importing this module sets two heap thresholds:
``mallopt(M_MMAP_THRESHOLD, 32 MiB)`` keeps every array below 32 MiB on the
heap, and ``mallopt(M_TRIM_THRESHOLD, 256 MiB)`` keeps freed heap in the
process instead of giving it back to the OS. A training step frees most of
what its forward allocated once ``backward`` has run. With glibc's default
thresholds, which adapt to the sizes freed, the next step would fault
thousands of fresh zero-filled pages back in: about 3,700 per batch-8 step of
perfbench's toy model on a 2-vCPU VM, 10 ms of its 70 ms in the kernel.
Either call alone turns the adaptation off and leaves most of those faults,
so both are made. Under another C library the import sets nothing. A host
program that wants other values may call ``mallopt`` again after importing
``mmtl``.
"""

from __future__ import annotations

import ctypes
import math
import platform
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ArgumentError, DimensionError, TapeError

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3      # glibc <malloc.h>


def _keep_freed_heap() -> None:
    """Keep arrays below 32 MiB on the heap and the freed heap in the process."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_heap()


class Tensor:
    """A dense n-dimensional array of float64 with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data: np.ndarray = np.ascontiguousarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ArgumentError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def param(data) -> Tensor:
    """Create a trainable leaf tensor."""
    return Tensor(data, requires_grad=True)


def glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> Tensor:
    """Trainable tensor drawn uniformly in +-sqrt(6 / (fan_in + fan_out))."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return param(rng.uniform(-limit, limit, size=shape))


class Node:
    """One recorded operation: how to push the output gradient to the inputs."""

    __slots__ = ("op", "inputs", "output", "backward")

    def __init__(self, op: str, inputs: Sequence[Tensor], output: Tensor,
                 backward: Callable[[np.ndarray], None]):
        self.op = op
        self.inputs = tuple(inputs)
        self.output = output
        self.backward = backward


class Tape:
    """Ordered record of operations; replayed once, in reverse, by backward()."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._outer: Optional[Tape] = None

    def __enter__(self) -> "Tape":
        self._outer = _TAPES.active
        _TAPES.active = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        assert _TAPES.active is self
        _TAPES.active = self._outer

    def __len__(self) -> int:
        return len(self.nodes)


class _ThreadTapes(threading.local):
    """The innermost open tape of the current thread; each thread starts with
    none, so a tape records only the ops of the thread that opened it."""

    active: Optional[Tape] = None


_TAPES = _ThreadTapes()


def record(op: str, inputs: Sequence[Tensor], output: Tensor,
           backward: Callable[[np.ndarray], None]) -> Tensor:
    """Register a node on the active tape when gradients are being tracked."""
    tape = _TAPES.active
    if tape is not None and any(t.requires_grad for t in inputs):
        output.requires_grad = True
        tape.nodes.append(Node(op, inputs, output, backward))
    return output


def accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` to ``t.grad``; used by every backward closure.

    The first contribution is adopted as it is, with no copy; each later one
    makes a new sum ``t.grad + g``. So a ``.grad`` may be shared with another
    tensor or be a read-only view, and it is read, never written into.
    """
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate .grad on every requires_grad tensor reachable from ``loss``.

    The tape is consumed: a second backward over the same tape raises.
    """
    if loss.data.size != 1:
        raise ArgumentError(f"loss must be scalar, got shape {loss.shape}")
    if not tape.nodes:
        raise TapeError("tape is empty; nothing was recorded")
    if not any(node.output is loss for node in tape.nodes):
        raise TapeError("loss is detached from this tape")
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        g = node.output.grad
        if g is None:
            continue
        node.backward(g)
    tape.nodes.clear()


# ---------------------------------------------------------------------------
# elementwise and structural primitives
# ---------------------------------------------------------------------------

def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    out = Tensor(a.data + b.data)

    def back(g):
        accumulate(a, g)
        accumulate(b, g)

    return record("add", (a, b), out, back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    out = Tensor(a.data * b.data)

    def back(g):
        accumulate(a, g * b.data)
        accumulate(b, g * a.data)

    return record("mul", (a, b), out, back)


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a python float (non-learnable scalar)."""
    s = float(s)
    out = Tensor(a.data * s)

    def back(g):
        accumulate(a, g * s)

    return record("scale", (a,), out, back)


def scale_by(a: Tensor, s: Tensor) -> Tensor:
    """Multiply by a learnable scalar tensor (shape () or (1,))."""
    if s.data.size != 1:
        raise DimensionError(f"scale_by: scalar expected, got shape {s.shape}")
    sval = float(s.data.reshape(-1)[0])
    out = Tensor(a.data * sval)

    def back(g):
        accumulate(a, g * sval)
        accumulate(s, np.array(np.sum(g * a.data)).reshape(s.shape))

    return record("scale_by", (a, s), out, back)


def scale_channels(x: Tensor, w: Tensor) -> Tensor:
    """Multiply x[n, c, ...] by w[c]: one channel gate for every sample and position."""
    if w.ndim != 1 or x.ndim < 2 or x.shape[1] != w.shape[0]:
        raise DimensionError(f"scale_channels: x {x.shape} vs gate {w.shape}")
    wb = w.data.reshape((1, -1) + (1,) * (x.ndim - 2))
    out = Tensor(x.data * wb)

    def back(g):
        accumulate(x, g * wb)
        accumulate(w, np.sum(g * x.data, axis=(0,) + tuple(range(2, x.ndim))))

    return record("scale_channels", (x, w), out, back)


def tsum(a: Tensor) -> Tensor:
    out = Tensor(np.array(a.data.sum()))

    def back(g):
        accumulate(a, np.broadcast_to(g, a.shape))

    return record("sum", (a,), out, back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a [..., M, K] @ b [..., K, P] -> [..., M, P]; the leading (batch) axes
    of the two operands must agree, so each sample multiplies its own pair."""
    if a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"matmul: operands {a.shape} and {b.shape} need the same "
                             f"leading axes and two trailing matrix axes")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner dims disagree, {a.shape} vs {b.shape}")
    out = Tensor(a.data @ b.data)

    def back(g):
        accumulate(a, g @ b.data.swapaxes(-1, -2))
        accumulate(b, a.data.swapaxes(-1, -2) @ g)

    return record("matmul", (a, b), out, back)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def back(g):
        accumulate(a, g.reshape(a.shape))

    return record("reshape", (a,), out, back)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(a.data.transpose(axes))

    def back(g):
        accumulate(a, g.transpose(inv))

    return record("transpose", (a,), out, back)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ArgumentError("concat: need at least one tensor")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            accumulate(t, piece)

    return record("concat", tuple(tensors), out, back)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    if start < 0 or start + length > a.shape[axis]:
        raise DimensionError(
            f"narrow: [{start}:{start + length}] out of range for axis {axis} of {a.shape}")
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = Tensor(a.data[idx])

    def back(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        accumulate(a, full)

    return record("narrow", (a,), out, back)


def take_channels(a: Tensor, index: np.ndarray) -> Tensor:
    """Permute the channel axis (axis 1): output channel i is input channel
    index[i]. ``index`` must be a permutation of the channels."""
    index = np.asarray(index, dtype=np.intp)
    channels = a.shape[1]
    inverse = np.argsort(index)
    if index.shape != (channels,) or not np.array_equal(index[inverse], np.arange(channels)):
        raise ArgumentError(f"take_channels: index is not a permutation of {channels} channels")
    out = Tensor(a.data[:, index])

    def back(g):
        accumulate(a, g[:, inverse])

    return record("take_channels", (a,), out, back)


def tile_spatial(v: Tensor, spatial: tuple) -> Tensor:
    """Broadcast channel vectors [N, C] to [N, C, *spatial]."""
    if v.ndim != 2:
        raise DimensionError(f"tile_spatial: [N, C] expected, got {v.shape}")
    out = Tensor(np.broadcast_to(v.data.reshape(v.shape + (1,) * len(spatial)),
                                 v.shape + tuple(spatial)).copy())

    def back(g):
        accumulate(v, g.sum(axis=tuple(range(2, 2 + len(spatial)))))

    return record("tile_spatial", (v,), out, back)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))
