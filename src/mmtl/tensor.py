"""Dense float64 tensors with tape-based reverse-mode autodiff.

Tensors are immutable values: operations return fresh tensors and never
write into their inputs, so concurrent reads are always safe. Gradient
recording happens only while a Tape is active (``with Tape() as tape:``)
in the calling thread; without one, every operation is pure inference.

Broadcasting is deliberately minimal: same-shape elementwise ops, scalar
times tensor, a bias over the last axis (inside ``ops.linear``), and a
channel vector over trailing spatial axes (``scale_channels``).
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ArgumentError, DimensionError, TapeError


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

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    def __rmul__(self, other):
        return scale(self, float(other))


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
    """Add ``g`` into ``t.grad``; used by every backward closure."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        t.grad += g


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


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    out = Tensor(a.data - b.data)

    def back(g):
        accumulate(a, g)
        accumulate(b, -g)

    return record("sub", (a, b), out, back)


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)

    def back(g):
        accumulate(a, -g)

    return record("neg", (a,), out, back)


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
    """Multiply x[c, ...] by w[c]: a channel gate broadcast over spatial axes."""
    if w.ndim != 1 or x.shape[0] != w.shape[0]:
        raise DimensionError(f"scale_channels: x {x.shape} vs gate {w.shape}")
    wb = w.data.reshape((-1,) + (1,) * (x.ndim - 1))
    out = Tensor(x.data * wb)

    def back(g):
        accumulate(x, g * wb)
        accumulate(w, np.sum(g * x.data, axis=tuple(range(1, x.ndim))))

    return record("scale_channels", (x, w), out, back)


def tsum(a: Tensor) -> Tensor:
    out = Tensor(np.array(a.data.sum()))

    def back(g):
        accumulate(a, np.broadcast_to(g, a.shape))

    return record("sum", (a,), out, back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul: 2-d operands required, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dims disagree, {a.shape} vs {b.shape}")
    out = Tensor(a.data @ b.data)

    def back(g):
        accumulate(a, g @ b.data.T)
        accumulate(b, a.data.T @ g)

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


def flip(a: Tensor, axis: int) -> Tensor:
    out = Tensor(np.flip(a.data, axis=axis))

    def back(g):
        accumulate(a, np.flip(g, axis=axis))

    return record("flip", (a,), out, back)


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
    """Permute/select along axis 0 by an integer index vector."""
    index = np.asarray(index, dtype=np.intp)
    out = Tensor(a.data[index])

    def back(g):
        full = np.zeros_like(a.data)
        np.add.at(full, index, g)
        accumulate(a, full)

    return record("take_channels", (a,), out, back)


def tile_spatial(v: Tensor, spatial: tuple) -> Tensor:
    """Broadcast a channel vector [C] to [C, *spatial]."""
    if v.ndim != 1:
        raise DimensionError(f"tile_spatial: 1-d vector expected, got {v.shape}")
    out = Tensor(np.broadcast_to(v.data.reshape((-1,) + (1,) * len(spatial)),
                                 (v.shape[0],) + tuple(spatial)).copy())

    def back(g):
        accumulate(v, g.sum(axis=tuple(range(1, 1 + len(spatial)))))

    return record("tile_spatial", (v,), out, back)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))
