"""Gated multimodal fusion: shared self-attention over the concatenated
modality features, then one sigmoid gate stack for all tasks that reweights
each modality before summation.

    S      = attention(softmax(Q K^T / sqrt(d)) V)  from Concat(H1, H2, H3)
    G      = sigmoid(BN(Conv(S)))                   three maps per task
    F_r    = H1 (x) G_r0 + H2 (x) G_r1 + H3 (x) G_r2

For R gate units (one per task, or one shared by all) the stack is one
depthwise conv with multiplier 3R, one batch norm and one sigmoid: channel
c*3R + 3r + i is unit r's gate for modality i on channel c, and ``gated_sum``
makes every F_r at once. Parameters (``gate{r}_w`` [C, 3, 3, 3] and the
vectors ``_b``, ``_bn_scale``, ``_bn_shift`` [C, 3], channel by modality) and
running statistics (``bn_stats[r]``, also [C, 3]) stay per task, as the
paper's one gating module per task, so checkpoints and code that reads a
task's gates by name keep working. Joined on axis 1, the units' arrays are
[C, 3R] and, flattened, already in the stack's order.

Features leave ``fuse_all`` pooled: each head averages its F_r over the grid,
so one pool over ``gated_sum``'s output, the only place the F_r maps exist,
gives every task's [N, C] feature. A concatenation + 1x1 conv fallback stands
in when gating is ablated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .config import TASKS
from .errors import DimensionError
from .ops import RunningStats, adaptive_avg_pool, batchnorm, convolve, depthwise_conv2d, \
    sigmoid, softmax
from .tensor import Tensor, accumulate, add, concat, glorot, matmul, narrow, param, \
    record, reshape, scale, transpose

NUM_MODALITIES = 3
NUM_TASKS = len(TASKS)


@dataclass
class ModalityFeatures:
    """The three modality feature maps, all [N, C, H, W]."""

    h1: Tensor  # exterior branch
    h2: Tensor  # interior branch
    h3: Tensor  # joints branch

    def __post_init__(self):
        if not (self.h1.shape == self.h2.shape == self.h3.shape):
            raise DimensionError(
                f"modality shapes differ: {self.h1.shape}, {self.h2.shape}, {self.h3.shape}")

    def as_list(self) -> List[Tensor]:
        return [self.h1, self.h2, self.h3]


@dataclass
class GateParams:
    """Shared attention projections plus per-task gate convolutions."""

    wq: Tensor                      # [C, 3C, 1, 1]
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    gate_w: List[Tensor]            # per task [C, 3, 3, 3] depthwise, 3 maps/channel
    gate_b: List[Tensor]            # per task [C, 3], channel by modality, as are
    bn_scale: List[Tensor]          # these three and each running mean and variance
    bn_shift: List[Tensor]
    bn_stats: List[RunningStats] = field(repr=False, default=None)  # type: ignore

    def __post_init__(self):
        if self.bn_stats is None:
            self.bn_stats = [RunningStats(s.shape) for s in self.bn_scale]
        k = len(self.gate_w)
        if not (len(self.gate_b) == len(self.bn_scale) == len(self.bn_shift) == k):
            raise DimensionError("GateParams: per-task lists have inconsistent lengths")

    @property
    def num_gates(self) -> int:
        return len(self.gate_w)

    def tensors(self):
        out = {"wq": self.wq, "bq": self.bq, "wk": self.wk, "bk": self.bk,
               "wv": self.wv, "bv": self.bv}
        for r in range(self.num_gates):
            out[f"gate{r}_w"] = self.gate_w[r]
            out[f"gate{r}_b"] = self.gate_b[r]
            out[f"gate{r}_bn_scale"] = self.bn_scale[r]
            out[f"gate{r}_bn_shift"] = self.bn_shift[r]
        return out


def init_gate_params(channels: int, rng: np.random.Generator,
                     num_gates: int = NUM_TASKS,
                     with_attention: bool = True) -> GateParams:
    c3 = 3 * channels
    if with_attention:
        wq = glorot(rng, (channels, c3, 1, 1), c3, channels)
        wk = glorot(rng, (channels, c3, 1, 1), c3, channels)
        wv = glorot(rng, (channels, c3, 1, 1), c3, channels)
        bq, bk, bv = (param(np.zeros(channels)) for _ in range(3))
    else:
        wq = wk = wv = bq = bk = bv = None  # type: ignore[assignment]
    gate_w, gate_b, bn_scale, bn_shift = [], [], [], []
    for _ in range(num_gates):
        gate_w.append(param(rng.normal(0.0, 0.05, size=(channels, 3, 3, 3))))
        gate_b.append(param(np.zeros((channels, 3))))
        bn_scale.append(param(np.ones((channels, 3))))
        bn_shift.append(param(np.zeros((channels, 3))))
    return GateParams(wq, bq, wk, bk, wv, bv, gate_w, gate_b, bn_scale, bn_shift)


def shared_attention(m: ModalityFeatures, p: GateParams) -> Tensor:
    """Task-shared feature: self-attention over channels of each sample's fused map."""
    n, c, h, w = m.h1.shape
    d = h * w
    cat = concat(m.as_list(), axis=1)
    q = reshape(convolve(cat, p.wq, p.bq), (n, c, d))
    k = reshape(convolve(cat, p.wk, p.bk), (n, c, d))
    v = reshape(convolve(cat, p.wv, p.bv), (n, c, d))
    scores = scale(matmul(q, transpose(k, (0, 2, 1))), 1.0 / math.sqrt(d))
    attn = softmax(scores, axis=2)
    return reshape(matmul(attn, v), (n, c, h, w))


def mean_fallback(m: ModalityFeatures) -> Tensor:
    """Attention-ablated shared feature: plain mean of the modalities."""
    return scale(add(add(m.h1, m.h2), m.h3), 1.0 / NUM_MODALITIES)


def _stacked(units: List[Tensor]) -> Tensor:
    """The units' [C, 3] vectors as the stack's one [3RC]."""
    return reshape(concat(units, axis=1), (-1,))


def task_gates(s: Tensor, p: GateParams, train: bool = True) -> Tensor:
    """The gate stack [N, 3RC, H, W], values in (0, 1); in train mode each
    unit's ``bn_stats`` takes its channels' update."""
    c = s.shape[1]
    stats = RunningStats(0)     # the units' statistics, joined as their vectors are
    stats.mean = np.concatenate([u.mean for u in p.bn_stats], axis=1).ravel()
    stats.var = np.concatenate([u.var for u in p.bn_stats], axis=1).ravel()
    pre = depthwise_conv2d(s, concat(p.gate_w, axis=1), _stacked(p.gate_b), padding=1)
    pre = batchnorm(pre, _stacked(p.bn_scale), _stacked(p.bn_shift), stats, train=train)
    if train:
        means = np.split(stats.mean.reshape(c, -1), p.num_gates, axis=1)
        variances = np.split(stats.var.reshape(c, -1), p.num_gates, axis=1)
        for unit, mean, var in zip(p.bn_stats, means, variances):
            unit.mean, unit.var = mean, var
    return sigmoid(pre)


def gated_sum(m: ModalityFeatures, g: Tensor) -> Tensor:
    """Every unit's F_r = H1 g_r0 + H2 g_r1 + H3 g_r2, added in that order, as
    one [N, R*C, H, W] map (F_r on channels r*C to r*C + C - 1), from a gate
    stack g: [N, 3RC, H, W] as ``task_gates`` makes it."""
    hs = m.as_list()
    n, c, h, w = m.h1.shape
    if g.ndim != 4 or (g.shape[0], *g.shape[2:]) != (n, h, w) or g.shape[1] % (3 * c):
        raise DimensionError(f"gated_sum: gates {g.shape} vs modalities {m.h1.shape}")
    units = g.shape[1] // (3 * c)
    gates = g.data.reshape(n, c, units, 3, h, w).transpose(3, 0, 2, 1, 4, 5)  # [3, N, R, C, H, W]
    y = sum(x.data[:, None] * gi for x, gi in zip(hs, gates))

    def back(grad):
        grad = grad.reshape(n, units, c, h, w)
        dg = np.empty((n, c, units, 3, h, w))
        for x, dgi, gi in zip(hs, dg.transpose(3, 0, 2, 1, 4, 5), gates):
            np.multiply(grad, x.data[:, None], out=dgi)
            accumulate(x, (grad * gi).sum(axis=1))
        accumulate(g, dg.reshape(g.shape))

    return record("gated_sum", (*hs, g), Tensor(y.reshape(n, units * c, h, w)), back)


def fuse_all(m: ModalityFeatures, p: GateParams, train: bool = True,
             num_tasks: int = NUM_TASKS) -> Tuple[List[Tensor], np.ndarray]:
    """Every task's pooled feature [N, C] plus each sample's mean-gate telemetry,
    [N, tasks, modalities]; tasks past the last gate unit share its output."""
    s = shared_attention(m, p) if p.wq is not None else mean_fallback(m)
    gates = task_gates(s, p, train=train)
    n, c = s.shape[:2]
    pooled = reshape(adaptive_avg_pool(gated_sum(m, gates), (1, 1)), (n, p.num_gates * c))
    units = [min(r, p.num_gates - 1) for r in range(num_tasks)]
    feats = [narrow(pooled, 1, r * c, c) for r in range(units[-1] + 1)]
    # a copy [R, 3, N, C*H*W]: each map's mean adds its values in (c, h, w) order
    maps = gates.data.reshape(n, c, p.num_gates, 3, -1).transpose(2, 3, 0, 1, 4)
    telemetry = np.ascontiguousarray(maps).reshape(p.num_gates, 3, n, -1).mean(axis=3)
    return [feats[u] for u in units], telemetry[units].transpose(2, 0, 1)


@dataclass
class ConcatFuseParams:
    """Plain concatenation fusion: 1x1 conv back down to C channels."""

    w: Tensor   # [C, 3C, 1, 1]
    b: Tensor

    def tensors(self):
        return {"w": self.w, "b": self.b}


def init_concat_fuse(channels: int, rng: np.random.Generator) -> ConcatFuseParams:
    return ConcatFuseParams(
        w=glorot(rng, (channels, 3 * channels, 1, 1), 3 * channels, channels),
        b=param(np.zeros(channels)),
    )


def concat_fuse(m: ModalityFeatures, p: ConcatFuseParams) -> Tensor:
    return convolve(concat(m.as_list(), axis=1), p.w, p.b)
