"""Gated multimodal fusion: shared self-attention over the concatenated
modality features, then one sigmoid gate stack per task that reweights each
modality before summation.

    S      = attention(softmax(Q K^T / sqrt(d)) V)  from Concat(H1, H2, H3)
    gate_i = sigmoid(BN(Conv(S)))_i                 three maps per task
    F_r    = sum_i H_i (x) gate_i

A plain concatenation + 1x1 conv fallback stands in when gating is ablated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .config import TASKS
from .errors import ArgumentError, DimensionError
from .ops import RunningStats, batchnorm, convolve, depthwise_conv2d, sigmoid, softmax
from .tensor import Tensor, add, concat, glorot, matmul, mul, narrow, param, \
    reshape, scale, transpose

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
    gate_b: List[Tensor]            # per task [3C]
    bn_scale: List[Tensor]          # per task [3C]
    bn_shift: List[Tensor]
    bn_stats: List[RunningStats] = field(repr=False, default=None)  # type: ignore

    def __post_init__(self):
        if self.bn_stats is None:
            self.bn_stats = [RunningStats(s.shape[0]) for s in self.bn_scale]
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
        gate_b.append(param(np.zeros(c3)))
        bn_scale.append(param(np.ones(c3)))
        bn_shift.append(param(np.zeros(c3)))
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


def task_gates(s: Tensor, p: GateParams, r: int, train: bool = True) -> List[Tensor]:
    """The three modality gate maps for task r, each [N, C, H, W], values in (0, 1)."""
    if not 0 <= r < p.num_gates:
        raise ArgumentError(f"task index {r} out of range for {p.num_gates} gate units")
    n, c, h, w = s.shape
    pre = depthwise_conv2d(s, p.gate_w[r], p.gate_b[r], padding=1)   # [N, 3C] c-major
    pre = batchnorm(pre, p.bn_scale[r], p.bn_shift[r], p.bn_stats[r], train=train)
    g = sigmoid(pre)
    g = reshape(g, (n, c, 3, h, w))
    return [reshape(narrow(g, 2, i, 1), (n, c, h, w)) for i in range(NUM_MODALITIES)]


def _gated_sum(m: ModalityFeatures, gates: List[Tensor]) -> Tensor:
    return add(add(mul(m.h1, gates[0]), mul(m.h2, gates[1])), mul(m.h3, gates[2]))


def task_fuse(m: ModalityFeatures, s: Tensor, p: GateParams, r: int,
              train: bool = True) -> Tensor:
    """Gate-weighted sum of the modality features for task r."""
    return _gated_sum(m, task_gates(s, p, r, train=train))


def fuse_all(m: ModalityFeatures, p: GateParams, train: bool = True,
             num_tasks: int = NUM_TASKS) -> Tuple[List[Tensor], np.ndarray]:
    """All task features plus each sample's mean-gate telemetry matrix,
    [N, tasks, modalities]."""
    s = shared_attention(m, p) if p.wq is not None else mean_fallback(m)
    feats, maps = [], []
    for r in range(num_tasks):
        # a single gate unit serves every task: run it (and update its batch
        # norm's running statistics) once, and share the fused feature
        if r < p.num_gates:
            gates = task_gates(s, p, r, train=train)
            fused = _gated_sum(m, gates)
        feats.append(fused)
        maps.append([g.data for g in gates])
    n = s.shape[0]
    telemetry = np.array(maps).reshape(num_tasks, NUM_MODALITIES, n, -1).mean(axis=3)
    return feats, telemetry.transpose(2, 0, 1)


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
