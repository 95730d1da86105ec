"""Joint-sequence branch: a small 3-d CNN over [T, J, 3] pose volumes,
projected to the same [N, C, H, W] shape as the image branches so the fusion
stage can treat all modalities uniformly. A batchnorm after the second conv
keeps this branch's output scale comparable to the image branches despite
the tiny numeric range of joint coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InputError
from .ops import RunningStats, adaptive_avg_pool, avg_pool, batchnorm, convolve, gelu, \
    linear
from .tensor import Tensor, glorot, param, reshape, tile_spatial


@dataclass
class JointSequence:
    """T frames of J joints as (x, y, confidence), all in [0, 1]."""

    joints: np.ndarray

    def __post_init__(self):
        if self.joints.ndim != 3 or self.joints.shape[2] != 3:
            raise InputError(f"joints must be [T, J, 3], got {self.joints.shape}")

    @property
    def joint_count(self) -> int:
        return self.joints.shape[1]


@dataclass
class JointBranchParams:
    conv1_w: Tensor   # [16, 1, 3, 3, 3]
    conv1_b: Tensor
    conv2_w: Tensor   # [32, 16, 3, 3, 3]
    conv2_b: Tensor
    bn_scale: Tensor  # [32]
    bn_shift: Tensor
    proj_w: Tensor    # [128, C]
    proj_b: Tensor
    joint_count: int
    out_channels: int
    height: int
    width: int
    bn_stats: RunningStats = field(default=None, repr=False)  # type: ignore

    def __post_init__(self):
        if self.bn_stats is None:
            self.bn_stats = RunningStats(self.bn_scale.shape[0])

    def tensors(self):
        return {"conv1_w": self.conv1_w, "conv1_b": self.conv1_b,
                "conv2_w": self.conv2_w, "conv2_b": self.conv2_b,
                "bn_scale": self.bn_scale, "bn_shift": self.bn_shift,
                "proj_w": self.proj_w, "proj_b": self.proj_b}


def init_joint_branch(joint_count: int, out_channels: int, height: int, width: int,
                      rng: np.random.Generator) -> JointBranchParams:
    return JointBranchParams(
        conv1_w=glorot(rng, (16, 1, 3, 3, 3), 27, 16 * 27),
        conv1_b=param(np.zeros(16)),
        conv2_w=glorot(rng, (32, 16, 3, 3, 3), 16 * 27, 32 * 27),
        conv2_b=param(np.zeros(32)),
        bn_scale=param(np.ones(32)),
        bn_shift=param(np.zeros(32)),
        proj_w=glorot(rng, (32 * 4, out_channels), 32 * 4, out_channels),
        proj_b=param(np.zeros(out_channels)),
        joint_count=joint_count,
        out_channels=out_channels,
        height=height,
        width=width,
    )


def joints_forward(seqs: Sequence[JointSequence], p: JointBranchParams,
                   train: bool = True) -> Tensor:
    """N sequences of [T, J, 3], all of one shape -> [N, C, H, W], constant
    over the spatial grid."""
    for seq in seqs:
        if seq.joint_count != p.joint_count:
            raise InputError(f"joint count {seq.joint_count} != configured {p.joint_count}")
    n = len(seqs)
    x = Tensor(np.stack([seq.joints for seq in seqs])[:, None])   # [N, 1, T, J, 3]
    x = gelu(convolve(x, p.conv1_w, p.conv1_b, padding=1))
    x = avg_pool(x, (2, 2, 1), stride=(2, 2, 1))
    x = convolve(x, p.conv2_w, p.conv2_b, padding=1)
    x = gelu(batchnorm(x, p.bn_scale, p.bn_shift, p.bn_stats, train=train))
    x = adaptive_avg_pool(x, (2, 2, 1))
    x = reshape(x, (n, 32 * 4))
    x = linear(x, p.proj_w, p.proj_b)
    return tile_spatial(x, (p.height, p.width))
