"""Multi-view stem and the dual-path temporal-spatial block.

The stem turns each view's frame sequence into a channel block of a shared
[N, C, H, W] feature map, keeping channels grouped by frame so the temporal
axis can be recovered downstream (channel c belongs to frame c // (C/T)).

The block runs two scan paths over the frame groups - a forward scan feeding
a 3x3-average local branch and a backward scan feeding a coarse-grid global
branch - merges them under a per-channel sigmoid gate, projects the merge
with a linear channel map W_out (weight and bias), and adds the result back
onto the input through a learnable scalar:

    out = x + gamma * W_out(gate (x) (local + global))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import ConfigError, InputError
from .ops import adaptive_avg_pool, avg_pool, convolve, depthwise_conv2d, expand_bins, \
    gelu, grouped_pointwise, linear
from .ssm import ScanDirection, compute_gate, init_transition, scan
from .tensor import Tensor, add, concat, glorot, param, reshape, scale_by, scale_channels, \
    take_channels, transpose

EXTERIOR_VIEWS = ("front", "left", "right")
INTERIOR_VIEWS = ("inside", "face", "body")

GLOBAL_POOL_GRID = 3  # coarse grid of the global path's adaptive pooling


@dataclass
class ViewSequence:
    """One camera view: frames [T, 3, H_v, W_v] with pixels in [0, 1]."""

    view_id: str
    frames: np.ndarray

    def __post_init__(self):
        if self.frames.ndim != 4 or self.frames.shape[1] != 3:
            raise InputError(f"view {self.view_id}: frames must be [T, 3, H, W], "
                             f"got {self.frames.shape}")


@dataclass
class StemParams:
    """Per-view depthwise + frame-grouped pointwise convs for one branch."""

    view_ids: tuple
    depthwise_w: List[Tensor]   # per view [3T, 1, 3, 3]
    depthwise_b: List[Tensor]
    pointwise_w: List[Tensor]   # per view [T, cpf, 3]
    pointwise_b: List[Tensor]
    frame_count: int
    out_channels: int           # branch C
    height: int
    width: int

    def tensors(self):
        out = {}
        for i, vid in enumerate(self.view_ids):
            out[f"{vid}.dw_w"] = self.depthwise_w[i]
            out[f"{vid}.dw_b"] = self.depthwise_b[i]
            out[f"{vid}.pw_w"] = self.pointwise_w[i]
            out[f"{vid}.pw_b"] = self.pointwise_b[i]
        return out


def init_stem(view_ids: Sequence[str], frame_count: int, out_channels: int,
              height: int, width: int, rng: np.random.Generator,
              kernel_size: int = 3) -> StemParams:
    v = len(view_ids)
    if out_channels % (v * frame_count) != 0:
        raise ConfigError(f"stem: channels {out_channels} not divisible by "
                          f"views*frames = {v * frame_count}")
    cpf = out_channels // (v * frame_count)
    tc = 3 * frame_count
    k2 = kernel_size * kernel_size
    dw_w, dw_b, pw_w, pw_b = [], [], [], []
    for _ in view_ids:
        dw_w.append(glorot(rng, (tc, 1, kernel_size, kernel_size), k2, k2))
        dw_b.append(param(np.zeros(tc)))
        pw_w.append(glorot(rng, (frame_count, cpf, 3), 3, cpf))
        pw_b.append(param(np.zeros(frame_count * cpf)))
    return StemParams(tuple(view_ids), dw_w, dw_b, pw_w, pw_b,
                      frame_count, out_channels, height, width)


def stem(views: Sequence[Sequence[ViewSequence]], p: StemParams) -> Tensor:
    """Fuse one branch's views into a frame-major [N, C, H, W] feature map;
    ``views[n]`` holds sample n's views, and every sample's frames of one view
    share one shape."""
    by_id = [{v.view_id: v for v in sample} for sample in views]
    for i, sample in enumerate(by_id):
        missing = [vid for vid in p.view_ids if vid not in sample]
        if missing:
            raise InputError(f"stem: sample {i} is missing view(s) {missing}")
    n = len(by_id)
    t = p.frame_count
    v = len(p.view_ids)
    cpf = p.out_channels // (v * t)

    feats = []
    for i, vid in enumerate(p.view_ids):
        frames = [sample[vid].frames for sample in by_id]
        for f in frames:
            if f.shape[0] != t:
                raise InputError(f"view {vid}: {f.shape[0]} frames, expected {t}")
        hv, wv = frames[0].shape[2], frames[0].shape[3]
        # center [0, 1] pixels so downstream features carry no common-mode DC;
        # no padding, so constant frames map to exactly constant features
        x = np.empty((n,) + frames[0].shape)
        for k, f in enumerate(frames):
            np.subtract(f, 0.5, out=x[k])
        x = depthwise_conv2d(Tensor(x.reshape(n, 3 * t, hv, wv)),
                             p.depthwise_w[i], p.depthwise_b[i])
        x = gelu(grouped_pointwise(x, p.pointwise_w[i], p.pointwise_b[i]))
        feats.append(adaptive_avg_pool(x, (p.height, p.width)))
    cat = concat(feats, axis=1)                  # layout [view][frame][cpf]

    # reorder to frame-major [frame][view][cpf] so frame groups are contiguous
    perm = np.arange(p.out_channels).reshape(v, t, cpf).transpose(1, 0, 2).reshape(-1)
    return take_channels(cat, perm)


@dataclass
class BlockParams:
    """Weights of one dual-path block operating on [N, C, H, W]."""

    conv1d_w: Tensor            # [L, L, 3]; positions as channels, C as length
    conv1d_b: Tensor
    A_fwd: Tensor               # [C, n] forward-scan A; the gate reads all C rows
    D_fwd: Tensor               # [C]
    A_bwd: Tensor               # [C/T, n] backward-scan A; a scan reads one frame group
    D_bwd: Tensor               # [C/T]
    B: Tensor                   # [C, n], read by both scans and the gate
    C: Tensor                   # [C, n]
    local_w: Tensor             # [C, C]
    local_b: Tensor
    global_w: Tensor
    global_b: Tensor
    out_w: Tensor
    out_b: Tensor
    gamma: Tensor               # scalar scaling of the non-residual branch
    frame_count: int

    def tensors(self):
        out = {
            "conv1d_w": self.conv1d_w, "conv1d_b": self.conv1d_b,
            "local_w": self.local_w, "local_b": self.local_b,
            "global_w": self.global_w, "global_b": self.global_b,
            "out_w": self.out_w, "out_b": self.out_b, "gamma": self.gamma,
            "ssm.A_fwd": self.A_fwd, "ssm.D_fwd": self.D_fwd,
            "ssm.A_bwd": self.A_bwd, "ssm.D_bwd": self.D_bwd,
            "ssm.B": self.B, "ssm.C": self.C,
        }
        return out


def init_block(channels: int, frame_count: int, height: int, width: int,
               state_dim: int, rng: np.random.Generator) -> BlockParams:
    if channels % frame_count != 0:
        raise ConfigError(f"block: channels {channels} not divisible by "
                          f"frame count {frame_count}")
    spatial = height * width
    group = channels // frame_count
    return BlockParams(
        A_fwd=init_transition(channels, state_dim, rng),
        B=param(rng.normal(0.0, 0.3, size=(channels, state_dim))),
        C=param(rng.normal(0.0, 0.3, size=(channels, state_dim))),
        D_fwd=param(np.zeros(channels)),
        A_bwd=init_transition(group, state_dim, rng),
        D_bwd=param(np.zeros(group)),
        conv1d_w=glorot(rng, (spatial, spatial, 3), spatial * 3, spatial * 3),
        conv1d_b=param(np.zeros(spatial)),
        local_w=glorot(rng, (channels, channels), channels, channels),
        local_b=param(np.zeros(channels)),
        global_w=glorot(rng, (channels, channels), channels, channels),
        global_b=param(np.zeros(channels)),
        out_w=glorot(rng, (channels, channels), channels, channels),
        out_b=param(np.zeros(channels)),
        gamma=param(np.array(0.5)),
        frame_count=frame_count,
    )


def dual_path_block(x: Tensor, p: BlockParams,
                    single_direction: bool = False,
                    local_only: bool = False) -> Tensor:
    """One block application to x [N, C, H, W]. ``single_direction`` disables
    the backward scan (both paths scan forward); ``local_only`` replaces the
    global path's coarse pooling with the local 3x3 pooling."""
    n, c, h, w = x.shape
    t = p.frame_count
    if c % t != 0:
        raise ConfigError(f"block: channels {c} not divisible by frame count {t}")
    group = c // t
    spatial = h * w

    # shared enhancement: 1-d conv along the channel axis, positions as channels
    z = transpose(reshape(x, (n, c, spatial)), (0, 2, 1))        # [N, L, C]
    z = convolve(z, p.conv1d_w, p.conv1d_b, padding=1)
    z = gelu(z)
    seq = reshape(transpose(z, (0, 2, 1)), (n, t, group, spatial))  # [N, T, C', L]

    local_seq = scan(seq, p.A_fwd, p.B, p.C, p.D_fwd, ScanDirection.FORWARD)
    local_map = reshape(local_seq, (n, c, h, w))
    local_map = avg_pool(local_map, 3, stride=1, padding=1)
    local_feat = linear(local_map, p.local_w, p.local_b)

    bwd_dir = ScanDirection.FORWARD if single_direction else ScanDirection.BACKWARD
    global_seq = scan(seq, p.A_bwd, p.B, p.C, p.D_bwd, bwd_dir)
    global_map = reshape(global_seq, (n, c, h, w))
    if local_only:
        global_map = avg_pool(global_map, 3, stride=1, padding=1)
    else:
        grid = (min(GLOBAL_POOL_GRID, h), min(GLOBAL_POOL_GRID, w))
        global_map = expand_bins(adaptive_avg_pool(global_map, grid), (h, w))
    global_feat = linear(global_map, p.global_w, p.global_b)

    gate = compute_gate(p.A_fwd, p.B, p.C, p.D_fwd)           # [C]
    merged = scale_channels(add(local_feat, global_feat), gate)
    projected = linear(merged, p.out_w, p.out_b)
    return add(x, scale_by(projected, p.gamma))


def block_stack(x: Tensor, blocks: Sequence[BlockParams], **kw) -> Tensor:
    """Sequential application of dual-path blocks."""
    if not blocks:
        raise ConfigError("block_stack: at least one block required")
    for p in blocks:
        x = dual_path_block(x, p, **kw)
    return x
