"""Float64 reference forward pass of the default-structure model, written in
plain numpy and sharing no code with ``mmtl``.

It reads the program's weights once, by their checkpoint names, into a
``Weights`` snapshot, and then computes eval-mode logits and gate telemetry
from a sample's raw arrays. The formulas are re-derived rather than copied:
the scan runs in its convolution form (kernel ``K[k] = sum_n C B lam^k``)
instead of the recurrence, convolutions are sums of shifted slices, and
pooling walks its bins explicitly.

The weight map in ``snapshot`` is the one place that knows the checkpoint
names; a change that renames or reshapes parameters updates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.special import erf

TASK_ORDER = ("der", "dbr", "tcr", "vbr")
BN_EPS = 1e-5
GLOBAL_GRID = 3


@dataclass
class Weights:
    """Copied parameter arrays, batch-norm running statistics and shapes."""

    arrays: Dict[str, np.ndarray]
    gate_stats: List[Tuple[np.ndarray, np.ndarray]]
    joint_stats: Tuple[np.ndarray, np.ndarray]
    frame_count: int
    channels: int
    height: int
    width: int
    block_depth: int
    tasks: Tuple[str, ...]


def snapshot(model) -> Weights:
    """Copy everything the reference forward reads out of a built model."""
    cfg = model.config
    if (cfg.no_mgmi or cfg.no_dual_scan or cfg.no_global_local
            or cfg.no_self_attention or cfg.no_multi_gating
            or cfg.drop_modalities or cfg.drop_tasks):
        raise ValueError("the reference covers the full model only, no ablation flags")
    arrays = {name: np.array(p.data, dtype=np.float64, copy=True)
              for name, p in model.parameters().items()}
    gate_stats = [(s.mean.copy(), s.var.copy()) for s in model.gate_params.bn_stats]
    js = model.joint_branch.bn_stats
    return Weights(arrays, gate_stats, (js.mean.copy(), js.var.copy()),
                   cfg.frame_count, cfg.channels, cfg.height, cfg.width,
                   cfg.block_depth, tuple(cfg.active_tasks))


# ---------------------------------------------------------------------------
# elementary pieces
# ---------------------------------------------------------------------------

def gelu(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def bins(length: int, target: int) -> List[Tuple[int, int]]:
    return [(math.ceil(i * length / target), math.ceil((i + 1) * length / target))
            for i in range(target)]


def adaptive_pool(x, target: Sequence[int]):
    """Average over explicit bins on every axis after the first."""
    spans = [bins(n, t) for n, t in zip(x.shape[1:], target)]
    out = np.empty((x.shape[0],) + tuple(target))
    for idx in np.ndindex(*target):
        region = tuple(slice(*spans[a][i]) for a, i in enumerate(idx))
        out[(slice(None),) + idx] = x[(slice(None),) + region].reshape(x.shape[0], -1).mean(axis=1)
    return out


def expand(x, out_hw: Tuple[int, int]):
    out = np.empty((x.shape[0],) + tuple(out_hw))
    for i, (r0, r1) in enumerate(bins(out_hw[0], x.shape[1])):
        for j, (c0, c1) in enumerate(bins(out_hw[1], x.shape[2])):
            out[:, r0:r1, c0:c1] = x[:, i:i + 1, j:j + 1]
    return out


def shifted_sum_2d(x, w, pad: int):
    """Depthwise 3x3 cross-correlation with multiplier M: x [C, H, W], w [C, M, 3, 3]
    -> [C, M, H', W']."""
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    kh, kw = w.shape[2], w.shape[3]
    oh, ow = xp.shape[1] - kh + 1, xp.shape[2] - kw + 1
    out = np.zeros((x.shape[0], w.shape[1], oh, ow))
    for ki in range(kh):
        for kj in range(kw):
            out += w[:, :, ki, kj][:, :, None, None] * xp[:, None, ki:ki + oh, kj:kj + ow]
    return out


def conv3d(x, w, b):
    """Full 3-d cross-correlation, zero pad 1: x [Cin, D, H, W], w [Cout, Cin, 3, 3, 3]."""
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (1, 1)))
    d, h, wd = x.shape[1:]
    out = np.zeros((w.shape[0], d, h, wd))
    for kz in range(3):
        for ki in range(3):
            for kj in range(3):
                patch = xp[:, kz:kz + d, ki:ki + h, kj:kj + wd].reshape(x.shape[0], -1)
                out += (w[:, :, kz, ki, kj] @ patch).reshape(out.shape)
    return out + b[:, None, None, None]


def conv_scan(x, a, b, c, d):
    """Causal convolution form of the clamped linear recurrence over axis 0 of
    x [T, G, L]; a, b, c are [G, n], d is [G]."""
    t = x.shape[0]
    lam = np.exp(np.minimum(a, 0.0))
    powers = lam[None, :, :] ** np.arange(t)[:, None, None]      # [T, G, n]
    kernel = np.einsum("kgn,gn->kg", powers, b * c)               # [T, G]
    y = d[None, :, None] * x
    for k in range(t):
        y[k:] += kernel[k][None, :, None] * x[:t - k]
    return y


def channel_map(x, w, bias):
    """Per-position linear map over the channel axis of [C, H, W]."""
    return np.einsum("chw,co->ohw", x, w) + bias[:, None, None]


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def stem(views, w: Weights, prefix: str, view_ids: Sequence[str]):
    t, ch = w.frame_count, w.channels
    cpf = ch // (len(view_ids) * t)
    by_id = {v.view_id: v.frames for v in views}
    per_view = []
    for vid in view_ids:
        frames = by_id[vid]
        x = (frames - 0.5).reshape(3 * t, frames.shape[2], frames.shape[3])
        dw = w.arrays[f"{prefix}.{vid}.dw_w"]
        x = shifted_sum_2d(x, dw, pad=0)[:, 0] + w.arrays[f"{prefix}.{vid}.dw_b"][:, None, None]
        pw = w.arrays[f"{prefix}.{vid}.pw_w"]                      # [T, cpf, 3]
        xs = x.reshape(t, 3, x.shape[1], x.shape[2])
        y = np.zeros((t, cpf) + x.shape[1:])
        for col in range(3):
            y += pw[:, :, col][:, :, None, None] * xs[:, col][:, None]
        y = y.reshape(t * cpf, x.shape[1], x.shape[2])
        y = gelu(y + w.arrays[f"{prefix}.{vid}.pw_b"][:, None, None])
        per_view.append(adaptive_pool(y, (w.height, w.width)).reshape(t, cpf, w.height, w.width))
    # frame-major: [frame][view][cpf]
    return np.stack(per_view, axis=1).reshape(ch, w.height, w.width)


def block(x, w: Weights, prefix: str):
    ch, h, wd = x.shape
    t = w.frame_count
    group = ch // t
    spatial = h * wd
    aw = w.arrays

    z = np.pad(x.reshape(ch, spatial).T, ((0, 0), (1, 1)))        # [L, C+2]
    cw = aw[f"{prefix}.conv1d_w"]                                   # [L, L, 3]
    conv = sum(cw[:, :, k] @ z[:, k:k + ch] for k in range(3)) + aw[f"{prefix}.conv1d_b"][:, None]
    seq = gelu(conv).T.reshape(t, group, spatial)

    b_shared, c_shared = aw[f"{prefix}.ssm.B"][:group], aw[f"{prefix}.ssm.C"][:group]
    local = conv_scan(seq, aw[f"{prefix}.ssm.A_fwd"][:group], b_shared, c_shared,
                      aw[f"{prefix}.ssm.D_fwd"][:group]).reshape(ch, h, wd)
    local = np.pad(local, ((0, 0), (1, 1), (1, 1)))
    local = sum(local[:, i:i + h, j:j + wd] for i in range(3) for j in range(3)) / 9.0
    local = channel_map(local, aw[f"{prefix}.local_w"], aw[f"{prefix}.local_b"])

    glob = conv_scan(seq[::-1].copy(), aw[f"{prefix}.ssm.A_bwd"][:group], b_shared, c_shared,
                     aw[f"{prefix}.ssm.D_bwd"][:group])[::-1].reshape(ch, h, wd)
    grid = (min(GLOBAL_GRID, h), min(GLOBAL_GRID, wd))
    glob = expand(adaptive_pool(glob, grid), (h, wd))
    glob = channel_map(glob, aw[f"{prefix}.global_w"], aw[f"{prefix}.global_b"])

    a_full, b_full, c_full = aw[f"{prefix}.ssm.A_fwd"], aw[f"{prefix}.ssm.B"], aw[f"{prefix}.ssm.C"]
    n = a_full.shape[1]
    gate = sigmoid(a_full.sum(axis=1) / math.sqrt(n)
                   + (b_full @ c_full.T).sum(axis=1) / math.sqrt(ch)
                   + aw[f"{prefix}.ssm.D_fwd"])
    merged = (local + glob) * gate[:, None, None]
    out = channel_map(merged, aw[f"{prefix}.out_w"], aw[f"{prefix}.out_b"])
    return x + float(aw[f"{prefix}.gamma"].reshape(-1)[0]) * out


def joints(seq, w: Weights):
    aw = w.arrays
    x = conv3d(seq[None], aw["joints.conv1_w"], aw["joints.conv1_b"])
    x = gelu(x)
    d2, h2 = x.shape[1] // 2, x.shape[2] // 2
    x = x[:, :2 * d2, :2 * h2].reshape(x.shape[0], d2, 2, h2, 2, x.shape[3]).mean(axis=(2, 4))
    x = conv3d(x, aw["joints.conv2_w"], aw["joints.conv2_b"])
    mean, var = w.joint_stats
    x = (x - mean[:, None, None, None]) / np.sqrt(var + BN_EPS)[:, None, None, None]
    x = gelu(x * aw["joints.bn_scale"][:, None, None, None]
             + aw["joints.bn_shift"][:, None, None, None])
    x = adaptive_pool(x, (2, 2, 1)).reshape(-1)
    vec = x @ aw["joints.proj_w"] + aw["joints.proj_b"]
    return np.broadcast_to(vec[:, None, None], (w.channels, w.height, w.width)).copy()


def fusion(h1, h2, h3, w: Weights):
    """Per-task fused maps and the [tasks, 3] mean-gate telemetry."""
    aw = w.arrays
    ch, h, wd = h1.shape
    d = h * wd
    cat = np.concatenate([h1, h2, h3]).reshape(3 * ch, d)
    q, k, v = (aw[f"fusion.w{m}"].reshape(ch, 3 * ch) @ cat + aw[f"fusion.b{m}"][:, None]
               for m in "qkv")
    scores = q @ k.T / math.sqrt(d)
    scores = np.exp(scores - scores.max(axis=1, keepdims=True))
    shared = ((scores / scores.sum(axis=1, keepdims=True)) @ v).reshape(ch, h, wd)

    fused, telemetry = [], []
    for r, _ in enumerate(w.tasks):
        pre = shifted_sum_2d(shared, aw[f"fusion.gate{r}_w"], pad=1)     # [C, 3, H, W]
        pre = pre + aw[f"fusion.gate{r}_b"].reshape(ch, 3)[:, :, None, None]
        mean, var = (s.reshape(ch, 3)[:, :, None, None] for s in w.gate_stats[r])
        scale = aw[f"fusion.gate{r}_bn_scale"].reshape(ch, 3)[:, :, None, None]
        shift = aw[f"fusion.gate{r}_bn_shift"].reshape(ch, 3)[:, :, None, None]
        g = sigmoid((pre - mean) / np.sqrt(var + BN_EPS) * scale + shift)
        fused.append(h1 * g[:, 0] + h2 * g[:, 1] + h3 * g[:, 2])
        telemetry.append([g[:, i].mean() for i in range(3)])
    return fused, np.array(telemetry)


def forward(bundle, w: Weights):
    """Eval-mode logits per task and gate telemetry for one sample."""
    feats = []
    for prefix, views, ids in (("exterior", bundle.exterior, ("front", "left", "right")),
                               ("interior", bundle.interior, ("inside", "face", "body"))):
        x = stem(views, w, f"stem_{prefix}", ids)
        for i in range(w.block_depth):
            x = block(x, w, f"blocks_{prefix}.{i}")
        feats.append(x)
    feats.append(joints(bundle.joints.joints, w))
    fused, telemetry = fusion(*feats, w)
    logits = {}
    for r, task in enumerate(w.tasks):
        pooled = fused[r].mean(axis=(1, 2))
        logits[task] = pooled @ w.arrays[f"head_{task}.w"] + w.arrays[f"head_{task}.b"]
    return logits, telemetry


def cross_entropy(logits, label: int) -> float:
    top = logits.max()
    return float(top + math.log(np.exp(logits - top).sum()) - logits[label])
