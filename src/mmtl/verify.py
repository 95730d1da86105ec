"""Module-level gradient verification: scalar probe losses through each
network component, checked against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from . import ops
from .blocks import dual_path_block, init_block, init_stem, stem, ViewSequence, \
    EXTERIOR_VIEWS
from .config import ModelConfig
from .errors import ArgumentError
from .fusion import ModalityFeatures, fuse_all, init_gate_params
from .gradcheck import check_gradients
from .heads import init_head, head_forward, total_loss
from .joints import JointSequence, init_joint_branch, joints_forward
from .ssm import ScanDirection, compute_gate, init_transition, scan
from .tensor import Tensor, add, concat, mul, param, tsum

MODULE_SELECTORS = ("tensor-core", "ssm", "stem", "block", "joints",
                    "fusion", "heads")


@dataclass
class CheckReport:
    module: str
    errors: Dict[str, float]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(v < self.tolerance for v in self.errors.values())

    def lines(self) -> str:
        rows = [f"[{'PASS' if self.passed else 'FAIL'}] {self.module} "
                f"(tol {self.tolerance:g})"]
        for name, err in sorted(self.errors.items()):
            mark = "ok  " if err < self.tolerance else "FAIL"
            rows.append(f"    {mark} {name:<28s} max rel err {err:.3e}")
        return "\n".join(rows)


def _toy_config(seed: int) -> ModelConfig:
    return ModelConfig(frame_count=4, channels=24, height=4, width=4,
                       view_height=8, view_width=8, state_dim=2,
                       block_depth=1, joint_count=5, seed=seed)


BATCH = 2   # samples in every probe, so a backward that mixes samples fails


def _check_tensor_core(rng, corrupt):
    """Full per-element probes of the core ops (they are small), each on a
    batch of BATCH samples and read through a random weighting, so every
    sample's output reaches the loss with its own weights. ``corrupt`` names a
    probe-local tensor, such as ``x`` or ``w``, whose analytic gradient is
    perturbed in every probe that has one."""
    n = BATCH
    errors = {}

    def probe(name, out_fn, tensors):
        weights = rng.normal(size=out_fn().shape)
        errors.update({f"{name}.{k}": v for k, v in check_gradients(
            lambda: _weighted_sum(out_fn(), weights), tensors, corrupt=corrupt).items()})

    x = param(rng.normal(size=(n, 4, 3)))
    w = param(rng.normal(size=(4, 2)))
    b = param(rng.normal(size=(2,)))
    probe("matmul", lambda: ops.linear(x, w, b), {"x": x, "w": w, "b": b})

    xc = param(rng.normal(size=(n, 2, 6, 6)))
    wc = param(rng.normal(size=(3, 2, 3, 3)))
    bc = param(rng.normal(size=(3,)))
    probe("conv2d", lambda: ops.convolve(xc, wc, bc, padding=1),
          {"x": xc, "w": wc, "b": bc})

    xd = param(rng.normal(size=(n, 3, 5, 5)))
    wd = param(rng.normal(size=(3, 2, 3, 2)))      # a non-square kernel
    bd = param(rng.normal(size=(6,)))
    probe("depthwise", lambda: ops.depthwise_conv2d(xd, wd, bd, padding=1),
          {"x": xd, "w": wd, "b": bd})

    xw = param(rng.normal(size=(n, 6, 3, 3)))      # the stem's frame groups, G=2
    ww = param(rng.normal(size=(2, 4, 3)))
    bw = param(rng.normal(size=(8,)))
    probe("grouped_pointwise", lambda: ops.grouped_pointwise(xw, ww, bw),
          {"x": xw, "w": ww, "b": bw})

    x1 = param(rng.normal(size=(n, 16, 24)))       # the block's [N, L, C] layout
    w1 = param(rng.normal(size=(16, 16, 3)))
    b1 = param(rng.normal(size=(16,)))
    probe("conv1d", lambda: ops.convolve(x1, w1, b1, padding=1), {"x": x1, "w": w1, "b": b1})

    x3 = param(rng.normal(size=(n, 1, 16, 17, 3)))  # the joints' [N, 1, T, J, 3] volume
    w3 = param(rng.normal(size=(2, 1, 3, 3, 3)))
    b3 = param(rng.normal(size=(2,)))
    probe("conv3d_pool", lambda: ops.avg_pool(ops.convolve(x3, w3, b3, padding=1), (2, 2, 1),
                                              stride=(2, 2, 1)), {"x": x3, "w": w3, "b": b3})

    xp = param(rng.normal(size=(n, 2, 6, 6)))
    probe("pool", lambda: ops.adaptive_avg_pool(ops.avg_pool(xp, 3, stride=1, padding=1),
                                                (2, 2)), {"x": xp})
    xq = param(rng.normal(size=(n, 2, 9, 7)))
    probe("pool_s2", lambda: ops.avg_pool(xq, 3, stride=2, padding=1), {"x": xq})

    xg = param(rng.normal(size=(n, 2, 7, 7)))      # the block's global path
    probe("pool_global", lambda: ops.expand_bins(ops.adaptive_avg_pool(xg, (3, 3)), (7, 7)),
          {"x": xg})

    xa = param(rng.normal(size=(n, 2, 5)))
    probe("activations", lambda: ops.softmax(ops.gelu(ops.sigmoid(xa)), axis=2), {"x": xa})

    xb = param(rng.normal(size=(n, 4, 3, 3)))
    sc = param(rng.normal(size=(4,)))
    sh = param(rng.normal(size=(4,)))
    probe("batchnorm", lambda: ops.batchnorm(xb, sc, sh, ops.RunningStats(4), train=True),
          {"x": xb, "scale": sc, "shift": sh})
    return errors


def _weighted_sum(t: Tensor, probe: np.ndarray) -> Tensor:
    return tsum(mul(t, Tensor(probe)))


def gradcheck_run(selector: str, tolerance: float = 1e-4, seed: int = 0,
                  max_elements: Optional[int] = 6,
                  corrupt: Optional[str] = None) -> List[CheckReport]:
    """Finite-difference checks for one module (or 'all'); one report each."""
    if seed < 0:
        raise ArgumentError(f"seed: must be non-negative, got {seed}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ArgumentError(f"tolerance: must be finite and positive, got {tolerance}")
    selectors = MODULE_SELECTORS if selector == "all" else (selector,)
    for s in selectors:
        if s not in MODULE_SELECTORS:
            raise ArgumentError(
                f"unknown module '{s}'; choose from {MODULE_SELECTORS} or 'all'")
    reports = []
    for s in selectors:
        rng = np.random.default_rng([seed, MODULE_SELECTORS.index(s)])
        cfg = _toy_config(seed)
        kw = dict(max_elements=max_elements, rng=rng, corrupt=corrupt)
        if s == "tensor-core":
            errors = _check_tensor_core(rng, corrupt)
        elif s == "ssm":
            # 5 parameter rows against 3 channels of x: the scan reads and
            # trains the leading rows, the gate all of them, as in a block
            ssm_p = {"A": init_transition(5, 2, rng), "B": param(rng.normal(size=(5, 2))),
                     "C": param(rng.normal(size=(5, 2))), "D": param(rng.normal(size=5))}
            x = param(rng.normal(size=(BATCH, 4, 3, 5)))
            probe_y, probe_g = rng.normal(size=x.shape), rng.normal(size=5)

            def ssm_probe():
                y = _weighted_sum(scan(x, **ssm_p, direction=ScanDirection.BACKWARD), probe_y)
                return add(y, _weighted_sum(compute_gate(**ssm_p), probe_g))

            errors = check_gradients(ssm_probe, {"x": x, **ssm_p}, **kw)
        elif s == "stem":
            sp = init_stem(EXTERIOR_VIEWS, cfg.frame_count, cfg.channels,
                           cfg.height, cfg.width, rng)
            views = [[ViewSequence(v, rng.random(
                (cfg.frame_count, 3, cfg.view_height, cfg.view_width)))
                for v in EXTERIOR_VIEWS] for _ in range(BATCH)]
            probe = rng.normal(size=(BATCH, cfg.channels, cfg.height, cfg.width))
            errors = check_gradients(
                lambda: _weighted_sum(stem(views, sp), probe), sp.tensors(), **kw)
        elif s == "block":
            bp = init_block(cfg.channels, cfg.frame_count, cfg.height, cfg.width,
                            cfg.state_dim, rng)
            x = param(rng.normal(size=(BATCH, cfg.channels, cfg.height, cfg.width)))
            probe = rng.normal(size=x.shape)
            errors = check_gradients(
                lambda: _weighted_sum(dual_path_block(x, bp), probe),
                {"x": x, **bp.tensors()}, **kw)
        elif s == "joints":
            jp = init_joint_branch(cfg.joint_count, cfg.channels, cfg.height,
                                   cfg.width, rng)
            seqs = [JointSequence(rng.random((cfg.frame_count, cfg.joint_count, 3)))
                    for _ in range(BATCH)]
            probe = rng.normal(size=(BATCH, cfg.channels, cfg.height, cfg.width))
            errors = check_gradients(
                lambda: _weighted_sum(joints_forward(seqs, jp), probe),
                jp.tensors(), **kw)
        elif s == "fusion":
            gp = init_gate_params(6, rng)
            m = ModalityFeatures(*(param(rng.normal(size=(BATCH, 6, 3, 3)))
                                   for _ in range(3)))
            # each task's feature has its own weighting, so every gate unit reaches the loss
            probe = rng.normal(size=(BATCH, 6 * gp.num_gates))
            errors = check_gradients(
                lambda: _weighted_sum(concat(fuse_all(m, gp)[0], axis=1), probe),
                {"h1": m.h1, "h2": m.h2, "h3": m.h3, **gp.tensors()}, **kw)
        elif s == "heads":
            hp = init_head(6, 3)
            hp.weight.data = rng.normal(size=hp.weight.shape)
            hp.bias.data = rng.normal(size=hp.bias.shape)
            feat = param(rng.normal(size=(BATCH, 6)))
            errors = check_gradients(
                lambda: total_loss([head_forward(feat, hp)], [[1, 2]], ["der"]),
                {"feat": feat, **hp.tensors()}, **kw)
        reports.append(CheckReport(module=s, errors=errors, tolerance=tolerance))
    return reports
