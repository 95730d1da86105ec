"""Module-level gradient verification: scalar probe losses through each
network component, checked against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from . import ops
from .blocks import dual_path_block, init_block, init_stem, stem, ViewSequence, \
    EXTERIOR_VIEWS
from .config import ModelConfig
from .errors import ArgumentError
from .fusion import ModalityFeatures, init_gate_params, shared_attention, task_fuse
from .gradcheck import check_gradients
from .heads import init_head, head_forward, total_loss, TaskSpec
from .joints import JointSequence, init_joint_branch, joints_forward
from .ssm import ScanDirection, compute_gate, init_ssm_params, scan
from .tensor import Tensor, param, tsum

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

    @property
    def failures(self) -> List[str]:
        return [k for k, v in self.errors.items() if v >= self.tolerance]

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


def _check_tensor_core(rng, tol, max_elements):
    errors = {}
    x = param(rng.normal(size=(3, 4)))
    w = param(rng.normal(size=(4, 2)))
    errors.update({f"matmul.{k}": v for k, v in check_gradients(
        lambda: tsum(ops.linear(x, w)), {"x": x, "w": w}).items()})

    xc = param(rng.normal(size=(2, 6, 6)))
    wc = param(rng.normal(size=(3, 2, 3, 3)))
    bc = param(rng.normal(size=(3,)))
    errors.update({f"conv2d.{k}": v for k, v in check_gradients(
        lambda: tsum(ops.convolve(xc, wc, bc, stride=2, padding=1)),
        {"x": xc, "w": wc, "b": bc}).items()})

    xd = param(rng.normal(size=(3, 5, 5)))
    wd = param(rng.normal(size=(3, 2, 3, 3)))
    errors.update({f"depthwise.{k}": v for k, v in check_gradients(
        lambda: tsum(ops.depthwise_conv2d(xd, wd, padding=1)),
        {"x": xd, "w": wd}).items()})

    xs = param(rng.normal(size=(5, 9, 8)))
    ws = param(rng.normal(size=(5, 2, 3, 2)))
    ps = rng.normal(size=(10, 5, 5))
    errors.update({f"depthwise_s2.{k}": v for k, v in check_gradients(
        lambda: _weighted_sum(ops.depthwise_conv2d(xs, ws, stride=2, padding=1), ps),
        {"x": xs, "w": ws}).items()})

    x1 = param(rng.normal(size=(16, 24)))          # the block's [L, C] layout
    w1 = param(rng.normal(size=(16, 16, 3)))
    p1 = rng.normal(size=(16, 24))
    errors.update({f"conv1d.{k}": v for k, v in check_gradients(
        lambda: _weighted_sum(ops.convolve(x1, w1, padding=1), p1),
        {"x": x1, "w": w1}).items()})

    x3 = param(rng.normal(size=(1, 16, 17, 3)))    # the joints' [1, T, J, 3] volume
    w3 = param(rng.normal(size=(2, 1, 3, 3, 3)))
    p3 = rng.normal(size=(2, 8, 8, 3))
    errors.update({f"conv3d_pool.{k}": v for k, v in check_gradients(
        lambda: _weighted_sum(ops.avg_pool(ops.convolve(x3, w3, padding=1), (2, 2, 1),
                                           stride=(2, 2, 1)), p3),
        {"x": x3, "w": w3}).items()})

    xp = param(rng.normal(size=(2, 6, 6)))
    errors.update({f"pool.{k}": v for k, v in check_gradients(
        lambda: tsum(ops.adaptive_avg_pool(ops.avg_pool(xp, 3, stride=1, padding=1),
                                           (2, 2))), {"x": xp}).items()})
    xq = param(rng.normal(size=(2, 9, 7)))
    pq = rng.normal(size=(2, 5, 4))
    errors.update({f"pool_s2.{k}": v for k, v in check_gradients(
        lambda: _weighted_sum(ops.avg_pool(xq, 3, stride=2, padding=1), pq),
        {"x": xq}).items()})

    xa = param(rng.normal(size=(2, 5)))
    errors.update({f"activations.{k}": v for k, v in check_gradients(
        lambda: tsum(ops.softmax(ops.gelu(ops.sigmoid(xa)), axis=1)),
        {"x": xa}).items()})

    xb = param(rng.normal(size=(4, 3, 3)))
    sc = param(rng.normal(size=(4,)))
    sh = param(rng.normal(size=(4,)))

    def bn_probe():
        return tsum(ops.batchnorm(xb, sc, sh, ops.RunningStats(4), train=True))

    errors.update({f"batchnorm.{k}": v for k, v in check_gradients(
        bn_probe, {"x": xb, "scale": sc, "shift": sh}).items()})
    return errors


def _weighted_sum(t: Tensor, probe: np.ndarray) -> Tensor:
    from .tensor import mul

    return tsum(mul(t, Tensor(probe)))


def gradcheck_run(selector: str, tolerance: float = 1e-4, seed: int = 0,
                  max_elements: Optional[int] = 6,
                  corrupt: Optional[str] = None) -> List[CheckReport]:
    """Finite-difference checks for one module (or 'all'); one report each."""
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
            errors = _check_tensor_core(rng, tolerance, max_elements)
        elif s == "ssm":
            p = init_ssm_params(3, 2, rng)
            x = param(rng.normal(size=(4, 3, 5)))

            def ssm_probe():
                from .tensor import add

                y = tsum(scan(x, p, ScanDirection.BACKWARD))
                return add(y, tsum(compute_gate(p)))

            errors = check_gradients(ssm_probe, {"x": x, **p.tensors()}, **kw)
        elif s == "stem":
            sp = init_stem(EXTERIOR_VIEWS, cfg.frame_count, cfg.channels,
                           cfg.height, cfg.width, rng)
            views = [ViewSequence(v, rng.random(
                (cfg.frame_count, 3, cfg.view_height, cfg.view_width)))
                for v in EXTERIOR_VIEWS]
            probe = rng.normal(size=(cfg.channels, cfg.height, cfg.width))
            errors = check_gradients(
                lambda: _weighted_sum(stem(views, sp), probe), sp.tensors(), **kw)
        elif s == "block":
            bp = init_block(cfg.channels, cfg.frame_count, cfg.height, cfg.width,
                            cfg.state_dim, rng)
            x = param(rng.normal(size=(cfg.channels, cfg.height, cfg.width)))
            probe = rng.normal(size=x.shape)
            errors = check_gradients(
                lambda: _weighted_sum(dual_path_block(x, bp), probe),
                {"x": x, **bp.tensors()}, **kw)
        elif s == "joints":
            jp = init_joint_branch(cfg.joint_count, cfg.channels, cfg.height,
                                   cfg.width, rng)
            seq = JointSequence(rng.random((cfg.frame_count, cfg.joint_count, 3)))
            probe = rng.normal(size=(cfg.channels, cfg.height, cfg.width))
            errors = check_gradients(
                lambda: _weighted_sum(joints_forward(seq, jp), probe),
                jp.tensors(), **kw)
        elif s == "fusion":
            gp = init_gate_params(6, rng)
            m = ModalityFeatures(param(rng.normal(size=(6, 3, 3))),
                                 param(rng.normal(size=(6, 3, 3))),
                                 param(rng.normal(size=(6, 3, 3))))

            probe = rng.normal(size=(6, 3, 3))

            def fusion_probe():
                sf = shared_attention(m, gp)
                out = task_fuse(m, sf, gp, 0, train=True)
                return _weighted_sum(out, probe)

            errors = check_gradients(
                fusion_probe, {"h1": m.h1, "h2": m.h2, "h3": m.h3, **gp.tensors()},
                **kw)
        elif s == "heads":
            hp = init_head(6, 3)
            hp.weight.data = rng.normal(size=hp.weight.shape)
            hp.bias.data = rng.normal(size=hp.bias.shape)
            feat = param(rng.normal(size=(6, 3, 3)))

            def head_probe():
                logits = head_forward(feat, hp)
                return total_loss([logits], [1], [TaskSpec("der", 3)])

            errors = check_gradients(
                head_probe, {"feat": feat, **hp.tensors()}, **kw)
        reports.append(CheckReport(module=s, errors=errors, tolerance=tolerance))
    return reports
