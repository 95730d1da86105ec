"""Full network assembly: two image branches (stem + dual-path blocks), the
joint branch, the fusion stage, and one classifier head per active task.

Dropped modalities contribute an all-zero feature map and carry no
parameters; ablation flags swap fusion and scan behavior per the config.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from .blocks import BlockParams, StemParams, block_stack, init_block, \
    init_stem, stem, EXTERIOR_VIEWS, INTERIOR_VIEWS
from .config import ModelConfig
from .data import SampleBundle
from .errors import InputError
from .fusion import ConcatFuseParams, GateParams, ModalityFeatures, concat_fuse, \
    fuse_all, init_concat_fuse, init_gate_params
from .heads import HeadParams, head_forward, init_head
from .joints import JointBranchParams, init_joint_branch, joints_forward
from .ops import RunningStats, adaptive_avg_pool
from .serial import dump_tensor, load_tensor
from .tensor import Tensor, reshape, zeros


@dataclass
class ForwardResult:
    logits: Dict[str, Tensor]         # per task [N, K]; [K] from forward_sample
    telemetry: Optional[np.ndarray]   # mean gate weights [N, tasks, 3] ([tasks, 3]), or None


class Model:
    """Parameter container plus the batched forward pass."""

    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        rng = np.random.default_rng([config.seed, 0x5EED])
        c, h, w = config.channels, config.height, config.width
        t, n = config.frame_count, config.state_dim

        self.stem_exterior: Optional[StemParams] = None
        self.blocks_exterior: List[BlockParams] = []
        self.stem_interior: Optional[StemParams] = None
        self.blocks_interior: List[BlockParams] = []
        self.joint_branch: Optional[JointBranchParams] = None

        if "exterior" in config.active_modalities:
            self.stem_exterior = init_stem(EXTERIOR_VIEWS, t, c, h, w, rng)
            self.blocks_exterior = [init_block(c, t, h, w, n, rng)
                                    for _ in range(config.block_depth)]
        if "interior" in config.active_modalities:
            self.stem_interior = init_stem(INTERIOR_VIEWS, t, c, h, w, rng)
            self.blocks_interior = [init_block(c, t, h, w, n, rng)
                                    for _ in range(config.block_depth)]
        if "joints" in config.active_modalities:
            self.joint_branch = init_joint_branch(config.joint_count, c, h, w, rng)

        self.concat_params: Optional[ConcatFuseParams] = None
        self.gate_params: Optional[GateParams] = None
        if config.no_mgmi:
            self.concat_params = init_concat_fuse(c, rng)
        else:
            num_gates = 1 if config.no_multi_gating else len(config.active_tasks)
            self.gate_params = init_gate_params(
                c, rng, num_gates=num_gates,
                with_attention=not config.no_self_attention)

        self.heads: Dict[str, HeadParams] = {
            task: init_head(c, config.num_classes(task)) for task in config.active_tasks}

        self._params = self._collect_params()

    # -- parameter registry -------------------------------------------------

    def _collect_params(self) -> Dict[str, Tensor]:
        out: Dict[str, Tensor] = {}

        def register(prefix, tensors):
            for name, tensor in tensors.items():
                out[f"{prefix}.{name}"] = tensor

        if self.stem_exterior is not None:
            register("stem_exterior", self.stem_exterior.tensors())
            for i, b in enumerate(self.blocks_exterior):
                register(f"blocks_exterior.{i}", b.tensors())
        if self.stem_interior is not None:
            register("stem_interior", self.stem_interior.tensors())
            for i, b in enumerate(self.blocks_interior):
                register(f"blocks_interior.{i}", b.tensors())
        if self.joint_branch is not None:
            register("joints", self.joint_branch.tensors())
        if self.concat_params is not None:
            register("fusion", self.concat_params.tensors())
        if self.gate_params is not None:
            tensors = {k: v for k, v in self.gate_params.tensors().items()
                       if v is not None}
            register("fusion", tensors)
        for task, headp in self.heads.items():
            register(f"head_{task}", headp.tensors())
        return out

    def parameters(self) -> Dict[str, Tensor]:
        return self._params

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.grad = None

    def param_count(self) -> int:
        return sum(p.size for p in self._params.values())

    def param_breakdown(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for name, p in self._params.items():
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0) + p.size
        return out

    # -- forward ------------------------------------------------------------

    def _branch(self, views, stem_p, blocks) -> Tensor:
        feat = stem(views, stem_p)
        return block_stack(feat, blocks,
                           single_direction=self.config.no_dual_scan,
                           local_only=self.config.no_global_local)

    def _input_shapes(self, bundle: SampleBundle) -> List[tuple]:
        """(name, shape) of each array of ``bundle`` that the forward pass reads."""
        views = []
        if self.stem_exterior is not None:
            views += bundle.exterior
        if self.stem_interior is not None:
            views += bundle.interior
        shapes = [(v.view_id, v.frames.shape) for v in views]
        if self.joint_branch is not None:
            shapes.append(("joints", bundle.joints.joints.shape))
        return shapes

    def _check_batch(self, batch: Sequence[SampleBundle]) -> None:
        if not batch:
            raise InputError("forward: empty batch")
        first = dict(self._input_shapes(batch[0])) if len(batch) > 1 else {}
        for i, bundle in enumerate(batch[1:], start=1):
            for name, shape in self._input_shapes(bundle):
                want = first.get(name, shape)   # a missing view is the stem's to name
                if shape != want:
                    raise InputError(
                        f"forward: sample {i} ({bundle.sample_id or 'unnamed'}) has "
                        f"{name} {list(shape)}, not {list(want)} as the batch's first")

    def forward(self, batch: Sequence[SampleBundle], train: bool = False) -> ForwardResult:
        """One forward pass over a batch of samples whose arrays share their
        shapes; every op carries the batch on axis 0."""
        self._check_batch(batch)
        cfg = self.config
        shape = (len(batch), cfg.channels, cfg.height, cfg.width)

        if self.stem_exterior is not None:
            h1 = self._branch([b.exterior for b in batch], self.stem_exterior,
                              self.blocks_exterior)
        else:
            h1 = zeros(shape)
        if self.stem_interior is not None:
            h2 = self._branch([b.interior for b in batch], self.stem_interior,
                              self.blocks_interior)
        else:
            h2 = zeros(shape)
        if self.joint_branch is not None:
            h3 = joints_forward([b.joints for b in batch], self.joint_branch, train=train)
        else:
            h3 = zeros(shape)

        m = ModalityFeatures(h1, h2, h3)
        telemetry = None
        if self.concat_params is not None:
            fused = concat_fuse(m, self.concat_params)
            feats = [reshape(adaptive_avg_pool(fused, (1, 1)), shape[:2])] * len(self.heads)
        else:
            feats, telemetry = fuse_all(m, self.gate_params, train=train,
                                        num_tasks=len(self.heads))
        logits = {task: head_forward(feat, p)
                  for (task, p), feat in zip(self.heads.items(), feats)}
        return ForwardResult(logits=logits, telemetry=telemetry)

    def forward_sample(self, bundle: SampleBundle, train: bool = False) -> ForwardResult:
        """``forward`` on a batch of one, without the batch axis: logits [K]
        per task and telemetry [tasks, 3]."""
        out = self.forward([bundle], train=train)
        return ForwardResult(
            logits={task: reshape(lg, lg.shape[1:]) for task, lg in out.logits.items()},
            telemetry=None if out.telemetry is None else out.telemetry[0])

    # -- weight dump / load --------------------------------------------------

    def _running_stats(self) -> Dict[str, RunningStats]:
        """Batch-norm running statistics by checkpoint name: state that eval
        mode reads, kept out of ``parameters()`` and so out of the optimizer."""
        out = {}
        if self.joint_branch is not None:
            out["joints.bn"] = self.joint_branch.bn_stats
        for r, stats in enumerate(self.gate_params.bn_stats if self.gate_params else []):
            out[f"fusion.gate{r}_bn"] = stats
        return out

    def _checkpoint(self) -> Dict[str, np.ndarray]:
        out = {name: p.data for name, p in self._params.items()}
        for name, stats in self._running_stats().items():
            out[name + ".running_mean"], out[name + ".running_var"] = stats.mean, stats.var
        return out

    def save_weights(self, directory) -> None:
        """One float32 ``T3TN`` file per parameter and per running statistic."""
        d = Path(directory)
        for name, data in self._checkpoint().items():
            dump_tensor(data, d / (name + ".t3tn"))

    def load_weights(self, directory) -> None:
        """Read what ``save_weights`` wrote; nothing changes unless every file loads."""
        d = Path(directory)
        loaded = {}
        for name, data in self._checkpoint().items():
            path = d / (name + ".t3tn")
            loaded[name] = load_tensor(path)
            if loaded[name].shape != data.shape:
                raise InputError(f"{path}: stored shape {loaded[name].shape}, "
                                 f"the model's {data.shape}")
        for name, p in self._params.items():
            p.data = loaded[name]
        for name, stats in self._running_stats().items():
            stats.mean, stats.var = loaded[name + ".running_mean"], loaded[name + ".running_var"]


def count_params(config: ModelConfig):
    """Exact learnable-scalar count plus the per-module breakdown."""
    model = Model(config)
    return model.param_count(), model.param_breakdown()
