"""SGD with momentum and coupled weight decay, plus the step-down learning
rate schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .errors import TrainingDiverged
from .tensor import Tensor


def lr_for_epoch(epoch: int, base_lr: float) -> float:
    """Base rate through epoch 24, halved through epoch 50, then base/20."""
    if epoch < 25:
        return base_lr
    if epoch <= 50:
        return base_lr * 0.5
    return base_lr * 0.05


@dataclass
class OptimizerState:
    base_lr: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 1e-4
    epoch: int = 0
    velocity: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def lr(self) -> float:
        return lr_for_epoch(self.epoch, self.base_lr)


def sgd_step(state: OptimizerState, params: Dict[str, Tensor]) -> None:
    """v <- momentum*v + g + wd*w;  w <- w - lr*v. Parameters without a
    gradient this step are skipped; a non-finite gradient anywhere rejects the
    whole step before anything changes."""
    lr = state.lr
    step = []
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient in parameter '{name}'")
        step.append((name, p, g))
    for name, p, g in step:
        v = state.velocity.get(name)
        if v is None:
            v = np.zeros_like(p.data)
        v = state.momentum * v + g + state.weight_decay * p.data
        state.velocity[name] = v
        p.data = p.data - lr * v

