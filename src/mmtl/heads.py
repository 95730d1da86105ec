"""Per-task classification heads (linear maps of the pooled [N, C] features
that ``fusion.fuse_all`` returns), the summed cross-entropy training loss, and
accuracy metrics with their serialization format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from .config import TASKS
from .errors import ArgumentError, InputError
from .ops import cross_entropy, linear
from .tensor import Tensor, add, param


@dataclass
class HeadParams:
    weight: Tensor  # [C, K]
    bias: Tensor    # [K]

    def tensors(self):
        return {"w": self.weight, "b": self.bias}


def init_head(channels: int, num_classes: int) -> HeadParams:
    # zero init: every class starts at uniform probability
    return HeadParams(weight=param(np.zeros((channels, num_classes))),
                      bias=param(np.zeros(num_classes)))


def head_forward(feature: Tensor, p: HeadParams) -> Tensor:
    """Linear classifier on a pooled feature: [N, C] -> logits [N, K]."""
    return linear(feature, p.weight, p.bias)


def total_loss(logits: Sequence[Tensor], labels: Sequence[Sequence[int]],
               tasks: Sequence[str]) -> Tensor:
    """Mean over the batch of the unweighted sum of per-task cross-entropies:
    logits[i] is task tasks[i]'s [N, K] and labels[i] its N labels."""
    if not len(logits) == len(labels) == len(tasks):
        raise ArgumentError(f"{len(logits)} logit matrices, {len(labels)} label lists "
                            f"and {len(tasks)} tasks")
    for task, lg, ys in zip(tasks, logits, labels):
        k = lg.shape[1]
        bad = [int(y) for y in ys if not 0 <= int(y) < k]
        if bad:
            raise InputError(f"{task}: label {bad[0]} out of range for {k} classes")
    out = cross_entropy(logits[0], labels[0])
    for lg, ys in zip(logits[1:], labels[1:]):
        out = add(out, cross_entropy(lg, ys))
    return out


def mean_accuracy(per_task: Sequence[float]) -> float:
    """Arithmetic mean of the per-task accuracies."""
    if not per_task:
        raise ArgumentError("mean_accuracy: empty accuracy list")
    return float(sum(per_task)) / len(per_task)


@dataclass
class TaskMetrics:
    accuracy: Dict[str, float]                    # per-task fraction in [0, 1]
    macc: float = field(init=False)
    loss: Dict[str, float] = field(default_factory=dict)
    loss_total: float = float("nan")
    gate_telemetry: Optional[np.ndarray] = None   # [tasks, modalities]
    param_count: int = 0
    fps: float = float("nan")
    epoch: int = 0

    def __post_init__(self):
        for t, a in self.accuracy.items():
            if not 0.0 <= a <= 1.0:
                raise ArgumentError(f"accuracy for {t} outside [0, 1]: {a}")
        self.macc = mean_accuracy(list(self.accuracy.values()))


def compute_metrics(predictions: Dict[str, Sequence[int]],
                    labels: Dict[str, Sequence[int]]) -> TaskMetrics:
    """Per-task accuracy and their mean over equal-length prediction streams."""
    acc = {}
    for task, preds in predictions.items():
        ys = labels[task]
        if len(preds) != len(ys):
            raise ArgumentError(f"{task}: {len(preds)} predictions vs {len(ys)} labels")
        if len(preds) == 0:
            raise ArgumentError(f"{task}: empty prediction stream")
        correct = sum(1 for p, y in zip(preds, ys) if int(p) == int(y))
        acc[task] = correct / len(preds)
    if not acc:
        raise ArgumentError("no tasks in prediction set")
    return TaskMetrics(accuracy=acc)


def format_metrics_record(m: TaskMetrics) -> str:
    """One line of the structured-text metrics log, fixed field order."""
    parts = [f"epoch={m.epoch}", f"loss_total={m.loss_total:.6f}"]
    for task in TASKS:
        parts.append(f"loss_{task}={m.loss.get(task, float('nan')):.6f}")
    for task in TASKS:
        parts.append(f"acc_{task}={m.accuracy.get(task, float('nan')):.6f}")
    parts.append(f"macc={m.macc:.6f}")
    tele = m.gate_telemetry
    if tele is None:
        tele = np.full((4, 3), float("nan"))
    parts.append("gate_telemetry=" + ",".join(f"{v:.6f}" for v in np.asarray(tele).reshape(-1)))
    parts.append(f"param_count={m.param_count}")
    parts.append(f"fps={m.fps:.3f}")
    return " ".join(parts)


def parse_metrics_record(line: str) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for chunk in line.split():
        key, _, value = chunk.partition("=")
        if key == "gate_telemetry":
            out[key] = np.array([float(v) for v in value.split(",")]).reshape(4, 3)
        elif key in ("epoch", "param_count"):
            out[key] = int(value)
        else:
            out[key] = float(value)
    return out
