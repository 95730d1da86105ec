"""Toy training loop on synthetic data: full pipeline forward, summed
cross-entropy loss, SGD steps, and periodic evaluation with metrics records.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .config import TASKS, ModelConfig
from .data import SampleBundle, SyntheticRecipe, generate_synthetic
from .errors import ArgumentError, TrainingDiverged
from .heads import TaskMetrics, compute_metrics, format_metrics_record, total_loss
from .model import Model
from .optim import OptimizerState, sgd_step
from .serial import write_file
from .tensor import Tape, Tensor, backward


@dataclass
class TrainResult:
    model: Model
    records: List[TaskMetrics] = field(default_factory=list)
    initial_loss: float = float("nan")
    final_loss: float = float("nan")

    @property
    def final_metrics(self) -> TaskMetrics:
        return self.records[-1]


def batch_loss(model: Model, batch: List[SampleBundle], train: bool = True):
    """Mean summed-cross-entropy loss over a batch from one batched forward;
    returns (loss, telemetry averaged over the batch)."""
    result = model.forward(batch, train=train)
    tasks = model.config.active_tasks
    logits = [result.logits[t] for t in tasks]
    labels = [[bundle.labels[t] for bundle in batch] for t in tasks]
    loss = total_loss(logits, labels, tasks)
    telemetry = None if result.telemetry is None else result.telemetry.mean(axis=0)
    return loss, telemetry


def evaluate(model: Model, samples: List[SampleBundle]) -> TaskMetrics:
    """Accuracy, per-task mean loss, and mean gate telemetry over a sample set,
    from one pass over ``samples`` with one forward per sample. Each task's
    loss is ``total_loss`` on its stacked logits; no tape is open, so nothing
    is recorded."""
    tasks = model.config.active_tasks
    logits: Dict[str, List[np.ndarray]] = {t: [] for t in tasks}
    labels: Dict[str, List[int]] = {t: [] for t in tasks}
    tele = []
    started = time.perf_counter()
    for bundle in samples:
        result = model.forward_sample(bundle, train=False)
        for t in tasks:
            logits[t].append(result.logits[t].data)
            labels[t].append(bundle.labels[t])
        if result.telemetry is not None:
            tele.append(result.telemetry)
    elapsed = time.perf_counter() - started
    n = len(labels[tasks[0]])
    if n == 0:
        raise ArgumentError("evaluate: empty sample set")
    stacked = {t: np.stack(logits[t]) for t in tasks}
    metrics = compute_metrics({t: np.argmax(lg, axis=1) for t, lg in stacked.items()}, labels)
    metrics.fps = n / elapsed if elapsed > 0 else float("nan")
    metrics.loss = {t: total_loss([Tensor(stacked[t])], [labels[t]], [t]).item()
                    for t in tasks}
    metrics.loss_total = sum(metrics.loss.values())
    if tele:
        # always a 4x3 matrix in task order; dropped tasks stay nan
        full = np.full((len(TASKS), 3), float("nan"))
        full[[TASKS.index(t) for t in tasks]] = np.mean(tele, axis=0)
        metrics.gate_telemetry = full
    metrics.param_count = model.param_count()
    return metrics


def run_toy_training(config: ModelConfig, recipe: SyntheticRecipe, steps: int,
                     batch_size: int = 8, train_count: int = 256,
                     val_count: int = 256, eval_every: Optional[int] = None,
                     log_path: Optional[str] = None) -> TrainResult:
    """Train on a fresh synthetic set; deterministic for a fixed config seed."""
    if steps < 1:
        raise ArgumentError(f"steps: must be at least 1, got {steps}")
    if not 1 <= batch_size <= train_count:
        raise ArgumentError(f"batch_size: must lie in [1, train_count={train_count}], "
                            f"got {batch_size}")
    model = Model(config)
    train_set = list(generate_synthetic(recipe, train_count, config.seed, config))
    val_set = list(generate_synthetic(recipe, val_count, config.seed + 1, config))
    opt = OptimizerState(base_lr=config.base_lr, momentum=config.momentum,
                         weight_decay=config.weight_decay)
    rng = np.random.default_rng([config.seed, 0xBA7C4])
    eval_every = eval_every or max(1, steps // 4)
    result = TrainResult(model=model)
    if log_path:
        write_file(log_path)    # an unwritable log fails before the first step

    for step in range(steps):
        idx = rng.choice(len(train_set), size=batch_size, replace=False)
        batch = [train_set[i] for i in idx]
        model.zero_grad()
        with Tape() as tape:
            loss, _ = batch_loss(model, batch, train=True)
        loss_val = loss.item()
        if not math.isfinite(loss_val):
            raise TrainingDiverged(f"non-finite loss at step {step}")
        if step == 0:
            result.initial_loss = loss_val
        backward(tape, loss)
        opt.epoch = (step * batch_size) // train_count
        sgd_step(opt, model.parameters())
        result.final_loss = loss_val

        if (step + 1) % eval_every == 0 or step == steps - 1:
            metrics = evaluate(model, val_set)
            metrics.epoch = opt.epoch
            result.records.append(metrics)
            if log_path:    # rewritten whole, so a run that diverges keeps its records
                write_file(log_path, *(f"{format_metrics_record(m)}\n".encode()
                                       for m in result.records))
    return result
