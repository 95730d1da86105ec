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
from .tensor import Tape, backward


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
    specs = model.task_specs
    logits = [result.logits[s.task_id] for s in specs]
    labels = [[bundle.labels[s.task_id] for bundle in batch] for s in specs]
    loss = total_loss(logits, labels, specs)
    telemetry = None if result.telemetry is None else result.telemetry.mean(axis=0)
    return loss, telemetry


def evaluate(model: Model, samples: List[SampleBundle]) -> TaskMetrics:
    """Accuracy, per-task mean loss, and mean gate telemetry over a sample set."""
    specs = model.task_specs
    preds: Dict[str, List[int]] = {s.task_id: [] for s in specs}
    labels: Dict[str, List[int]] = {s.task_id: [] for s in specs}
    task_losses = {s.task_id: 0.0 for s in specs}
    tele = []
    started = time.perf_counter()
    for bundle in samples:
        result = model.forward_sample(bundle, train=False)
        for s in specs:
            lg = result.logits[s.task_id].data
            y = bundle.labels[s.task_id]
            preds[s.task_id].append(int(np.argmax(lg)))
            labels[s.task_id].append(int(y))
            z = lg - lg.max()
            task_losses[s.task_id] += float(math.log(np.exp(z).sum()) - z[int(y)])
        if result.telemetry is not None:
            tele.append(result.telemetry)
    elapsed = time.perf_counter() - started
    metrics = compute_metrics(preds, labels)
    n = len(samples)
    metrics.fps = n / elapsed if elapsed > 0 else float("nan")
    metrics.loss = {t: v / n for t, v in task_losses.items()}
    metrics.loss_total = sum(metrics.loss.values())
    if tele:
        # always a 4x3 matrix in task order; dropped tasks stay nan
        full = np.full((len(TASKS), 3), float("nan"))
        mean_tele = np.mean(tele, axis=0)
        for i, s in enumerate(specs):
            full[TASKS.index(s.task_id)] = mean_tele[i]
        metrics.gate_telemetry = full
    else:
        metrics.gate_telemetry = None
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
    log_fh = open(log_path, "w") if log_path else None

    try:
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
                if log_fh:
                    log_fh.write(format_metrics_record(metrics) + "\n")
                    log_fh.flush()
    finally:
        if log_fh:
            log_fh.close()
    return result
