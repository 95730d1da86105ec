"""Ablation sweeps: build config variants, count their parameters, train each
briefly on the same synthetic benchmark, and compare final mean accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from .config import MODALITIES, ModelConfig
from .data import SyntheticRecipe
from .errors import ConfigError
from .model import count_params
from .train import run_toy_training

ABLATION_FLAGS = ("no_mgmi", "no_dual_scan", "no_global_local",
                  "no_self_attention", "no_multi_gating")


@dataclass
class VariantResult:
    name: str
    param_count: int
    macc: float
    accuracy: Dict[str, float]


TASK_GROUP_VARIANTS = {
    "driver_tasks_only": ("tcr", "vbr"),     # keep der + dbr
    "traffic_tasks_only": ("der", "dbr"),    # keep tcr + vbr
}


def variant_config(base: ModelConfig, name: str) -> ModelConfig:
    """'full', one of the no_* flags, '<modality>_only', or a task-group cut."""
    if name == "full":
        return base
    if name in ABLATION_FLAGS:
        return base.replace(**{name: True})
    if name in TASK_GROUP_VARIANTS:
        return base.replace(drop_tasks=TASK_GROUP_VARIANTS[name])
    if name.endswith("_only"):
        keep = name[:-len("_only")]
        if keep not in MODALITIES:
            raise ConfigError(f"unknown modality variant '{name}'")
        dropped = tuple(m for m in MODALITIES if m != keep)
        return base.replace(drop_modalities=dropped)
    raise ConfigError(f"unknown ablation variant '{name}'")


def run_ablation(base: ModelConfig, variants: Sequence[str], recipe: SyntheticRecipe,
                 steps: int = 400) -> List[VariantResult]:
    """Train each variant on the same recipe, 8 samples a step from 192, and
    score it on 128 more. Under ``negative_transfer_recipe``'s wrong-label
    decoys, gate-based fusion needs enough steps to shut them off, so short
    runs understate it."""
    results = []
    for name in variants:
        cfg = variant_config(base, name)
        total, _ = count_params(cfg)
        out = run_toy_training(cfg, recipe, steps=steps, batch_size=8, train_count=192,
                               val_count=128, eval_every=steps)
        final = out.final_metrics
        results.append(VariantResult(name=name, param_count=total,
                                     macc=final.macc, accuracy=dict(final.accuracy)))
    return results


def format_table(results: Sequence[VariantResult]) -> str:
    tasks = sorted({t for r in results for t in r.accuracy})
    header = f"{'variant':<20s} {'params':>10s} " + \
        " ".join(f"{t:>8s}" for t in tasks) + f" {'macc':>8s}"
    lines = [header, "-" * len(header)]
    for r in results:
        accs = " ".join(f"{100 * r.accuracy.get(t, float('nan')):8.2f}" for t in tasks)
        lines.append(f"{r.name:<20s} {r.param_count:>10d} {accs} {100 * r.macc:8.2f}")
    return "\n".join(lines)
