"""What the benchmark in ``perfbench/`` reads of the package, checked here so
that a rename or a change of layout fails in the tests and not only when the
benchmark runs.

The benchmark finds its traced functions and op kinds by name, reads the
weights and the batch-norm running statistics by their checkpoint names, and
compares the program with its own numpy forward pass. The modules under
``perfbench/`` are imported as they are; nothing in them is changed.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import mmtl.ops
from mmtl import data
from mmtl.model import Model

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def trained_toy_model(samples):
    """The benchmark's toy model with drawn heads, after one train-mode
    forward, so every batch norm's running statistics differ from their start."""
    model = Model(workloads.TOY)
    workloads.draw_heads(model, np.random.default_rng(3))
    model.forward(samples, train=True)
    return model


def test_traced_names_resolve():
    for name, (module, attr) in tracing.FUNCTIONS.items():
        assert callable(getattr(module, attr, None)), f"{name}: {module.__name__}.{attr}"
    for name, attr in tracing.METHODS.items():
        assert callable(getattr(Model, attr, None)), f"{name}: Model.{attr}"
    for kind in tracing.OP_KINDS:
        assert callable(getattr(mmtl.ops, kind, None)), f"ops.{kind}"
    tracing.Tracer()        # looks every name up again, as each benchmark run does


def test_reference_forward_matches_the_program():
    samples = list(data.generate_synthetic(workloads.RECIPE, 3, 5, workloads.TOY))
    model = trained_toy_model(samples[:2])
    weights = reference.snapshot(model)
    logits, telemetry = reference.forward(samples[2], weights)
    out = model.forward_sample(samples[2], train=False)
    assert workloads.logit_gap(logits, {t: v.data for t, v in out.logits.items()}) \
        <= workloads.LOGIT_TOL
    assert float(np.abs(out.telemetry - telemetry).max()) <= workloads.LOGIT_TOL


def test_checkpoint_restores_every_running_statistic(tmp_path):
    samples = list(data.generate_synthetic(workloads.RECIPE, 2, 6, workloads.TOY))
    model = trained_toy_model(samples)
    model.save_weights(tmp_path)
    fresh = Model(workloads.TOY)
    fresh.load_weights(tmp_path)
    pairs = list(workloads.TrainToy._bn_stats(model, fresh))
    assert len(pairs) == len(model.gate_params.bn_stats) + 1
    for name, mine, theirs in pairs:
        # the checkpoint holds float32
        assert np.array_equal(theirs.mean, mine.mean.astype(np.float32)), name
        assert np.array_equal(theirs.var, mine.var.astype(np.float32)), name


def test_one_second_train_run_is_correct():
    # the benchmark's own checks: its finite-difference gradient check, the
    # comparison with its reference forward and the checkpoint round trip
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_toy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
