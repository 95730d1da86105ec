"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -s`` to see the
lines as they complete; the expensive toy-training run is shared between the
convergence and gate-specialization criteria.
"""

import numpy as np
import pytest

from mmtl.ablate import format_table, run_ablation
from mmtl.bench import bench_fps
from mmtl.blocks import dual_path_block, init_block, init_stem, stem, ViewSequence, \
    EXTERIOR_VIEWS
from mmtl.config import ModelConfig
from mmtl.data import SyntheticRecipe, negative_transfer_recipe
from mmtl.fusion import gated_sum, init_gate_params, task_gates, ModalityFeatures, \
    shared_attention
from mmtl.heads import compute_metrics
from mmtl.model import count_params
from mmtl.ops import softmax
from mmtl.ssm import ScanDirection, compute_gate, scan
from mmtl.tensor import Tensor, param
from mmtl.train import run_toy_training
from mmtl.verify import gradcheck_run

import oracles

# the toy scale used for the training-based criteria; seed pinned
TOY = ModelConfig(frame_count=8, channels=96, height=4, width=4, view_height=16,
                  view_width=16, state_dim=8, block_depth=1, seed=7, base_lr=0.08)
NOISELESS = SyntheticRecipe(noise=0.0, amplitude=0.2)
ABLATION_RECIPE = negative_transfer_recipe(noise=0.25)

DESIGNATED_INDEX = {"der": 2, "dbr": 1, "tcr": 0, "vbr": 0}   # ext, int, joints


def ssm_params(channels, n, rng):
    """Trainable scan parameters (A, B, C, D), drawn as a block draws them."""
    return tuple(param(v) for v in oracles.ssm_draw(channels, n, rng))


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


@pytest.fixture(scope="module")
def toy_training():
    return run_toy_training(TOY, NOISELESS, steps=200, batch_size=8,
                            train_count=256, val_count=256, eval_every=100)


@pytest.fixture(scope="module")
def ablation_results():
    variants = ["full", "no_mgmi", "exterior_only", "interior_only", "joints_only"]
    return run_ablation(TOY.replace(base_lr=0.04), variants,
                        recipe=ABLATION_RECIPE, steps=400)


def test_criterion_1_metric_arithmetic():
    def from_rates(rates, denom=10_000):
        preds, labels = {}, {}
        for task, rate in rates.items():
            good = round(rate * denom)
            labels[task] = [0] * denom
            preds[task] = [0] * good + [1] * (denom - good)
        return compute_metrics(preds, labels)

    m1 = from_rates({"der": 0.75, "dbr": 0.6931, "tcr": 0.9629, "vbr": 0.8611})
    m2 = from_rates({"der": 0.6738, "dbr": 0.5875, "tcr": 0.8306, "vbr": 0.6938})
    ok = abs(100 * m1.macc - 81.68) <= 0.005 and abs(100 * m2.macc - 69.64) <= 0.005
    assert report("criterion 1 metric arithmetic", ok,
                  f"macc rows -> {100 * m1.macc:.4f} (want 81.68 +-0.005), "
                  f"{100 * m2.macc:.4f} (want 69.64 +-0.005)")


def test_criterion_2_parameter_budget():
    full, _ = count_params(ModelConfig())
    ablated, _ = count_params(ModelConfig(no_mgmi=True))
    delta = full - ablated
    ok = full < 6_000_000 and ablated < full and 100_000 <= delta <= 500_000
    assert report("criterion 2 parameter budget", ok,
                  f"full {full:,} (< 6,000,000), gated-fusion delta {delta:,} "
                  f"(within [100k, 500k])")


def test_criterion_3_gradient_correctness():
    worst = {}
    all_ok = True
    for seed in (0, 1, 2):
        for rep in gradcheck_run("all", tolerance=1e-4, seed=seed, max_elements=6):
            all_ok = all_ok and rep.passed
            err = max(rep.errors.values())
            worst[rep.module] = max(worst.get(rep.module, 0.0), err)
    detail = ", ".join(f"{m} {e:.1e}" for m, e in worst.items())
    assert report("criterion 3 gradient correctness",
                  all_ok, f"3 seeded configs, max rel err per module: {detail}")


def test_criterion_4_structural_identities():
    rng = np.random.default_rng(11)

    # (a) zero-gamma residual identity, bit exact
    block = init_block(16, 4, 4, 4, 2, rng)
    block.gamma.data = np.array(0.0)
    x = Tensor(rng.normal(size=(2, 16, 4, 4)))
    a_ok = np.array_equal(dual_path_block(x, block).data, x.data)

    # (b) backward scan == reverse(forward(reverse)), bit exact
    p = ssm_params(6, 3, rng)
    xs = rng.normal(size=(2, 8, 6, 5))
    got = scan(Tensor(xs), *p, ScanDirection.BACKWARD).data
    want = scan(Tensor(xs[:, ::-1].copy()), *p, ScanDirection.FORWARD).data[:, ::-1]
    b_ok = np.array_equal(got, want)

    # (c) attention rows sum to one within 1e-9
    c = 6
    gp = init_gate_params(c, rng)
    m = ModalityFeatures(*(Tensor(rng.normal(size=(1, c, 3, 3))) for _ in range(3)))
    cat = np.concatenate([t.data[0] for t in m.as_list()], 0).reshape(3 * c, -1)
    q = gp.wq.data.reshape(c, 3 * c) @ cat + gp.bq.data[:, None]
    k = gp.wk.data.reshape(c, 3 * c) @ cat + gp.bk.data[:, None]
    rows = softmax(Tensor(q @ k.T / 3.0), axis=1).data.sum(axis=1)
    c_ok = np.abs(rows - 1.0).max() < 1e-9

    # (d) gate boundedness in (0, 1)
    gates_ok = True
    for seed in range(5):
        r2 = np.random.default_rng(seed)
        sp = ssm_params(8, 3, r2)
        g = compute_gate(*sp).data
        gates_ok &= bool(np.all((g > 0) & (g < 1)))
        s = Tensor(r2.normal(size=(2, c, 3, 3)))
        # channel c*3R + 3r + i of the stack is task r's gate for modality i
        stack = task_gates(s, gp).data.reshape(2, c, 4, 3, 3, 3)
        for r in range(4):
            for i in range(3):
                gt = stack[:, :, r, i]
                gates_ok &= bool(np.all((gt > 0) & (gt < 1)))

    ok = a_ok and b_ok and c_ok and gates_ok
    assert report("criterion 4 structural identities", ok,
                  f"residual {a_ok}, scan reversal {b_ok}, "
                  f"row-stochastic {c_ok}, gates bounded {gates_ok}")


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(21)
    diffs = {}

    sp = init_stem(EXTERIOR_VIEWS, 4, 12, 4, 4, rng)
    # every component runs on a batch of two; the oracles take one sample
    frames = [[rng.random((4, 3, 8, 8)) for _ in range(3)] for _ in range(2)]
    views = [[ViewSequence(v, f) for v, f in zip(EXTERIOR_VIEWS, sample)] for sample in frames]
    diffs["stem"] = np.abs(stem(views, sp).data
                           - np.stack([oracles.stem_ref(f, sp) for f in frames])).max()

    bp = init_block(16, 4, 4, 4, 2, rng)
    xb = rng.normal(size=(2, 16, 4, 4))
    diffs["block"] = np.abs(dual_path_block(Tensor(xb), bp).data
                            - np.stack([oracles.block_ref(x, bp) for x in xb])).max()

    gp = init_gate_params(16, rng)
    m = ModalityFeatures(*(Tensor(rng.normal(size=(2, 16, 4, 4))) for _ in range(3)))
    maps = [[t.data[i] for t in m.as_list()] for i in range(2)]
    s_att = shared_attention(m, gp)
    diffs["attention"] = np.abs(
        s_att.data - np.stack([oracles.attention_ref(*hs, gp) for hs in maps])).max()

    worst_fuse = 0.0
    fused = gated_sum(m, task_gates(s_att, gp, train=True)).data
    for r in range(4):
        ref = np.stack([oracles.task_fuse_ref(*hs, s_att.data[i], gp, r)
                        for i, hs in enumerate(maps)])
        worst_fuse = max(worst_fuse, np.abs(fused[:, r * 16:(r + 1) * 16] - ref).max())
    diffs["task_fuse"] = worst_fuse

    pp = ssm_params(4, 2, rng)
    xs = rng.normal(size=(2, 4, 4, 16))
    diffs["scan"] = max(
        np.abs(scan(Tensor(xs), *pp, d).data
               - np.stack([oracles.scan_unrolled(x, *(t.data for t in pp),
                                                 backward=d is ScanDirection.BACKWARD)
                           for x in xs])).max()
        for d in (ScanDirection.FORWARD, ScanDirection.BACKWARD))

    ok = all(v < 1e-10 for v in diffs.values())
    assert report("criterion 5 oracle equivalence", ok,
                  ", ".join(f"{k} {v:.1e}" for k, v in diffs.items()))


def test_criterion_6_toy_convergence(toy_training):
    res = toy_training
    final = res.final_metrics
    halved = res.final_loss < 0.5 * res.initial_loss
    accurate = all(a >= 0.90 for a in final.accuracy.values())

    # determinism of the training procedure under the pinned seed
    probe = [run_toy_training(TOY, NOISELESS, steps=20, batch_size=8,
                              train_count=64, val_count=16, eval_every=20)
             for _ in range(2)]
    deterministic = (probe[0].final_loss == probe[1].final_loss
                     and probe[0].final_metrics.macc == probe[1].final_metrics.macc)

    ok = halved and accurate and deterministic
    accs = {t: round(a, 3) for t, a in final.accuracy.items()}
    assert report("criterion 6 toy convergence", ok,
                  f"loss {res.initial_loss:.3f} -> {res.final_loss:.3f}, "
                  f"per-task {accs} on 256 held-out, deterministic {deterministic}")


def test_criterion_7_gate_specialization(toy_training):
    tele = toy_training.final_metrics.gate_telemetry
    argmax = {task: int(np.argmax(tele[i]))
              for i, task in enumerate(("der", "dbr", "tcr", "vbr"))}
    ok = all(argmax[t] == DESIGNATED_INDEX[t] for t in argmax)
    assert report("criterion 7 gate specialization", ok,
                  f"telemetry argmax {argmax}, designated {DESIGNATED_INDEX}")


def test_criterion_8_ablation_direction(ablation_results):
    results = {r.name: r for r in ablation_results}
    full = results["full"].macc
    margins = {name: full - r.macc for name, r in results.items() if name != "full"}
    ok = all(m > 0 for m in margins.values())
    print(format_table(ablation_results))
    assert report("criterion 8 ablation direction", ok,
                  "full macc %.3f, margins: %s" % (
                      full, {k: round(v, 3) for k, v in margins.items()}))


def test_criterion_9_benchmark_sanity():
    records = [bench_fps(TOY, batch_size=2, duration=1.0, threads=1, seed=0)
               for _ in range(2)]
    order_ok = all(r.latency_p50_ms <= r.latency_p95_ms for r in records)
    spread = abs(records[0].fps - records[1].fps) / max(records[0].fps,
                                                        records[1].fps)
    ok = order_ok and spread <= 0.20
    assert report("criterion 9 benchmark sanity", ok,
                  f"fps {records[0].fps:.1f} vs {records[1].fps:.1f} "
                  f"(spread {100 * spread:.1f}%), p50<=p95 {order_ok}")
