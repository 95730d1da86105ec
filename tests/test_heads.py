"""Task heads, summed cross-entropy, accuracy metrics, optimizer, schedule."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmtl.config import TASKS
from mmtl.errors import ArgumentError, InputError, TrainingDiverged
from mmtl.heads import compute_metrics, format_metrics_record, \
    head_forward, init_head, mean_accuracy, parse_metrics_record, total_loss
from mmtl.optim import OptimizerState, lr_for_epoch, sgd_step
from mmtl.tensor import Tensor, param

from gradassert import assert_gradients_close

rng = np.random.default_rng(0)


class TestHeadForward:
    # heads read pooled [N, C] features; the pool in front of them is checked
    # end to end in tests/test_model.py (TestForward::test_logits_pool_each_task_map)
    def test_zero_weights_give_bias(self):
        p = init_head(6, 3)
        p.bias.data = np.array([0.5, -1.0, 2.0])
        feat = Tensor(rng.normal(size=(2, 6)))
        npt.assert_allclose(head_forward(feat, p).data, [[0.5, -1.0, 2.0]] * 2)

    def test_constant_feature(self):
        c = 1.75
        p = init_head(4, 2)
        p.weight.data = rng.normal(size=(4, 2))
        p.bias.data = np.array([0.1, 0.2])
        feat = Tensor(np.full((1, 4), c))
        expect = [c * p.weight.data.sum(axis=0) + p.bias.data]
        npt.assert_allclose(head_forward(feat, p).data, expect, rtol=1e-12)

    def test_matches_direct_linear(self):
        p = init_head(5, 3)
        p.weight.data = rng.normal(size=(5, 3))
        p.bias.data = rng.normal(size=3)
        feat = rng.normal(size=(2, 5))
        expect = feat @ p.weight.data + p.bias.data
        assert np.abs(head_forward(Tensor(feat), p).data - expect).max() < 1e-12

    def test_gradients(self):
        p = init_head(4, 3)
        p.weight.data = rng.normal(size=(4, 3))
        p.bias.data = rng.normal(size=3)
        feat = param(rng.normal(size=(2, 4)))
        assert_gradients_close(
            lambda: total_loss([head_forward(feat, p)], [[2, 0]], ["der"]),
            {"feat": feat, **p.tensors()})


class TestTotalLoss:
    def test_uniform_logits(self):
        logits = [Tensor(np.zeros((1, 4))) for _ in range(4)]
        loss = total_loss(logits, [[0], [1], [2], [3]], TASKS)
        assert abs(loss.item() - 4 * math.log(4)) < 1e-12

    def test_certain_correct_tasks_vanish(self):
        gap = 100.0
        certain = Tensor(np.array([[gap, 0.0]]))
        uniform = Tensor(np.zeros((1, 2)))
        loss = total_loss([uniform, certain, certain, certain], [[0], [0], [0], [0]], TASKS)
        assert abs(loss.item() - math.log(2)) < 1e-12

    def test_matches_direct_formula(self):
        logits = [rng.normal(size=k) for k in (4, 3, 5, 2)]
        labels = [2, 0, 4, 1]
        expect = 0.0
        for lg, y in zip(logits, labels):
            p = np.exp(lg - lg.max())
            p /= p.sum()
            expect += -math.log(p[y])
        loss = total_loss([Tensor(lg[None]) for lg in logits], [[y] for y in labels], TASKS)
        assert abs(loss.item() - expect) < 1e-12

    def test_batch_mean_of_sample_sums(self):
        logits = [rng.normal(size=(3, k)) for k in (4, 3, 5, 2)]
        labels = [[2, 0, 1], [0, 2, 2], [4, 4, 0], [1, 0, 1]]
        per_sample = [total_loss([Tensor(lg[n:n + 1]) for lg in logits],
                                 [[ys[n]] for ys in labels], TASKS).item() for n in range(3)]
        loss = total_loss([Tensor(lg) for lg in logits], labels, TASKS)
        assert abs(loss.item() - np.mean(per_sample)) < 1e-12

    def test_loss_nonnegative(self):
        for _ in range(20):
            logits = [Tensor(rng.normal(scale=5, size=(2, 3))) for _ in range(4)]
            labels = [rng.integers(3, size=2).tolist() for _ in range(4)]
            assert total_loss(logits, labels, TASKS).item() >= 0.0

    def test_decomposes_into_task_losses(self):
        logits = [Tensor(rng.normal(size=(2, 4))) for _ in range(4)]
        labels = [[1, 0], [2, 2], [0, 3], [3, 1]]
        total = total_loss(logits, labels, TASKS).item()
        parts = sum(total_loss([lg], [ys], [t]).item()
                    for t, lg, ys in zip(TASKS, logits, labels))
        assert abs(total - parts) < 1e-12

    def test_out_of_range_label_names_task(self):
        logits = [Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4)))]
        with pytest.raises(InputError, match="dbr"):
            total_loss(logits, [[0, 1], [2, 7]], ["der", "dbr"])

    def test_task_count_must_match(self):
        logits = [Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4)))]
        with pytest.raises(ArgumentError, match="2 tasks"):
            total_loss(logits[:1], [[0]], ["der", "dbr"])


class TestMetrics:
    def _metrics_from_rates(self, rates, denom=10_000):
        preds, labels = {}, {}
        for task, rate in rates.items():
            correct = round(rate * denom)
            labels[task] = [0] * denom
            preds[task] = [0] * correct + [1] * (denom - correct)
        return compute_metrics(preds, labels)

    def test_reference_row_one(self):
        m = self._metrics_from_rates(
            {"der": 0.75, "dbr": 0.6931, "tcr": 0.9629, "vbr": 0.8611})
        assert abs(100 * m.macc - 81.68) <= 0.005

    def test_reference_row_two(self):
        m = self._metrics_from_rates(
            {"der": 0.6738, "dbr": 0.5875, "tcr": 0.8306, "vbr": 0.6938})
        assert abs(100 * m.macc - 69.64) <= 0.005

    def test_all_correct(self):
        m = compute_metrics({"der": [1, 2], "dbr": [0, 1]},
                            {"der": [1, 2], "dbr": [0, 1]})
        assert m.macc == 1.0 and all(v == 1.0 for v in m.accuracy.values())

    @given(st.permutations(["der", "dbr", "tcr", "vbr"]))
    @settings(max_examples=24, deadline=None)
    def test_macc_permutation_invariant(self, order):
        rates = {"der": 0.75, "dbr": 0.6931, "tcr": 0.9629, "vbr": 0.8611}
        base = mean_accuracy([rates[t] for t in ("der", "dbr", "tcr", "vbr")])
        assert abs(mean_accuracy([rates[t] for t in order]) - base) < 1e-15

    def test_macc_equals_mean_invariant(self):
        m = self._metrics_from_rates({"der": 0.5, "dbr": 0.25, "tcr": 1.0, "vbr": 0.75},
                                     denom=16)
        assert m.macc == mean_accuracy(list(m.accuracy.values()))

    def test_empty_stream_rejected(self):
        with pytest.raises(ArgumentError):
            compute_metrics({"der": []}, {"der": []})
        with pytest.raises(ArgumentError):
            compute_metrics({}, {})

    def test_record_roundtrip(self):
        m = self._metrics_from_rates({"der": 0.5, "dbr": 0.25, "tcr": 1.0, "vbr": 0.75},
                                     denom=16)
        m.loss = {"der": 1.0, "dbr": 2.0, "tcr": 0.5, "vbr": 0.25}
        m.loss_total = 3.75
        m.gate_telemetry = np.full((4, 3), 0.5)
        m.param_count = 12345
        m.fps = 42.5
        m.epoch = 3
        line = format_metrics_record(m)
        fields = [kv.split("=")[0] for kv in line.split()]
        assert fields == ["epoch", "loss_total", "loss_der", "loss_dbr", "loss_tcr",
                          "loss_vbr", "acc_der", "acc_dbr", "acc_tcr", "acc_vbr",
                          "macc", "gate_telemetry", "param_count", "fps"]
        back = parse_metrics_record(line)
        assert back["epoch"] == 3 and back["param_count"] == 12345
        assert abs(back["macc"] - m.macc) < 1e-6
        assert back["gate_telemetry"].shape == (4, 3)


class TestSgd:
    def test_plain_step(self):
        state = OptimizerState(base_lr=0.1, momentum=0.0, weight_decay=0.0)
        w = param(np.array([1.0]))
        w.grad = np.array([2.0])
        sgd_step(state, {"w": w})
        npt.assert_allclose(w.data, [0.8])

    def test_zero_grad_no_motion(self):
        state = OptimizerState(base_lr=0.1, momentum=0.9, weight_decay=0.0)
        w = param(np.array([1.0]))
        w.grad = np.array([0.0])
        sgd_step(state, {"w": w})
        npt.assert_allclose(w.data, [1.0])

    def test_lr_zero_changes_nothing(self):
        state = OptimizerState(base_lr=0.0)
        w = param(np.array([3.0]))
        w.grad = np.array([5.0])
        sgd_step(state, {"w": w})
        npt.assert_allclose(w.data, [3.0])

    def test_momentum_two_steps(self):
        # v1 = 1, w1 = -1; v2 = 0.9 + 1 = 1.9, w2 = -2.9
        state = OptimizerState(base_lr=1.0, momentum=0.9, weight_decay=0.0)
        w = param(np.array([0.0]))
        for _ in range(2):
            w.grad = np.array([1.0])
            sgd_step(state, {"w": w})
        npt.assert_allclose(w.data, [-2.9])

    def test_weight_decay_coupled(self):
        state = OptimizerState(base_lr=1.0, momentum=0.0, weight_decay=0.1)
        w = param(np.array([2.0]))
        w.grad = np.array([0.0])
        sgd_step(state, {"w": w})
        npt.assert_allclose(w.data, [2.0 - 0.1 * 2.0])

    def test_nan_gradient_names_parameter(self):
        state = OptimizerState()
        w = param(np.array([1.0]))
        w.grad = np.array([np.nan])
        with pytest.raises(TrainingDiverged, match="w"):
            sgd_step(state, {"w": w})

    def test_rejected_step_changes_nothing(self):
        state = OptimizerState(base_lr=0.1)
        a, b = param(np.array([1.0])), param(np.array([2.0]))
        a.grad, b.grad = np.array([1.0]), np.array([1.0])
        sgd_step(state, {"a": a, "b": b})
        before = (a.data.copy(), b.data.copy(),
                  {k: v.copy() for k, v in state.velocity.items()})
        a.grad, b.grad = np.array([1.0]), np.array([np.nan])
        with pytest.raises(TrainingDiverged, match="'b'"):
            sgd_step(state, {"a": a, "b": b})
        npt.assert_array_equal(a.data, before[0])
        npt.assert_array_equal(b.data, before[1])
        assert state.velocity.keys() == before[2].keys()
        for k, v in state.velocity.items():
            npt.assert_array_equal(v, before[2][k])

    def test_schedule(self):
        assert lr_for_epoch(0, 1e-3) == 1e-3
        assert lr_for_epoch(24, 1e-3) == 1e-3
        assert lr_for_epoch(25, 1e-3) == 5e-4
        assert lr_for_epoch(50, 1e-3) == 5e-4
        assert lr_for_epoch(51, 1e-3) == pytest.approx(5e-5)
        assert lr_for_epoch(120, 1e-3) == pytest.approx(5e-5)
