"""Tape and gradient correctness: hand cases, finite differences for every
primitive, and tape error handling.
"""

import threading

import numpy as np
import numpy.testing as npt
import pytest

from mmtl import ops
from mmtl.errors import ArgumentError, TapeError
from mmtl.gradcheck import assert_gradients_close, check_gradients
from mmtl.tensor import Tape, Tensor, add, backward, concat, flip, matmul, mul, \
    narrow, neg, param, scale, scale_by, scale_channels, sub, \
    take_channels, tile_spatial, transpose, tsum

rng = np.random.default_rng(42)


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        x = param(np.array([1.0, 2.0, 3.0]))
        with Tape() as tape:
            loss = tsum(x)
        backward(tape, loss)
        npt.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_sigmoid_times_weight(self):
        w = param(np.array(2.0))
        with Tape() as tape:
            loss = scale_by(ops.sigmoid(Tensor(np.array(0.0))), w)
        backward(tape, loss)
        npt.assert_allclose(w.grad, 0.5)

    def test_non_scalar_loss_rejected(self):
        x = param(np.zeros(3))
        with Tape() as tape:
            y = add(x, x)
        with pytest.raises(ArgumentError):
            backward(tape, y)

    def test_detached_loss_rejected(self):
        x = param(np.zeros(3))
        with Tape() as tape:
            tsum(x)
            other = Tensor(np.array(1.0))
        with pytest.raises(TapeError, match="detached"):
            backward(tape, other)

    def test_empty_tape_rejected(self):
        with Tape() as tape:
            pass
        with pytest.raises(TapeError, match="empty"):
            backward(tape, Tensor(np.array(1.0)))

    def test_tape_consumed_after_backward(self):
        x = param(np.ones(2))
        with Tape() as tape:
            loss = tsum(x)
        backward(tape, loss)
        assert len(tape) == 0

    def test_tape_records_only_its_own_thread(self):
        x = param(np.ones(2))
        other = {}

        def worker():
            other["outside"] = add(x, x)
            with Tape() as inner:
                other["inside"] = mul(x, x)
            other["inner_ops"] = [n.op for n in inner.nodes]

        with Tape() as tape:
            y = add(x, x)
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert [n.op for n in tape.nodes] == ["add"]
        assert tape.nodes[0].output is y
        assert other["outside"].requires_grad is False
        assert other["inner_ops"] == ["mul"]
        assert other["inside"].requires_grad is True

    def test_no_recording_without_tape(self):
        x = param(np.ones(2))
        y = add(x, x)
        assert y.requires_grad is False

    def test_grad_accumulates_across_uses(self):
        x = param(np.array([3.0]))
        with Tape() as tape:
            loss = tsum(add(x, x))
        backward(tape, loss)
        npt.assert_array_equal(x.grad, [2.0])

    def test_topological_order_each_node_once(self):
        x = param(np.ones(3))
        with Tape() as tape:
            y = mul(x, x)
            z = add(y, y)
            loss = tsum(z)
        ops_on_tape = [n.op for n in tape.nodes]
        assert ops_on_tape == ["mul", "add", "sum"]
        backward(tape, loss)
        npt.assert_array_equal(x.grad, 4 * np.ones(3))


def _fd(fn, params, tol=1e-4):
    assert_gradients_close(fn, params, tol=tol)


class TestPrimitiveGradients:
    """Central finite differences (h=1e-5), relative error < 1e-4."""

    def test_arithmetic(self):
        a = param(rng.normal(size=(3, 2)))
        b = param(rng.normal(size=(3, 2)))
        _fd(lambda: tsum(add(mul(a, b), sub(neg(a), scale(b, 1.7)))), {"a": a, "b": b})

    def test_scale_by_and_channels(self):
        x = param(rng.normal(size=(3, 2, 2)))
        g = param(rng.normal(size=(3,)))
        s = param(np.array(0.7))
        _fd(lambda: tsum(scale_by(scale_channels(x, g), s)), {"x": x, "g": g, "s": s})

    def test_matmul(self):
        a = param(rng.normal(size=(3, 4)))
        b = param(rng.normal(size=(4, 2)))
        _fd(lambda: tsum(matmul(a, b)), {"a": a, "b": b})

    def test_linear(self):
        x = param(rng.normal(size=(2, 5, 3)))
        w = param(rng.normal(size=(3, 4)))
        b = param(rng.normal(size=(4,)))
        _fd(lambda: tsum(ops.linear(x, w, b)), {"x": x, "w": w, "b": b})

    @pytest.mark.parametrize("stride,pad", [(1, 0), (2, 1)])
    def test_conv2d(self, stride, pad):
        x = param(rng.normal(size=(2, 5, 5)))
        w = param(rng.normal(size=(3, 2, 3, 3)))
        b = param(rng.normal(size=(3,)))
        _fd(lambda: tsum(ops.convolve(x, w, b, stride=stride, padding=pad)),
            {"x": x, "w": w, "b": b})

    def test_conv1d_and_3d(self):
        x1 = param(rng.normal(size=(2, 6)))
        w1 = param(rng.normal(size=(2, 2, 3)))
        _fd(lambda: tsum(ops.convolve(x1, w1, padding=1)), {"x": x1, "w": w1})
        x3 = param(rng.normal(size=(1, 3, 3, 3)))
        w3 = param(rng.normal(size=(2, 1, 2, 2, 2)))
        _fd(lambda: tsum(ops.convolve(x3, w3)), {"x": x3, "w": w3})

    def test_depthwise(self):
        x = param(rng.normal(size=(3, 4, 4)))
        w = param(rng.normal(size=(3, 2, 3, 3)))
        b = param(rng.normal(size=(6,)))
        _fd(lambda: tsum(ops.depthwise_conv2d(x, w, b, padding=1)),
            {"x": x, "w": w, "b": b})

    def test_grouped_pointwise(self):
        x = param(rng.normal(size=(6, 5)))
        w = param(rng.normal(size=(2, 4, 3)))
        b = param(rng.normal(size=(8,)))
        _fd(lambda: tsum(ops.grouped_pointwise(x, w, b)), {"x": x, "w": w, "b": b})

    def test_pools(self):
        x = param(rng.normal(size=(2, 6, 6)))
        _fd(lambda: tsum(ops.avg_pool(x, 3, stride=2, padding=1)), {"x": x})
        _fd(lambda: tsum(ops.adaptive_avg_pool(x, (4, 3))), {"x": x})
        small = param(rng.normal(size=(2, 3, 3)))
        _fd(lambda: tsum(ops.expand_bins(small, (7, 5))), {"x": small})

    def test_activations(self):
        x = param(rng.normal(size=(2, 4)))
        probe = Tensor(rng.normal(size=(2, 4)))
        _fd(lambda: tsum(ops.sigmoid(x)), {"x": x})
        _fd(lambda: tsum(ops.gelu(x)), {"x": x})
        _fd(lambda: tsum(mul(ops.softmax(x, axis=1), probe)), {"x": x})

    def test_batchnorm_train_and_eval(self):
        x = param(rng.normal(size=(3, 4, 4)))
        sc = param(rng.normal(size=(3,)))
        sh = param(rng.normal(size=(3,)))
        _fd(lambda: tsum(ops.batchnorm(x, sc, sh, ops.RunningStats(3), train=True)),
            {"x": x, "scale": sc, "shift": sh})
        stats = ops.RunningStats(3)
        stats.mean = rng.normal(size=3)
        stats.var = rng.uniform(0.5, 2.0, size=3)
        _fd(lambda: tsum(ops.batchnorm(x, sc, sh, stats, train=False)),
            {"x": x, "scale": sc, "shift": sh})

    def test_cross_entropy(self):
        x = param(rng.normal(size=(5,)))
        _fd(lambda: ops.cross_entropy(x, 2), {"x": x})

    def test_structural(self):
        x = param(rng.normal(size=(4, 3)))
        y = param(rng.normal(size=(2, 3)))
        p_cat = Tensor(rng.normal(size=(6, 3)))
        p_flip = Tensor(rng.normal(size=(4, 3)))
        p_tr = Tensor(rng.normal(size=(3, 4)))
        p_take = Tensor(rng.normal(size=(5, 3)))
        p_tile = Tensor(rng.normal(size=(3, 2, 2)))
        _fd(lambda: tsum(mul(concat([x, y], axis=0), p_cat)), {"x": x, "y": y})
        _fd(lambda: tsum(narrow(x, 0, 1, 2)), {"x": x})
        _fd(lambda: tsum(mul(flip(x, 1), p_flip)), {"x": x})
        _fd(lambda: tsum(mul(transpose(x, (1, 0)), p_tr)), {"x": x})
        _fd(lambda: tsum(mul(take_channels(x, np.array([2, 0, 1, 3, 2])), p_take)),
            {"x": x})
        v = param(rng.normal(size=(3,)))
        _fd(lambda: tsum(mul(tile_spatial(v, (2, 2)), p_tile)), {"v": v})

    def test_corrupted_gradient_detected(self):
        x = param(rng.normal(size=(3,)))
        errors = check_gradients(lambda: tsum(mul(x, x)), {"x": x}, corrupt="x")
        assert errors["x"] > 1e-4

    def test_gradients_deterministic(self):
        x = param(rng.normal(size=(3, 3)))
        grads = []
        for _ in range(2):
            x.zero_grad()
            with Tape() as tape:
                loss = tsum(ops.gelu(matmul(x, x)))
            backward(tape, loss)
            grads.append(x.grad.copy())
        assert np.array_equal(grads[0], grads[1])
