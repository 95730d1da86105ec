"""Scan recurrence and channel gate."""

import math
from collections import namedtuple

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmtl.errors import DimensionError
from mmtl.ssm import ScanDirection, _lags, compute_gate, scan
from mmtl.tensor import Tape, Tensor, add, backward, mul, param, tsum

import oracles
from gradassert import assert_gradients_close


Params = namedtuple("Params", "A B C D")   # unpacks into scan / compute_gate


def make_params(a, b, c, d):
    return Params(*(Tensor(v) for v in (a, b, c, d)))


def draw_params(channels, n, rng):
    """Trainable (A, B, C, D), drawn as a block draws them."""
    return Params(*(param(v) for v in oracles.ssm_draw(channels, n, rng)))


class TestComputeGate:
    def test_all_zero_params_give_half(self):
        p = make_params(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2)),
                        np.zeros(3))
        npt.assert_allclose(compute_gate(*p).data, 0.5)

    def test_saturated_bias(self):
        p = make_params(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)),
                        np.full(2, 10.0))
        npt.assert_allclose(compute_gate(*p).data, 1.0 / (1.0 + math.exp(-10.0)),
                            rtol=1e-12)

    def test_hand_matrix_case(self):
        # C=2, n=1: preactivation [1 + 4/sqrt(2), 4/sqrt(2)]
        p = make_params(np.array([[1.0], [0.0]]), np.array([[1.0], [1.0]]),
                        np.array([[2.0], [2.0]]), np.zeros(2))
        pre = np.array([1.0 + 4.0 / math.sqrt(2.0), 4.0 / math.sqrt(2.0)])
        expect = 1.0 / (1.0 + np.exp(-pre))
        npt.assert_allclose(compute_gate(*p).data, expect, rtol=1e-12)
        npt.assert_allclose(compute_gate(*p).data, [0.97874, 0.94409], atol=2e-4)

    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        a, b, c = (rng.normal(size=(4, 3)) for _ in range(3))
        d = rng.normal(size=4)
        p = make_params(a, b, c, d)
        npt.assert_allclose(compute_gate(*p).data, oracles.gate_ref(a, b, c, d),
                            rtol=1e-12)

    @given(st.integers(0, 10_000))
    @example(812)       # preactivation 37.6: float64 expit returns exactly 1.0
    @example(1668)      # preactivation 37.4
    @settings(max_examples=40, deadline=None)
    def test_gate_strictly_in_unit_interval(self, seed):
        # strict in exact arithmetic; float64 expit saturates to 0 or 1 only
        # past |pre| ~ 36.7, so strictness is asserted inside |pre| < 36
        rng = np.random.default_rng(seed)
        a, b, c = (rng.normal(scale=2, size=(3, 2)) for _ in range(3))
        d = rng.normal(scale=2, size=3)
        g = compute_gate(*make_params(a, b, c, d)).data
        pre = a.sum(axis=1) / math.sqrt(2) + b @ c.sum(axis=0) / math.sqrt(3) + d
        assert np.all((g >= 0.0) & (g <= 1.0))
        inside = np.abs(pre) < 36.0
        assert np.all((g[inside] > 0.0) & (g[inside] < 1.0))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            compute_gate(*make_params(np.zeros((3, 2)), np.zeros((3, 3)),
                                      np.zeros((3, 2)), np.zeros(3)))
        with pytest.raises(DimensionError):
            compute_gate(*make_params(np.zeros((3, 2)), np.zeros((3, 2)),
                                      np.zeros((3, 2)), np.zeros(2)))


class TestScan:
    @pytest.mark.parametrize("frames", [1, 4, 8])
    def test_lags_cached_read_only_and_one_hot_by_lag(self, frames):
        lags = _lags(frames)
        assert lags is _lags(frames) and not lags.flags.writeable
        # np.eye(n, k=-k)[t, s] is 1 exactly where t - s == k
        want = np.stack([np.eye(frames, k=-k) for k in range(frames)])
        npt.assert_array_equal(lags, want)

    def test_rows_add_to_a_read_only_gradient(self):
        # the gate is recorded after the scan, so its backward runs first and
        # hands A a read-only broadcast view; the scan's row gradients, for 3
        # of the 5 rows, must then add to it
        rng = np.random.default_rng(4)
        p = draw_params(5, 2, rng)
        x = Tensor(rng.normal(size=(2, 4, 3, 5)))

        def grads(*losses):
            for t in p:
                t.zero_grad()
            with Tape() as tape:
                terms = [f() for f in losses]
                loss = terms[0] if len(terms) == 1 else add(*terms)
            backward(tape, loss)
            return [t.grad for t in p]

        scan_loss = lambda: tsum(scan(x, *p))
        gate_loss = lambda: tsum(compute_gate(*p))
        gate_only = grads(gate_loss)
        assert not gate_only[0].flags.writeable
        scan_only = grads(scan_loss)
        for got, g, s in zip(grads(scan_loss, gate_loss), gate_only, scan_only):
            npt.assert_array_equal(got, g + s)

    def test_single_step(self):
        # T=1: y1 = <c, b>*x1 + d*x1
        rng = np.random.default_rng(2)
        p = draw_params(3, 4, rng)
        x = rng.normal(size=(2, 1, 3, 5))
        y = scan(Tensor(x), *p).data
        cb = np.einsum("cn,cn->c", p.C.data, p.B.data)
        expect = (cb + p.D.data)[None, None, :, None] * x
        npt.assert_allclose(y, expect, rtol=1e-12)

    def test_prefix_sums(self):
        p = make_params(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)),
                        np.zeros(1))
        x = Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1, 1))
        npt.assert_allclose(scan(x, *p).data.reshape(-1), [1.0, 3.0, 6.0], rtol=1e-14)

    def test_backward_is_reverse_forward_reverse(self):
        rng = np.random.default_rng(3)
        p = draw_params(4, 3, rng)
        x = rng.normal(size=(2, 6, 4, 5))
        got = scan(Tensor(x), *p, ScanDirection.BACKWARD).data
        expect = scan(Tensor(x[:, ::-1].copy()), *p).data[:, ::-1]
        assert np.array_equal(got, expect)

    def test_transition_clamped_for_positive_a(self):
        # a > 0 behaves exactly like a = 0 (running sum), keeping states bounded
        p_pos = make_params(np.full((1, 1), 2.0), np.ones((1, 1)), np.ones((1, 1)),
                            np.zeros(1))
        x = Tensor(np.ones((1, 4, 1, 1)))
        npt.assert_allclose(scan(x, *p_pos).data.reshape(-1), [1.0, 2.0, 3.0, 4.0],
                            rtol=1e-14)

    @pytest.mark.parametrize("direction", [ScanDirection.FORWARD, ScanDirection.BACKWARD])
    @pytest.mark.parametrize("t,n", [(2, 1), (4, 2), (3, 2)])
    def test_matches_unrolled_oracle(self, direction, t, n):
        rng = np.random.default_rng(4)
        p = draw_params(3, n, rng)
        x = rng.normal(size=(2, t, 3, 4))
        got = scan(Tensor(x), *p, direction).data
        ref = np.stack([oracles.scan_unrolled(xi, p.A.data, p.B.data, p.C.data, p.D.data,
                                              backward=direction is ScanDirection.BACKWARD)
                        for xi in x])
        assert np.abs(got - ref).max() < 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_linearity_in_input(self, seed):
        rng = np.random.default_rng(seed)
        p = draw_params(2, 2, rng)
        x1 = rng.normal(size=(2, 4, 2, 3))
        x2 = rng.normal(size=(2, 4, 2, 3))
        al, be = rng.normal(), rng.normal()
        lhs = scan(Tensor(al * x1 + be * x2), *p).data
        rhs = al * scan(Tensor(x1), *p).data + be * scan(Tensor(x2), *p).data
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_channel_mismatch(self):
        p = draw_params(2, 2, np.random.default_rng(6))
        with pytest.raises(DimensionError):
            scan(Tensor(np.zeros((1, 3, 5, 2))), *p)

    def test_shape_mismatch(self):
        x = Tensor(np.zeros((1, 3, 2, 4)))
        with pytest.raises(DimensionError):        # state widths differ
            scan(x, *make_params(np.zeros((3, 2)), np.zeros((3, 3)), np.zeros((3, 2)),
                                 np.zeros(3)))
        with pytest.raises(DimensionError):        # D has fewer rows than x channels
            scan(x, *make_params(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2)),
                                 np.zeros(1)))

    def test_gradients(self):
        rng = np.random.default_rng(7)
        p = draw_params(3, 2, rng)
        x = param(rng.normal(size=(2, 4, 3, 2)))
        probe = Tensor(rng.normal(size=(2, 4, 3, 2)))   # uneven in time, unlike tsum alone
        for direction in (ScanDirection.FORWARD, ScanDirection.BACKWARD):
            assert_gradients_close(lambda: tsum(mul(scan(x, *p, direction), probe)),
                                   {"x": x, **p._asdict()})
        assert_gradients_close(lambda: tsum(compute_gate(*p)), p._asdict())

    def test_backward_scan_records_one_node(self):
        rng = np.random.default_rng(9)
        p = draw_params(3, 2, rng)
        x = param(rng.normal(size=(2, 4, 3, 2)))
        with Tape() as tape:
            scan(x, *p, ScanDirection.BACKWARD)
        assert [n.op for n in tape.nodes] == ["ssm_scan"]

    def test_clamped_transition_gets_zero_gradient(self):
        rng = np.random.default_rng(13)
        p = draw_params(3, 2, rng)
        p.A.data[1, 0] = 0.5
        x = Tensor(rng.normal(size=(2, 5, 3, 4)))
        for direction in (ScanDirection.FORWARD, ScanDirection.BACKWARD):
            p.A.grad = None
            with Tape() as tape:
                loss = tsum(scan(x, *p, direction))
            backward(tape, loss)
            assert p.A.grad[1, 0] == 0.0
            assert np.count_nonzero(p.A.grad) == p.A.size - 1

    def test_scan_routes_gradients_to_leading_rows(self):
        rng = np.random.default_rng(8)
        p = draw_params(6, 2, rng)
        x = Tensor(rng.normal(size=(2, 3, 2, 4)))
        with Tape() as tape:
            loss = tsum(scan(x, *p))
        backward(tape, loss)
        assert np.any(p.B.grad[:2] != 0)
        assert np.all(p.B.grad[2:] == 0)
        for t in (p.A, p.C, p.D):
            assert t.grad.shape == t.shape
            assert np.any(t.grad[:2] != 0) and np.all(t.grad[2:] == 0)

