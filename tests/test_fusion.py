"""Gated multimodal fusion: attention structure, gate behavior, task
symmetry, and oracle agreement, on [N, C, H, W] modality batches.
"""

import numpy as np
import numpy.testing as npt
import pytest

from mmtl.errors import DimensionError
from mmtl.fusion import ModalityFeatures, concat_fuse, \
    fuse_all, gated_sum, init_concat_fuse, init_gate_params, mean_fallback, shared_attention, \
    task_gates
from mmtl.ops import RunningStats, softmax
from mmtl.tensor import Tensor, mul, param, tsum

import oracles
from gradassert import assert_gradients_close


def make_feats(rng, c=4, h=3, w=3, as_params=False, n=2):
    mk = param if as_params else Tensor
    return ModalityFeatures(mk(rng.normal(size=(n, c, h, w))),
                            mk(rng.normal(size=(n, c, h, w))),
                            mk(rng.normal(size=(n, c, h, w))))


def sample(m, i):
    """The three [C, H, W] maps of sample i."""
    return m.h1.data[i], m.h2.data[i], m.h3.data[i]


def gate_map(gates, c, r, i):
    """Unit r's gate for modality i, [N, C, H, W], from a task_gates stack
    whose channel c*3R + 3r + i holds it."""
    n, _, h, w = gates.shape
    return gates.data.reshape(n, c, -1, 3, h, w)[:, :, r, i]


def unit_map(fused, c, r):
    """Unit r's F_r [N, C, H, W] from gated_sum's [N, R*C, H, W] output."""
    return fused.data[:, r * c:(r + 1) * c]


class TestSharedAttention:
    def test_zero_query_gives_row_mean_of_values(self):
        rng = np.random.default_rng(0)
        c = 4
        m = make_feats(rng, c=c)
        p = init_gate_params(c, rng)
        p.wq.data = np.zeros_like(p.wq.data)
        p.bq.data = np.zeros_like(p.bq.data)
        s = shared_attention(m, p).data
        # uniform attention averages V over its channel rows
        for i in range(2):
            cat = np.concatenate(sample(m, i), 0).reshape(3 * c, -1)
            v = p.wv.data.reshape(c, 3 * c) @ cat + p.bv.data[:, None]
            expect = np.broadcast_to(v.mean(axis=0), (c, v.shape[1])).reshape(s.shape[1:])
            npt.assert_allclose(s[i], expect, rtol=1e-12)

    def test_zero_values_give_zero(self):
        rng = np.random.default_rng(1)
        m = make_feats(rng)
        p = init_gate_params(4, rng)
        p.wv.data = np.zeros_like(p.wv.data)
        p.bv.data = np.zeros_like(p.bv.data)
        npt.assert_allclose(shared_attention(m, p).data, 0.0, atol=1e-15)

    def test_rows_stochastic(self):
        rng = np.random.default_rng(2)
        c, h, w = 5, 2, 3
        m = make_feats(rng, c=c, h=h, w=w)
        p = init_gate_params(c, rng)
        cat = np.concatenate(sample(m, 0), 0).reshape(3 * c, -1)
        q = p.wq.data.reshape(c, 3 * c) @ cat + p.bq.data[:, None]
        k = p.wk.data.reshape(c, 3 * c) @ cat + p.bk.data[:, None]
        attn = softmax(Tensor(q @ k.T / np.sqrt(h * w)), axis=1).data
        npt.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-9)

    def test_matches_reference(self):
        rng = np.random.default_rng(3)
        m = make_feats(rng, c=2, h=2, w=2)
        p = init_gate_params(2, rng)
        got = shared_attention(m, p).data
        ref = np.stack([oracles.attention_ref(*sample(m, i), p) for i in range(2)])
        assert np.abs(got - ref).max() < 1e-10

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ModalityFeatures(Tensor(np.zeros((1, 2, 2, 2))), Tensor(np.zeros((1, 2, 2, 2))),
                             Tensor(np.zeros((1, 2, 2, 3))))

    def test_mean_fallback(self):
        rng = np.random.default_rng(4)
        m = make_feats(rng)
        expect = (m.h1.data + m.h2.data + m.h3.data) / 3.0
        npt.assert_allclose(mean_fallback(m).data, expect, rtol=1e-15)


class TestTaskFuse:
    def test_zero_preactivation_gives_half_gates(self):
        rng = np.random.default_rng(5)
        c = 4
        m = make_feats(rng, c=c)
        p = init_gate_params(c, rng)
        r = 1
        p.gate_w[r].data = np.zeros_like(p.gate_w[r].data)
        p.gate_b[r].data = np.zeros_like(p.gate_b[r].data)
        p.bn_shift[r].data = np.zeros_like(p.bn_shift[r].data)
        s = Tensor(rng.normal(size=(2, c, 3, 3)))
        out = unit_map(gated_sum(m, task_gates(s, p)), c, r)
        expect = 0.5 * (m.h1.data + m.h2.data + m.h3.data)
        npt.assert_allclose(out, expect, rtol=1e-12)

    def test_single_modality_passthrough(self):
        rng = np.random.default_rng(6)
        c = 4
        h1 = Tensor(rng.normal(size=(2, c, 3, 3)))
        m = ModalityFeatures(h1, Tensor(np.zeros((2, c, 3, 3))),
                             Tensor(np.zeros((2, c, 3, 3))))
        p = init_gate_params(c, rng)
        s = Tensor(rng.normal(size=(2, c, 3, 3)))
        gates = task_gates(s, p, train=True)
        out = unit_map(gated_sum(m, gates), c, 0)
        npt.assert_allclose(out, h1.data * gate_map(gates, c, 0, 0), rtol=1e-12)

    def test_gates_bounded(self):
        rng = np.random.default_rng(7)
        p = init_gate_params(4, rng)
        s = Tensor(rng.normal(scale=3, size=(2, 4, 3, 3)))
        gates = task_gates(s, p)
        assert gates.shape == (2, 4 * 3 * 4, 3, 3)
        for r in range(4):
            for i in range(3):
                g = gate_map(gates, 4, r, i)
                assert np.all(g > 0) and np.all(g < 1)

    def test_matches_reference(self):
        rng = np.random.default_rng(9)
        m = make_feats(rng, c=3, h=2, w=2)
        p = init_gate_params(3, rng)
        s = rng.normal(size=(2, 3, 2, 2))
        fused = gated_sum(m, task_gates(Tensor(s), p, train=True))
        for r in range(4):
            ref = np.stack([oracles.task_fuse_ref(*sample(m, i), s[i], p, r)
                            for i in range(2)])
            assert np.abs(unit_map(fused, 3, r) - ref).max() < 1e-10

    def test_gradients(self):
        rng = np.random.default_rng(10)
        m = make_feats(rng, c=3, h=2, w=2, as_params=True)
        p = init_gate_params(3, rng)
        probe = Tensor(rng.normal(size=(2, 4 * 3, 2, 2)))   # one weighting per unit

        def f():
            s = shared_attention(m, p)
            return tsum(mul(gated_sum(m, task_gates(s, p)), probe))

        assert_gradients_close(f, {"h1": m.h1, "h2": m.h2, "h3": m.h3,
                                   **p.tensors()}, max_elements=6,
                               rng=np.random.default_rng(0))


class TestFuseAll:
    def test_telemetry_half_at_zero_preactivations(self):
        rng = np.random.default_rng(11)
        c = 4
        m = make_feats(rng, c=c)
        p = init_gate_params(c, rng)
        for r in range(4):
            p.gate_w[r].data = np.zeros_like(p.gate_w[r].data)
            p.gate_b[r].data = np.zeros_like(p.gate_b[r].data)
            p.bn_shift[r].data = np.zeros_like(p.bn_shift[r].data)
        _, tele = fuse_all(m, p)
        npt.assert_allclose(tele, 0.5, atol=1e-12)
        assert tele.shape == (2, 4, 3)

    def test_identical_gate_params_give_identical_task_features(self):
        rng = np.random.default_rng(12)
        c = 4
        m = make_feats(rng, c=c)
        p = init_gate_params(c, rng)
        for r in range(1, 4):
            p.gate_w[r].data = p.gate_w[0].data.copy()
            p.gate_b[r].data = p.gate_b[0].data.copy()
            p.bn_scale[r].data = p.bn_scale[0].data.copy()
            p.bn_shift[r].data = p.bn_shift[0].data.copy()
        feats, tele = fuse_all(m, p)
        for r in range(1, 4):
            npt.assert_array_equal(feats[r].data, feats[0].data)
        npt.assert_allclose(tele, np.broadcast_to(tele[:, :1], (2, 4, 3)), atol=1e-15)

    def test_single_gate_unit_shares_across_tasks(self):
        rng = np.random.default_rng(13)
        m = make_feats(rng)
        p = init_gate_params(4, rng, num_gates=1)
        feats, _ = fuse_all(m, p)
        for r in range(1, 4):
            npt.assert_array_equal(feats[r].data, feats[0].data)

    @pytest.mark.parametrize("num_gates", [4, 1])
    def test_eval_mode_matches_reference(self, num_gates):
        # every task reads its own unit's parameters and running statistics
        rng = np.random.default_rng(17)
        c = 3
        m = make_feats(rng, c=c, h=2, w=3)
        p = init_gate_params(c, rng, num_gates=num_gates)
        for r in range(num_gates):
            p.gate_b[r].data = rng.normal(size=(c, 3))
            p.bn_scale[r].data = rng.uniform(0.5, 2.0, size=(c, 3))
            p.bn_shift[r].data = rng.normal(size=(c, 3))
            p.bn_stats[r].mean = rng.normal(size=(c, 3))
            p.bn_stats[r].var = rng.uniform(0.2, 3.0, size=(c, 3))
        stats = [(st.mean.copy(), st.var.copy()) for st in p.bn_stats]
        feats, tele = fuse_all(m, p, train=False)
        maps = gated_sum(m, task_gates(shared_attention(m, p), p, train=False))
        assert tele.shape == (2, 4, 3)
        assert [f.shape for f in feats] == [(2, c)] * 4
        for i in range(2):
            hs = sample(m, i)
            s = oracles.attention_ref(*hs, p)
            for r in range(4):
                unit = min(r, num_gates - 1)
                g = oracles.task_gates_ref(s, p, unit, stats[unit])
                ref = oracles.task_fuse_ref(*hs, s, p, unit, stats[unit])
                assert np.abs(unit_map(maps, c, unit)[i] - ref).max() < 1e-12
                assert np.abs(feats[r].data[i] - ref.mean(axis=(1, 2))).max() < 1e-12
                assert np.abs(tele[i, r] - g.reshape(c, 3, -1).mean(axis=(0, 2))).max() < 1e-12
        for st, (mean, var) in zip(p.bn_stats, stats):
            npt.assert_array_equal(st.mean, mean)
            npt.assert_array_equal(st.var, var)

    def test_train_statistics_land_in_each_task_slot(self):
        rng = np.random.default_rng(18)
        c, n = 3, 3
        # integer inputs and weights on a 4x4 map keep every conv sum and
        # per-sample statistic exact, so the program and the loops agree to the bit
        a = rng.integers(-3, 4, size=(n, c, 4, 4)).astype(float)
        m = ModalityFeatures(Tensor(a), Tensor(a.copy()), Tensor(a.copy()))
        p = init_gate_params(c, rng, with_attention=False)
        for r in range(4):
            p.gate_w[r].data = rng.integers(-2, 3, size=(c, 3, 3, 3)).astype(float)
            p.gate_b[r].data = rng.integers(-2, 3, size=(c, 3)).astype(float)
        npt.assert_array_equal(mean_fallback(m).data, a)
        fuse_all(m, p, train=True)
        for r in range(4):
            want = RunningStats((c, 3))
            for i in range(n):
                pre = oracles.depthwise2d_loops(a[i], p.gate_w[r].data, pad=1)
                pre = pre.reshape(c, 3, 4, 4) + p.gate_b[r].data[:, :, None, None]
                want.update(pre.mean(axis=(2, 3)), pre.var(axis=(2, 3)), 0.1)
            npt.assert_array_equal(p.bn_stats[r].mean, want.mean)
            npt.assert_array_equal(p.bn_stats[r].var, want.var)


class TestGatedSum:
    @pytest.mark.parametrize("units", [4, 1])
    def test_unit_sums_in_order(self, units):
        rng = np.random.default_rng(20)
        c = 2
        m = make_feats(rng, c=c, h=2, w=3)
        g = Tensor(rng.uniform(size=(2, 3 * units * c, 2, 3)))
        out = gated_sum(m, g)
        assert out.shape == (2, units * c, 2, 3)
        for r in range(units):
            want = (m.h1.data * gate_map(g, c, r, 0) + m.h2.data * gate_map(g, c, r, 1)
                    + m.h3.data * gate_map(g, c, r, 2))
            npt.assert_array_equal(unit_map(out, c, r), want)

    @pytest.mark.parametrize("units", [4, 1])
    def test_gradients(self, units):
        rng = np.random.default_rng(21)
        c = 2
        m = make_feats(rng, c=c, h=2, w=3, as_params=True)
        g = param(rng.uniform(0.05, 0.95, size=(2, 3 * units * c, 2, 3)))
        probe = Tensor(rng.normal(size=(2, units * c, 2, 3)))
        assert_gradients_close(lambda: tsum(mul(gated_sum(m, g), probe)),
                               {"h1": m.h1, "h2": m.h2, "h3": m.h3, "g": g},
                               max_elements=40, rng=np.random.default_rng(0))

    def test_gates_must_fit_the_modalities(self):
        rng = np.random.default_rng(22)
        m = make_feats(rng, c=2, h=2, w=3)
        for shape in [(2, 10, 2, 3), (1, 12, 2, 3), (2, 12, 3, 2)]:
            with pytest.raises(DimensionError):
                gated_sum(m, Tensor(np.zeros(shape)))


class TestConcatFuse:
    def test_block_selecting_identity(self):
        rng = np.random.default_rng(14)
        c = 4
        m = make_feats(rng, c=c)
        p = init_concat_fuse(c, rng)
        w = np.zeros((c, 3 * c, 1, 1))
        w[:, :c, 0, 0] = np.eye(c)
        p.w.data = w
        p.b.data = np.zeros(c)
        npt.assert_allclose(concat_fuse(m, p).data, m.h1.data, rtol=1e-14)

    def test_zero_modalities_give_zero(self):
        rng = np.random.default_rng(15)
        z = Tensor(np.zeros((2, 4, 3, 3)))
        m = ModalityFeatures(z, z, z)
        p = init_concat_fuse(4, rng)
        p.b.data = np.zeros(4)
        npt.assert_allclose(concat_fuse(m, p).data, 0.0, atol=1e-15)

    def test_matches_direct_computation(self):
        rng = np.random.default_rng(16)
        m = make_feats(rng, c=3, h=2, w=2)
        p = init_concat_fuse(3, rng)
        got = concat_fuse(m, p).data
        for i in range(2):
            cat = np.concatenate(sample(m, i), 0).reshape(9, 4)
            expect = (p.w.data.reshape(3, 9) @ cat + p.b.data[:, None]).reshape(3, 2, 2)
            assert np.abs(got[i] - expect).max() < 1e-10
