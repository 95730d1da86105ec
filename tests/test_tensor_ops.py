"""Forward-path tests of the tensor primitives against hand values and
nested-loop oracles.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmtl import ops
from mmtl.errors import ArgumentError, DimensionError
from mmtl.tensor import Tensor, concat, flip, matmul, narrow, reshape, \
    scale_channels, take_channels, tile_spatial

import oracles


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        npt.assert_array_equal(matmul(a, b).data, b.data)

    def test_projector(self):
        a = Tensor([[1.0, 0.0], [0.0, 0.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        npt.assert_array_equal(matmul(a, b).data, [[5.0, 6.0], [0.0, 0.0]])

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.abs(got - oracles.matmul_loops(a, b)).max() < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(3, 4\).*\(3, 2\)"):
            matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 2))))


class TestConvolve:
    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(1, 4, 4)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        npt.assert_array_equal(ops.convolve(x, w).data, x.data)

    def test_constant_field(self):
        c = 2.5
        x = Tensor(np.full((1, 5, 5), c))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = ops.convolve(x, w)
        npt.assert_allclose(out.data, 9 * c)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_conv2d_matches_loops(self, stride, pad):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        got = ops.convolve(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                           padding=pad).data
        ref = oracles.conv2d_loops(x, w, b, stride=stride, pad=pad)
        assert np.abs(got - ref).max() < 1e-12

    def test_conv1d_matches_loops(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 8))
        w = rng.normal(size=(2, 3, 3))
        got = ops.convolve(Tensor(x), Tensor(w), padding=1).data
        assert np.abs(got - oracles.conv1d_loops(x, w, pad=1)).max() < 1e-12

    def test_conv3d_matches_loops(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 4, 4, 4))
        w = rng.normal(size=(2, 2, 3, 3, 3))
        b = rng.normal(size=2)
        got = ops.convolve(Tensor(x), Tensor(w), Tensor(b), padding=1).data
        assert np.abs(got - oracles.conv3d_loops(x, w, b, pad=1)).max() < 1e-12

    def test_depthwise_matches_loops(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=6)
        got = ops.depthwise_conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1).data
        ref = oracles.depthwise2d_loops(x, w, b, pad=1)
        assert np.abs(got - ref).max() < 1e-12

    def test_depthwise_stride2_nonsquare_matches_loops(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(5, 9, 8))
        w = rng.normal(size=(5, 2, 3, 2))
        b = rng.normal(size=10)
        got = ops.depthwise_conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2,
                                   padding=1).data
        ref = oracles.depthwise2d_loops(x, w, b, stride=2, pad=1)
        assert got.shape == ref.shape == (10, 5, 5)
        assert np.abs(got - ref).max() < 1e-12

    def test_conv1d_block_layout_matches_loops(self):
        # dual_path_block: positions as channels, the C channels as the length
        rng = np.random.default_rng(11)
        x = rng.normal(size=(16, 24))
        w = rng.normal(size=(16, 16, 3))
        b = rng.normal(size=16)
        got = ops.convolve(Tensor(x), Tensor(w), Tensor(b), padding=1).data
        assert np.abs(got - oracles.conv1d_loops(x, w, b, pad=1)).max() < 1e-12

    def test_conv3d_joint_shape_matches_loops(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(1, 16, 17, 3))
        w = rng.normal(size=(2, 1, 3, 3, 3))
        b = rng.normal(size=2)
        got = ops.convolve(Tensor(x), Tensor(w), Tensor(b), padding=1).data
        assert np.abs(got - oracles.conv3d_loops(x, w, b, pad=1)).max() < 1e-12

    def test_output_size_formula(self):
        x = Tensor(np.zeros((1, 9, 7)))
        w = Tensor(np.zeros((1, 1, 3, 3)))
        out = ops.convolve(x, w, stride=2, padding=1)
        assert out.shape == (1, (9 + 2 - 3) // 2 + 1, (7 + 2 - 3) // 2 + 1)

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError):
            ops.convolve(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))


class TestPooling:
    def test_adaptive_identity(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 4, 5)))
        npt.assert_array_equal(ops.adaptive_avg_pool(x, (4, 5)).data, x.data)

    def test_fixed_constant(self):
        x = Tensor(np.full((1, 6, 6), 3.25))
        npt.assert_allclose(ops.avg_pool(x, 3, stride=1).data, 3.25)

    def test_adaptive_5_to_2_bins(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0, 5.0]).reshape(1, 5))
        out = ops.adaptive_avg_pool(x, (2,))
        npt.assert_allclose(out.data, [[2.0, 4.5]])

    @pytest.mark.parametrize("shape,target", [((2, 4, 8), (3, 5)), ((1, 7, 7), (3, 3)),
                                              ((2, 8, 8), (2, 4))])
    def test_adaptive_matches_enumeration(self, shape, target):
        rng = np.random.default_rng(7)
        x = rng.normal(size=shape)
        got = ops.adaptive_avg_pool(Tensor(x), target).data
        assert np.abs(got - oracles.adaptive_pool2d_enum(x, *target)).max() < 1e-12

    def test_fixed_matches_loops(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 8, 8))
        got = ops.avg_pool(Tensor(x), 3, stride=2, padding=1).data
        assert np.abs(got - oracles.avg_pool2d_loops(x, 3, 2, pad=1)).max() < 1e-12

    @pytest.mark.parametrize("shape,window,stride,pad", [
        ((3, 9, 7, 3), (2, 2, 1), (2, 2, 1), 0),   # joints pooling, odd sizes
        ((2, 9, 7), (3, 3), (2, 2), 1),
    ])
    def test_fixed_nd_matches_loops(self, shape, window, stride, pad):
        rng = np.random.default_rng(13)
        x = rng.normal(size=shape)
        got = ops.avg_pool(Tensor(x), window, stride=stride, padding=pad).data
        ref = oracles.avg_pool_loops(x, window, stride, pad=pad)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() < 1e-12

    def test_expand_bins_matches_enumeration(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 3, 3))
        got = ops.expand_bins(Tensor(x), (7, 7)).data
        assert np.abs(got - oracles.expand_bins2d_enum(x, 7, 7)).max() < 1e-12

    def test_zero_target_rejected(self):
        with pytest.raises(ArgumentError):
            ops.adaptive_avg_pool(Tensor(np.zeros((1, 4))), (0,))
        with pytest.raises(ArgumentError):
            ops.avg_pool(Tensor(np.zeros((1, 4, 4))), 0)


class TestActivations:
    def test_sigmoid_zero(self):
        assert ops.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_softmax_uniform(self):
        out = ops.softmax(Tensor([0.0, 0.0, 0.0, 0.0]), axis=0)
        npt.assert_allclose(out.data, 0.25)

    def test_gelu_at_one(self):
        # x * Phi(x) with Phi(1) = 0.841345 from the Gaussian CDF
        got = ops.gelu(Tensor([1.0])).data[0]
        assert abs(got - 0.8413447460685429) < 1e-12
        assert abs(got - oracles.gelu_ref(1.0)) < 1e-15

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_softmax_rows_sum_to_one(self, vals):
        out = ops.softmax(Tensor(np.array(vals)), axis=0)
        assert abs(out.data.sum() - 1.0) < 1e-9
        assert np.all(np.isfinite(out.data))

    def test_softmax_bad_axis(self):
        with pytest.raises(ArgumentError):
            ops.softmax(Tensor(np.zeros((2, 2))), axis=2)


class TestBatchnorm:
    def test_already_normalized(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(64, 1))
        x = (x - x.mean()) / x.std()
        out = ops.batchnorm(Tensor(x), Tensor([1.0]), Tensor([0.0]),
                            ops.RunningStats(1), eps=1e-5, channel_axis=1)
        assert np.abs(out.data - x).max() < 1e-4

    def test_zero_scale_gives_shift(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(5, 3)))
        out = ops.batchnorm(x, Tensor(np.zeros(3)), Tensor([1.0, 2.0, 3.0]),
                            ops.RunningStats(3), channel_axis=1)
        npt.assert_allclose(out.data, np.broadcast_to([1.0, 2.0, 3.0], (5, 3)))

    def test_two_sample_hand_case(self):
        x = Tensor(np.array([[1.0], [3.0]]))
        out = ops.batchnorm(x, Tensor([1.0]), Tensor([0.0]), ops.RunningStats(1),
                            eps=0.0, channel_axis=1)
        npt.assert_allclose(out.data, [[-1.0], [1.0]])

    def test_eval_uses_running_stats(self):
        stats = ops.RunningStats(2)
        stats.mean = np.array([1.0, -1.0])
        stats.var = np.array([4.0, 0.25])
        x = Tensor(np.array([[3.0, 0.0]]))
        out = ops.batchnorm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), stats,
                            eps=0.0, train=False, channel_axis=1)
        npt.assert_allclose(out.data, [[1.0, 2.0]])

    def test_running_stats_momentum(self):
        stats = ops.RunningStats(1)
        x = Tensor(np.array([[2.0], [4.0]]))
        ops.batchnorm(x, Tensor([1.0]), Tensor([0.0]), stats, channel_axis=1)
        npt.assert_allclose(stats.mean, [0.9 * 0.0 + 0.1 * 3.0])
        npt.assert_allclose(stats.var, [0.9 * 1.0 + 0.1 * 1.0])

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            ops.batchnorm(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)),
                          Tensor(np.zeros(2)), ops.RunningStats(2), channel_axis=1)


class TestLinear:
    def test_identity(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(4, 3)))
        out = ops.linear(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
        npt.assert_array_equal(out.data, x.data)

    def test_zero_input_gives_bias(self):
        out = ops.linear(Tensor(np.zeros((2, 3))), Tensor(np.ones((3, 2))),
                         Tensor([5.0, -1.0]))
        npt.assert_allclose(out.data, np.broadcast_to([5.0, -1.0], (2, 2)))

    def test_hand_case(self):
        out = ops.linear(Tensor([1.0, 2.0]), Tensor([[1.0, 0.0], [0.0, 2.0]]),
                         Tensor([0.5, 0.5]))
        npt.assert_allclose(out.data, [1.5, 4.5])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            ops.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


class TestStructuralOps:
    def test_concat_narrow_roundtrip(self):
        rng = np.random.default_rng(13)
        a, b = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(4, 3)))
        cat = concat([a, b], axis=0)
        npt.assert_array_equal(narrow(cat, 0, 0, 2).data, a.data)
        npt.assert_array_equal(narrow(cat, 0, 2, 4).data, b.data)

    def test_flip_involution(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(3, 4)))
        npt.assert_array_equal(flip(flip(x, 0), 0).data, x.data)

    def test_take_channels_permutation(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(5, 2)))
        perm = np.array([4, 2, 0, 1, 3])
        npt.assert_array_equal(take_channels(x, perm).data, x.data[perm])

    def test_tile_and_scale_channels(self):
        v = Tensor([1.0, 2.0])
        tiled = tile_spatial(v, (2, 2))
        assert tiled.shape == (2, 2, 2)
        gated = scale_channels(Tensor(np.ones((2, 2, 2))), v)
        npt.assert_array_equal(gated.data, tiled.data)

    def test_determinism(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        a = ops.convolve(Tensor(x), Tensor(w), padding=1).data
        b = ops.convolve(Tensor(x.copy()), Tensor(w.copy()), padding=1).data
        assert np.array_equal(a, b)

    @given(st.integers(0, 2 ** 31), st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_forward_ops_finite_on_finite_input(self, seed, size):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(scale=10.0, size=(2, size, size)))
        w = Tensor(rng.normal(scale=10.0, size=(2, 2, 2, 2)))
        y = ops.convolve(x, w, padding=1)
        y = ops.gelu(y)
        y = ops.softmax(reshape(y, (2, -1)), axis=1)
        assert np.all(np.isfinite(y.data))


class TestCrossEntropy:
    def test_uniform(self):
        out = ops.cross_entropy(Tensor(np.zeros(4)), 2)
        assert abs(out.item() - math.log(4)) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ArgumentError):
            ops.cross_entropy(Tensor(np.zeros(3)), 3)
