"""Forward-path tests of the tensor primitives against hand values and
nested-loop oracles. Every op takes a leading batch axis; the oracles take one
sample, so batched outputs are compared sample by sample.
"""

import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmtl import ops
from mmtl.errors import ArgumentError, DimensionError
from mmtl.tensor import Tape, Tensor, backward, concat, matmul, mul, narrow, param, \
    reshape, scale_channels, take_channels, tile_spatial, tsum

import oracles


def per_sample(oracle, xs, *args, **kwargs):
    """Stack a one-sample oracle over the leading batch axis of ``xs``."""
    return np.stack([oracle(x, *args, **kwargs) for x in xs])


def every(stride, nd):
    """Index of every ``stride``-th position along each of the last ``nd`` axes:
    the convolutions run at stride 1, and a stride-s convolution is the
    stride-1 one read there."""
    return (Ellipsis,) + (slice(None, None, stride),) * nd


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

    def test_batched_multiplies_each_sample_pair(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(3, 2, 4))
        b = rng.normal(size=(3, 4, 5))
        got = matmul(Tensor(a), Tensor(b)).data
        for n in range(3):
            assert np.abs(got[n] - oracles.matmul_loops(a[n], b[n])).max() < 1e-12

    def test_batch_axes_must_agree(self):
        with pytest.raises(DimensionError):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 2))))


class TestConvolve:
    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 1, 4, 4)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        npt.assert_array_equal(ops.convolve(x, w, Tensor(np.zeros(1))).data, x.data)

    def test_constant_field(self):
        c = 2.5
        x = Tensor(np.full((1, 1, 5, 5), c))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = ops.convolve(x, w, Tensor(np.zeros(1)))
        npt.assert_allclose(out.data, 9 * c)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_conv2d_matches_loops(self, stride, pad):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        got = ops.convolve(Tensor(x), Tensor(w), Tensor(b), padding=pad).data[every(stride, 2)]
        ref = per_sample(oracles.conv2d_loops, x, w, b, stride=stride, pad=pad)
        assert np.abs(got - ref).max() < 1e-12

    def test_conv1d_matches_loops(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 8))
        w = rng.normal(size=(2, 3, 3))
        b = rng.normal(size=2)
        got = ops.convolve(Tensor(x), Tensor(w), Tensor(b), padding=1).data
        assert np.abs(got - per_sample(oracles.conv1d_loops, x, w, b, pad=1)).max() < 1e-12

    def test_conv3d_matches_loops(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 2, 4, 4, 4))
        w = rng.normal(size=(2, 2, 3, 3, 3))
        b = rng.normal(size=2)
        got = ops.convolve(Tensor(x), Tensor(w), Tensor(b), padding=1).data
        assert np.abs(got - per_sample(oracles.conv3d_loops, x, w, b, pad=1)).max() < 1e-12

    def test_depthwise_matches_loops(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=6)
        got = ops.depthwise_conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1).data
        ref = per_sample(oracles.depthwise2d_loops, x, w, b, pad=1)
        assert np.abs(got - ref).max() < 1e-12

    def test_depthwise_stride2_nonsquare_matches_loops(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 5, 9, 8))
        w = rng.normal(size=(5, 2, 3, 2))
        b = rng.normal(size=10)
        got = ops.depthwise_conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1).data[every(2, 2)]
        ref = per_sample(oracles.depthwise2d_loops, x, w, b, stride=2, pad=1)
        assert got.shape == ref.shape == (2, 10, 5, 5)
        assert np.abs(got - ref).max() < 1e-12

    def test_depthwise_is_block_diagonal_convolve(self):
        # W[c*M + m, c] = w[c, m], zero off the diagonal blocks: the dense
        # convolution with W gives the depthwise output channels in c*M+m order
        rng = np.random.default_rng(13)
        c, m = 3, 2
        w = rng.normal(size=(c, m, 3, 3))
        dense = np.zeros((c * m, c, 3, 3))
        for ch in range(c):
            dense[ch * m:(ch + 1) * m, ch] = w[ch]
        x0 = rng.normal(size=(2, c, 7, 6))
        b0 = rng.normal(size=c * m)
        probe = Tensor(rng.normal(size=(2, c * m, 7, 6)))

        def run(op, kernel):
            x, k, b = param(x0), param(kernel), param(b0)
            with Tape() as tape:
                y = op(x, k, b, padding=1)
                loss = tsum(mul(y, probe))
            backward(tape, loss)
            return y.data, x.grad, k.grad, b.grad

        yd, dxd, dwd, dbd = run(ops.depthwise_conv2d, w)
        yc, dxc, dwc, dbc = run(ops.convolve, dense)
        assert np.abs(yd - yc).max() < 1e-12
        assert np.abs(dxd - dxc).max() < 1e-12
        assert np.abs(dbd - dbc).max() < 1e-12
        dw_blocks = np.stack([dwc[ch * m:(ch + 1) * m, ch] for ch in range(c)])
        assert np.abs(dwd - dw_blocks).max() < 1e-12

    def test_conv1d_block_layout_matches_loops(self):
        # dual_path_block: positions as channels, the C channels as the length
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 16, 24))
        w = rng.normal(size=(16, 16, 3))
        b = rng.normal(size=16)
        got = ops.convolve(Tensor(x), Tensor(w), Tensor(b), padding=1).data
        assert np.abs(got - per_sample(oracles.conv1d_loops, x, w, b, pad=1)).max() < 1e-12

    def test_conv3d_joint_shape_matches_loops(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 1, 16, 17, 3))
        w = rng.normal(size=(2, 1, 3, 3, 3))
        b = rng.normal(size=2)
        got = ops.convolve(Tensor(x), Tensor(w), Tensor(b), padding=1).data
        assert np.abs(got - per_sample(oracles.conv3d_loops, x, w, b, pad=1)).max() < 1e-12

    def test_output_size_formula(self):
        x = Tensor(np.zeros((2, 1, 9, 7)))
        w = Tensor(np.zeros((1, 1, 3, 2)))
        out = ops.convolve(x, w, Tensor(np.zeros(1)), padding=1)
        assert out.shape == (2, 1, 9 + 2 - 3 + 1, 7 + 2 - 2 + 1)

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError):
            ops.convolve(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))),
                         Tensor(np.zeros(1)))


def _unwindow_cases():
    """(x shape, kernel, stride, pad): every stride in {1, 2}, pad in {0, 1}
    and N in {1, 3} for 1-, 2- and 3-d maps, then the fusion gate's and the
    joints' second convolution, then a 1x1 unpadded kernel (no scatter) for
    each map and N. A stride-2 case's column gradient is zero off every
    second output position: what a stride-2 convolution, read as every
    second position of a stride-1 one, hands back."""
    spatial = {1: ((7,), (3,)), 2: ((5, 6), (3, 2)), 3: ((5, 4, 3), (3, 2, 3))}
    cases = [((n, 2) + sp, kernel, stride, pad)
             for sp, kernel in spatial.values()
             for stride, pad, n in itertools.product((1, 2), (0, 1), (1, 3))]
    pointwise = [((n, 3) + sp, (1,) * len(sp), 1, 0)
                 for sp, _ in spatial.values() for n in (1, 3)]
    return cases + [((3, 6, 4, 4), (3, 3), 1, 1), ((3, 4, 4, 8, 3), (3, 3, 3), 1, 1)] + pointwise


class TestUnwindow:
    """``_unwindow`` scatters im2col column gradients back onto the input, the
    adjoint of ``_windows``."""

    @staticmethod
    def _columns(x_shape, kernel, stride, pad, rng):
        """x, a column gradient that is zero off every ``stride``-th output
        position, and ``_windows``' arguments after x."""
        args = (kernel, (pad,) * len(kernel))
        x = rng.normal(size=x_shape)
        dcols = np.zeros(ops._windows(x, *args, "test").shape)
        read = every(stride, len(kernel))
        dcols[read] = rng.normal(size=dcols[read].shape)
        return x, dcols, args

    @pytest.mark.parametrize("x_shape,kernel,stride,pad", _unwindow_cases())
    def test_equals_per_offset_scatter(self, x_shape, kernel, stride, pad):
        rng = np.random.default_rng(sum(x_shape) + stride + pad)
        _, dcols, args = self._columns(x_shape, kernel, stride, pad, rng)
        got = ops._unwindow(dcols, x_shape, *args)
        assert got.shape == x_shape
        want = oracles.unwindow_loops(dcols[every(stride, len(kernel))], x_shape, kernel,
                                      stride, pad)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("x_shape,kernel,stride,pad", _unwindow_cases())
    def test_adjoint_of_windows(self, x_shape, kernel, stride, pad):
        # <windows(x), c> == <x, unwindow(c)>, to rounding on the sum of |terms|
        rng = np.random.default_rng(7 * sum(x_shape) + stride + pad)
        x, dcols, args = self._columns(x_shape, kernel, stride, pad, rng)
        cols = ops._windows(x, *args, "test")
        lhs = np.vdot(cols, dcols)
        rhs = np.vdot(x, ops._unwindow(dcols, x_shape, *args))
        assert abs(lhs - rhs) <= 1e-12 * np.vdot(np.abs(cols), np.abs(dcols))

    def test_index_is_cached_and_read_only(self):
        args = ((3, 2, 4, 4), (3, 3), (1, 1))
        index = ops._read_index(*args)
        assert index is ops._read_index(*args)
        assert index.dtype == np.intp and not index.flags.writeable
        assert index.shape == (2, 9, 3, 4, 4)


class TestPooling:
    def test_adaptive_identity(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 2, 4, 5)))
        npt.assert_array_equal(ops.adaptive_avg_pool(x, (4, 5)).data, x.data)

    def test_fixed_constant(self):
        x = Tensor(np.full((1, 1, 6, 6), 3.25))
        npt.assert_allclose(ops.avg_pool(x, 3, stride=1).data, 3.25)

    def test_adaptive_5_to_2_bins(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0, 5.0]).reshape(1, 1, 5))
        out = ops.adaptive_avg_pool(x, (2,))
        npt.assert_allclose(out.data, [[[2.0, 4.5]]])

    @pytest.mark.parametrize("shape,target", [((2, 2, 4, 8), (3, 5)), ((1, 1, 7, 7), (3, 3)),
                                              ((3, 2, 8, 8), (2, 4))])
    def test_adaptive_matches_enumeration(self, shape, target):
        rng = np.random.default_rng(7)
        x = rng.normal(size=shape)
        got = ops.adaptive_avg_pool(Tensor(x), target).data
        ref = per_sample(oracles.adaptive_pool2d_enum, x, *target)
        assert np.abs(got - ref).max() < 1e-12

    def test_fixed_matches_loops(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 2, 8, 8))
        got = ops.avg_pool(Tensor(x), 3, stride=2, padding=1).data
        assert np.abs(got - per_sample(oracles.avg_pool2d_loops, x, 3, 2, pad=1)).max() < 1e-12

    @pytest.mark.parametrize("shape,window,stride,pad", [
        ((2, 3, 9, 7, 3), (2, 2, 1), (2, 2, 1), 0),   # joints pooling, odd sizes
        ((2, 2, 9, 7), (3, 3), (2, 2), 1),
    ])
    def test_fixed_nd_matches_loops(self, shape, window, stride, pad):
        rng = np.random.default_rng(13)
        x = rng.normal(size=shape)
        got = ops.avg_pool(Tensor(x), window, stride=stride, padding=pad).data
        ref = per_sample(oracles.avg_pool_loops, x, window, stride, pad=pad)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() < 1e-12

    def test_expand_bins_matches_enumeration(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 2, 3, 3))
        got = ops.expand_bins(Tensor(x), (7, 7)).data
        assert np.abs(got - per_sample(oracles.expand_bins2d_enum, x, 7, 7)).max() < 1e-12

    @pytest.mark.parametrize("shape,target", [
        ((2, 32, 8, 8, 3), (2, 2, 1)),     # the joints' volume
        ((2, 2, 9, 7), (4, 3)),
        ((1, 3, 7, 5, 3), (3, 2, 2)),
        ((3, 2, 11), (4,)),
    ])
    def test_adaptive_nd_matches_loops(self, shape, target):
        rng = np.random.default_rng(14)
        x = rng.normal(size=shape)
        got = ops.adaptive_avg_pool(Tensor(x), target).data
        ref = per_sample(oracles.adaptive_pool_loops, x, target)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() < 1e-12

    @pytest.mark.parametrize("shape,out_sizes", [
        ((2, 2, 3), (8,)),
        ((2, 2, 3, 2), (7, 5)),
        ((2, 1, 2, 3, 2), (5, 7, 3)),
    ])
    def test_expand_bins_nd_matches_loops(self, shape, out_sizes):
        rng = np.random.default_rng(15)
        x = rng.normal(size=shape)
        got = ops.expand_bins(Tensor(x), out_sizes).data
        ref = per_sample(oracles.expand_bins_loops, x, out_sizes)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() < 1e-12

    @pytest.mark.parametrize("out_sizes", [(3,), (0,)])
    def test_expand_bins_fewer_positions_than_bins_rejected(self, out_sizes):
        with pytest.raises(ArgumentError):
            ops.expand_bins(Tensor(np.arange(5.0).reshape(1, 1, 5)), out_sizes)

    def test_pool_kernel_larger_than_padded_input(self):
        with pytest.raises(DimensionError):
            ops.avg_pool(Tensor(np.zeros((1, 1, 2, 2))), 5, padding=1)

    def test_zero_target_rejected(self):
        with pytest.raises(ArgumentError):
            ops.adaptive_avg_pool(Tensor(np.zeros((1, 1, 4))), (0,))
        with pytest.raises(ArgumentError):
            ops.avg_pool(Tensor(np.zeros((1, 1, 4, 4))), 0)


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
    # one sample and one channel whose values sit along the position axis:
    # train mode normalizes each sample's channel over its own positions
    def test_already_normalized(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(1, 1, 64))
        x = (x - x.mean()) / x.std()
        out = ops.batchnorm(Tensor(x), Tensor([1.0]), Tensor([0.0]),
                            ops.RunningStats(1), eps=1e-5)
        assert np.abs(out.data - x).max() < 1e-4

    def test_zero_scale_gives_shift(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(2, 3, 5)))
        out = ops.batchnorm(x, Tensor(np.zeros(3)), Tensor([1.0, 2.0, 3.0]),
                            ops.RunningStats(3))
        npt.assert_allclose(out.data, np.broadcast_to([[1.0], [2.0], [3.0]], (2, 3, 5)))

    def test_two_sample_hand_case(self):
        # two positions of one channel, normalized to -1 and +1
        x = Tensor(np.array([[[1.0, 3.0]]]))
        out = ops.batchnorm(x, Tensor([1.0]), Tensor([0.0]), ops.RunningStats(1),
                            eps=0.0)
        npt.assert_allclose(out.data, [[[-1.0, 1.0]]])

    def test_eval_uses_running_stats(self):
        stats = ops.RunningStats(2)
        stats.mean = np.array([1.0, -1.0])
        stats.var = np.array([4.0, 0.25])
        x = Tensor(np.array([[[3.0], [0.0]]]))
        out = ops.batchnorm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), stats,
                            eps=0.0, train=False)
        npt.assert_allclose(out.data, [[[1.0], [2.0]]])

    def test_running_stats_momentum(self):
        stats = ops.RunningStats(1)
        x = Tensor(np.array([[[2.0, 4.0]]]))
        ops.batchnorm(x, Tensor([1.0]), Tensor([0.0]), stats)
        npt.assert_allclose(stats.mean, [0.9 * 0.0 + 0.1 * 3.0])
        npt.assert_allclose(stats.var, [0.9 * 1.0 + 0.1 * 1.0])

    def test_statistics_are_per_sample(self):
        # each sample is normalized by its own positions, whatever the others hold
        x = Tensor(np.array([[[1.0, 3.0]], [[10.0, 30.0]]]))
        out = ops.batchnorm(x, Tensor([1.0]), Tensor([0.0]), ops.RunningStats(1),
                            eps=0.0)
        npt.assert_allclose(out.data, [[[-1.0, 1.0]], [[-1.0, 1.0]]])

    def test_one_batched_call_equals_per_sample_calls(self):
        # output, x/scale/shift gradients and the final running statistics of
        # one [N, ...] call match N one-sample calls made in batch order
        rng = np.random.default_rng(18)
        x = rng.normal(size=(4, 3, 5, 2)) * rng.uniform(0.5, 3.0, size=(4, 3, 1, 1))
        probe = rng.normal(size=x.shape)
        scale, shift = rng.normal(size=3), rng.normal(size=3)

        def run(samples):
            xs = [param(v) for v in samples]
            sc, sh, stats = param(scale), param(shift), ops.RunningStats(3)
            with Tape() as tape:
                outs = [ops.batchnorm(xi, sc, sh, stats) for xi in xs]
                loss = tsum(mul(concat(outs, axis=0), Tensor(probe)))
            backward(tape, loss)
            grad_x = np.concatenate([xi.grad for xi in xs])
            return concat(outs, axis=0).data, grad_x, sc.grad, sh.grad, stats

        batched = run([x])
        looped = run([x[i:i + 1] for i in range(len(x))])
        for got, want in zip(batched[:4], looped[:4]):
            assert np.abs(got - want).max() <= 1e-12 * (1.0 + np.abs(want).max())
        for attr in ("mean", "var"):
            got, want = getattr(batched[4], attr), getattr(looped[4], attr)
            assert np.abs(got - want).max() <= 1e-12 * (1.0 + np.abs(want).max())

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            ops.batchnorm(Tensor(np.zeros((1, 3, 2))), Tensor(np.zeros(2)),
                          Tensor(np.zeros(2)), ops.RunningStats(2))

    def test_positions_required(self):
        with pytest.raises(DimensionError):
            ops.batchnorm(Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)),
                          Tensor(np.zeros(2)), ops.RunningStats(2))


class TestLinear:
    def test_identity(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        out = ops.linear(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
        npt.assert_array_equal(out.data, x.data)

    def test_zero_input_gives_bias(self):
        out = ops.linear(Tensor(np.zeros((1, 3, 2))), Tensor(np.ones((3, 2))),
                         Tensor([5.0, -1.0]))
        npt.assert_allclose(out.data, np.broadcast_to([[5.0], [-1.0]], (1, 2, 2)))

    def test_hand_case(self):
        out = ops.linear(Tensor([[1.0, 2.0], [0.0, 1.0]]), Tensor([[1.0, 0.0], [0.0, 2.0]]),
                         Tensor([0.5, 0.5]))
        npt.assert_allclose(out.data, [[1.5, 4.5], [0.5, 2.5]])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            ops.linear(Tensor(np.zeros((1, 3, 2))), Tensor(np.zeros((4, 2))),
                       Tensor(np.zeros(2)))


class TestStructuralOps:
    def test_concat_narrow_roundtrip(self):
        rng = np.random.default_rng(13)
        a, b = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(4, 3)))
        cat = concat([a, b], axis=0)
        npt.assert_array_equal(narrow(cat, 0, 0, 2).data, a.data)
        npt.assert_array_equal(narrow(cat, 0, 2, 4).data, b.data)

    def test_take_channels_permutation(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(2, 5, 2)))
        perm = np.array([4, 2, 0, 1, 3])
        npt.assert_array_equal(take_channels(x, perm).data, x.data[:, perm])

    def test_tile_and_scale_channels(self):
        v = Tensor([[1.0, 2.0], [1.0, 2.0]])
        tiled = tile_spatial(v, (2, 2))
        assert tiled.shape == (2, 2, 2, 2)
        gated = scale_channels(Tensor(np.ones((2, 2, 2, 2))), Tensor([1.0, 2.0]))
        npt.assert_array_equal(gated.data, tiled.data)

    def test_determinism(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(2, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        a = ops.convolve(Tensor(x), Tensor(w), Tensor(b), padding=1).data
        again = ops.convolve(Tensor(x.copy()), Tensor(w.copy()), Tensor(b.copy()),
                             padding=1).data
        assert np.array_equal(a, again)

    @given(st.integers(0, 2 ** 31), st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_forward_ops_finite_on_finite_input(self, seed, size):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(scale=10.0, size=(2, 2, size, size)))
        w = Tensor(rng.normal(scale=10.0, size=(2, 2, 2, 2)))
        y = ops.convolve(x, w, Tensor(rng.normal(scale=10.0, size=2)), padding=1)
        y = ops.gelu(y)
        y = ops.softmax(reshape(y, (2, 2, -1)), axis=2)
        assert np.all(np.isfinite(y.data))


class TestCrossEntropy:
    def test_uniform(self):
        out = ops.cross_entropy(Tensor(np.zeros((1, 4))), [2])
        assert abs(out.item() - math.log(4)) < 1e-12

    def test_batch_mean(self):
        rng = np.random.default_rng(19)
        logits = rng.normal(size=(3, 5))
        labels = [4, 0, 2]
        want = np.mean([ops.cross_entropy(Tensor(lg[None]), [y]).item()
                        for lg, y in zip(logits, labels)])
        got = ops.cross_entropy(Tensor(logits), labels).item()
        assert abs(got - want) < 1e-14

    def test_label_out_of_range(self):
        with pytest.raises(ArgumentError):
            ops.cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])

    def test_one_label_per_row(self):
        with pytest.raises(DimensionError):
            ops.cross_entropy(Tensor(np.zeros((2, 3))), [0])
