"""Stem and dual-path block: structural identities, shape preservation,
oracle agreement, and gradient flow. Both take a batch: the stem a list of
per-sample view lists, the block [N, C, H, W].
"""

import numpy as np
import numpy.testing as npt
import pytest

from mmtl.blocks import EXTERIOR_VIEWS, ViewSequence, \
    block_stack, dual_path_block, init_block, init_stem, stem
from mmtl.errors import ConfigError, InputError
from mmtl.tensor import Tape, Tensor, backward, mul, param, tsum

import oracles
from gradassert import assert_gradients_close


def make_views(rng, t=2, hv=8, wv=8, ids=EXTERIOR_VIEWS):
    return [ViewSequence(v, rng.random((t, 3, hv, wv))) for v in ids]


class TestStem:
    def test_missing_view_named(self):
        rng = np.random.default_rng(0)
        p = init_stem(EXTERIOR_VIEWS, 2, 12, 3, 3, rng)
        views = make_views(rng)[:2]
        with pytest.raises(InputError, match="right"):
            stem([make_views(rng), views], p)

    def test_constant_input_gives_constant_output(self):
        # unpadded convolution and pooling map constants to exact constants
        rng = np.random.default_rng(1)
        p = init_stem(EXTERIOR_VIEWS, 2, 12, 2, 2, rng)
        views = [ViewSequence(v, np.full((2, 3, 6, 6), 0.75)) for v in EXTERIOR_VIEWS]
        out = stem([views], p).data
        assert out.shape == (1, 12, 2, 2)
        per_channel_spread = out.max(axis=(2, 3)) - out.min(axis=(2, 3))
        npt.assert_allclose(per_channel_spread, 0.0, atol=1e-14)

    def test_frame_major_channel_layout(self):
        # planting a signal in frame t of one view must light up channels of
        # frame group t only
        rng = np.random.default_rng(2)
        t, c = 3, 18
        p = init_stem(EXTERIOR_VIEWS, t, c, 2, 2, rng)
        base = [ViewSequence(v, np.full((t, 3, 4, 4), 0.5)) for v in EXTERIOR_VIEWS]
        bumped_frames = base[0].frames.copy()
        bumped_frames[1] += 0.3          # frame index 1 of the front view
        bumped = [ViewSequence("front", bumped_frames)] + base[1:]
        delta = np.abs(stem([bumped], p).data - stem([base], p).data)[0].sum(axis=(1, 2))
        group = c // t
        hot = np.flatnonzero(delta > 1e-9)
        assert np.all((hot >= group) & (hot < 2 * group))

    def test_matches_straight_line_reference(self):
        rng = np.random.default_rng(3)
        t = 2
        p = init_stem(EXTERIOR_VIEWS, t, 12, 3, 3, rng)
        frames = [[rng.random((t, 3, 8, 8)) for _ in range(3)] for _ in range(2)]
        views = [[ViewSequence(v, f) for v, f in zip(EXTERIOR_VIEWS, sample)]
                 for sample in frames]
        got = stem(views, p).data
        ref = np.stack([oracles.stem_ref(sample, p) for sample in frames])
        assert np.abs(got - ref).max() < 1e-10

    def test_degenerate_single_view_single_frame(self):
        # T=1, V=1, 1x1 identity depthwise, pool target = input size:
        # the output is the centered frame passed through the pointwise mix
        rng = np.random.default_rng(17)
        p = init_stem(("front",), 1, 2, 5, 5, rng, kernel_size=1)
        p.depthwise_w[0].data = np.ones((3, 1, 1, 1))
        p.depthwise_b[0].data = np.zeros(3)
        frame = rng.random((1, 3, 5, 5))
        out = stem([[ViewSequence("front", frame)]], p).data[0]
        centered = frame[0] - 0.5
        pw = p.pointwise_w[0].data[0]            # [cpf=2, 3]
        expect = np.einsum("oc,chw->ohw", pw, centered) \
            + p.pointwise_b[0].data[:, None, None]
        expect = oracles.gelu_ref(expect)
        npt.assert_allclose(out, expect, atol=1e-12)

    def test_gradients_flow(self):
        rng = np.random.default_rng(4)
        p = init_stem(EXTERIOR_VIEWS, 2, 6, 2, 2, rng)
        views = [make_views(rng, t=2, hv=4, wv=4) for _ in range(2)]
        probe = Tensor(rng.normal(size=(2, 6, 2, 2)))
        assert_gradients_close(lambda: tsum(mul(stem(views, p), probe)),
                               p.tensors(), max_elements=6,
                               rng=np.random.default_rng(0))

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ConfigError):
            init_stem(EXTERIOR_VIEWS, 2, 10, 2, 2, np.random.default_rng(5))


class TestDualPathBlock:
    def _block(self, rng, c=8, t=2, h=3, w=3, n=2):
        return init_block(c, t, h, w, n, rng)

    def test_gamma_zero_is_identity(self):
        rng = np.random.default_rng(6)
        p = self._block(rng)
        p.gamma.data = np.array(0.0)
        x = Tensor(rng.normal(size=(2, 8, 3, 3)))
        out = dual_path_block(x, p)
        assert np.array_equal(out.data, x.data)

    def test_zero_state_params_reduce_to_identity(self):
        # identity linears + zero scan params: both paths emit zero, so the
        # residual output equals the input for any gamma
        rng = np.random.default_rng(7)
        c, t, h, w = 8, 2, 3, 3
        p = self._block(rng, c=c, t=t, h=h, w=w)
        eye = np.eye(c)
        for wt in (p.local_w, p.global_w, p.out_w):
            wt.data = eye.copy()
        for bt in (p.local_b, p.global_b, p.out_b):
            bt.data = np.zeros(c)
        for tensor in (p.A_fwd, p.B, p.C, p.A_bwd, p.D_bwd, p.D_fwd):
            tensor.data = np.zeros_like(tensor.data)
        p.gamma.data = np.array(0.8)
        x = Tensor(rng.normal(size=(2, c, h, w)))
        # with zero B/C/D both scans output zero; pooling and linears keep it zero
        out = dual_path_block(x, p)
        npt.assert_allclose(out.data, x.data, rtol=0, atol=1e-15)

    def test_shape_preserved(self):
        rng = np.random.default_rng(8)
        for c, t, h, w in ((8, 2, 3, 3), (12, 3, 2, 5), (16, 4, 4, 4)):
            p = self._block(rng, c=c, t=t, h=h, w=w)
            x = Tensor(rng.normal(size=(2, c, h, w)))
            assert dual_path_block(x, p).shape == (2, c, h, w)

    @pytest.mark.parametrize("single_direction,local_only",
                             [(False, False), (True, False), (False, True)])
    def test_matches_straight_line_reference(self, single_direction, local_only):
        rng = np.random.default_rng(9)
        p = self._block(rng, c=16, t=4, h=4, w=4, n=2)
        x = rng.normal(size=(2, 16, 4, 4))
        got = dual_path_block(Tensor(x), p, single_direction=single_direction,
                              local_only=local_only).data
        ref = np.stack([oracles.block_ref(xi, p, single_direction=single_direction,
                                          local_only=local_only) for xi in x])
        assert np.abs(got - ref).max() < 1e-10

    def test_input_gradient_nonzero_and_correct(self):
        rng = np.random.default_rng(10)
        p = self._block(rng)
        x = param(rng.normal(size=(2, 8, 3, 3)))
        probe = Tensor(rng.normal(size=(2, 8, 3, 3)))
        errors = assert_gradients_close(
            lambda: tsum(mul(dual_path_block(x, p), probe)),
            {"x": x, **p.tensors()}, max_elements=8,
            rng=np.random.default_rng(1))
        with Tape() as tape:
            loss = tsum(mul(dual_path_block(x, p), probe))
        backward(tape, loss)
        assert np.any(x.grad != 0)

    def test_gamma_zero_input_gradient_is_identity_path(self):
        rng = np.random.default_rng(11)
        p = self._block(rng)
        p.gamma.data = np.array(0.0)
        x = param(rng.normal(size=(2, 8, 3, 3)))
        probe = Tensor(rng.normal(size=(2, 8, 3, 3)))
        with Tape() as tape:
            loss = tsum(mul(dual_path_block(x, p), probe))
        backward(tape, loss)
        npt.assert_array_equal(x.grad, probe.data)

    def test_shared_state_tensors_between_directions(self):
        # one C-row set: forward A/D plus the B/C both scans read; the
        # backward scan adds only A/D for the C/T rows of one frame group
        c, t, n = 8, 2, 3
        p = self._block(np.random.default_rng(12), c=c, t=t, n=n)
        assert p.A_fwd.shape[0] == c
        assert p.A_bwd.shape == (c // t, n) and p.D_bwd.shape == (c // t,)
        names = p.tensors()
        assert names["ssm.B"] is p.B and names["ssm.C"] is p.C
        assert names["ssm.A_bwd"] is p.A_bwd and names["ssm.D_bwd"] is p.D_bwd
        assert names["ssm.A_fwd"] is p.A_fwd and names["ssm.D_fwd"] is p.D_fwd

    def test_channels_not_divisible_rejected(self):
        rng = np.random.default_rng(13)
        p = self._block(rng, c=8, t=2)
        with pytest.raises(ConfigError):
            dual_path_block(Tensor(np.zeros((1, 9, 3, 3))), p)
        with pytest.raises(ConfigError):
            init_block(9, 2, 3, 3, 2, rng)


class TestBlockStack:
    def test_depth_one_equals_single_block(self):
        rng = np.random.default_rng(14)
        p = init_block(8, 2, 3, 3, 2, rng)
        x = Tensor(rng.normal(size=(2, 8, 3, 3)))
        npt.assert_array_equal(block_stack(x, [p]).data, dual_path_block(x, p).data)

    def test_two_gamma_zero_blocks_are_identity(self):
        rng = np.random.default_rng(15)
        blocks = [init_block(8, 2, 3, 3, 2, rng) for _ in range(2)]
        for b in blocks:
            b.gamma.data = np.array(0.0)
        x = Tensor(rng.normal(size=(2, 8, 3, 3)))
        assert np.array_equal(block_stack(x, blocks).data, x.data)

    def test_composition(self):
        rng = np.random.default_rng(16)
        blocks = [init_block(8, 2, 3, 3, 2, rng) for _ in range(2)]
        x = Tensor(rng.normal(size=(2, 8, 3, 3)))
        manual = dual_path_block(dual_path_block(x, blocks[0]), blocks[1])
        npt.assert_array_equal(block_stack(x, blocks).data, manual.data)

    def test_empty_stack_rejected(self):
        with pytest.raises(ConfigError):
            block_stack(Tensor(np.zeros((1, 8, 3, 3))), [])
