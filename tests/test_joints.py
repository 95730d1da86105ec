"""Joint-sequence branch behavior and gradients."""

import numpy as np
import numpy.testing as npt
import pytest

from mmtl.errors import InputError
from mmtl.joints import JointSequence, init_joint_branch, joints_forward
from mmtl.tensor import Tensor, mul, tsum

from gradassert import assert_gradients_close


def make_branch(rng, j=5, c=8, h=3, w=3):
    return init_joint_branch(j, c, h, w, rng)


class TestJointsForward:
    def test_output_shape_matches_image_branches(self):
        rng = np.random.default_rng(0)
        p = make_branch(rng, j=17, c=12, h=4, w=5)
        seqs = [JointSequence(rng.random((8, 17, 3))) for _ in range(2)]
        assert joints_forward(seqs, p).shape == (2, 12, 4, 5)

    def test_constant_input_zero_biases_gives_zero(self):
        # a constant volume is collapsed to zero by the internal batchnorm,
        # so with zero biases/shifts nothing survives to the projection
        rng = np.random.default_rng(1)
        p = make_branch(rng)
        for t in (p.conv1_b, p.conv2_b, p.bn_shift, p.proj_b):
            t.data = np.zeros_like(t.data)
        seq = JointSequence(np.zeros((4, 5, 3)))
        out = joints_forward([seq], p, train=True)
        npt.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        p = make_branch(rng)
        joints = rng.random((4, 5, 3))
        a = joints_forward([JointSequence(joints)], p).data
        b = joints_forward([JointSequence(joints.copy())], p).data
        assert np.array_equal(a, b)

    def test_confidence_channel_feeds_through(self):
        rng = np.random.default_rng(3)
        p = make_branch(rng)
        base = rng.random((4, 5, 3))
        bumped = base.copy()
        bumped[:, :, 2] = np.clip(bumped[:, :, 2] + 0.25, 0, 1)
        a = joints_forward([JointSequence(base)], p).data
        b = joints_forward([JointSequence(bumped)], p).data
        assert np.abs(a - b).max() > 0

    def test_joint_count_mismatch(self):
        rng = np.random.default_rng(4)
        p = make_branch(rng, j=17)
        with pytest.raises(InputError, match="17"):
            joints_forward([JointSequence(np.zeros((4, 5, 3)))], p)

    def test_bad_shape_rejected(self):
        with pytest.raises(InputError):
            JointSequence(np.zeros((4, 5, 2)))

    def test_gradients(self):
        rng = np.random.default_rng(5)
        p = make_branch(rng)
        seqs = [JointSequence(rng.random((4, 5, 3))) for _ in range(2)]
        probe = Tensor(rng.normal(size=(2, 8, 3, 3)))
        assert_gradients_close(
            lambda: tsum(mul(joints_forward(seqs, p), probe)), p.tensors(),
            max_elements=6, rng=np.random.default_rng(0))
