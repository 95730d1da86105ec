"""Whole-model assembly: forward shapes, parameter accounting, ablation
variants, weight round-trip, and benchmark/training plumbing.
"""

import multiprocessing
import os
import platform
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmtl.fusion
import mmtl.model
import mmtl.ops
import mmtl.ssm
from mmtl import tensor
from mmtl.ablate import variant_config
from mmtl.bench import bench_fps
from mmtl.config import ModelConfig
from mmtl.data import SyntheticRecipe, generate_synthetic
from mmtl.errors import ArgumentError, ConfigError, InputError
from mmtl.joints import JointSequence
from mmtl.model import Model, count_params
from mmtl.optim import OptimizerState, sgd_step
from mmtl.serial import dump_tensor
from mmtl.tensor import Tape, backward, scale
from mmtl.train import batch_loss, evaluate, run_toy_training

TOY = ModelConfig(frame_count=4, channels=24, height=3, width=3, view_height=10,
                  view_width=10, state_dim=2, block_depth=1, joint_count=6, seed=5)
RECIPE = SyntheticRecipe(noise=0.0)
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="forked bench workers need the fork start method")


def toy_samples(n, seed=0, cfg=TOY):
    return list(generate_synthetic(RECIPE, n, seed, cfg))


def with_random_heads(model, seed=4):
    """Heads start at zero, which zeroes every gradient behind them."""
    rng = np.random.default_rng(seed)
    for name, p in model.parameters().items():
        if name.startswith("head_"):
            p.data = rng.normal(size=p.shape)
    return model


class TestForward:
    def test_logit_shapes_and_telemetry(self):
        model = Model(TOY)
        [s] = toy_samples(1)
        out = model.forward_sample(s)
        assert set(out.logits) == {"der", "dbr", "tcr", "vbr"}
        for task, lg in out.logits.items():
            assert lg.shape == (TOY.num_classes(task),)
        assert out.telemetry.shape == (4, 3)
        assert np.all((out.telemetry > 0) & (out.telemetry < 1))

    def test_deterministic_construction_and_forward(self):
        [s] = toy_samples(1)
        a = Model(TOY).forward_sample(s)
        b = Model(TOY).forward_sample(s)
        for task in a.logits:
            assert np.array_equal(a.logits[task].data, b.logits[task].data)

    def test_dropped_tasks_removed(self):
        cfg = TOY.replace(drop_tasks=("der", "vbr"))
        model = Model(cfg)
        [s] = toy_samples(1, cfg=cfg)
        out = model.forward_sample(s)
        assert set(out.logits) == {"dbr", "tcr"}

    def test_dropped_modalities_have_no_params(self):
        cfg = TOY.replace(drop_modalities=("interior", "joints"))
        model = Model(cfg)
        names = list(model.parameters())
        assert not any(n.startswith(("stem_interior", "blocks_interior", "joints"))
                       for n in names)
        [s] = toy_samples(1, cfg=cfg)
        out = model.forward_sample(s)
        assert set(out.logits) == {"der", "dbr", "tcr", "vbr"}

    def test_concat_fusion_shares_feature_across_tasks(self):
        cfg = TOY.replace(no_mgmi=True)
        model = Model(cfg)
        [s] = toy_samples(1, cfg=cfg)
        out = model.forward_sample(s)
        assert out.telemetry is None

    @pytest.mark.parametrize("flag", ["full", "no_multi_gating", "no_mgmi"])
    def test_logits_pool_each_task_map(self, flag, monkeypatch):
        # a task's logits are its head's linear map of its fused map averaged over
        # the grid: gated_sum's F_r, or the one concat_fuse map that every task shares
        module, name = (mmtl.model, "concat_fuse") if flag == "no_mgmi" \
            else (mmtl.fusion, "gated_sum")
        maps, fuse = [], getattr(module, name)

        def kept(*args):
            maps.append(fuse(*args))
            return maps[-1]

        monkeypatch.setattr(module, name, kept)
        cfg = ablation_config(flag)
        model = with_random_heads(Model(cfg))
        out = model.forward(toy_samples(2, cfg=cfg), train=False)
        [fused] = [f.data for f in maps]
        c = cfg.channels
        for r, (task, head) in enumerate(model.heads.items()):
            u = min(r, fused.shape[1] // c - 1)     # gated_sum's F_u: channels u*C to u*C + C - 1
            f = fused if flag == "no_mgmi" else fused[:, u * c:(u + 1) * c]
            want = f.mean(axis=(2, 3)) @ head.weight.data + head.bias.data
            assert np.abs(out.logits[task].data - want).max() < 1e-12

    def test_eval_forward_records_nothing(self, monkeypatch):
        branches = {}

        def keeping(name):
            fn = getattr(mmtl.model, name)

            def kept(*args, **kwargs):
                branches.setdefault(name, []).append(fn(*args, **kwargs))
                return branches[name][-1]

            monkeypatch.setattr(mmtl.model, name, kept)

        keeping("block_stack")
        keeping("joints_forward")
        out = Model(TOY).forward(toy_samples(2))
        assert len(branches["block_stack"]) == 2 and len(branches["joints_forward"]) == 1
        assert not any(h.requires_grad for hs in branches.values() for h in hs)
        assert not any(lg.requires_grad for lg in out.logits.values())


class TestConfigBounds:
    """``ModelConfig.validate`` admits the smallest shapes a forward can run."""

    @pytest.mark.parametrize("cfg", [
        TOY.replace(frame_count=4, joint_count=4),
        TOY.replace(height=8, width=8),                 # view_height - 2, view_width - 2
        TOY.replace(frame_count=1, channels=6, drop_modalities=("joints",)),
        TOY.replace(height=12, width=12, joint_count=4,
                    drop_modalities=("exterior", "interior")),
    ], ids=["joints_at_4", "stem_output", "one_frame_no_joints", "joints_only_any_grid"])
    def test_forward_runs_at_each_bound(self, cfg):
        out = Model(cfg).forward(toy_samples(2, cfg=cfg))
        assert [lg.shape for lg in out.logits.values()] == [(2, 4)] * 4

    @pytest.mark.parametrize("change,field", [
        (dict(joint_count=3), "joint_count"),
        (dict(height=9), "height"),
        (dict(width=9, drop_modalities=("exterior",)), "width"),
    ])
    def test_one_past_each_bound_rejected(self, change, field):
        with pytest.raises(ConfigError, match=f"^{field}: "):
            TOY.replace(**change)


class TestOpCount:
    # tape nodes for one train-mode sample, pinned: a change that adds ops to
    # the forward pass must update these counts on purpose
    @pytest.mark.parametrize("cfg,nodes", [
        (ModelConfig(), 163), (TOY, 121), (TOY.replace(no_mgmi=True), 95),
        (TOY.replace(no_dual_scan=True), 121), (TOY.replace(no_global_local=True), 119),
        (TOY.replace(no_self_attention=True), 111), (TOY.replace(no_multi_gating=True), 118),
    ], ids=["default", "toy", "toy_no_mgmi", "toy_no_dual_scan", "toy_no_global_local",
            "toy_no_self_attention", "toy_no_multi_gating"])
    def test_tape_nodes_per_train_sample(self, cfg, nodes):
        model = Model(cfg)
        with Tape() as tape:
            batch_loss(model, toy_samples(1, cfg=cfg), train=True)
        assert len(tape) == nodes

    def test_batch_of_eight_records_as_many_nodes_as_one(self):
        # one batched forward and a batch-mean loss: the tape does not grow with N
        counts = []
        for n in (1, 8):
            with Tape() as tape:
                batch_loss(Model(TOY), toy_samples(n), train=True)
            counts.append(len(tape))
        assert counts[0] == counts[1]


# every ablation: the five flags, each dropped modality, one dropped task
ABLATIONS = ["full", "no_mgmi", "no_dual_scan", "no_global_local", "no_self_attention",
             "no_multi_gating", "drop_exterior", "drop_interior", "drop_joints",
             "drop_task"]


def ablation_config(name):
    if name == "full":
        return TOY
    if name == "drop_task":
        return TOY.replace(drop_tasks=("tcr",))
    if name.startswith("drop_"):
        return TOY.replace(drop_modalities=(name[len("drop_"):],))
    return TOY.replace(**{name: True})


def relative_gap(got, want):
    return float(np.abs(np.asarray(got) - want).max()) / max(float(np.abs(want).max()), 1e-300)


class TestBatchedForward:
    """One ``Model.forward`` on N samples against N one-sample passes."""

    N = 5

    @pytest.mark.parametrize("name", ABLATIONS)
    def test_eval_matches_forward_sample(self, name):
        cfg = ablation_config(name)
        model = with_random_heads(Model(cfg))
        samples = toy_samples(self.N, seed=2, cfg=cfg)
        batched = model.forward(samples, train=False)
        for i, s in enumerate(samples):
            single = model.forward_sample(s, train=False)
            for task, lg in single.logits.items():
                assert relative_gap(batched.logits[task].data[i], lg.data) <= 1e-12
            if single.telemetry is None:
                assert batched.telemetry is None
            else:
                assert relative_gap(batched.telemetry[i], single.telemetry) <= 1e-12

    @pytest.mark.parametrize("name", ABLATIONS)
    def test_train_loss_and_gradients_match_per_sample_loop(self, name):
        cfg = ablation_config(name)
        samples = toy_samples(self.N, seed=3, cfg=cfg)
        batched, looped = with_random_heads(Model(cfg)), with_random_heads(Model(cfg))
        with Tape() as tape:
            loss, _ = batch_loss(batched, samples, train=True)
        backward(tape, loss)
        loop_loss = 0.0
        for s in samples:           # gradients of the mean accumulate over the loop
            with Tape() as tape:
                term, _ = batch_loss(looped, [s], train=True)
                term = scale(term, 1.0 / self.N)
            backward(tape, term)
            loop_loss += term.item()
        assert relative_gap(loss.item(), loop_loss) <= 1e-12
        # biases ahead of a batch norm have an exactly zero gradient, whose
        # rounding residue has no scale of its own: compare against the largest
        grads = {name: p.grad for name, p in looped.parameters().items()}
        largest = max(float(np.abs(g).max()) for g in grads.values())
        for pname, p in batched.parameters().items():
            gap = float(np.abs(p.grad - grads[pname]).max())
            assert gap <= 1e-12 * largest, pname
        stats = zip(batched._running_stats().values(), looped._running_stats().values())
        for mine, theirs in stats:
            assert relative_gap(mine.mean, theirs.mean) <= 1e-12
            assert relative_gap(mine.var, theirs.var) <= 1e-12

    def test_mismatched_sample_named(self):
        samples = toy_samples(3)
        odd = toy_samples(1, cfg=TOY.replace(view_height=12, view_width=12))[0]
        odd.sample_id = "odd_one"
        with pytest.raises(InputError, match="sample 2 \\(odd_one\\)"):
            Model(TOY).forward(samples[:2] + [odd])

    def test_mismatched_joints_named(self):
        samples = toy_samples(2)
        samples[1].joints = JointSequence(samples[1].joints.joints[:2])
        with pytest.raises(InputError, match="sample 1 .* joints"):
            Model(TOY).forward(samples)

    def test_empty_batch_rejected(self):
        with pytest.raises(InputError):
            Model(TOY).forward([])

    def test_missing_interior_view_named(self):
        samples = toy_samples(2)
        samples[1].interior = [v for v in samples[1].interior if v.view_id != "face"]
        with pytest.raises(InputError, match="face"):
            Model(TOY).forward(samples)

    def test_exterior_failure_leaves_next_forward_intact(self):
        model, samples = Model(TOY), toy_samples(2)
        before = model.forward(samples).logits
        broken = toy_samples(2)
        broken[0].exterior = broken[0].exterior[:1]
        with pytest.raises(InputError, match="missing view"):
            model.forward(broken)
        after = model.forward(samples).logits
        for task, lg in before.items():
            assert np.array_equal(after[task].data, lg.data)


class TestGradientsReadOnly:
    """``tensor.accumulate`` adopts the arrays it is handed, so a ``.grad`` is
    read, never written into. Here each of them is made read-only first, in
    every module that imports ``accumulate``: a backward closure or
    ``sgd_step`` that writes into a gradient it was handed raises."""

    @pytest.fixture(autouse=True)
    def read_only(self, monkeypatch):
        adopt = tensor.accumulate

        def accumulate(t, g):
            if isinstance(g, np.ndarray):
                g.flags.writeable = False
            adopt(t, g)

        for module in (tensor, mmtl.ops, mmtl.fusion, mmtl.ssm):
            monkeypatch.setattr(module, "accumulate", accumulate)

    @staticmethod
    def sgd_steps(cfg, batch_size, steps):
        model, state = with_random_heads(Model(cfg)), OptimizerState(base_lr=0.01)
        for step in range(steps):
            model.zero_grad()
            with Tape() as tape:
                loss, _ = batch_loss(model, toy_samples(batch_size, step, cfg), train=True)
            backward(tape, loss)
            sgd_step(state, model.parameters())
        return loss.data.item()

    def test_toy_steps(self):
        assert np.isfinite(self.sgd_steps(TOY, 8, 2))

    def test_default_config_step(self):
        assert np.isfinite(self.sgd_steps(ModelConfig(), 1, 1))


class TestParamCount:
    def test_breakdown_sums_to_total(self):
        for cfg in (TOY, TOY.replace(no_mgmi=True),
                    TOY.replace(drop_modalities=("joints",))):
            total, breakdown = count_params(cfg)
            assert sum(breakdown.values()) == total

    def test_single_linear_layer_formula(self):
        from mmtl.heads import init_head
        p = init_head(10, 4)
        assert sum(t.size for t in p.tensors().values()) == 10 * 4 + 4

    def test_hand_sum_matches_default_config(self):
        cfg = ModelConfig()
        c, t, n = cfg.channels, cfg.frame_count, cfg.state_dim
        spatial = cfg.height * cfg.width
        stem = 3 * (3 * t * 9 + 3 * t                      # depthwise w + b
                    + t * (c // (3 * t)) * 3 + c // 3)     # pointwise w + b
        block = (spatial * spatial * 3 + spatial           # channel conv1d
                 + (c * n + c) + 2 * c * n                 # forward A/D, shared B/C
                 + (c // t) * (n + 1)                      # backward A/D, one frame group
                 + 3 * (c * c + c)                         # local/global/out linears
                 + 1)                                      # gamma
        joints = (16 * 27 + 16) + (32 * 16 * 27 + 32) + 2 * 32 + (128 * c + c)
        fusion = 3 * (c * 3 * c + c) + 4 * (c * 3 * 9 + 3 * c + 2 * 3 * c)
        heads = 4 * (c * 4 + 4)
        expected = 2 * (stem + cfg.block_depth * block) + joints + fusion + heads
        total, _ = count_params(cfg)
        assert total == expected == 918_772

    def test_every_backward_scan_row_trains(self):
        model = with_random_heads(Model(TOY))
        group = TOY.channels // TOY.frame_count
        with Tape() as tape:
            loss, _ = batch_loss(model, toy_samples(2), train=True)
        backward(tape, loss)
        for name, p in model.parameters().items():
            if name.endswith(("ssm.A_bwd", "ssm.D_bwd")):
                assert p.shape[0] == group, name
                assert np.all(p.grad.reshape(group, -1).any(axis=1)), name

    def test_fixed_unit_vectors_excluded(self):
        model = Model(TOY)
        for name, p in model.parameters().items():
            assert p.requires_grad, name

    def test_default_under_budget_with_mgmi_delta(self):
        total, _ = count_params(ModelConfig())
        ablated, _ = count_params(ModelConfig(no_mgmi=True))
        assert total < 6_000_000
        assert ablated < total
        assert 100_000 <= total - ablated <= 500_000


class TestAblationVariants:
    def test_flag_variants_constructible(self):
        for name in ("no_mgmi", "no_dual_scan", "no_global_local",
                     "no_self_attention", "no_multi_gating"):
            cfg = variant_config(TOY, name)
            model = Model(cfg)
            [s] = toy_samples(1, cfg=cfg)
            model.forward_sample(s)

    def test_scan_and_pool_flags_keep_param_count(self):
        base, _ = count_params(TOY)
        for name in ("no_dual_scan", "no_global_local"):
            v, _ = count_params(variant_config(TOY, name))
            assert v == base

    def test_fewer_components_never_more_params(self):
        base, _ = count_params(TOY)
        for name in ("no_mgmi", "no_self_attention", "no_multi_gating",
                     "exterior_only", "interior_only", "joints_only"):
            v, _ = count_params(variant_config(TOY, name))
            assert v < base, name

    def test_no_dual_scan_uses_forward_both_paths(self):
        cfg = TOY.replace(no_dual_scan=True)
        model = Model(cfg)
        [s] = toy_samples(1, cfg=cfg)
        out = model.forward_sample(s)
        assert all(np.all(np.isfinite(lg.data)) for lg in out.logits.values())

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            variant_config(TOY, "no_such_thing")


class TestWeights:
    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        model = Model(TOY)
        for p in model.parameters().values():
            p.data = p.data + 0.05 * rng.normal(size=p.shape)
        model.save_weights(tmp_path / "w")
        other = Model(TOY.replace(seed=99))
        other.load_weights(tmp_path / "w")
        for name, p in model.parameters().items():
            npt.assert_allclose(other.parameters()[name].data, p.data, atol=1e-6)
        [s] = toy_samples(1)
        want = model.forward_sample(s).logits["der"].data
        got = other.forward_sample(s).logits["der"].data
        npt.assert_allclose(got, want, atol=1e-4)

    def test_trained_roundtrip_restores_eval_logits(self, tmp_path):
        # train-mode forwards move the batch-norm running stats that eval
        # mode reads; the checkpoint must carry them, not only parameters
        model = with_random_heads(Model(TOY))
        opt = OptimizerState(base_lr=0.05)
        batch = toy_samples(4)
        for _ in range(3):
            model.zero_grad()
            with Tape() as tape:
                loss, _ = batch_loss(model, batch, train=True)
            backward(tape, loss)
            sgd_step(opt, model.parameters())
        model.save_weights(tmp_path / "w")
        other = Model(TOY.replace(seed=99))
        other.load_weights(tmp_path / "w")
        for s in toy_samples(2, seed=1):
            want = model.forward_sample(s).logits
            got = other.forward_sample(s).logits
            for task, lg in want.items():
                gap = np.abs(got[task].data - lg.data).max()
                assert gap <= 1e-5 * (1.0 + np.abs(lg.data).max()), task


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A checkpoint whose running statistics have moved, and a model of
    another seed to load it into."""
    directory = tmp_path_factory.mktemp("checkpoint")
    source = with_random_heads(Model(TOY))
    batch_loss(source, toy_samples(2), train=True)
    source.save_weights(directory)
    return directory, Model(TOY.replace(seed=99))


def model_state(model):
    """Copies of every parameter and running statistic, by checkpoint name."""
    return {name: data.copy() for name, data in model._checkpoint().items()}


def assert_state_unchanged(model, before):
    after = model_state(model)
    assert after.keys() == before.keys()
    for name, want in before.items():
        assert after[name].shape == want.shape and np.array_equal(after[name], want), name


@st.composite
def damaged(draw, raw):
    """A tensor file's bytes after one fault: bytes cut, a header byte
    overwritten, or the header's dimensions changed; None deletes the file.
    Payload bytes are not overwritten: the format holds no checksum, so such
    a file loads."""
    fault = draw(st.sampled_from(["cut", "overwrite", "dims", "delete"]))
    rank = raw[4]
    header_end = 5 + 4 * rank
    if fault == "cut":
        pos = draw(st.integers(0, len(raw) - 1))
        return raw[:pos] + raw[pos + draw(st.integers(1, len(raw) - pos)):]
    if fault == "overwrite":
        pos = draw(st.integers(0, header_end - 1))
        value = draw(st.integers(0, 255).filter(lambda v: v != raw[pos]))
        return raw[:pos] + bytes([value]) + raw[pos + 1:]
    if fault == "dims":
        dims = struct.unpack(f"<{rank}I", raw[5:header_end])
        new = draw(st.one_of(st.just(dims[::-1]), st.just(dims + (1,)),
                             st.lists(st.integers(0, 2 * max(dims, default=1)),
                                      max_size=4).map(tuple)).filter(lambda d: d != dims))
        return struct.pack(f"<4sB{len(new)}I", raw[:4], len(new), *new) + raw[header_end:]
    return None


class TestLoadWeightsFuzz:
    """Every file of a checkpoint, damaged one at a time: the load is an
    InputError and leaves the model as it was."""

    @given(st.data())
    @settings(max_examples=800, deadline=None, derandomize=True)
    def test_damaged_file_is_input_error_and_changes_nothing(self, checkpoint, data):
        directory, model = checkpoint
        before = model_state(model)
        path = directory / data.draw(st.sampled_from(sorted(p.name for p in directory.iterdir())))
        raw = path.read_bytes()
        bad = data.draw(damaged(raw))
        try:
            if bad is None:
                path.unlink()
            else:
                path.write_bytes(bad)
            with pytest.raises(InputError):
                model.load_weights(directory)
        finally:
            path.write_bytes(raw)
        assert_state_unchanged(model, before)

    @pytest.mark.parametrize("name,value", [("head_der.w", np.nan),
                                            ("fusion.gate0_bn.running_var", np.inf)])
    def test_non_finite_value_is_input_error_and_changes_nothing(self, checkpoint, name,
                                                                  value):
        directory, model = checkpoint
        path = directory / (name + ".t3tn")
        raw = path.read_bytes()
        before = model_state(model)
        bad = before[name].copy()
        bad.flat[bad.size // 2] = value
        try:
            dump_tensor(bad, path)
            with pytest.raises(InputError, match="non-finite") as err:
                model.load_weights(directory)
        finally:
            path.write_bytes(raw)
        assert str(path) in str(err.value)
        assert_state_unchanged(model, before)

    def test_gate_vector_in_the_old_layout_is_rejected(self, checkpoint):
        directory, model = checkpoint
        c = TOY.channels
        path = directory / "fusion.gate0_b.t3tn"
        raw = path.read_bytes()
        before = model_state(model)
        try:
            dump_tensor(np.zeros(3 * c), path)    # [3C], as written before the [C, 3] layout
            with pytest.raises(InputError) as err:
                model.load_weights(directory)
        finally:
            path.write_bytes(raw)
        assert str(path) in str(err.value)
        assert f"({3 * c},)" in str(err.value) and f"({c}, 3)" in str(err.value)
        assert_state_unchanged(model, before)


class TestTrainingLoop:
    def test_lr_zero_loss_constant(self):
        cfg = TOY.replace(base_lr=0.0)
        res = run_toy_training(cfg, RECIPE, steps=5, batch_size=2, train_count=8,
                               val_count=4, eval_every=5)
        assert res.initial_loss == pytest.approx(res.final_loss, abs=1e-12)

    def test_training_deterministic(self):
        outs = []
        for _ in range(2):
            res = run_toy_training(TOY.replace(base_lr=0.02), RECIPE, steps=4,
                                   batch_size=2, train_count=8, val_count=4,
                                   eval_every=4)
            outs.append((res.final_loss, res.final_metrics.macc))
        assert outs[0] == outs[1]

    def test_initial_loss_is_uniform_entropy(self):
        res = run_toy_training(TOY.replace(base_lr=0.0), RECIPE, steps=1,
                               batch_size=2, train_count=8, val_count=4,
                               eval_every=1)
        assert res.initial_loss == pytest.approx(4 * np.log(4), abs=1e-9)

    def test_evaluate_fills_record_fields(self):
        model = Model(TOY)
        metrics = evaluate(model, toy_samples(6, seed=1))
        assert set(metrics.accuracy) == {"der", "dbr", "tcr", "vbr"}
        assert metrics.gate_telemetry.shape == (4, 3)
        assert metrics.param_count == model.param_count()
        assert np.isfinite(metrics.loss_total)

    def test_evaluate_iterates_samples_once(self):
        class CountingList(list):
            passes = 0

            def __iter__(self):
                self.passes += 1
                return super().__iter__()

        samples = CountingList(toy_samples(5, seed=2))
        metrics = evaluate(Model(TOY), samples)
        assert samples.passes == 1
        assert metrics.fps > 0

    def test_evaluate_losses_match_hand_log_sum_exp(self):
        model = with_random_heads(Model(TOY))
        samples = toy_samples(8, seed=3)
        metrics = evaluate(model, samples)
        for task in TOY.active_tasks:
            logits = [model.forward_sample(s).logits[task].data for s in samples]
            labels = [s.labels[task] for s in samples]
            want = np.mean([np.log(np.exp(lg - lg.max()).sum()) - (lg[y] - lg.max())
                            for lg, y in zip(logits, labels)])
            assert abs(metrics.loss[task] - want) <= 1e-12 * abs(want), task
            hits = np.mean([np.argmax(lg) == y for lg, y in zip(logits, labels)])
            assert metrics.accuracy[task] == hits
        assert metrics.loss_total == pytest.approx(sum(metrics.loss.values()), rel=1e-15)

    def test_evaluate_rejects_empty_set(self):
        with pytest.raises(ArgumentError, match="empty sample set"):
            evaluate(Model(TOY), [])

    def test_nan_losses_abort_with_diagnostic(self):
        model = Model(TOY)
        first = next(iter(model.parameters().values()))
        first.data = np.full_like(first.data, np.nan)
        [s] = toy_samples(1)
        from mmtl.tensor import Tape
        with Tape():
            loss, _ = batch_loss(model, [s])
        assert not np.isfinite(loss.item())


# Fresh interpreter: 3 warm-up SGD steps at the benchmark's toy config and batch
# 8, then the minor page faults of each of 5 more steps, one count a line.
FAULT_PROBE = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from mmtl.config import ModelConfig
from mmtl.data import SyntheticRecipe, generate_synthetic
from mmtl.model import Model
from mmtl.optim import OptimizerState, sgd_step
from mmtl.tensor import Tape, backward
from mmtl.train import batch_loss
cfg = ModelConfig(frame_count=8, channels=96, height=4, width=4, view_height=16,
                  view_width=16, state_dim=8, block_depth=1, seed=7, base_lr=0.08)
model = Model(cfg)
batch = list(generate_synthetic(SyntheticRecipe(noise=0.05), 8, 0, cfg))
opt = OptimizerState(base_lr=cfg.base_lr)
for step in range(8):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    model.zero_grad()
    with Tape() as tape:
        loss, _ = batch_loss(model, batch, train=True)
    backward(tape, loss)
    sgd_step(opt, model.parameters())
    if step >= 3:
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap thresholds are set only under glibc")
def test_training_steps_reuse_freed_heap():
    """A step's arrays come from heap the last step freed, not from fresh pages
    (about 3,700 page faults a step when glibc trims the heap after each one)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", FAULT_PROBE, str(src)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    faults = [int(line) for line in done.stdout.split()]
    assert len(faults) == 5 and max(faults) < 500, faults


# Fresh interpreter: one default-config eval forward of one sample and one toy
# train step of 8 with backward, then the number of live threads.
THREAD_PROBE = f"""
import threading
from mmtl.config import ModelConfig
from mmtl.data import SyntheticRecipe, generate_synthetic
from mmtl.model import Model
from mmtl.tensor import Tape, backward
from mmtl.train import batch_loss
cfg = ModelConfig()
Model(cfg).forward(list(generate_synthetic(SyntheticRecipe(), 1, 0, cfg)))
cfg = {TOY!r}
with Tape() as tape:
    loss, _ = batch_loss(Model(cfg), list(generate_synthetic(SyntheticRecipe(), 8, 0, cfg)),
                         train=True)
backward(tape, loss)
print(threading.active_count(), [t.name for t in threading.enumerate()])
"""


def test_forward_starts_no_thread():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", THREAD_PROBE],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=300, check=True)
    assert done.stdout.split()[0] == "1", done.stdout


class TestBench:
    def test_record_sane(self):
        rec = bench_fps(TOY, batch_size=2, duration=0.4, threads=1, seed=0)
        assert rec.fps > 0
        assert rec.latency_p50_ms <= rec.latency_p95_ms
        assert rec.threads == 1
        assert rec.param_count == Model(TOY).param_count()
        assert rec.config_hash == TOY.hash()

    def test_duration_must_be_positive(self):
        from mmtl.errors import ArgumentError
        with pytest.raises(ArgumentError):
            bench_fps(TOY, duration=0.0)

    def test_thread_pool_no_pathological_contention(self):
        one = bench_fps(TOY, batch_size=1, duration=0.8, threads=1, seed=0)
        two = bench_fps(TOY, batch_size=1, duration=0.8, threads=2, seed=0)
        assert two.fps >= 0.9 * one.fps

    @needs_fork
    def test_forked_record_sane(self):
        rec = bench_fps(TOY, batch_size=2, duration=0.4, threads=2, seed=0)
        assert rec.fps > 0
        assert rec.latency_p50_ms <= rec.latency_p95_ms
        assert rec.threads == 2
        assert rec.param_count == Model(TOY).param_count()
        assert rec.config_hash == TOY.hash()

    @needs_fork
    def test_forked_workers_after_weight_load(self, tmp_path):
        Model(TOY.replace(seed=99)).save_weights(tmp_path / "w")
        rec = bench_fps(TOY, duration=0.3, threads=2, weights_dir=tmp_path / "w")
        assert rec.fps > 0
        assert rec.param_count == Model(TOY).param_count()

    @needs_fork
    def test_worker_error_raised_in_parent(self, monkeypatch, tmp_path):
        # Only the first worker to run a forward raises; the other one is
        # left waiting on the start barrier and must not hang the parent.
        parent, flag = os.getpid(), str(tmp_path / "failed")
        forward = Model.forward

        def first_worker_fails(self, *args, **kwargs):
            if os.getpid() != parent:
                try:
                    os.close(os.open(flag, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    raise ArithmeticError("injected worker failure")
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(Model, "forward", first_worker_fails)
        t0 = time.perf_counter()
        with pytest.raises(ArithmeticError, match="injected worker failure"):
            bench_fps(TOY, duration=0.5, threads=2)
        assert time.perf_counter() - t0 < 0.5 + 5.0

    @needs_fork
    def test_worker_crash_raised_in_parent(self, monkeypatch):
        parent = os.getpid()
        forward = Model.forward

        def workers_exit(self, *args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(Model, "forward", workers_exit)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="exit code 3"):
            bench_fps(TOY, duration=0.5, threads=2)
        assert time.perf_counter() - t0 < 0.5 + 5.0

    def test_workers_without_fork_rejected(self, monkeypatch):
        from mmtl.errors import ArgumentError
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        with pytest.raises(ArgumentError, match="fork"):
            bench_fps(TOY, duration=0.1, threads=2)
