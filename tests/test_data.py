"""Synthetic generation, a nearest-template oracle over the planted signals,
config parsing, and the on-disk sample layout.
"""

import builtins
import itertools
import struct

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mmtl.config import ModelConfig, parse_config
from mmtl.data import DESIGNATED, SampleBundle, SyntheticRecipe, _modality_contributions, \
    crop_resize, default_boxes, generate_synthetic, joint_pattern, load_sample_dir, \
    split_sizes, stable_id_hash, view_pattern, write_sample_dir
from mmtl.errors import ArgumentError, ConfigError, InputError
from mmtl.serial import dump_joints, dump_tensor, load_joints, load_tensor

TOY = ModelConfig(frame_count=4, channels=24, height=3, width=3, view_height=12,
                  view_width=12, state_dim=2, block_depth=1, joint_count=6)


class TestSerialization:
    def test_tensor_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        t = rng.normal(size=(3, 4, 5))
        dump_tensor(t, tmp_path / "x.t3tn")
        back = load_tensor(tmp_path / "x.t3tn")
        assert back.shape == (3, 4, 5)
        assert np.abs(back - t).max() < 1e-6    # f32 narrowing

    def test_tensor_magic_checked(self, tmp_path):
        (tmp_path / "bad.t3tn").write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(InputError, match="magic"):
            load_tensor(tmp_path / "bad.t3tn")

    def test_joints_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        j = rng.random((4, 6, 3))
        dump_joints(j, tmp_path / "j.t3jt")
        back = load_joints(tmp_path / "j.t3jt")
        assert back.shape == (4, 6, 3)
        assert np.abs(back - j).max() < 1e-6

    def test_joints_header_mismatch(self, tmp_path):
        payload = b"T3JT" + struct.pack("<II", 2, 3) + b"\x00" * 4
        (tmp_path / "short.t3jt").write_bytes(payload)
        with pytest.raises(InputError, match="payload"):
            load_joints(tmp_path / "short.t3jt")

    def test_writers_write_the_format_bytes(self, tmp_path):
        values = [0.5, -1.0, 0.1, 3.25, 0.0, -0.125]    # 0.1 narrows to float32
        a = np.array(values).reshape(2, 3)
        dump_tensor(a, tmp_path / "x.t3tn")
        header = b"T3TN" + struct.pack("<B", 2) + struct.pack("<2I", 2, 3)
        assert (tmp_path / "x.t3tn").read_bytes() == header + struct.pack("<6f", *values)
        dump_tensor(np.array(2.5), tmp_path / "scalar.t3tn")
        assert (tmp_path / "scalar.t3tn").read_bytes() == b"T3TN\x00" + struct.pack("<f", 2.5)
        dump_joints(a.reshape(1, 2, 3), tmp_path / "j.t3jt")
        assert (tmp_path / "j.t3jt").read_bytes() == \
            b"T3JT" + struct.pack("<II", 1, 2) + struct.pack("<6f", *values)

    @given(st.lists(st.integers(0, 3), max_size=3), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_truncated_files_raise_input_error(self, tmp_path, dims, t, j):
        dump_tensor(np.ones(dims), tmp_path / "x.t3tn")
        dump_joints(np.ones((t, j, 3)), tmp_path / "j.t3jt")
        for path, load in ((tmp_path / "x.t3tn", load_tensor),
                           (tmp_path / "j.t3jt", load_joints)):
            raw = path.read_bytes()
            load(path)
            for cut in range(len(raw)):
                path.write_bytes(raw[:cut])
                with pytest.raises(InputError):
                    load(path)


def template_predict(bundle: SampleBundle, recipe: SyntheticRecipe, task: str,
                     cfg: ModelConfig) -> int:
    """Nearest-template classification of one task from its designated modality.

    Candidates are the composite planted fields over every class assignment of
    the tasks sharing that modality, compared by cosine similarity: exact at
    zero noise because the true field is among the candidates.
    """
    mod = DESIGNATED[task]
    contribs = _modality_contributions(recipe, mod)

    if mod == "joints":
        observed = bundle.joints.joints - 0.5
        patterns = [[amp * joint_pattern(t, cls, cfg.frame_count, cfg.joint_count)
                     for cls in range(cfg.num_classes(t))]
                    for t, amp, _ in contribs]
    else:
        view_id = "inside" if mod == "interior" else "front"
        observed = bundle.view(view_id).frames - 0.5
        patterns = [[amp * view_pattern(t, cls, cfg.frame_count,
                                        cfg.view_height, cfg.view_width)
                     for cls in range(cfg.num_classes(t))]
                    for t, amp, _ in contribs]

    task_pos = next(i for i, (t, _, tied) in enumerate(contribs)
                    if t == task and tied)
    obs_norm = np.linalg.norm(observed)
    best_score, best_cls = -np.inf, 0
    for assignment in itertools.product(*(range(len(p)) for p in patterns)):
        field = sum(patterns[i][cls] for i, cls in enumerate(assignment))
        denom = obs_norm * np.linalg.norm(field)
        score = float(np.sum(observed * field)) / denom if denom > 0 else 0.0
        if score > best_score:
            best_score = score
            best_cls = assignment[task_pos]
    return int(best_cls)


class TestGenerator:
    def test_deterministic_bit_exact(self):
        rec = SyntheticRecipe(noise=0.1)
        a = list(generate_synthetic(rec, 3, 42, TOY))
        b = list(generate_synthetic(rec, 3, 42, TOY))
        for s1, s2 in zip(a, b):
            assert s1.labels == s2.labels
            for v1, v2 in zip(s1.exterior + s1.interior, s2.exterior + s2.interior):
                assert np.array_equal(v1.frames, v2.frames)
            assert np.array_equal(s1.joints.joints, s2.joints.joints)

    def test_noiseless_template_oracle_is_perfect(self):
        rec = SyntheticRecipe(noise=0.0)
        samples = list(generate_synthetic(rec, 48, 3, TOY))
        for task in ("der", "dbr", "tcr", "vbr"):
            hits = [template_predict(s, rec, task, TOY) == s.labels[task]
                    for s in samples]
            assert all(hits), f"{task}: template oracle missed"

    def test_noisy_template_oracle_above_95(self):
        rec = SyntheticRecipe(noise=0.1)
        samples = list(generate_synthetic(rec, 512, 4, TOY))
        for task in ("der", "dbr", "tcr", "vbr"):
            acc = np.mean([template_predict(s, rec, task, TOY) == s.labels[task]
                           for s in samples])
            assert acc > 0.95, f"{task}: {acc}"

    def test_labels_balanced(self):
        rec = SyntheticRecipe(noise=0.0)
        samples = list(generate_synthetic(rec, 64, 5, TOY))
        for task in ("der", "dbr", "tcr", "vbr"):
            counts = np.bincount([s.labels[task] for s in samples], minlength=4)
            npt.assert_array_equal(counts, 16)

    def test_pixels_in_unit_range(self):
        rec = SyntheticRecipe(noise=0.3)
        for s in generate_synthetic(rec, 4, 6, TOY):
            for v in s.exterior + s.interior:
                assert v.frames.min() >= 0.0 and v.frames.max() <= 1.0
            assert s.joints.joints.min() >= 0.0 and s.joints.joints.max() <= 1.0

    def test_invalid_count(self):
        with pytest.raises(ArgumentError):
            next(generate_synthetic(SyntheticRecipe(), 0, 0, TOY))

    def test_distractor_in_signal_modality_rejected(self):
        with pytest.raises(ArgumentError, match="der"):
            SyntheticRecipe(distractors={"der": (DESIGNATED["der"], 1.0)})


class TestConfig:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.frame_count == 16
        assert cfg.channels == 192
        assert [cfg.num_classes(t) for t in ("der", "dbr", "tcr", "vbr")] == [4, 4, 4, 4]

    def test_valid_override(self):
        cfg = parse_config("frame_count=8\nchannels=96\n")
        assert cfg.frame_count == 8 and cfg.channels == 96

    def test_divisibility_violation_names_constraint(self):
        with pytest.raises(ConfigError, match="channels"):
            parse_config("channels=100\nframe_count=16\n")

    @pytest.mark.parametrize("channels", [0, -48])
    def test_non_positive_channels_rejected(self, channels):
        with pytest.raises(ConfigError, match="channels: must be positive"):
            parse_config(f"channels={channels}\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="not_a_key"):
            parse_config("not_a_key=3\n")

    def test_type_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="frame_count"):
            parse_config("frame_count=abc\n")

    # Python's int() and float() also read these; a config holds plain decimals
    @pytest.mark.parametrize("line", ["frame_count=1_6", "frame_count=\u0661\u0666",
                                      "frame_count=+16", "base_lr=1_0e-3",
                                      "base_lr=\uff11.0"])
    def test_number_that_is_not_ascii_decimal_rejected(self, line):
        with pytest.raises(ConfigError, match=line.partition("=")[0]):
            parse_config(line + "\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\nseed=9   # trailing\n")
        assert cfg.seed == 9

    def test_roundtrip_through_serialization(self):
        cfg = ModelConfig(frame_count=8, channels=96, seed=3, no_mgmi=True,
                          drop_tasks=("der",))
        back = parse_config(cfg.to_text())
        assert back == cfg

    def test_drop_everything_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(drop_tasks=("der", "dbr", "tcr", "vbr"))
        with pytest.raises(ConfigError):
            ModelConfig(drop_modalities=("exterior", "interior", "joints"))

    @pytest.mark.parametrize("text", [
        "seed=-1", "base_lr=nan", "base_lr=inf", "base_lr=-0.1", "momentum=1",
        "momentum=-0.5", "momentum=nan", "weight_decay=nan", "weight_decay=-1e-4",
    ])
    def test_out_of_range_optimizer_settings_rejected(self, text):
        name = text.split("=")[0]
        with pytest.raises(ConfigError, match=f"^{name}: "):
            parse_config(text + "\n")

    def test_single_class_task_rejected(self):
        # the model reads each head's class count from the config alone
        with pytest.raises(ConfigError, match="^classes_dbr: "):
            parse_config("classes_dbr=1\n")

    def test_zero_rates_accepted(self):
        cfg = parse_config("base_lr=0\nmomentum=0\nweight_decay=0\nseed=0\n")
        assert (cfg.base_lr, cfg.momentum, cfg.weight_decay, cfg.seed) == (0, 0, 0, 0)


def _rounded(a: np.ndarray) -> np.ndarray:
    """What the float32 file format keeps of a float64 array."""
    return a.astype(np.float32).astype(np.float64)


def _rewrite(path, edit):
    path.write_bytes(edit(path.read_bytes()))


def _poison(path, value):
    """Set one value of a stored frame to ``value``."""
    frame = load_tensor(path)
    frame[1, 2, 3] = value
    dump_tensor(frame, path)


# one damaged frame file in a view directory; each must skip only its sample
FRAME_FAULTS = {
    "later_frame_other_shape": lambda v: dump_tensor(np.zeros((3, 8, 8)),
                                                     v / "frame_002.t3tn"),
    "directory_named_as_frame": lambda v: (v / "frame_999.t3tn").mkdir(),
    "bad_magic": lambda v: _rewrite(v / "frame_000.t3tn", lambda raw: b"NOPE" + raw[4:]),
    "rank_2": lambda v: dump_tensor(np.zeros((12, 12)), v / "frame_000.t3tn"),
    "four_channels": lambda v: dump_tensor(np.zeros((4, 12, 12)), v / "frame_000.t3tn"),
    "truncated_payload": lambda v: _rewrite(v / "frame_001.t3tn", lambda raw: raw[:-4]),
    "nan_pixel": lambda v: _poison(v / "frame_001.t3tn", np.nan),
    "inf_pixel": lambda v: _poison(v / "frame_001.t3tn", np.inf),    # a clip would hide it
}


class TestSampleDir:
    def test_empty_directory(self, tmp_path):
        streams = load_sample_dir(tmp_path, config=TOY)
        assert streams.train == [] and streams.val == [] and streams.test == []
        assert streams.skipped == 0

    @pytest.mark.parametrize("make", [lambda p: None, lambda p: p.write_bytes(b"")],
                             ids=["missing", "file"])
    def test_root_that_cannot_be_listed_raises(self, tmp_path, make):
        root = tmp_path / "samples"
        make(root)
        with pytest.raises(InputError, match="cannot list"):
            load_sample_dir(root, config=TOY)

    def test_file_beside_the_samples_skipped(self, tmp_path):
        [bundle] = generate_synthetic(SyntheticRecipe(noise=0.1), 1, 12, TOY)
        write_sample_dir(bundle, tmp_path)
        (tmp_path / "notes.txt").write_text("not a sample\n")
        streams = load_sample_dir(tmp_path, fractions=(1.0, 0.0, 0.0), config=TOY)
        assert streams.skipped == 1
        assert [s.sample_id for s in streams.train] == [bundle.sample_id]

    def test_text_files_written_exactly(self, tmp_path):
        [bundle] = generate_synthetic(SyntheticRecipe(noise=0.1), 1, 12, TOY)
        bundle.labels = {"der": 1, "dbr": 0, "tcr": 2, "vbr": 3}
        base = write_sample_dir(bundle, tmp_path)
        # 12 x 12 views: face box x 3..9, y 0..6; body box the lower half
        assert (base / "boxes.txt").read_bytes() == b"3 0 9 6\n0 6 12 12\n"
        assert (base / "labels.txt").read_bytes() == b"1 0 2 3\n"

    def test_split_sizes_largest_remainder(self):
        assert split_sizes(20, (0.65, 0.15, 0.20)) == [13, 3, 4]
        assert split_sizes(7, (0.65, 0.15, 0.20)) == [5, 1, 1]
        assert split_sizes(0, (0.65, 0.15, 0.20)) == [0, 0, 0]

    def test_split_fractions_must_sum_to_one(self):
        with pytest.raises(ArgumentError):
            split_sizes(10, (0.5, 0.2, 0.2))

    def test_roundtrip_within_f32(self, tmp_path):
        rec = SyntheticRecipe(noise=0.1)
        bundle = next(iter(generate_synthetic(rec, 1, 12, TOY)))
        write_sample_dir(bundle, tmp_path)
        streams = load_sample_dir(tmp_path, fractions=(1.0, 0.0, 0.0), config=TOY)
        assert len(streams.train) == 1
        back = streams.train[0]
        assert back.labels == bundle.labels
        for vid in ("front", "left", "right", "inside", "face", "body"):
            npt.assert_allclose(back.view(vid).frames, bundle.view(vid).frames,
                                atol=1e-6)
        npt.assert_allclose(back.joints.joints, bundle.joints.joints, atol=1e-6)

    def test_roundtrip_exact(self, tmp_path):
        # a loaded array is the float32-rounded write, clipped, with no other change
        bundle = next(iter(generate_synthetic(SyntheticRecipe(noise=0.1), 1, 12, TOY)))
        write_sample_dir(bundle, tmp_path)
        [back] = load_sample_dir(tmp_path, fractions=(1.0, 0.0, 0.0), config=TOY).train
        for vid in ("front", "left", "right", "inside"):
            assert np.array_equal(back.view(vid).frames,
                                  np.clip(_rounded(bundle.view(vid).frames), 0.0, 1.0))
        inside = np.clip(_rounded(bundle.view("inside").frames), 0.0, 1.0)
        hv, wv = TOY.view_height, TOY.view_width
        for vid, box in zip(("face", "body"), default_boxes(hv, wv)):
            assert np.array_equal(back.view(vid).frames, crop_resize(inside, box, hv, wv))
        assert np.array_equal(back.joints.joints, _rounded(bundle.joints.joints))

    def test_resized_on_load(self, tmp_path):
        big = TOY.replace(view_height=16, view_width=16)
        bundle = next(iter(generate_synthetic(SyntheticRecipe(noise=0.1), 1, 17, big)))
        write_sample_dir(bundle, tmp_path)
        small = TOY.replace(view_height=8, view_width=8)
        streams = load_sample_dir(tmp_path, fractions=(1.0, 0.0, 0.0), config=small)
        assert streams.skipped == 0
        [back] = streams.train
        for vid in ("front", "left", "right", "inside"):
            stored = np.clip(_rounded(bundle.view(vid).frames), 0.0, 1.0)
            assert np.array_equal(back.view(vid).frames, stored[:, :, ::2, ::2])
        # the boxes index the stored 16 x 16 frames: face and body are cut there
        inside = np.clip(_rounded(bundle.view("inside").frames), 0.0, 1.0)
        for vid, box in zip(("face", "body"), default_boxes(16, 16)):
            assert np.array_equal(back.view(vid).frames, crop_resize(inside, box, 8, 8))

    def test_twenty_samples_split_13_3_4(self, tmp_path):
        rec = SyntheticRecipe(noise=0.1)
        for bundle in generate_synthetic(rec, 20, 13, TOY):
            write_sample_dir(bundle, tmp_path)
        streams = load_sample_dir(tmp_path, fractions=(0.65, 0.15, 0.20), config=TOY)
        assert (len(streams.train), len(streams.val), len(streams.test)) == (13, 3, 4)
        assert streams.skipped == 0

    def test_split_assignment_is_stable_hash_based(self, tmp_path):
        rec = SyntheticRecipe(noise=0.1)
        for bundle in generate_synthetic(rec, 12, 14, TOY):
            write_sample_dir(bundle, tmp_path)
        a = load_sample_dir(tmp_path, config=TOY)
        b = load_sample_dir(tmp_path, config=TOY)
        assert [s.sample_id for s in a.train] == [s.sample_id for s in b.train]
        assert [s.sample_id for s in a.train] == \
            sorted([s.sample_id for s in a.train],
                   key=lambda i: (stable_id_hash(i), i))

    def test_missing_modality_skipped_with_warning(self, tmp_path, caplog):
        rec = SyntheticRecipe(noise=0.1)
        bundles = list(generate_synthetic(rec, 3, 15, TOY))
        for b in bundles:
            write_sample_dir(b, tmp_path)
        (tmp_path / bundles[0].sample_id / "joints.t3jt").unlink()
        streams = load_sample_dir(tmp_path, config=TOY)
        assert streams.skipped == 1
        assert len(streams.train) + len(streams.val) + len(streams.test) == 2

    @pytest.mark.parametrize("name,text", [
        ("labels.txt", "x 0 0 0\n"),               # not an integer
        ("labels.txt", "-1 0 0 0\n"),              # below the class range
        ("labels.txt", "0 0 0 9\n"),               # past the last class
        ("boxes.txt", "3 0 9 6\n0 6 1.5 12\n"),    # non-integer box corner
        ("boxes.txt", "3 0 9 6\n0 6 12\n"),        # three values, not four
        ("boxes.txt", "3 0 9 6\n0 6 13 12\n"),     # corner past the frame edge
        ("boxes.txt", "-4 0 9 6\n0 6 12 12\n"),    # negative corner
        ("boxes.txt", "3 0 3 6\n0 6 12 12\n"),     # empty box, x1 == x0
        ("labels.txt", "\xff\xfe 1 2\n"),           # not UTF-8 (nor ASCII)
        ("boxes.txt", "\xff\xfe 1 2\n"),
    ])
    def test_malformed_text_file_skipped(self, tmp_path, name, text):
        rec = SyntheticRecipe(noise=0.1)
        bundles = list(generate_synthetic(rec, 3, 16, TOY))
        for b in bundles:
            write_sample_dir(b, tmp_path)
        # latin-1 writes each character as the byte of its code, so "\xff" is 0xff
        (tmp_path / bundles[1].sample_id / name).write_bytes(text.encode("latin-1"))
        streams = load_sample_dir(tmp_path, config=TOY)
        assert streams.skipped == 1
        assert len(streams.train) + len(streams.val) + len(streams.test) == 2

    @pytest.mark.parametrize("text", ["1_0 0 0 0\n", "+1 0 0 0\n"])
    def test_label_that_is_not_ascii_decimal_skipped(self, tmp_path, caplog, text):
        # Python's int() reads both, as 10 and 1
        bundles = list(generate_synthetic(SyntheticRecipe(noise=0.1), 3, 16, TOY))
        for b in bundles:
            write_sample_dir(b, tmp_path)
        (tmp_path / bundles[1].sample_id / "labels.txt").write_text(text)
        streams = load_sample_dir(tmp_path, config=TOY)
        assert streams.skipped == 1
        assert "labels.txt needs 4 integers" in caplog.text

    @pytest.mark.parametrize("fault", sorted(FRAME_FAULTS))
    def test_malformed_frame_file_skipped(self, tmp_path, fault):
        bundles = list(generate_synthetic(SyntheticRecipe(noise=0.1), 3, 18, TOY))
        for b in bundles:
            write_sample_dir(b, tmp_path)
        FRAME_FAULTS[fault](tmp_path / bundles[1].sample_id / "front")
        streams = load_sample_dir(tmp_path, config=TOY)
        assert streams.skipped == 1
        assert len(streams.train) + len(streams.val) + len(streams.test) == 2

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_joint_skipped(self, tmp_path, value):
        bundles = list(generate_synthetic(SyntheticRecipe(noise=0.1), 3, 18, TOY))
        for b in bundles:
            write_sample_dir(b, tmp_path)
        path = tmp_path / bundles[1].sample_id / "joints.t3jt"
        joints = load_joints(path)
        joints[2, 1, 0] = value
        dump_joints(joints, path)
        streams = load_sample_dir(tmp_path, config=TOY)
        assert streams.skipped == 1
        loaded = streams.train + streams.val + streams.test
        assert bundles[1].sample_id not in [s.sample_id for s in loaded]

    @pytest.mark.parametrize("good,bad", [
        (TOY.replace(frame_count=8), TOY.replace(frame_count=4)),      # 4 frames, config 8
        (TOY.replace(joint_count=17), TOY.replace(joint_count=20)),    # 20 joints, config 17
    ], ids=["frame_count", "joint_count"])
    def test_sample_of_other_shape_skipped(self, tmp_path, good, bad):
        # the model batches samples, so one of another shape must not load
        for b in generate_synthetic(SyntheticRecipe(noise=0.1), 2, 20, good):
            write_sample_dir(b, tmp_path)
        [odd] = generate_synthetic(SyntheticRecipe(noise=0.1), 1, 21, bad)
        write_sample_dir(odd, tmp_path)
        streams = load_sample_dir(tmp_path, config=good)
        assert streams.skipped == 1
        loaded = streams.train + streams.val + streams.test
        assert len(loaded) == 2 and odd.sample_id not in [s.sample_id for s in loaded]

    def test_joints_path_that_is_a_directory_skipped(self, tmp_path):
        bundles = list(generate_synthetic(SyntheticRecipe(noise=0.1), 3, 18, TOY))
        for b in bundles:
            write_sample_dir(b, tmp_path)
        path = tmp_path / bundles[1].sample_id / "joints.t3jt"
        path.unlink()
        path.mkdir()
        streams = load_sample_dir(tmp_path, config=TOY)
        assert streams.skipped == 1
        loaded = streams.train + streams.val + streams.test
        assert bundles[1].sample_id not in [s.sample_id for s in loaded]

    def test_each_sample_file_opened_once(self, tmp_path, monkeypatch):
        cfg = TOY.replace(frame_count=8)
        for b in generate_synthetic(SyntheticRecipe(noise=0.1), 3, 19, cfg):
            write_sample_dir(b, tmp_path)
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        streams = load_sample_dir(tmp_path, config=cfg)
        monkeypatch.undo()
        assert streams.skipped == 0
        # per sample: 4 stored views x 8 frames, boxes.txt, joints.t3jt, labels.txt
        assert len(opened) == 3 * (4 * 8 + 3) == len(set(opened))

    def test_malformed_frame_header_raises_on_direct_load(self, tmp_path):
        (tmp_path / "x.t3tn").write_bytes(b"XXXX")
        with pytest.raises(InputError):
            load_tensor(tmp_path / "x.t3tn")
