"""Command-line surface: subcommands, exit codes, machine-readable output."""

import numpy as np
import pytest

import mmtl.cli
from mmtl.cli import main
from mmtl.data import load_sample_dir
from mmtl.errors import InputError
from mmtl.config import ModelConfig, load_config
from mmtl.model import Model
from mmtl.serial import dump_tensor

TOY_CONFIG = """\
frame_count=4
channels=24
height=3
width=3
view_height=10
view_width=10
state_dim=2
block_depth=1
joint_count=6
"""


@pytest.fixture
def toy_config(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(TOY_CONFIG)
    return str(path)


def _assert_write_error(capsys, code, path):
    """Check the exit code and the one-line write error; return stdout."""
    assert code == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"error: cannot write {path}") and "Traceback" not in err
    return out


class TestParams:
    def test_default_config(self, capsys):
        assert main(["params"]) == 0
        out = capsys.readouterr().out
        assert "total" in out
        total = int(out.strip().splitlines()[-1].split()[-1])
        assert 0 < total < 6_000_000

    def test_out_file(self, toy_config, tmp_path, capsys):
        out_path = tmp_path / "params.txt"
        assert main(["params", "--config", toy_config, "--out", str(out_path)]) == 0
        text = out_path.read_text()
        assert "total=" in text

    def test_out_makes_its_parent_directories(self, toy_config, tmp_path):
        out_path = tmp_path / "new" / "deeper" / "params.txt"
        assert main(["params", "--config", toy_config, "--out", str(out_path)]) == 0
        assert "total=" in out_path.read_text()

    @pytest.mark.parametrize("make,name", [
        (lambda p: p.mkdir(), "out"),                       # a directory in the file's place
        (lambda p: p.write_text("x\n"), "out/params.txt"),  # a file in a directory's place
    ], ids=["directory", "parent_is_file"])
    def test_unwritable_out_exits_1(self, toy_config, tmp_path, capsys, make, name):
        make(tmp_path / "out")
        out_path = tmp_path / name
        code = main(["params", "--config", toy_config, "--out", str(out_path)])
        _assert_write_error(capsys, code, out_path)

    def test_write_error_names_the_file_in_the_way(self, toy_config, tmp_path, capsys):
        blocker = tmp_path / "out"
        blocker.write_text("x\n")
        out_path = blocker / "params.txt"
        assert main(["params", "--config", toy_config, "--out", str(out_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out_path}: {blocker}: File exists\n"

    def test_bad_config_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("channels=100\nframe_count=16\n")
        assert main(["params", "--config", str(bad)]) == 2

    def test_zero_channels_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("channels=0\n")
        assert main(["params", "--config", str(bad)]) == 2
        assert "channels: must be positive" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TOY_CONFIG + "seed=-1\n")
        assert main(["params", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed:") and "Traceback" not in err

    def test_negative_gradcheck_seed_is_usage_error(self, capsys):
        assert main(["gradcheck", "--module", "tensor-core", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed:") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["params", "bench", "train-toy"])
    @pytest.mark.parametrize("text,field", [
        ("frame_count=1\nchannels=6\n", "frame_count"),     # joints halve T, pool to 2 bins
        ("frame_count=2\nchannels=6\n", "frame_count"),
        ("joint_count=3\n", "joint_count"),
        ("height=9\n", "height"),                           # the stem leaves 10 - 2 = 8
        ("width=9\n", "width"),
    ], ids=["frame_count_1", "frame_count_2", "joint_count_3", "height_9", "width_9"])
    def test_shape_no_forward_can_run_is_usage_error(self, tmp_path, capsys, command,
                                                     text, field):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TOY_CONFIG + text)
        assert main([command, "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}:") and "Traceback" not in err

    @pytest.mark.parametrize("make,message", [
        (lambda p: None, "cannot read"),                                # missing
        (lambda p: p.mkdir(), "cannot read"),                           # a directory
        (lambda p: p.write_bytes(b"seed=1 # \xff\xfe\n"), "not UTF-8"),
    ], ids=["missing", "directory", "not_utf8"])
    def test_unreadable_config_file_is_usage_error(self, tmp_path, capsys, make, message):
        path = tmp_path / "toy.cfg"
        make(path)
        assert main(["params", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestGradcheck:
    def test_single_module_passes(self, capsys):
        assert main(["gradcheck", "--module", "heads", "--seed", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-4"])
    def test_bad_tolerance_is_usage_error(self, capsys, value):
        assert main(["gradcheck", "--module", "heads", f"--tolerance={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: tolerance:") and "Traceback" not in err

    def test_impossible_tolerance_fails(self, capsys):
        assert main(["gradcheck", "--module", "heads", "--tolerance", "1e-18"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestBenchCli:
    def test_bench_writes_record(self, toy_config, tmp_path, capsys):
        out_path = tmp_path / "bench.txt"
        assert main(["bench", "--config", toy_config, "--duration", "0.3",
                     "--out", str(out_path)]) == 0
        text = out_path.read_text()
        assert "fps=" in text and "p50_ms=" in text

    def test_window_shorter_than_a_batch_times_one(self, toy_config, tmp_path):
        out_path = tmp_path / "bench.txt"
        assert main(["bench", "--config", toy_config, "--duration", "1e-9",
                     "--out", str(out_path)]) == 0
        fields = dict(kv.split("=") for kv in out_path.read_text().split())
        assert float(fields["fps"]) > 0

    def test_bad_duration_is_usage_error(self, toy_config):
        assert main(["bench", "--config", toy_config, "--duration", "-1"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_duration_is_usage_error(self, toy_config, capsys, value):
        assert main(["bench", "--config", toy_config, "--duration", value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: duration:") and "Traceback" not in err

    def test_truncated_weight_file_exits_1(self, toy_config, tmp_path, capsys):
        wdir = tmp_path / "weights"
        Model(load_config(toy_config)).save_weights(wdir)
        (wdir / "head_der.b.t3tn").write_bytes(b"T3TN")
        assert main(["bench", "--config", toy_config, "--duration", "0.1",
                     "--weights", str(wdir)]) == 1
        assert "truncated" in capsys.readouterr().err

    def test_non_finite_weight_file_exits_1(self, toy_config, tmp_path, capsys):
        wdir = tmp_path / "weights"
        Model(load_config(toy_config)).save_weights(wdir)
        dump_tensor(np.full((24, 4), np.nan), wdir / "head_der.w.t3tn")
        assert main(["bench", "--config", toy_config, "--duration", "0.1",
                     "--weights", str(wdir)]) == 1
        err = capsys.readouterr().err
        assert "head_der.w.t3tn" in err and "non-finite" in err and "Traceback" not in err

    def test_directory_in_place_of_weight_file_exits_1(self, toy_config, tmp_path, capsys):
        wdir = tmp_path / "weights"
        Model(load_config(toy_config)).save_weights(wdir)
        (wdir / "head_der.b.t3tn").unlink()
        (wdir / "head_der.b.t3tn").mkdir()
        assert main(["bench", "--config", toy_config, "--duration", "0.1",
                     "--weights", str(wdir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and "head_der.b.t3tn" in err
        assert "Traceback" not in err


class TestGenData:
    def test_writes_loadable_layout(self, toy_config, tmp_path, capsys):
        out_dir = tmp_path / "data"
        assert main(["gen-data", "--config", toy_config, "--count", "6",
                     "--seed", "4", "--out", str(out_dir)]) == 0
        cfg = ModelConfig(frame_count=4, channels=24, height=3, width=3,
                          view_height=10, view_width=10, state_dim=2,
                          block_depth=1, joint_count=6)
        streams = load_sample_dir(out_dir, config=cfg)
        assert len(streams.train) + len(streams.val) + len(streams.test) == 6
        sample_dir = sorted(out_dir.iterdir())[0]
        assert (sample_dir / "boxes.txt").exists()
        assert (sample_dir / "labels.txt").exists()
        assert (sample_dir / "joints.t3jt").exists()
        assert len(list((sample_dir / "front").glob("frame_*.t3tn"))) == 4

    def test_out_that_is_a_file_exits_1(self, toy_config, tmp_path, capsys):
        out_path = tmp_path / "data"
        out_path.write_text("x\n")
        code = main(["gen-data", "--config", toy_config, "--count", "1",
                     "--out", str(out_path)])
        _assert_write_error(capsys, code, out_path)

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_noise_is_usage_error(self, toy_config, tmp_path, capsys, value):
        out_dir = tmp_path / "data"
        assert main(["gen-data", "--config", toy_config, "--count", "1",
                     "--noise", value, "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: noise:") and "Traceback" not in err
        assert not any(out_dir.glob("*/labels.txt"))


class TestTrainToy:
    def test_short_run_writes_metrics_log(self, toy_config, tmp_path, capsys):
        log = tmp_path / "metrics.log"
        code = main(["train-toy", "--config", toy_config, "--seed", "2",
                     "--steps", "4", "--batch", "2", "--train-count", "8",
                     "--val-count", "4", "--out", str(log)])
        assert code == 0
        lines = log.read_text().strip().splitlines()
        assert lines
        for line in lines:
            assert line.startswith("epoch=")
            assert "gate_telemetry=" in line

    @pytest.mark.parametrize("args,field", [
        (["--steps", "0"], "steps"),
        (["--batch", "0"], "batch_size"),
        (["--batch", "16", "--train-count", "8"], "batch_size"),
    ])
    def test_bad_run_arguments_are_usage_errors(self, toy_config, capsys, args, field):
        assert main(["train-toy", "--config", toy_config, *args]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}:")

    def test_nan_learning_rate_is_usage_error(self, tmp_path, capsys):
        # a config error, not "non-finite loss at step 1" from training
        bad = tmp_path / "bad.cfg"
        bad.write_text(TOY_CONFIG + "base_lr=nan\n")
        assert main(["train-toy", "--config", str(bad), "--steps", "1", "--batch", "2",
                     "--train-count", "4", "--val-count", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: base_lr:") and "Traceback" not in err

    def test_dump_weights(self, toy_config, tmp_path):
        wdir = tmp_path / "weights"
        code = main(["train-toy", "--config", toy_config, "--seed", "2",
                     "--steps", "2", "--batch", "2", "--train-count", "4",
                     "--val-count", "2", "--dump-weights", str(wdir)])
        assert code == 0
        assert any(wdir.glob("*.t3tn"))

    def test_log_path_that_is_a_directory_exits_1(self, toy_config, tmp_path, capsys):
        code = main(["train-toy", "--config", toy_config, "--steps", "2", "--batch", "2",
                     "--train-count", "4", "--val-count", "2", "--out", str(tmp_path)])
        _assert_write_error(capsys, code, tmp_path)

    def test_unwritable_weights_directory_exits_1(self, toy_config, tmp_path, capsys):
        wdir = tmp_path / "weights"
        wdir.write_text("x\n")
        code = main(["train-toy", "--config", toy_config, "--steps", "60", "--batch", "2",
                     "--train-count", "4", "--val-count", "2", "--dump-weights", str(wdir)])
        out = _assert_write_error(capsys, code, wdir)
        assert " -> " not in out        # failed before training, not after 60 steps


OUT_COMMANDS = pytest.mark.parametrize("command,work", [
    (["bench", "--duration", "0.1"], "bench_fps"),
    (["gradcheck", "--module", "tensor-core"], "gradcheck_run"),
    (["ablate", "--variants", "full", "--steps", "1"], "run_ablation"),
], ids=["bench", "gradcheck", "ablate"])


@OUT_COMMANDS
def test_unwritable_out_fails_before_the_work(toy_config, tmp_path, capsys, monkeypatch,
                                              command, work):
    def never(*args, **kwargs):
        raise AssertionError(f"{work} ran before --out was checked")

    monkeypatch.setattr(mmtl.cli, work, never)
    code = main(command[:1] + ["--config", toy_config, "--out", str(tmp_path)] + command[1:])
    _assert_write_error(capsys, code, tmp_path)


@OUT_COMMANDS
def test_failed_work_keeps_an_earlier_out(toy_config, tmp_path, monkeypatch, command, work):
    def fail(*args, **kwargs):
        raise InputError("cannot read weights: No such file or directory")

    out_path = tmp_path / "earlier.txt"
    out_path.write_text("an earlier run\n")
    monkeypatch.setattr(mmtl.cli, work, fail)
    assert main(command[:1] + ["--config", toy_config, "--out", str(out_path)]
                + command[1:]) == 1
    assert out_path.read_text() == "an earlier run\n"


class TestAblateCli:
    def test_custom_variant_list(self, toy_config, tmp_path, capsys):
        out_path = tmp_path / "ablate.txt"
        code = main(["ablate", "--config", toy_config, "--seed", "2",
                     "--variants", "full,no_mgmi", "--steps", "2",
                     "--out", str(out_path)])
        assert code == 0
        text = out_path.read_text()
        assert "full" in text and "no_mgmi" in text

    def test_unknown_variant_is_usage_error(self, toy_config):
        assert main(["ablate", "--config", toy_config, "--variants", "bogus",
                     "--steps", "1"]) == 2

    @pytest.mark.parametrize("value", [",", " , ", ""])
    def test_empty_variant_list_is_usage_error(self, toy_config, capsys, value):
        assert main(["ablate", "--config", toy_config, "--variants", value,
                     "--steps", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: variants:") and "Traceback" not in err
