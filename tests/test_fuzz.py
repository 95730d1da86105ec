"""Fuzzed parsers: arbitrary bytes, and valid files with bytes overwritten,
cut or inserted, either load or raise the package's typed error (InputError
for data files, ConfigError for configs) and nothing else. Valid input loads
bit-identically. Runs are derandomized with a fixed example budget.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mmtl.config import ModelConfig, parse_config
from mmtl.data import _read_ints
from mmtl.errors import ConfigError, InputError
from mmtl.serial import JOINTS_MAGIC, TENSOR_MAGIC, load_joints, parse_tensor

FUZZ = settings(max_examples=400, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def mutated(draw, valid):
    """A valid (bytes, expected) pair, or its bytes after 1-4 random edits
    with expected None."""
    raw, expected = draw(valid)
    edits = draw(st.integers(0, 4))
    raw = bytearray(raw)
    for _ in range(edits):
        kind = draw(st.sampled_from(["set", "cut", "insert"]))
        pos = draw(st.integers(0, len(raw)))
        if kind == "set" and pos < len(raw):
            raw[pos] = draw(st.integers(0, 255))
        elif kind == "cut":
            del raw[pos:pos + draw(st.integers(1, 8))]
        else:
            raw[pos:pos] = draw(st.binary(min_size=1, max_size=8))
    return bytes(raw), expected if edits == 0 else None


@st.composite
def tensor_files(draw):
    dims = draw(st.lists(st.integers(0, 3), max_size=4))
    values = np.array(draw(st.lists(finite32, min_size=math.prod(dims),
                                    max_size=math.prod(dims))), dtype="<f4")
    raw = TENSOR_MAGIC + struct.pack(f"<B{len(dims)}I", len(dims), *dims) + values.tobytes()
    return raw, values.reshape(dims)


@st.composite
def joint_files(draw):
    t, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    values = np.array(draw(st.lists(finite32, min_size=3 * t * j, max_size=3 * t * j)),
                      dtype="<f4")
    return JOINTS_MAGIC + struct.pack("<II", t, j) + values.tobytes(), values.reshape(t, j, 3)


def with_magic(magic):
    return st.binary(max_size=40).map(lambda tail: (magic + tail, None))


def assert_loads_or_rejects(load, expected):
    try:
        got = load()
    except InputError:
        assert expected is None, "a valid file was rejected"
        return
    if expected is not None:
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)


class TestTensorFiles:
    @given(st.one_of(mutated(tensor_files()), with_magic(TENSOR_MAGIC),
                     st.binary(max_size=40).map(lambda raw: (raw, None))))
    @FUZZ
    def test_parse_tensor_loads_or_raises_input_error(self, case):
        raw, expected = case
        assert_loads_or_rejects(lambda: parse_tensor("x.t3tn", raw), expected)

    @pytest.mark.parametrize("rank", [65, 255])
    def test_rank_numpy_cannot_hold_is_input_error(self, rank):
        # a well-formed header and payload whose rank numpy refuses
        raw = TENSOR_MAGIC + struct.pack(f"<B{rank}I", rank, *[1] * rank) + bytes(4)
        with pytest.raises(InputError, match="x.t3tn"):
            parse_tensor("x.t3tn", raw)


class TestJointFiles:
    @given(st.one_of(mutated(joint_files()), with_magic(JOINTS_MAGIC),
                     st.binary(max_size=40).map(lambda raw: (raw, None))))
    @FUZZ
    def test_load_joints_loads_or_raises_input_error(self, tmp_path, case):
        raw, expected = case
        path = tmp_path / "j.t3jt"
        path.write_bytes(raw)
        assert_loads_or_rejects(lambda: load_joints(path), expected)


@st.composite
def int_lines(draw):
    values = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=5))
    sep = draw(st.sampled_from([b" ", b"\t", b"  ", b"\n"]))
    return sep.join(str(v).encode() for v in values), values


class TestReadInts:
    @given(st.one_of(mutated(int_lines()), st.binary(max_size=40).map(lambda raw: (raw, None))),
           st.integers(0, 5))
    @FUZZ
    def test_loads_or_raises_input_error(self, case, count):
        raw, expected = case
        try:
            got = _read_ints(raw, count, "labels.txt")
        except InputError:
            assert expected is None or len(expected) != count
            return
        assert len(got) == count and all(isinstance(v, int) for v in got)
        if expected is not None:
            assert list(got) == expected


@st.composite
def config_texts(draw):
    """ModelConfig().to_text() with some lines' values replaced by arbitrary
    text; the default config is expected when none is."""
    lines = ModelConfig().to_text().splitlines()
    replaced = draw(st.lists(st.integers(0, len(lines) - 1), max_size=3))
    for i in replaced:
        key = lines[i].partition("=")[0]
        lines[i] = key + "=" + draw(st.text(max_size=12))
    return "\n".join(lines).encode(), None if replaced else ModelConfig()


class TestConfigText:
    @given(st.one_of(mutated(config_texts()), st.binary(max_size=60).map(lambda b: (b, None)),
                     st.text(max_size=60).map(lambda t: (t.encode(), None))))
    @FUZZ
    def test_parse_config_loads_or_raises_config_error(self, case):
        raw, expected = case
        try:
            cfg = parse_config(raw.decode("utf-8", errors="replace"))
        except ConfigError:
            assert expected is None, "a valid config was rejected"
            return
        assert isinstance(cfg, ModelConfig)
        if expected is not None:
            assert cfg == expected
