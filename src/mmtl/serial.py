"""Binary tensor and joint-sequence file formats.

Tensor file: magic b"T3TN", u8 rank, rank x u32 little-endian dims, then the
row-major payload as little-endian float32 (values narrowed from float64).

Joint file: magic b"T3JT", u32 T, u32 J, then T*J*3 little-endian float32.

This module, in bytes and numpy arrays only, is the package's one filesystem
boundary: every path the package reads, writes, makes or lists goes through
``read_file``, ``write_file``, ``claim_file``, ``make_dir`` or ``list_dir``. A failure
(missing, a directory or a file in the way, no permission) is an
``InputError`` that names the path, and also the path the OS named when that
is another one, such as a file where a parent directory must go.
``config.load_config`` turns it into a ``ConfigError``.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import InputError

TENSOR_MAGIC = b"T3TN"
JOINTS_MAGIC = b"T3JT"


def dump_tensor(data: np.ndarray, path) -> None:
    write_file(path, TENSOR_MAGIC, struct.pack(f"<B{data.ndim}I", data.ndim, *data.shape),
               np.ascontiguousarray(data, dtype="<f4"))


def read_file(path) -> bytes:
    """A file's bytes, in one read; any failure to open or read it is an
    InputError that names the path."""
    try:
        with open(path, "rb", buffering=0) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {_reason(path, exc)}") from None


def write_file(path, *chunks) -> None:
    """Write bytes and contiguous arrays to a file, in order, making its parent
    directories; any failure is an InputError that names the path."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {_reason(path, exc)}") from None


def claim_file(path) -> None:
    """Check that a file can be written before the work that fills it: make its
    parent directories and open it for appending, which creates a missing file
    empty and leaves one already there as it was; any failure is an InputError
    that names the path."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "ab"):
            pass
    except OSError as exc:
        raise InputError(f"cannot write {path}: {_reason(path, exc)}") from None


def make_dir(path) -> None:
    """Make a directory to write into, with its parents, if it is not there;
    any failure is an InputError that names it."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {_reason(path, exc)}") from None


def list_dir(path) -> list[str]:
    """A directory's entry names, sorted; any failure is an InputError that names it."""
    try:
        return sorted(os.listdir(path))
    except OSError as exc:
        raise InputError(f"cannot list {path}: {_reason(path, exc)}") from None


def _reason(path, exc: OSError) -> str:
    """Why ``exc`` stopped the work on ``path``, prefixed by the path the OS
    named when that is not ``path`` itself."""
    reason = exc.strerror or str(exc)
    if exc.filename is not None and os.fspath(exc.filename) != os.fspath(path):
        return f"{os.fspath(exc.filename)}: {reason}"
    return reason


def load_tensor(path) -> np.ndarray:
    return parse_tensor(path, read_file(path)).astype(np.float64)


def parse_tensor(path, raw: bytes) -> np.ndarray:
    """The float32 payload of tensor-file bytes, shaped by their header.

    Every header and payload check lives here; ``path`` names the file in errors.
    """
    if raw[:4] != TENSOR_MAGIC:
        raise InputError(f"{path}: bad tensor magic {raw[:4]!r}")
    if len(raw) < 5 or len(raw) < 5 + 4 * raw[4]:
        raise InputError(f"{path}: truncated tensor header")
    rank = raw[4]
    header_end = 5 + 4 * rank
    dims = struct.unpack(f"<{rank}I", raw[5:header_end])
    values = _payload(path, raw, header_end, math.prod(dims))
    try:
        return values.reshape(dims)
    except ValueError:  # numpy caps the rank: 32 axes before numpy 2, 64 since
        raise InputError(f"{path}: rank {rank} is more than numpy's arrays hold") from None


def dump_joints(joints: np.ndarray, path) -> None:
    if joints.ndim != 3 or joints.shape[2] != 3:
        raise InputError(f"joints must be [T, J, 3], got {joints.shape}")
    t, j, _ = joints.shape
    write_file(path, JOINTS_MAGIC, struct.pack("<II", t, j),
               np.ascontiguousarray(joints, dtype="<f4"))


def load_joints(path) -> np.ndarray:
    raw = read_file(path)
    if raw[:4] != JOINTS_MAGIC:
        raise InputError(f"{path}: bad joints magic {raw[:4]!r}")
    if len(raw) < 12:
        raise InputError(f"{path}: truncated joints header")
    t, j = struct.unpack("<II", raw[4:12])
    return _payload(path, raw, 12, t * j * 3).astype(np.float64).reshape(t, j, 3)


def _payload(path, raw: bytes, offset: int, count: int) -> np.ndarray:
    """The float32 values after the header, exactly ``count`` of them."""
    if len(raw) - offset != 4 * count:
        raise InputError(f"{path}: payload has {len(raw) - offset} bytes, "
                         f"header says {count} values")
    return np.frombuffer(raw, dtype="<f4", offset=offset)
