"""Model configuration: every architecture hyperparameter and ablation flag,
parsed from flat ``key=value`` text with ``#`` comments.
"""

from __future__ import annotations

import hashlib
import dataclasses
import math
import re
from dataclasses import dataclass, fields
from typing import Tuple

from .errors import ConfigError, InputError
from .serial import read_file

TASKS = ("der", "dbr", "tcr", "vbr")
MODALITIES = ("exterior", "interior", "joints")


@dataclass
class ModelConfig:
    frame_count: int = 16
    channels: int = 192
    height: int = 7
    width: int = 7
    view_height: int = 32
    view_width: int = 32
    state_dim: int = 16
    block_depth: int = 2
    joint_count: int = 17
    classes_der: int = 4
    classes_dbr: int = 4
    classes_tcr: int = 4
    classes_vbr: int = 4
    base_lr: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 1e-4
    seed: int = 0
    no_mgmi: bool = False
    no_dual_scan: bool = False
    no_global_local: bool = False
    no_self_attention: bool = False
    no_multi_gating: bool = False
    drop_tasks: Tuple[str, ...] = ()
    drop_modalities: Tuple[str, ...] = ()

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name in ("frame_count", "channels", "height", "width", "view_height",
                     "view_width", "state_dim", "block_depth", "joint_count"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name}: must be positive")
        if self.channels % (3 * self.frame_count) != 0:
            raise ConfigError(
                f"channels: {self.channels} must divide into 3 views x "
                f"{self.frame_count} frames per branch")
        for task in TASKS:
            if getattr(self, f"classes_{task}") < 2:
                raise ConfigError(f"classes_{task}: need at least 2 classes")
        for t in self.drop_tasks:
            if t not in TASKS:
                raise ConfigError(f"drop_tasks: unknown task '{t}'")
        if set(self.drop_tasks) >= set(TASKS):
            raise ConfigError("drop_tasks: cannot drop every task")
        for m in self.drop_modalities:
            if m not in MODALITIES:
                raise ConfigError(f"drop_modalities: unknown modality '{m}'")
        if set(self.drop_modalities) >= set(MODALITIES):
            raise ConfigError("drop_modalities: cannot drop every modality")
        if {"exterior", "interior"} & set(self.active_modalities):
            # the stem's unpadded 3x3 conv leaves view - 2 positions to pool from
            for name, view in (("height", "view_height"), ("width", "view_width")):
                if getattr(self, name) > getattr(self, view) - 2:
                    raise ConfigError(f"{name}: {getattr(self, name)} exceeds {view} - 2 = "
                                      f"{getattr(self, view) - 2}, the stem's output size")
        if "joints" in self.active_modalities:
            # the joints branch halves both axes, then pools each to 2 bins
            for name in ("frame_count", "joint_count"):
                if getattr(self, name) < 4:
                    raise ConfigError(f"{name}: the joints branch needs at least 4, "
                                      f"got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be non-negative, got {self.seed}")
        for name in ("base_lr", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name}: must be finite and non-negative, got {value}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum: must lie in [0, 1), got {self.momentum}")

    @property
    def active_tasks(self) -> Tuple[str, ...]:
        return tuple(t for t in TASKS if t not in self.drop_tasks)

    @property
    def active_modalities(self) -> Tuple[str, ...]:
        return tuple(m for m in MODALITIES if m not in self.drop_modalities)

    def num_classes(self, task: str) -> int:
        return int(getattr(self, f"classes_{task}"))

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(v)
            elif isinstance(v, bool):
                v = "true" if v else "false"
            lines.append(f"{f.name}={v}")
        return "\n".join(lines) + "\n"

    def hash(self) -> str:
        return hashlib.sha1(self.to_text().encode()).hexdigest()[:12]

    def replace(self, **kw) -> "ModelConfig":
        return dataclasses.replace(self, **kw)


_BOOL_VALUES = {"true": True, "1": True, "yes": True,
                "false": False, "0": False, "no": False}


def _coerce(name: str, kind, raw: str):
    raw = raw.strip()
    if kind is bool:
        if raw.lower() not in _BOOL_VALUES:
            raise ConfigError(f"{name}: expected a boolean, got '{raw}'")
        return _BOOL_VALUES[raw.lower()]
    if kind is int:     # Python's int() also takes 1_6, +16 and non-ASCII digits
        if not re.fullmatch(r"-?[0-9]+", raw):
            raise ConfigError(f"{name}: expected an integer, got '{raw}'")
        return int(raw)
    if kind is float:   # and float() takes 1_0e-3 and non-ASCII digits
        try:
            if raw.isascii() and "_" not in raw:
                return float(raw)
        except ValueError:
            pass
        raise ConfigError(f"{name}: expected a number, got '{raw}'")
    # tuple of strings
    return tuple(s.strip() for s in raw.split(",") if s.strip())


def parse_config(text: str) -> ModelConfig:
    """Parse flat key=value lines; unknown keys and bad values are rejected."""
    kinds = {}
    for f in fields(ModelConfig):
        if f.type in ("int", int):
            kinds[f.name] = int
        elif f.type in ("float", float):
            kinds[f.name] = float
        elif f.type in ("bool", bool):
            kinds[f.name] = bool
        else:
            kinds[f.name] = tuple
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got '{line}'")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in kinds:
            raise ConfigError(f"unknown config key '{key}'")
        values[key] = _coerce(key, kinds[key], raw)
    return ModelConfig(**values)


def load_config(path) -> ModelConfig:
    """``parse_config`` of a UTF-8 file; an unreadable file is a ConfigError."""
    try:
        return parse_config(read_file(path).decode("utf-8"))
    except InputError as exc:
        raise ConfigError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
