"""Sample bundles, synthetic data with planted task signals, and the on-disk
sample layout.

A synthetic sample hides one low-frequency pattern per (task, class) inside
that task's designated modality (``DESIGNATED``), so a nearest-template
classifier - and a trained network - can recover every label from the right
modality alone.
Every recipe also plants ``ECHO``: a weaker copy of the der pattern, keyed to
the true label, in the interior views, at 0.3 of the recipe's amplitude.

On-disk layout per sample::

    root/<sample_id>/{front,left,right,inside}/frame_000.t3tn ...
    root/<sample_id>/boxes.txt     # face box then body box, four ints each
    root/<sample_id>/joints.t3jt
    root/<sample_id>/labels.txt    # four ints: der dbr tcr vbr

Face and body views are crops of the inside view, cut by the boxes and
resized (nearest neighbor) back to the view size.

``load_sample_dir`` lists each view directory once and reads its
``frame_*.t3tn`` files, in name order and once each, into one preallocated
[T, 3, H, W] array: every frame of a view has the first frame's [3, H, W]
shape. Pixels are clipped to [0, 1]. Views whose stored H x W differs from the
config's view size are nearest-resized to it; the boxes index the stored
inside frames, so face and body are cut before resizing. Every path is
written, read and listed through ``serial``, and writing makes the
directories. A sample root that cannot be listed is an ``InputError``. Each of
its entries is a sample, skipped with a warning when a file is missing or
malformed: an entry that is not a directory, a view directory that is missing
or has no frames, a frame or joints path that is a directory, a bad tensor or
joints header, a truncated payload, a frame that is not [3, H, W] or not the
shape of its view's first frame, or a boxes or labels file that is not the
expected integers, each an optional ``-`` and ASCII digits (boxes inside the
frame and non-empty, labels within their task's classes), a view or joints
file holding a NaN or infinite value, or a view or joints file whose frame
count, or a joints file whose joint count, is not the config's: the model
batches samples, so each must have the config's shapes.
"""

from __future__ import annotations

import fnmatch
import hashlib
import logging
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .blocks import EXTERIOR_VIEWS, ViewSequence
from .config import MODALITIES, TASKS, ModelConfig
from .errors import ArgumentError, InputError
from .joints import JointSequence
from .serial import dump_joints, dump_tensor, list_dir, load_joints, parse_tensor, \
    read_file, write_file

log = logging.getLogger(__name__)

STORED_VIEWS = ("front", "left", "right", "inside")

# the modality that carries each task's signal
DESIGNATED = {"der": "joints", "dbr": "interior", "tcr": "exterior", "vbr": "exterior"}
# a weaker true-label copy of a task's pattern that every recipe plants in a
# second modality: (modality, fraction of the recipe's amplitude)
ECHO = {"der": ("interior", 0.3)}
PATTERN_SEED = 7090
COARSE_T = 4        # frame blocks of a planted pattern
COARSE_GRID = 4     # cells per side of a planted view pattern


@dataclass
class SampleBundle:
    """One synchronized multimodal sample with its four task labels."""

    exterior: Tuple[ViewSequence, ...]
    interior: Tuple[ViewSequence, ...]
    joints: JointSequence
    labels: Dict[str, int]
    sample_id: str = ""

    def view(self, view_id: str) -> ViewSequence:
        for v in self.exterior + self.interior:
            if v.view_id == view_id:
                return v
        raise InputError(f"no view '{view_id}' in sample")


@dataclass
class SyntheticRecipe:
    """How strongly each task's signal is planted in its ``DESIGNATED``
    modality.

    ``distractors`` plants a task's patterns keyed to a random label in a
    wrong modality: a negative-transfer trap that per-task gating can shut
    off but a task-agnostic fusion cannot.
    """

    amplitude: float = 0.15
    distractors: Dict[str, Tuple[str, float]] = field(default_factory=dict)
    noise: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ArgumentError(f"noise: must be finite and non-negative, got {self.noise}")
        for task, (mod, _) in self.distractors.items():
            if DESIGNATED.get(task) == mod:
                raise ArgumentError(
                    f"recipe: distractor for {task} clashes with its signal modality")


def negative_transfer_recipe(noise: float = 0.25) -> SyntheticRecipe:
    """Benchmark recipe where every modality also carries a wrong-label trap."""
    return SyntheticRecipe(
        amplitude=0.2,
        noise=noise,
        distractors={"der": ("exterior", 1.0), "tcr": ("interior", 1.0),
                     "vbr": ("joints", 1.0)},
    )


def _upsample_axis(a: np.ndarray, axis: int, out: int) -> np.ndarray:
    t = a.shape[axis]
    counts = [-(-((i + 1) * out) // t) - -(-(i * out) // t) for i in range(t)]
    return np.repeat(a, counts, axis=axis)


def view_pattern(task: str, cls: int, t: int, hv: int, wv: int) -> np.ndarray:
    """The planted [T, 3, H_v, W_v] pattern for (task, class): a coarse random
    field plus a per-(frame-block, color) offset, upsampled. The coarse grid
    survives spatial pooling; the offset survives even global averaging."""
    rng = np.random.default_rng([PATTERN_SEED, TASKS.index(task), cls, 0])
    tc = min(COARSE_T, t)
    g = (min(COARSE_GRID, hv), min(COARSE_GRID, wv))
    coarse = 0.5 * rng.normal(size=(tc, 3) + g) + rng.normal(size=(tc, 3, 1, 1))
    p = _upsample_axis(coarse, 0, t)
    p = _upsample_axis(p, 2, hv)
    p = _upsample_axis(p, 3, wv)
    return np.clip(p, -2.5, 2.5)


def joint_pattern(task: str, cls: int, t: int, j: int) -> np.ndarray:
    rng = np.random.default_rng([PATTERN_SEED, TASKS.index(task), cls, 1])
    tc = min(COARSE_T, t)
    coarse = 0.5 * rng.normal(size=(tc, j, 3)) + rng.normal(size=(tc, 1, 3))
    return np.clip(_upsample_axis(coarse, 0, t), -2.5, 2.5)


FACE_BOX_FRAC = (0.25, 0.0, 0.75, 0.5)   # x0, y0, x1, y1 as fractions
BODY_BOX_FRAC = (0.0, 0.5, 1.0, 1.0)


def default_boxes(hv: int, wv: int) -> Tuple[Tuple[int, int, int, int], ...]:
    def box(frac):
        x0, y0, x1, y1 = frac
        return (int(x0 * wv), int(y0 * hv), max(int(x1 * wv), int(x0 * wv) + 1),
                max(int(y1 * hv), int(y0 * hv) + 1))
    return box(FACE_BOX_FRAC), box(BODY_BOX_FRAC)


def crop_resize(frames: np.ndarray, box: Tuple[int, int, int, int],
                out_h: int, out_w: int) -> np.ndarray:
    """Crop [T, 3, H, W] frames to box (x0, y0, x1, y1), nearest-resize back.
    The box must satisfy 0 <= x0 < x1 <= W and 0 <= y0 < y1 <= H."""
    x0, y0, x1, y1 = box
    if not (0 <= x0 < x1 <= frames.shape[3] and 0 <= y0 < y1 <= frames.shape[2]):
        raise InputError(f"crop box {box} empty or outside the {frames.shape[3]}x"
                         f"{frames.shape[2]} frame")
    crop = frames[:, :, y0:y1, x0:x1]
    ch, cw = crop.shape[2], crop.shape[3]
    rows = (np.arange(out_h) * ch) // out_h
    cols = (np.arange(out_w) * cw) // out_w
    return crop[:, :, rows][:, :, :, cols]


def _resize_view(frames: np.ndarray, hv: int, wv: int) -> np.ndarray:
    """Nearest-resize [T, 3, H, W] frames to hv x wv; frames of that size pass through."""
    if frames.shape[2:] == (hv, wv):
        return frames
    return crop_resize(frames, (0, 0, frames.shape[3], frames.shape[2]), hv, wv)


def _interior_views(inside: np.ndarray, boxes, hv: int, wv: int) -> Tuple[ViewSequence, ...]:
    """Inside, face and body views of hv x wv; the boxes index ``inside`` as given."""
    face_box, body_box = boxes
    return (
        ViewSequence("inside", _resize_view(inside, hv, wv)),
        ViewSequence("face", crop_resize(inside, face_box, hv, wv)),
        ViewSequence("body", crop_resize(inside, body_box, hv, wv)),
    )


def _balanced_labels(rng: np.random.Generator, count: int, k: int) -> np.ndarray:
    reps = -(-count // k)
    return rng.permutation(np.tile(np.arange(k), reps)[:count])


def generate_synthetic(recipe: SyntheticRecipe, count: int, seed: int,
                       config: ModelConfig) -> Iterator[SampleBundle]:
    """Deterministic stream of planted-signal samples of the config's shapes."""
    if count <= 0:
        raise ArgumentError("generate_synthetic: count must be positive")
    t, hv, wv, j = config.frame_count, config.view_height, config.view_width, config.joint_count
    rng = np.random.default_rng([seed, 0xA11CE])
    labels = {task: _balanced_labels(rng, count, config.num_classes(task)) for task in TASKS}
    decoy_labels = {task: rng.integers(0, config.num_classes(task), size=count)
                    for task in recipe.distractors}

    def planted(mod: str, i: int) -> np.ndarray:
        acc = np.zeros((t, j, 3) if mod == "joints" else (t, 3, hv, wv))
        for task, amp, tied in _modality_contributions(recipe, mod):
            cls = int((labels if tied else decoy_labels)[task][i])
            if mod == "joints":
                acc += amp * joint_pattern(task, cls, t, j)
            else:
                acc += amp * view_pattern(task, cls, t, hv, wv)
        # shrink overlapping patterns into [0.5 +- 0.45] to avoid saturation
        peak = np.abs(acc).max()
        return acc * (0.45 / peak) if peak > 0.45 else acc

    def noisy(base):
        out = 0.5 + base
        if recipe.noise > 0:
            out = out + rng.normal(0.0, recipe.noise, size=base.shape)
        return np.clip(out, 0.0, 1.0)

    for i in range(count):
        fields_ = {mod: planted(mod, i) for mod in MODALITIES}
        exterior = tuple(ViewSequence(vid, noisy(fields_["exterior"]))
                         for vid in EXTERIOR_VIEWS)
        inside = noisy(fields_["interior"])
        yield SampleBundle(
            exterior=exterior,
            interior=_interior_views(inside, default_boxes(hv, wv), hv, wv),
            joints=JointSequence(noisy(fields_["joints"])),
            labels={task: int(labels[task][i]) for task in TASKS},
            sample_id=f"synth_{seed}_{i:05d}",
        )


def _modality_contributions(recipe: SyntheticRecipe, mod: str):
    """(task, amplitude, tied) terms in a modality; tied=False means the term
    is keyed by its own free label (a distractor)."""
    out = [(task, recipe.amplitude, True)
           for task in TASKS if DESIGNATED[task] == mod]
    for task, (emod, frac) in ECHO.items():
        if emod == mod:
            out.append((task, recipe.amplitude * frac, True))
    for task, (dmod, frac) in recipe.distractors.items():
        if dmod == mod:
            out.append((task, recipe.amplitude * frac, False))
    return out


# ---------------------------------------------------------------------------
# on-disk layout
# ---------------------------------------------------------------------------

def write_sample_dir(bundle: SampleBundle, root) -> Path:
    base = Path(root) / (bundle.sample_id or "sample")
    for vid in STORED_VIEWS:
        frames = bundle.view(vid).frames
        for t in range(frames.shape[0]):
            dump_tensor(frames[t], base / vid / f"frame_{t:03d}.t3tn")
    inside = bundle.view("inside").frames
    boxes = default_boxes(inside.shape[2], inside.shape[3])
    write_file(base / "boxes.txt", "".join(_int_line(box) for box in boxes).encode())
    dump_joints(bundle.joints.joints, base / "joints.t3jt")
    write_file(base / "labels.txt", _int_line(bundle.labels[t] for t in TASKS).encode())
    return base


def _int_line(values) -> str:
    return " ".join(str(v) for v in values) + "\n"


def _read_view(vdir: str) -> np.ndarray:
    """A view's frame files, in name order, as one [T, 3, H, W] float64 array.

    The directory is listed once and each file read once into a preallocated
    array; the first frame fixes H and W and every later frame must match.
    """
    names = fnmatch.filter(list_dir(vdir), "frame_*.t3tn")
    if not names:
        raise InputError(f"no frames in {vdir}")
    frames = None
    for t, name in enumerate(names):
        path = os.path.join(vdir, name)
        frame = parse_tensor(path, read_file(path))
        if frames is None:
            if frame.ndim != 3 or frame.shape[0] != 3:
                raise InputError(f"{path}: frame is {list(frame.shape)}, not [3, H, W]")
            frames = np.empty((len(names),) + frame.shape)
        elif frame.shape != frames.shape[1:]:
            raise InputError(f"{path}: frame is {list(frame.shape)}, the view's first "
                             f"is {list(frames.shape[1:])}")
        frames[t] = frame    # float32 -> float64 is exact
    return frames


def _read_ints(raw: bytes, count: int, what: str) -> Tuple[int, ...]:
    """Exactly ``count`` whitespace-separated integers, each an optional ``-``
    and ASCII digits, else InputError."""
    values = raw.split()
    if len(values) != count or not all(re.fullmatch(rb"-?[0-9]+", v) for v in values):
        raise InputError(f"{what} needs {count} integers, got "
                         f"{raw.strip().decode(errors='replace')!r}")
    return tuple(int(v) for v in values)


def _load_one_sample(base: str, cfg: ModelConfig) -> SampleBundle:
    hv, wv = cfg.view_height, cfg.view_width
    sid = os.path.basename(base)
    views = {}
    for vid in STORED_VIEWS:
        frames = _read_view(os.path.join(base, vid))
        if len(frames) != cfg.frame_count:
            raise InputError(f"{sid}: view {vid} has {len(frames)} frames, not the "
                             f"config's {cfg.frame_count}")
        if not np.isfinite(frames).all():    # before the clip, which maps +-inf into [0, 1]
            raise InputError(f"{sid}: view {vid} holds a non-finite pixel")
        views[vid] = np.clip(frames, 0.0, 1.0, out=frames)

    lines = read_file(os.path.join(base, "boxes.txt")).strip().splitlines()
    if len(lines) < 2:
        raise InputError(f"{sid}: boxes.txt needs face and body lines")
    boxes = tuple(_read_ints(line, 4, f"{sid}: boxes.txt line") for line in lines[:2])

    joints = load_joints(os.path.join(base, "joints.t3jt"))
    if joints.shape[:2] != (cfg.frame_count, cfg.joint_count):
        raise InputError(f"{sid}: joints.t3jt holds {joints.shape[0]} frames of "
                         f"{joints.shape[1]} joints, not the config's {cfg.frame_count} "
                         f"of {cfg.joint_count}")
    if not np.isfinite(joints).all():
        raise InputError(f"{sid}: joints.t3jt holds a non-finite value")

    raw = _read_ints(read_file(os.path.join(base, "labels.txt")), len(TASKS),
                     f"{sid}: labels.txt")
    labels = dict(zip(TASKS, raw))
    for task, label in labels.items():
        if not 0 <= label < cfg.num_classes(task):
            raise InputError(f"{sid}: {task} label {label} not in "
                             f"[0, {cfg.num_classes(task)})")

    return SampleBundle(
        exterior=tuple(ViewSequence(v, _resize_view(views[v], hv, wv)) for v in EXTERIOR_VIEWS),
        interior=_interior_views(views["inside"], boxes, hv, wv),
        joints=JointSequence(joints),
        labels=labels,
        sample_id=sid,
    )


@dataclass
class SplitStreams:
    train: List[SampleBundle]
    val: List[SampleBundle]
    test: List[SampleBundle]
    skipped: int = 0


def split_sizes(n: int, fractions: Sequence[float]) -> List[int]:
    """Largest-remainder rounding of n into len(fractions) parts."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ArgumentError(f"split fractions must sum to 1, got {fractions}")
    raw = [f * n for f in fractions]
    sizes = [int(v) for v in raw]
    remainders = sorted(range(len(raw)), key=lambda i: raw[i] - sizes[i], reverse=True)
    for i in range(n - sum(sizes)):
        sizes[remainders[i % len(sizes)]] += 1
    return sizes


def stable_id_hash(sample_id: str) -> int:
    return int.from_bytes(hashlib.sha1(sample_id.encode()).digest()[:8], "big")


def load_sample_dir(root, fractions: Sequence[float] = (0.65, 0.15, 0.20), *,
                    config: ModelConfig) -> SplitStreams:
    """Load every sample under root and split it train/val/test by id hash.

    Samples are ordered by the stable hash of their id (file order never
    matters) and assigned contiguously using largest-remainder counts.
    Samples with missing or malformed files are skipped with a warning and
    counted in ``skipped``; a root that cannot be listed is an InputError.
    """
    loaded: List[SampleBundle] = []
    skipped = 0
    for sid in list_dir(root):
        try:
            loaded.append(_load_one_sample(os.path.join(root, sid), config))
        except InputError as exc:
            skipped += 1
            log.warning("skipping sample %s: %s", sid, exc)

    loaded.sort(key=lambda b: (stable_id_hash(b.sample_id), b.sample_id))
    n_train, n_val, n_test = split_sizes(len(loaded), fractions)
    return SplitStreams(
        train=loaded[:n_train],
        val=loaded[n_train:n_train + n_val],
        test=loaded[n_train + n_val:],
        skipped=skipped,
    )
