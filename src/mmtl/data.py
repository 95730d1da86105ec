"""Sample bundles, synthetic data with planted task signals, the on-disk
sample layout, and flip augmentation.

A synthetic sample hides one low-frequency pattern per (task, class) inside
that task's designated modality, so a nearest-template classifier - and a
trained network - can recover every label from the right modality alone.

On-disk layout per sample::

    root/<sample_id>/{front,left,right,inside}/frame_000.t3tn ...
    root/<sample_id>/boxes.txt     # face box then body box, four ints each
    root/<sample_id>/joints.t3jt
    root/<sample_id>/labels.txt    # four ints: der dbr tcr vbr

Face and body views are crops of the inside view, cut by the boxes and
resized (nearest neighbor) back to the view size.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .blocks import EXTERIOR_VIEWS, INTERIOR_VIEWS, ViewSequence
from .config import MODALITIES, TASKS, ModelConfig
from .errors import ArgumentError, InputError
from .joints import JointSequence
from .serial import dump_joints, dump_tensor, load_joints, load_tensor
from .tensor import Tensor

log = logging.getLogger(__name__)

ALL_VIEWS = EXTERIOR_VIEWS + INTERIOR_VIEWS
STORED_VIEWS = ("front", "left", "right", "inside")


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
    """Which modality carries each task's signal, and how strongly.

    ``echo`` plants weaker true-label copies in a second modality.
    ``distractors`` plants a task's patterns keyed to a random label in a
    wrong modality: a negative-transfer trap that per-task gating can shut
    off but a task-agnostic fusion cannot.
    """

    designated: Dict[str, str] = field(default_factory=lambda: {
        "der": "joints", "dbr": "interior", "tcr": "exterior", "vbr": "exterior"})
    amplitude: float = 0.15
    # weaker copies of a task's pattern planted in a second modality
    echo: Dict[str, Tuple[str, float]] = field(default_factory=lambda: {
        "der": ("interior", 0.3)})        # fraction of the main amplitude
    distractors: Dict[str, Tuple[str, float]] = field(default_factory=dict)
    noise: float = 0.0
    pattern_seed: int = 7090
    coarse_t: int = 4
    coarse_grid: int = 4

    def __post_init__(self):
        for task, mod in self.designated.items():
            if task not in TASKS or mod not in MODALITIES:
                raise ArgumentError(f"recipe: bad designation {task} -> {mod}")
        if set(self.designated) != set(TASKS):
            raise ArgumentError("recipe: every task needs a designated modality")
        if set(self.designated.values()) != set(MODALITIES):
            raise ArgumentError("recipe: designations must cover all three modalities")
        for task, (mod, _) in self.distractors.items():
            if self.designated.get(task) == mod:
                raise ArgumentError(
                    f"recipe: distractor for {task} clashes with its signal modality")


def negative_transfer_recipe(noise: float = 0.25,
                             amplitude: float = 0.2) -> SyntheticRecipe:
    """Benchmark recipe where every modality also carries a wrong-label trap."""
    return SyntheticRecipe(
        amplitude=amplitude,
        noise=noise,
        distractors={"der": ("exterior", 1.0), "tcr": ("interior", 1.0),
                     "vbr": ("joints", 1.0)},
    )


def _upsample_axis(a: np.ndarray, axis: int, out: int) -> np.ndarray:
    t = a.shape[axis]
    counts = [-(-((i + 1) * out) // t) - -(-(i * out) // t) for i in range(t)]
    return np.repeat(a, counts, axis=axis)


def view_pattern(recipe: SyntheticRecipe, task: str, cls: int,
                 t: int, hv: int, wv: int) -> np.ndarray:
    """The planted [T, 3, H_v, W_v] pattern for (task, class): a coarse random
    field plus a per-(frame-block, color) offset, upsampled. The coarse grid
    survives spatial pooling; the offset survives even global averaging."""
    rng = np.random.default_rng([recipe.pattern_seed, TASKS.index(task), cls, 0])
    tc = min(recipe.coarse_t, t)
    g = (min(recipe.coarse_grid, hv), min(recipe.coarse_grid, wv))
    coarse = 0.5 * rng.normal(size=(tc, 3) + g) + rng.normal(size=(tc, 3, 1, 1))
    p = _upsample_axis(coarse, 0, t)
    p = _upsample_axis(p, 2, hv)
    p = _upsample_axis(p, 3, wv)
    return np.clip(p, -2.5, 2.5)


def joint_pattern(recipe: SyntheticRecipe, task: str, cls: int,
                  t: int, j: int) -> np.ndarray:
    rng = np.random.default_rng([recipe.pattern_seed, TASKS.index(task), cls, 1])
    tc = min(recipe.coarse_t, t)
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
    """Crop [T, 3, H, W] frames to box (x0, y0, x1, y1), nearest-resize back."""
    x0, y0, x1, y1 = box
    crop = frames[:, :, y0:y1, x0:x1]
    ch, cw = crop.shape[2], crop.shape[3]
    if ch == 0 or cw == 0:
        raise InputError(f"empty crop box {box}")
    rows = (np.arange(out_h) * ch) // out_h
    cols = (np.arange(out_w) * cw) // out_w
    return crop[:, :, rows][:, :, :, cols]


def _interior_views(inside: np.ndarray, hv: int, wv: int) -> Tuple[ViewSequence, ...]:
    face_box, body_box = default_boxes(inside.shape[2], inside.shape[3])
    return (
        ViewSequence("inside", inside),
        ViewSequence("face", crop_resize(inside, face_box, hv, wv)),
        ViewSequence("body", crop_resize(inside, body_box, hv, wv)),
    )


def _balanced_labels(rng: np.random.Generator, count: int, k: int) -> np.ndarray:
    reps = -(-count // k)
    return rng.permutation(np.tile(np.arange(k), reps)[:count])


def generate_synthetic(recipe: SyntheticRecipe, count: int, seed: int,
                       config: Optional[ModelConfig] = None) -> Iterator[SampleBundle]:
    """Deterministic stream of planted-signal samples."""
    if count <= 0:
        raise ArgumentError("generate_synthetic: count must be positive")
    cfg = config or ModelConfig()
    t, hv, wv, j = cfg.frame_count, cfg.view_height, cfg.view_width, cfg.joint_count
    rng = np.random.default_rng([seed, 0xA11CE])
    labels = {task: _balanced_labels(rng, count, cfg.num_classes(task)) for task in TASKS}
    decoy_labels = {task: rng.integers(0, cfg.num_classes(task), size=count)
                    for task in recipe.distractors}

    contributions: Dict[str, List[Tuple[str, float]]] = {m: [] for m in MODALITIES}
    for task in TASKS:
        contributions[recipe.designated[task]].append((task, recipe.amplitude))
    for task, (mod, frac) in recipe.echo.items():
        contributions[mod].append((task, recipe.amplitude * frac))
    decoy_contribs: Dict[str, List[Tuple[str, float]]] = {m: [] for m in MODALITIES}
    for task, (mod, frac) in recipe.distractors.items():
        decoy_contribs[mod].append((task, recipe.amplitude * frac))

    def fit_range(field: np.ndarray) -> np.ndarray:
        # shrink overlapping patterns into [0.5 +- 0.45] to avoid saturation
        peak = np.abs(field).max()
        if peak > 0.45:
            field = field * (0.45 / peak)
        return field

    for i in range(count):
        fields_: Dict[str, np.ndarray] = {}
        for mod in ("exterior", "interior"):
            acc = np.zeros((t, 3, hv, wv))
            for task, amp in contributions[mod]:
                acc += amp * view_pattern(recipe, task, int(labels[task][i]), t, hv, wv)
            for task, amp in decoy_contribs[mod]:
                acc += amp * view_pattern(recipe, task, int(decoy_labels[task][i]),
                                          t, hv, wv)
            fields_[mod] = fit_range(acc)
        jacc = np.zeros((t, j, 3))
        for task, amp in contributions["joints"]:
            jacc += amp * joint_pattern(recipe, task, int(labels[task][i]), t, j)
        for task, amp in decoy_contribs["joints"]:
            jacc += amp * joint_pattern(recipe, task, int(decoy_labels[task][i]), t, j)
        jacc = fit_range(jacc)

        def noisy(base):
            out = 0.5 + base
            if recipe.noise > 0:
                out = out + rng.normal(0.0, recipe.noise, size=base.shape)
            return np.clip(out, 0.0, 1.0)

        exterior = tuple(ViewSequence(vid, noisy(fields_["exterior"]))
                         for vid in EXTERIOR_VIEWS)
        inside = noisy(fields_["interior"])
        yield SampleBundle(
            exterior=exterior,
            interior=_interior_views(inside, hv, wv),
            joints=JointSequence(noisy(jacc)),
            labels={task: int(labels[task][i]) for task in TASKS},
            sample_id=f"synth_{seed}_{i:05d}",
        )


def _modality_contributions(recipe: SyntheticRecipe, mod: str):
    """(task, amplitude, tied) terms in a modality; tied=False means the term
    is keyed by its own free label (a distractor)."""
    out = [(task, recipe.amplitude, True)
           for task in TASKS if recipe.designated[task] == mod]
    for task, (emod, frac) in recipe.echo.items():
        if emod == mod:
            out.append((task, recipe.amplitude * frac, True))
    for task, (dmod, frac) in recipe.distractors.items():
        if dmod == mod:
            out.append((task, recipe.amplitude * frac, False))
    return out


def template_predict(bundle: SampleBundle, recipe: SyntheticRecipe, task: str,
                     config: Optional[ModelConfig] = None) -> int:
    """Nearest-template classification of one task from its designated modality.

    Candidates are the composite planted fields over every class assignment of
    the tasks sharing that modality, compared by cosine similarity: exact at
    zero noise because the true field is among the candidates.
    """
    cfg = config or ModelConfig()
    mod = recipe.designated[task]
    contribs = _modality_contributions(recipe, mod)

    if mod == "joints":
        observed = bundle.joints.joints - 0.5
        patterns = [[amp * joint_pattern(recipe, t, cls, cfg.frame_count,
                                         cfg.joint_count)
                     for cls in range(cfg.num_classes(t))]
                    for t, amp, _ in contribs]
    else:
        view_id = "inside" if mod == "interior" else "front"
        observed = bundle.view(view_id).frames - 0.5
        patterns = [[amp * view_pattern(recipe, t, cls, cfg.frame_count,
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


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def augment(bundle: SampleBundle, seed: int) -> SampleBundle:
    """Random horizontal and vertical flips (p=0.5 each), applied consistently
    to every view, every frame, and the joint coordinates of one sample."""
    rng = np.random.default_rng([seed, 0xF11B])
    flip_h = bool(rng.random() < 0.5)
    flip_v = bool(rng.random() < 0.5)

    def flip_frames(frames: np.ndarray) -> np.ndarray:
        out = frames
        if flip_h:
            out = out[:, :, :, ::-1]
        if flip_v:
            out = out[:, :, ::-1, :]
        return np.ascontiguousarray(out)

    joints = bundle.joints.joints.copy()
    if flip_h:
        joints[:, :, 0] = 1.0 - joints[:, :, 0]
    if flip_v:
        joints[:, :, 1] = 1.0 - joints[:, :, 1]

    return SampleBundle(
        exterior=tuple(ViewSequence(v.view_id, flip_frames(v.frames))
                       for v in bundle.exterior),
        interior=tuple(ViewSequence(v.view_id, flip_frames(v.frames))
                       for v in bundle.interior),
        joints=JointSequence(joints),
        labels=dict(bundle.labels),
        sample_id=bundle.sample_id,
    )


# ---------------------------------------------------------------------------
# on-disk layout
# ---------------------------------------------------------------------------

def write_sample_dir(bundle: SampleBundle, root, sample_id: Optional[str] = None) -> Path:
    sid = sample_id or bundle.sample_id or "sample"
    base = Path(root) / sid
    for vid in STORED_VIEWS:
        view = bundle.view(vid)
        vdir = base / vid
        vdir.mkdir(parents=True, exist_ok=True)
        for t in range(view.frames.shape[0]):
            dump_tensor(Tensor(view.frames[t]), vdir / f"frame_{t:03d}.t3tn")
    inside = bundle.view("inside").frames
    face_box, body_box = default_boxes(inside.shape[2], inside.shape[3])
    with open(base / "boxes.txt", "w") as fh:
        fh.write(" ".join(str(v) for v in face_box) + "\n")
        fh.write(" ".join(str(v) for v in body_box) + "\n")
    dump_joints(bundle.joints.joints, base / "joints.t3jt")
    with open(base / "labels.txt", "w") as fh:
        fh.write(" ".join(str(bundle.labels[t]) for t in TASKS) + "\n")
    return base


def _resize_view(frames: np.ndarray, hv: int, wv: int) -> np.ndarray:
    return crop_resize(frames, (0, 0, frames.shape[3], frames.shape[2]), hv, wv)


def _load_one_sample(base: Path, cfg: ModelConfig) -> SampleBundle:
    hv, wv = cfg.view_height, cfg.view_width
    views = {}
    for vid in STORED_VIEWS:
        vdir = base / vid
        frame_files = sorted(vdir.glob("frame_*.t3tn"))
        if not frame_files:
            raise InputError(f"{base.name}: no frames for view '{vid}'")
        frames = np.stack([load_tensor(f).data for f in frame_files])
        if frames.ndim != 4 or frames.shape[1] != 3:
            raise InputError(f"{base.name}/{vid}: frames are {frames.shape}, not [T,3,H,W]")
        views[vid] = np.clip(_resize_view(frames, hv, wv), 0.0, 1.0)

    boxes_path = base / "boxes.txt"
    if not boxes_path.exists():
        raise InputError(f"{base.name}: missing boxes.txt")
    lines = boxes_path.read_text().strip().splitlines()
    if len(lines) < 2:
        raise InputError(f"{base.name}: boxes.txt needs face and body lines")
    face_box = tuple(int(v) for v in lines[0].split())
    body_box = tuple(int(v) for v in lines[1].split())
    if len(face_box) != 4 or len(body_box) != 4:
        raise InputError(f"{base.name}: boxes must be four integers each")

    joints_path = base / "joints.t3jt"
    if not joints_path.exists():
        raise InputError(f"{base.name}: missing joints.t3jt")
    joints = load_joints(joints_path)

    labels_path = base / "labels.txt"
    if not labels_path.exists():
        raise InputError(f"{base.name}: missing labels.txt")
    raw = labels_path.read_text().split()
    if len(raw) != 4:
        raise InputError(f"{base.name}: labels.txt needs four integers")
    labels = {task: int(v) for task, v in zip(TASKS, raw)}

    inside = views["inside"]
    interior = (
        ViewSequence("inside", inside),
        ViewSequence("face", crop_resize(inside, face_box, hv, wv)),
        ViewSequence("body", crop_resize(inside, body_box, hv, wv)),
    )
    return SampleBundle(
        exterior=tuple(ViewSequence(v, views[v]) for v in EXTERIOR_VIEWS),
        interior=interior,
        joints=JointSequence(joints),
        labels=labels,
        sample_id=base.name,
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


def load_sample_dir(root, fractions: Sequence[float] = (0.65, 0.15, 0.20),
                    config: Optional[ModelConfig] = None) -> SplitStreams:
    """Load every sample under root and split it train/val/test by id hash.

    Samples are ordered by the stable hash of their id (file order never
    matters) and assigned contiguously using largest-remainder counts.
    Samples with missing modality files are skipped with a warning.
    """
    cfg = config or ModelConfig()
    base = Path(root)
    sample_dirs = sorted([d for d in base.iterdir() if d.is_dir()]) if base.exists() else []

    loaded: List[SampleBundle] = []
    skipped = 0
    for d in sample_dirs:
        try:
            loaded.append(_load_one_sample(d, cfg))
        except InputError as exc:
            skipped += 1
            log.warning("skipping sample %s: %s", d.name, exc)

    loaded.sort(key=lambda b: (stable_id_hash(b.sample_id), b.sample_id))
    n_train, n_val, n_test = split_sizes(len(loaded), fractions)
    return SplitStreams(
        train=loaded[:n_train],
        val=loaded[n_train:n_train + n_val],
        test=loaded[n_train + n_val:],
        skipped=skipped,
    )
