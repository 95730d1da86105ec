"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each traced ``mmtl`` function with a wrapper in
every ``mmtl`` module that imported it (and each traced ``Model`` method on
the class), so calls made inside the package are seen without changing it.
``uninstall`` puts the originals back. A wrapper appends one span
``[name, start, end, parent]``; a call to a function from inside its own span
(``ssm.scan`` reversing through itself) adds no second span. ``tensor.record``
gets a counter only, since every op passes through it.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from typing import Dict, List, Optional

import mmtl.blocks
import mmtl.data
import mmtl.fusion
import mmtl.heads
import mmtl.joints
import mmtl.model
import mmtl.ops
import mmtl.optim
import mmtl.ssm
import mmtl.tensor
import mmtl.train

# span name -> (defining module, function name)
FUNCTIONS = {
    "blocks.stem": (mmtl.blocks, "stem"),
    "blocks.dual_path_block": (mmtl.blocks, "dual_path_block"),
    "ssm.scan": (mmtl.ssm, "scan"),
    "ssm.compute_gate": (mmtl.ssm, "compute_gate"),
    "joints.joints_forward": (mmtl.joints, "joints_forward"),
    "fusion.fuse_all": (mmtl.fusion, "fuse_all"),
    "fusion.shared_attention": (mmtl.fusion, "shared_attention"),
    "fusion.task_gates": (mmtl.fusion, "task_gates"),
    "heads.head_forward": (mmtl.heads, "head_forward"),
    "heads.total_loss": (mmtl.heads, "total_loss"),
    "train.batch_loss": (mmtl.train, "batch_loss"),
    "train.evaluate": (mmtl.train, "evaluate"),
    "tensor.backward": (mmtl.tensor, "backward"),
    "optim.sgd_step": (mmtl.optim, "sgd_step"),
    "data.load_sample_dir": (mmtl.data, "load_sample_dir"),
}
METHODS = {
    "model.forward_sample": "forward_sample",
    "model.save_weights": "save_weights",
    "model.load_weights": "load_weights",
}
CALL = "bench.call"      # the span around one timed call of a workload
OP_KINDS = ("linear", "convolve", "depthwise_conv2d", "grouped_pointwise", "avg_pool",
            "adaptive_avg_pool", "expand_bins", "sigmoid", "gelu", "softmax",
            "batchnorm", "cross_entropy")


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mmtl" or name.startswith("mmtl."))]


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.active = False
        self.record_calls = 0
        self.record_calls_in_calls = 0     # those made inside CALL spans
        self._stack: List[int] = []
        self._patches = []          # (owner, attribute, original, wrapper)
        targets = {name: getattr(mod, attr) for name, (mod, attr) in FUNCTIONS.items()}
        targets.update({f"ops.{kind}": getattr(mmtl.ops, kind) for kind in OP_KINDS})
        for name, original in targets.items():
            wrapper = self._wrap(name, original)
            for mod in _package_modules():
                for attr, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, attr, original, wrapper))
        for name, attr in METHODS.items():
            original = getattr(mmtl.model.Model, attr)
            self._patches.append((mmtl.model.Model, attr, original, self._wrap(name, original)))
        record = mmtl.tensor.record
        counter = self._count(record)
        for mod in _package_modules():
            if getattr(mod, "record", None) is record:
                self._patches.append((mod, "record", record, counter))

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _count(self, fn):
        def counted(*args, **kwargs):
            self.record_calls += 1
            return fn(*args, **kwargs)
        return counted

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a call the benchmark makes itself; nothing when not installed."""
        if not self.active:
            yield
            return
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        records = self.record_calls
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            if name == CALL:
                self.record_calls_in_calls += self.record_calls - records

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.active = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.active = False

    def totals(self, under: Optional[str] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: inclusive ms, calls, and self ms (time no child covers).
        With ``under``, only spans inside a span of that name count."""
        inside = [False] * len(self.spans)
        child_ms = [0.0] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            inside[i] = under is None or (parent >= 0 and (inside[parent]
                                                            or self.spans[parent][0] == under))
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            if not inside[i]:
                continue
            row = out.setdefault(name, {"ms": 0.0, "calls": 0, "self_ms": 0.0})
            row["ms"] += (end - start) * 1e3
            row["calls"] += 1
            row["self_ms"] += (end - start) * 1e3 - child_ms[i]
        return out

    def write(self, path) -> None:
        """Spans as JSON, times in microseconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_us", "end_us", "parent"],
                       "spans": [[n, round((s - origin) * 1e6), round((e - origin) * 1e6), p]
                                 for n, s, e, p in self.spans]},
                      fh, separators=(",", ":"))
