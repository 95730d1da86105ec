"""The three workloads: each builds its inputs from the seed, runs whole rounds
of timed calls into ``mmtl``, and checks the outputs afterwards against
computations made apart from the program.

Every workload is one process with one caller in a closed loop: the next call
starts when the previous one has returned.
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

import mmtl.data as data
import mmtl.optim as optim
import mmtl.tensor as tensor
import mmtl.train as train
from mmtl.config import ModelConfig
from mmtl.model import Model

import hostspeed
import reference
from tracing import CALL, Tracer

# the acceptance suite's toy config
TOY = ModelConfig(frame_count=8, channels=96, height=4, width=4, view_height=16,
                  view_width=16, state_dim=8, block_depth=1, seed=7, base_lr=0.08)
RECIPE = data.SyntheticRecipe(noise=0.05)
HEAD_STD = 1.0          # head weights ~ N(0, (HEAD_STD / sqrt(C))^2), biases ~ N(0, 0.1^2)
LOGIT_TOL = 1e-9        # reference vs program, relative to 1 + max |logit|


@dataclass
class Call:
    seconds: float
    samples: int
    probes: tuple       # host-speed probe times taken right before and right after the call


@dataclass
class Round:
    calls: List[Call] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def draw_heads(model: Model, rng: np.random.Generator) -> None:
    """Replace the zero-initialised heads so every logit depends on every layer."""
    std = HEAD_STD / math.sqrt(model.config.channels)
    for head in model.heads.values():
        head.weight.data = rng.normal(0.0, std, size=head.weight.shape)
        head.bias.data = rng.normal(0.0, 0.1, size=head.bias.shape)


def logit_gap(expected: dict, got: dict) -> float:
    """Largest |difference| over tasks, relative to 1 + the largest |logit|."""
    scale = 1.0 + max(float(np.abs(v).max()) for v in expected.values())
    return max(float(np.abs(np.asarray(got[t]) - expected[t]).max()) for t in expected) / scale


class Workload:
    name = ""
    config: ModelConfig
    MIN_ROUNDS = 1          # rounds every run makes, however short its window
    PROBES = 2              # host-speed probes on each side of a timed call
    STATE = ("model",)      # attributes set by setup(), dropped before the next one

    def __init__(self, seed: int, workdir: Path, tracer: Tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.generated = 0          # samples made by data.generate_synthetic
        self.loaded = 0             # samples read by data.load_sample_dir
        self.tape_nodes: List[int] = []
        self.failures: List[str] = []      # one message per failed operation
        self.input_seed = int(np.random.default_rng([seed, 0x1A7A]).integers(1 << 31))

    def generate(self, count: int, seed: int):
        with self.tracer.span("data.generate_synthetic"):
            out = list(data.generate_synthetic(RECIPE, count, seed, self.config))
        self.generated += count
        return out

    def probes(self) -> list:
        return [hostspeed.probe() for _ in range(self.PROBES)]

    def timed(self, samples: int, fn, *args, **kwargs):
        """One timed call between host-speed probes; returns the call's result
        and its Call record."""
        before = self.probes()
        with self.tracer.span(CALL):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            seconds = time.perf_counter() - t0
        return out, Call(seconds, samples, tuple(before + self.probes()))

    def build(self) -> Model:
        model = Model(self.config)
        draw_heads(model, np.random.default_rng([self.seed, 0x4EAD]))
        return model

    def make_fixture(self) -> None:
        """Inputs a user would already hold, made once and outside the setup time."""

    def setup(self) -> None:
        raise NotImplementedError

    def release(self) -> None:
        """Drop what the last setup() made, so a repeated set-up starts empty."""
        for attr in self.STATE:
            setattr(self, attr, None)

    def prepare_checks(self) -> None:
        """Copy the weights for the reference forward; outside the setup time."""
        self.weights = reference.snapshot(self.model)

    def warm_up(self) -> None:
        pass

    def run_round(self) -> Round:
        raise NotImplementedError

    def check(self) -> List[str]:
        """Failure messages; empty when every output is right."""
        raise NotImplementedError


class StreamDefault(Workload):
    """The paper-shaped model fed one sample at a time, eval mode."""

    name = "stream_default"
    config = ModelConfig()
    POOL = 8            # distinct samples, fed in turn
    CHECKED = 3         # samples per run compared with the reference forward
    STATE = ("model", "samples", "outputs")

    def setup(self) -> None:
        self.model = self.build()
        self.samples = self.generate(self.POOL, self.input_seed)
        self.outputs = [None] * self.POOL

    def warm_up(self) -> None:
        self.model.forward_sample(self.samples[0], train=False)

    def run_round(self) -> Round:
        rnd = Round()
        for i, sample in enumerate(self.samples):
            self.outputs[i], call = self.timed(1, self.model.forward_sample, sample, train=False)
            rnd.calls.append(call)
        rnd.attempted = len(self.samples)
        return rnd

    def check(self) -> List[str]:
        errors = []
        for i in range(self.CHECKED):
            logits, telemetry = reference.forward(self.samples[i], self.weights)
            out = self.outputs[i]
            gap = logit_gap(logits, {t: v.data for t, v in out.logits.items()})
            if not gap <= LOGIT_TOL:
                errors.append(f"sample {i}: logits differ from the reference by {gap:.3g}")
            tgap = float(np.abs(out.telemetry - telemetry).max())
            if not tgap <= LOGIT_TOL:
                errors.append(f"sample {i}: gate telemetry differs by {tgap:.3g}")
        return errors


class ProbedSet(list):
    """A sample list that times each sample of the loop iterating over it.

    ``train.evaluate`` runs one forward per sample while it iterates over its
    ``samples``. Iterating over this list records when each sample's loop body
    ends and, every ``every`` samples, runs host-speed probes whose time is kept
    out of the sample times. ``calls`` then splits one timed call into one
    Call per sample, each carrying the probes on either side of its group.
    """

    def __init__(self, bundles, every: int, probes):
        super().__init__(bundles)
        self.every = every
        self.probes = probes        # () -> list of probe times
        self.ends: List[float] = []         # on a clock that stops while probing
        self.groups: List[list] = []        # probes after each group but the last
        self.paused = 0.0

    def __iter__(self):
        self.begin = time.perf_counter()
        for i, bundle in enumerate(list.__iter__(self)):
            yield bundle
            self.ends.append(time.perf_counter() - self.paused)
            if (i + 1) % self.every == 0 and i + 1 < len(self):
                t0 = time.perf_counter()
                self.groups.append(self.probes())
                self.paused += time.perf_counter() - t0

    def calls(self, call: Call) -> List[Call]:
        """One Call per sample from the enclosing ``call``; the time the call
        spent outside the loop goes to the last sample."""
        side = len(call.probes) // 2
        edges = [list(call.probes[:side])] + self.groups + [list(call.probes[side:])]
        seconds = np.diff([self.begin] + self.ends)
        seconds[-1] += (call.seconds - self.paused) - (self.ends[-1] - self.begin)
        return [Call(float(seconds[i]), 1,
                     tuple(edges[i // self.every] + edges[i // self.every + 1]))
                for i in range(len(self))]


class EvalToy(Workload):
    """Held-out evaluation of the toy model: ``train.evaluate`` on the whole set
    per call, as ``train.run_toy_training`` calls it."""

    name = "eval_toy"
    config = TOY
    SET_SIZE = 256      # run_toy_training's default val_count
    PROBE_EVERY = 16    # samples between host-speed probes inside the call
    STATE = ("model", "held_out", "reports")

    def make_fixture(self) -> None:
        self.root = self.workdir / "eval_set"
        shutil.rmtree(self.root, ignore_errors=True)
        for bundle in self.generate(self.SET_SIZE, self.input_seed):
            data.write_sample_dir(bundle, self.root)

    def setup(self) -> None:
        self.model = self.build()
        split = data.load_sample_dir(self.root, fractions=(0.0, 0.0, 1.0), config=self.config)
        if split.skipped or len(split.test) != self.SET_SIZE:
            raise RuntimeError(f"eval set reloaded {len(split.test)} samples, "
                               f"skipped {split.skipped}")
        self.loaded += len(split.test)
        self.held_out = split.test
        self.reports = []

    def warm_up(self) -> None:
        train.evaluate(self.model, self.held_out[:4])

    def run_round(self) -> Round:
        rnd = Round()
        probed = ProbedSet(self.held_out, self.PROBE_EVERY, self.probes)
        report, call = self.timed(self.SET_SIZE, train.evaluate, self.model, probed)
        self.reports.append(report)
        rnd.calls = probed.calls(call)
        rnd.attempted = 1
        return rnd

    def check(self) -> List[str]:
        """Every report against the one recomputed from the reference logits; the
        model and the set do not change between calls."""
        weights = self.weights
        tasks = weights.tasks
        n = len(self.held_out)
        right_min = dict.fromkeys(tasks, 0)
        right_max = dict.fromkeys(tasks, 0)
        loss = dict.fromkeys(tasks, 0.0)
        telemetry = np.zeros((len(tasks), 3))
        for bundle in self.held_out:
            logits, tele = reference.forward(bundle, weights)
            telemetry += tele / n
            for t in tasks:
                lg, y = logits[t], bundle.labels[t]
                loss[t] += reference.cross_entropy(lg, y) / n
                top = np.sort(lg)[::-1]
                tied = top[0] - top[1] <= 1e-9 * (1.0 + abs(top[0]))
                if tied:        # an argmax within rounding of a tie may go either way
                    right_max[t] += int(lg[y] >= top[1])
                else:
                    right_min[t] += int(np.argmax(lg) == y)
                    right_max[t] += int(np.argmax(lg) == y)
        errors = []
        for i, report in enumerate(self.reports):
            for t in tasks:
                acc = report.accuracy[t] * n
                if not right_min[t] - 1e-9 <= acc <= right_max[t] + 1e-9:
                    errors.append(f"call {i} {t}: accuracy {report.accuracy[t]} vs "
                                  f"reference {right_min[t]}..{right_max[t]} of {n}")
                if not abs(report.loss[t] - loss[t]) <= LOGIT_TOL * (1.0 + loss[t]):
                    errors.append(f"call {i} {t}: loss {report.loss[t]} vs reference {loss[t]}")
            gate = np.asarray(report.gate_telemetry)[[reference.TASK_ORDER.index(t) for t in tasks]]
            tgap = float(np.abs(gate - telemetry).max())
            if not tgap <= LOGIT_TOL:
                errors.append(f"call {i}: gate telemetry differs from the reference by {tgap:.3g}")
        return errors


class TrainToy(Workload):
    """SGD steps on the toy model at batch 8, plus one checkpoint round trip a round."""

    name = "train_toy"
    config = TOY
    BATCH = 8
    TRAIN_SET = 64
    STEPS_PER_ROUND = 4
    CKPT_SAMPLES = 4
    CKPT_SEED = 20251       # the checkpoint samples do not depend on the workload seed
    CKPT_TOL = 1e-5         # float32 payload, relative to 1 + max |logit|
    FD_EPS = 1e-5
    FD_TOL = 1e-5
    LOSS_STEPS = 32         # the loss check reads the first 32 steps, whatever the run's length
    LOSS_TAIL = 4
    MIN_ROUNDS = LOSS_STEPS // STEPS_PER_ROUND
    STATE = ("model", "train_set", "ckpt_samples", "opt")

    def setup(self) -> None:
        self.model = self.build()
        self.train_set = self.generate(self.TRAIN_SET, self.input_seed)
        self.ckpt_samples = self.generate(self.CKPT_SAMPLES, self.CKPT_SEED)
        self.batch_rng = np.random.default_rng([self.seed, 0xBA7C4])
        cfg = self.config
        self.opt = optim.OptimizerState(base_lr=cfg.base_lr, momentum=cfg.momentum,
                                        weight_decay=cfg.weight_decay)
        self.losses: List[float] = []

    def prepare_checks(self) -> None:
        pass

    def step(self, batch):
        """Forward with a tape, backward, update; returns (loss, tape nodes)."""
        self.model.zero_grad()
        with tensor.Tape() as tape:
            loss, _ = train.batch_loss(self.model, batch, train=True)
        nodes = len(tape)
        tensor.backward(tape, loss)
        optim.sgd_step(self.opt, self.model.parameters())
        return loss, nodes

    def checkpoint_round_trip(self) -> Optional[str]:
        """Save, reload into a fresh model, compare eval logits; None when equal."""
        directory = self.workdir / "checkpoint"
        shutil.rmtree(directory, ignore_errors=True)
        self.model.save_weights(directory)
        fresh = Model(self.config)
        fresh.load_weights(directory)
        worst = 0.0
        for sample in self.ckpt_samples:
            want = {t: v.data for t, v in self.model.forward_sample(sample, train=False).logits.items()}
            got = {t: v.data for t, v in fresh.forward_sample(sample, train=False).logits.items()}
            worst = max(worst, logit_gap(want, got))
        if worst <= self.CKPT_TOL:
            return None
        stale = [name for name, mine, theirs in self._bn_stats(self.model, fresh)
                 if not (np.allclose(mine.mean, theirs.mean) and np.allclose(mine.var, theirs.var))]
        cause = (f"batch-norm running stats not restored: {', '.join(stale)}" if stale
                 else "cause not in the batch-norm stats")
        return f"checkpoint round trip: reloaded eval logits differ by {worst:.3g}; {cause}"

    @staticmethod
    def _bn_stats(a: Model, b: Model):
        for r, (sa, sb) in enumerate(zip(a.gate_params.bn_stats, b.gate_params.bn_stats)):
            yield f"GateParams.bn_stats[{r}]", sa, sb
        yield "JointBranchParams.bn_stats", a.joint_branch.bn_stats, b.joint_branch.bn_stats

    def run_round(self) -> Round:
        rnd = Round()
        for _ in range(self.STEPS_PER_ROUND):
            idx = self.batch_rng.choice(self.TRAIN_SET, size=self.BATCH, replace=False)
            (loss, nodes), call = self.timed(self.BATCH, self.step,
                                             [self.train_set[i] for i in idx])
            rnd.calls.append(call)
            self.losses.append(loss.item())
            self.tape_nodes.append(nodes)
        fault = self.checkpoint_round_trip()
        if fault is not None:
            rnd.failed += 1
            self.failures.append(fault)
        rnd.attempted = self.STEPS_PER_ROUND + 1
        return rnd

    def check(self) -> List[str]:
        errors = []
        tail = float(np.mean(self.losses[self.LOSS_STEPS - self.LOSS_TAIL:self.LOSS_STEPS]))
        if not tail < self.losses[0]:
            errors.append(f"loss did not fall: first step {self.losses[0]:.4f}, mean of "
                          f"steps {self.LOSS_STEPS - self.LOSS_TAIL + 1}-{self.LOSS_STEPS} "
                          f"{tail:.4f}")
        gap = self.gradient_check()
        if not gap <= self.FD_TOL:
            errors.append(f"backward gradient disagrees with the finite difference "
                          f"by {gap:.3g} (relative)")
        return errors

    def gradient_check(self, corrupt=None) -> float:
        """Relative gap between <grad, d> from ``tensor.backward`` and the central
        difference of the batch loss along a random unit direction d.
        ``corrupt(params)`` may alter the gradients before they are read."""
        batch = self.train_set[:self.BATCH]
        params = self.model.parameters()
        self.model.zero_grad()
        with tensor.Tape() as tape:
            loss, _ = train.batch_loss(self.model, batch, train=True)
        tensor.backward(tape, loss)
        if corrupt is not None:
            corrupt(params)
        rng = np.random.default_rng([self.seed, 0xFD])
        direction = {n: rng.normal(size=p.shape) for n, p in params.items()}
        norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
        analytic = sum(float((p.grad * direction[n]).sum()) / norm
                       for n, p in params.items() if p.grad is not None)
        base = {n: p.data for n, p in params.items()}

        def loss_at(step: float) -> float:
            for n, p in params.items():
                p.data = base[n] + (step / norm) * direction[n]
            value, _ = train.batch_loss(self.model, batch, train=True)
            return value.item()

        try:
            numeric = (loss_at(self.FD_EPS) - loss_at(-self.FD_EPS)) / (2 * self.FD_EPS)
        finally:
            for n, p in params.items():
                p.data = base[n]
        grad_norm = math.sqrt(sum(float((p.grad ** 2).sum())
                                  for p in params.values() if p.grad is not None))
        return abs(analytic - numeric) / max(abs(numeric), 1e-3 * grad_norm, 1e-12)


WORKLOADS = {w.name: w for w in (StreamDefault, EvalToy, TrainToy)}
