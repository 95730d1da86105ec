"""Inference throughput measurement: warmed-up FPS with batch latency
percentiles.

FPS is the uncontended rate: the batch size divided by the 10th-percentile
batch latency. A stall only slows batches down, so a preemption, or a stretch
in which a shared host runs the program slower, moves the p50 and p95, and
the FPS only when it covers nine tenths of the timed window.

With `threads=N > 1` the timed loop runs in N worker processes forked after
the model is built and its weights are loaded, so every worker reads the same
weights copy-on-write. Each worker warms up, waits on a shared barrier so the
timed windows overlap, and times its own window; FPS is the sum of the
workers' uncontended rates. Processes rather than threads keep the workers
from convoying on the interpreter lock, so the speed-up is bounded by the
number of cores. `threads=1` runs the same loop in-process.
"""

from __future__ import annotations

import math
import multiprocessing
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Callable, List, Tuple

import numpy as np

from .config import ModelConfig
from .data import SyntheticRecipe, generate_synthetic
from .errors import ArgumentError
from .model import Model

WARMUP_BATCHES = 10


@dataclass
class BenchRecord:
    config_hash: str
    param_count: int
    fps: float
    latency_p50_ms: float
    latency_p95_ms: float
    threads: int
    duration_s: float
    batch_size: int

    def lines(self) -> str:
        return (f"config_hash={self.config_hash} param_count={self.param_count} "
                f"fps={self.fps:.3f} p50_ms={self.latency_p50_ms:.3f} "
                f"p95_ms={self.latency_p95_ms:.3f} threads={self.threads} "
                f"duration_s={self.duration_s:.3f} batch={self.batch_size}")


def bench_fps(config: ModelConfig, batch_size: int = 1, duration: float = 2.0,
              threads: int = 1, seed: int = 0,
              weights_dir: str = None) -> BenchRecord:
    """Measure the uncontended sample throughput of the inference path, summed
    over `threads` forked worker processes. Each timed batch is one
    `Model.forward` over `batch_size` samples."""
    if not (math.isfinite(duration) and duration > 0):
        raise ArgumentError(f"duration: must be finite and positive, got {duration}")
    if batch_size <= 0 or threads <= 0:
        raise ArgumentError("bench: batch size and threads must be positive")
    if threads > 1 and "fork" not in multiprocessing.get_all_start_methods():
        raise ArgumentError("bench: threads > 1 needs the fork start method, "
                            "which this platform lacks")
    model = Model(config)
    if weights_dir:
        model.load_weights(weights_dir)
    recipe = SyntheticRecipe(noise=0.1)
    samples = list(generate_synthetic(recipe, batch_size, seed, config))

    def run_batch() -> float:
        t0 = time.perf_counter()
        model.forward(samples, train=False)
        return (time.perf_counter() - t0) * 1e3

    if threads == 1:
        results = [_timed_loop(run_batch, duration)]
    else:
        results = _run_forked(run_batch, duration, threads)

    latencies = [ms for batch_ms, _ in results for ms in batch_ms]
    elapsed = max(window for _, window in results)
    return BenchRecord(
        config_hash=config.hash(),
        param_count=model.param_count(),
        fps=sum(batch_size * 1e3 / float(np.percentile(batch_ms, 10))
                for batch_ms, _ in results),
        latency_p50_ms=float(np.percentile(latencies, 50)),
        latency_p95_ms=float(np.percentile(latencies, 95)),
        threads=threads,
        duration_s=elapsed,
        batch_size=batch_size,
    )


def _timed_loop(run_batch: Callable[[], float], duration: float,
                barrier=None) -> Tuple[List[float], float]:
    """Warm up for `duration` seconds and at least WARMUP_BATCHES batches (a
    fresh process can run several times slower for most of a second), wait
    for the other workers if any, then time batches for `duration` seconds,
    and at least one. Returns the latencies and the window."""
    start = time.perf_counter()
    for _ in range(WARMUP_BATCHES):
        run_batch()
    while time.perf_counter() - start < duration:
        run_batch()
    if barrier is not None:
        barrier.wait()
    start = time.perf_counter()
    latencies = [run_batch()]
    while time.perf_counter() - start < duration:
        latencies.append(run_batch())
    return latencies, time.perf_counter() - start


def _worker(run_batch, duration, barrier, conn) -> None:
    try:
        conn.send(("ok", _timed_loop(run_batch, duration, barrier)))
    except BaseException as exc:
        # An exception that does not pickle fails this send and ends the
        # worker with exit code 1, which the parent reports as a crash.
        conn.send(("error", (exc, "".join(traceback.format_exception(exc)))))


def _run_forked(run_batch, duration: float,
                workers: int) -> List[Tuple[List[float], float]]:
    """Run `_timed_loop` in `workers` forked processes. A worker that raises
    or dies makes this raise at once; the other workers are then killed."""
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(workers)
    pending = {}
    procs = []
    try:
        for _ in range(workers):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker, daemon=True,
                               args=(run_batch, duration, barrier, send))
            proc.start()
            send.close()  # the child's copy alone keeps the pipe open
            pending[recv] = proc
            procs.append(proc)
        results = []
        while pending:
            for conn in wait(list(pending)):
                proc = pending.pop(conn)
                try:
                    status, payload = conn.recv()
                except EOFError:
                    proc.join()
                    raise RuntimeError(f"bench: worker {proc.pid} died with exit "
                                       f"code {proc.exitcode} before reporting")
                if status == "error":
                    exc, remote = payload
                    raise exc from RuntimeError(f"in bench worker:\n{remote}")
                results.append(payload)
        return results
    finally:
        for proc in pending.values():
            proc.terminate()
        for proc in procs:
            proc.join()
