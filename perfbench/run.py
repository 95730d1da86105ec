"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload stream_default --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout. The run sets up
(repeated ``SETUP_REPS`` times), warms up, runs whole rounds of timed calls
until ``--seconds`` have passed, then checks the outputs. The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. End-to-end times are corrected to a reference
host speed (see ``hostspeed``); the line before the result gives the
uncorrected figures. A traced run alternates traced and untraced
rounds, so the tracing overhead is measured on the same run. The exit code
is 0 when the outputs are correct, 1 when a check fails and 2 on bad usage.
"""

from __future__ import annotations

import os
import sys

# every workload is one single-threaded caller; one BLAS thread keeps it within nproc
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import dataclasses
import gc
import json
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPS = 3
IMPORT_REPS = 5
PROBES = 5          # host-speed probes before and after each set-up stage
NEIGHBOURS = 10     # calls on either side whose probes also correct a call's time
# numpy and scipy load before the clock starts: the timed import is the package's own
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "import numpy, scipy.special; t0 = time.perf_counter(); "
                "import mmtl.model, mmtl.train, mmtl.optim, mmtl.data; "
                "print(time.perf_counter() - t0)")
WORKLOAD_NAMES = ("stream_default", "eval_toy", "train_toy")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def import_seconds() -> float:
    """Median time a fresh interpreter, numpy and scipy already loaded, takes to
    import the package."""
    times = []
    for _ in range(IMPORT_REPS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                              check=True, timeout=120, capture_output=True, text=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probes() -> list:
    return [hostspeed.probe() for _ in range(PROBES)]


def corrected(calls):
    """The calls, in the order they ran, each with its time scaled to the
    reference host speed by the probes taken around it and its ``NEIGHBOURS``
    neighbours on either side."""
    medians = [statistics.median(c.probes) for c in calls]
    return [dataclasses.replace(c, seconds=c.seconds * hostspeed.factor(
                medians[max(0, i - NEIGHBOURS):i + NEIGHBOURS + 1]))
            for i, c in enumerate(calls)]


def rate_and_p50(calls):
    """Samples per second and median milliseconds per sample of some calls."""
    rate = sum(c.samples for c in calls) / sum(c.seconds for c in calls)
    return rate, float(np.percentile([c.seconds * 1e3 / c.samples for c in calls], 50))


def end_to_end(wl, calls, setup_s: float, peak_rss_mb: float) -> dict:
    per_sample_ms = [c.seconds * 1e3 / c.samples for c in calls]
    rate, p50 = rate_and_p50(calls)
    return {
        "setup_s": (setup_s, "s"),
        "samples_per_s": (rate, "1/s"),
        "sample_latency_p50_ms": (p50, "ms"),
        "sample_latency_p95_ms": (float(np.percentile(per_sample_ms, 95)), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "param_count": (wl.model.param_count(), "count"),
    }


def per_layer(wl, tracer, traced_calls, overhead_pct: float) -> dict:
    """Layer rows and coverage from the traced calls' raw times."""
    from tracing import CALL, FUNCTIONS, OP_KINDS
    samples = sum(c.samples for c in traced_calls)
    steps = len(traced_calls) if wl.name == "train_toy" else 0
    in_calls = tracer.totals(under=CALL)
    everywhere = tracer.totals()

    def row(table, name, key="ms"):
        return table.get(name, {}).get(key, 0.0)

    out = {}
    layers = [n for n in FUNCTIONS if n.split(".")[0] in ("blocks", "ssm", "joints", "fusion", "heads")]
    for name in layers:
        out[f"{name}.ms"] = (row(in_calls, name) / samples, "ms")
        out[f"{name}.calls"] = (row(in_calls, name, "calls") / samples, "count")
    out["model.forward_sample.ms"] = (row(in_calls, "model.forward_sample") / samples, "ms")
    out["model.forward_sample.self_ms"] = (row(in_calls, "model.forward_sample", "self_ms") / samples, "ms")
    for kind in OP_KINDS:
        out[f"ops.{kind}.ms"] = (row(in_calls, f"ops.{kind}") / samples, "ms")
        out[f"ops.{kind}.calls"] = (row(in_calls, f"ops.{kind}", "calls") / samples, "count")
    out["tensor.record.calls_per_sample"] = (tracer.record_calls_in_calls / samples, "count")
    nodes = wl.tape_nodes
    out["tensor.tape_nodes_per_step"] = (sum(nodes) / len(nodes) if nodes else 0.0, "count")
    for name in ("train.batch_loss", "tensor.backward", "optim.sgd_step"):
        out[f"{name}.ms_per_step"] = (row(in_calls, name) / steps if steps else 0.0, "ms")
    out["data.generate_synthetic.ms_per_sample"] = (
        row(everywhere, "data.generate_synthetic") / wl.generated, "ms")
    out["data.load_sample_dir.ms_per_sample"] = (
        row(everywhere, "data.load_sample_dir") / wl.loaded if wl.loaded else 0.0, "ms")
    for name in ("model.save_weights", "model.load_weights"):
        calls = row(everywhere, name, "calls")
        out[f"{name}.ms"] = (row(everywhere, name) / calls if calls else 0.0, "ms")

    # the rows that partition a timed call: forward layers, forward self time, loss,
    # backward and update; evaluate's and batch_loss's own bookkeeping stay uncovered
    parts = ["blocks.stem", "blocks.dual_path_block", "joints.joints_forward",
             "fusion.fuse_all", "heads.head_forward", "heads.total_loss",
             "tensor.backward", "optim.sgd_step"]
    covered = sum(row(in_calls, n) for n in parts) + row(in_calls, "model.forward_sample", "self_ms")
    traced_ms = sum(c.seconds for c in traced_calls) * 1e3
    out["trace.sample_ms"] = (traced_ms / samples, "ms")
    out["trace.layer_sum_ms"] = (covered / samples, "ms")
    out["trace.coverage_pct"] = (100.0 * covered / traced_ms, "%")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out


def overhead_pct(traced, untraced) -> float:
    """Median corrected time per sample, traced rounds over untraced, minus 1."""
    t = statistics.median(c.seconds / c.samples for c in traced)
    u = statistics.median(c.seconds / c.samples for c in untraced)
    return 100.0 * (t / u - 1.0)


def run(args) -> int:
    import mmtl
    if Path(mmtl.__file__).resolve().parent != SRC / "mmtl":
        print(f"error: mmtl imported from {mmtl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    tracer = Tracer()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, tracer)
        host = probes()
        imports_s = import_seconds()
        host += probes()
        if args.trace:
            tracer.install()
        wl.make_fixture()
        builds = []
        for _ in range(SETUP_REPS):
            wl.release()            # the repeats must not stack their models and inputs
            gc.collect()
            t0 = time.perf_counter()
            wl.setup()
            builds.append(time.perf_counter() - t0)
        if args.trace:
            tracer.uninstall()
        host += probes()
        setup_scale = hostspeed.factor(host)
        setup_s = (imports_s + statistics.median(builds)) * setup_scale

        wl.prepare_checks()
        wl.warm_up()
        gc.collect()
        rss_before_mb = max_rss_mb()
        traced_raw, untraced_raw = [], []
        attempted = failed = rounds = 0
        # a traced run needs an untraced round too
        min_rounds = max(wl.MIN_ROUNDS, 2 if args.trace else 1)
        deadline = time.perf_counter() + args.seconds
        while rounds < min_rounds or time.perf_counter() < deadline:
            traced = bool(args.trace) and rounds % 2 == 0
            if traced:
                tracer.install()
            rnd = wl.run_round()
            if traced:
                tracer.uninstall()
                traced_raw.extend(rnd.calls)
            else:
                untraced_raw.extend(rnd.calls)
            attempted += rnd.attempted
            failed += rnd.failed
            rounds += 1
        peak_rss_mb = max_rss_mb()
        traced_calls, untraced_calls = corrected(traced_raw), corrected(untraced_raw)

        errors = wl.check()
        if args.trace:
            metrics = per_layer(wl, tracer, traced_raw,
                                overhead_pct(traced_calls, untraced_calls))
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            metrics = end_to_end(wl, untraced_calls, setup_s, peak_rss_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if wl.failures:
        print(f"{len(wl.failures)} operations failed; the last: {wl.failures[-1]}",
              file=sys.stderr)
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    # the measured figures behind the corrected ones, on a line of their own
    raw_rate, raw_p50 = rate_and_p50(untraced_raw)
    print(json.dumps({"uncorrected": {
        "setup_scale": setup_scale,
        "imports_s": imports_s,
        "builds_s": builds,
        "call_scale_median": statistics.median(hostspeed.factor(c.probes) for c in untraced_raw),
        "samples_per_s": raw_rate,
        "sample_latency_p50_ms": raw_p50,
        "rss_before_window_mb": rss_before_mb,
    }}))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mmtl" / "__init__.py").is_file():
        print(f"error: no mmtl package at {SRC / 'mmtl'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
