"""Show that the benchmark's output checks catch a fault.

    python3 perfbench/selftest.py

From the root of a source checkout. For each workload it runs the check once
on the program as it is (it must pass) and once with a fault planted after
the reference took its copy of the weights (it must fail):

- stream_default, eval_toy: one weight of the first stem is moved by 1e-4;
- train_toy: one gradient entry is moved before the finite-difference check.

It also shows that the checkpoint comparison passes when the batch-norm
running statistics are carried over by hand, so the operation the benchmark
counts as failed fails because of that state, not because of its tolerance.
Exit code 0 when every case behaves as stated.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

PERTURBED = "stem_exterior.front.dw_w"


def report(label: str, ok: bool, detail: str) -> bool:
    print(f"[{'ok' if ok else 'UNEXPECTED'}] {label}: {detail}")
    return ok


def inference_case(cls, workdir: Path) -> bool:
    wl = cls(0, workdir, Tracer())
    wl.make_fixture()
    wl.setup()
    wl.prepare_checks()
    wl.run_round()
    clean = wl.check()
    wl.model.parameters()[PERTURBED].data[0, 0, 1, 1] += 1e-4
    wl.run_round()
    faulty = wl.check()
    return (report(f"{cls.name} unperturbed", not clean, "; ".join(clean) or "checks pass")
            & report(f"{cls.name} one weight moved", bool(faulty),
                     faulty[0] if faulty else "checks still pass"))


def train_case(workdir: Path) -> bool:
    wl = workloads.TrainToy(0, workdir, Tracer())
    wl.setup()
    wl.run_round()
    clean = wl.gradient_check()

    def corrupt(params):
        params["head_der.b"].grad[0] += 1e-2

    faulty = wl.gradient_check(corrupt)
    ok = report("train_toy gradient unperturbed", clean <= wl.FD_TOL,
                f"relative gap {clean:.3g} (tolerance {wl.FD_TOL:g})")
    ok &= report("train_toy one gradient entry moved", faulty > wl.FD_TOL,
                 f"relative gap {faulty:.3g}")

    def load_with_stats(model, directory, source=wl.model):
        original_load(model, directory)
        for (_, mine, theirs) in wl._bn_stats(source, model):
            theirs.mean, theirs.var = mine.mean.copy(), mine.var.copy()

    original_load = workloads.Model.load_weights
    workloads.Model.load_weights = load_with_stats
    try:
        fault = wl.checkpoint_round_trip()
    finally:
        workloads.Model.load_weights = original_load
    ok &= report("train_toy checkpoint with batch-norm stats carried over", fault is None,
                 fault or f"reloaded logits within {wl.CKPT_TOL:g}")
    return ok


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / "selftest"
    workdir.mkdir(exist_ok=True)
    try:
        ok = inference_case(workloads.StreamDefault, workdir)
        ok &= inference_case(workloads.EvalToy, workdir)
        ok &= train_case(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
