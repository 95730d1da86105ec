"""Command-line surface: parameter counting, throughput benchmarking,
gradient checks, toy training, ablation sweeps, and synthetic data export.

Exit codes: 0 success, 1 validation failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .ablate import ABLATION_FLAGS, format_table, run_ablation
from .bench import bench_fps
from .config import ModelConfig, load_config
from .data import SyntheticRecipe, generate_synthetic, negative_transfer_recipe, \
    write_sample_dir
from .errors import ArgumentError, ConfigError, InputError, TrainingDiverged
from .heads import format_metrics_record
from .model import count_params
from .serial import claim_file, make_dir, write_file
from .train import run_toy_training
from .verify import MODULE_SELECTORS, gradcheck_run


def _load_cfg(args) -> ModelConfig:
    cfg = load_config(args.config) if args.config else ModelConfig()
    if getattr(args, "seed", None) is not None:
        cfg = cfg.replace(seed=args.seed)
    return cfg


def _claim_out(args) -> None:
    """Check ``--out`` before the work, so a path that cannot be written fails
    first; a file already there keeps its contents until the work succeeds."""
    if args.out:
        claim_file(args.out)


def _write_out(args, text: str) -> None:
    if args.out:
        write_file(args.out, (text + "\n").encode())


def cmd_params(args) -> int:
    cfg = _load_cfg(args)
    total, breakdown = count_params(cfg)
    width = max(len(k) for k in breakdown)
    print(f"{'module':<{width}s} {'params':>12s}")
    for name, count in breakdown.items():
        print(f"{name:<{width}s} {count:>12d}")
    print(f"{'total':<{width}s} {total:>12d}")
    _write_out(args, "\n".join([f"{k}={v}" for k, v in breakdown.items()]
                               + [f"total={total}"]))
    return 0


def cmd_bench(args) -> int:
    cfg = _load_cfg(args)
    _claim_out(args)
    record = bench_fps(cfg, batch_size=args.batch, duration=args.duration,
                       threads=args.threads, seed=args.seed or 0,
                       weights_dir=args.weights)
    print(f"fps          {record.fps:10.3f}")
    print(f"p50 latency  {record.latency_p50_ms:10.3f} ms")
    print(f"p95 latency  {record.latency_p95_ms:10.3f} ms")
    print(f"threads      {record.threads:10d}")
    print(f"params       {record.param_count:10d}")
    _write_out(args, record.lines())
    return 0


def cmd_gradcheck(args) -> int:
    _claim_out(args)
    reports = gradcheck_run(args.module, tolerance=args.tolerance,
                            seed=args.seed or 0)
    all_ok = True
    out_lines = []
    for report in reports:
        print(report.lines())
        out_lines.append(report.lines())
        all_ok = all_ok and report.passed
    _write_out(args, "\n".join(out_lines))
    return 0 if all_ok else 1


def cmd_train_toy(args) -> int:
    cfg = _load_cfg(args)
    recipe = SyntheticRecipe(noise=args.noise)
    if args.dump_weights:
        make_dir(args.dump_weights)     # an unwritable directory fails before the first step
    result = run_toy_training(cfg, recipe, steps=args.steps, batch_size=args.batch,
                              train_count=args.train_count, val_count=args.val_count,
                              log_path=args.out)
    for metrics in result.records:
        print(format_metrics_record(metrics))
    print(f"loss {result.initial_loss:.4f} -> {result.final_loss:.4f}; "
          f"final macc {100 * result.final_metrics.macc:.2f}%")
    if args.dump_weights:
        result.model.save_weights(args.dump_weights)
        print(f"weights written to {args.dump_weights}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_cfg(args)
    if args.variants is not None:
        variants = [v.strip() for v in args.variants.split(",") if v.strip()]
        if not variants:
            raise ArgumentError(f"variants: no variant named in {args.variants!r}")
    elif args.suite == "modality":
        variants = ["full", "exterior_only", "interior_only", "joints_only"]
    else:
        variants = ["full"] + list(ABLATION_FLAGS)
    recipe = negative_transfer_recipe(noise=args.noise)
    _claim_out(args)
    results = run_ablation(cfg, variants, recipe=recipe, steps=args.steps)
    table = format_table(results)
    print(table)
    _write_out(args, table)
    return 0


def cmd_gen_data(args) -> int:
    cfg = _load_cfg(args)
    recipe = SyntheticRecipe(noise=args.noise)
    root = Path(args.out or "synthetic_data")
    for bundle in generate_synthetic(recipe, args.count, args.seed or 0, cfg):
        write_sample_dir(bundle, root)
    print(f"wrote {args.count} samples under {root}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmtl",
        description="Multimodal multi-task driver perception: desk-scale tooling.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to key=value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="write machine-readable output here")

    p = sub.add_parser("params", help="count learnable parameters per module")
    common(p)
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("bench", help="measure inference throughput")
    common(p)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--threads", type=int, default=1,
                   help="forked worker processes sharing the weights "
                        "copy-on-write; FPS is summed over the workers")
    p.add_argument("--weights", help="load dumped weights before timing")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    common(p)
    p.add_argument("--module", default="all",
                   choices=list(MODULE_SELECTORS) + ["all"])
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("train-toy", help="train on synthetic data")
    common(p)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--train-count", type=int, default=256)
    p.add_argument("--val-count", type=int, default=256)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--dump-weights", help="directory for final weights")
    p.set_defaults(fn=cmd_train_toy)

    p = sub.add_parser("ablate", help="compare ablation variants")
    common(p)
    p.add_argument("--suite", choices=["standard", "modality"], default="standard")
    p.add_argument("--variants", help="comma-separated variant names")
    p.add_argument("--steps", type=int, default=400)
    p.add_argument("--noise", type=float, default=0.25)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("gen-data", help="write synthetic samples to disk")
    common(p)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--noise", type=float, default=0.1)
    p.set_defaults(fn=cmd_gen_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InputError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
