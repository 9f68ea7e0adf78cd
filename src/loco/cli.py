"""Command-line front end: single runs, benchmarks, and gradient checks.

Commands:

* ``loco generate --layout FILE`` runs one guided generation and writes a
  per-step loss CSV, the decoded label map, plain-PGM attention heatmaps,
  and a JSON summary.
* ``loco bench`` runs the benchmark over a suite directory (bundled suite
  by default) and writes the report JSON.
* ``loco gradcheck`` validates the loss gradient against central finite
  differences.

The ``LOCO_SEED`` environment variable supplies the default seed; flags
override values from an optional JSON config file that mirrors the
guidance-config field names.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .backbone import BackboneConfig
from .diffmath import ContractError, ShapeError
from .evaluate import DEFAULT_TAU, _evaluate, run_benchmark
from .guidance import (GuidanceConfig, GuidedRun, gradient_check, guided_sample,
                       object_maps)
from .layout import LayoutError, parse_layout
from .suite import bundled_suite_dir, load_suite

__all__ = ["build_parser", "main", "write_pgm"]

GRADCHECK_TOLERANCE = 1e-4


def _seed(args: argparse.Namespace) -> int:
    """The master seed: ``--seed``, else ``LOCO_SEED``, else 0."""
    source = "--seed" if args.seed is not None else "LOCO_SEED"
    raw = args.seed if args.seed is not None else os.environ.get(source, "0")
    # ASCII digits only: isdecimal alone takes any script's digits.
    try:
        if raw.isascii() and raw.isdecimal():
            return int(raw)
    except ValueError:  # more digits than int() converts
        pass
    raise ContractError(f"{source} must be a nonnegative integer, got {raw!r}")


def _read_text(path: Path, error: type[Exception]) -> str:
    """A file's UTF-8 text; a file that is not UTF-8 raises ``error``."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise error(f"{path} is not UTF-8 text: {err}") from None


def _gamma_sweep(text: str) -> list[float]:
    """The ``--gamma-sweep`` list; empty entries are skipped."""
    sweep = []
    for entry in filter(str.strip, text.split(",")):
        try:
            sweep.append(float(entry))
        except ValueError:
            raise ContractError(
                f"--gamma-sweep entry {entry.strip()!r} is not a number") from None
    return sweep


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loco",
        description="Layout-guided attention steering on a toy denoiser.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--layout", type=Path, default=None,
                       help="layout JSON file (generate) or suite directory (bench)")
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config mirroring the guidance-config fields")
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--guided-steps", type=int, default=None)
        p.add_argument("--iters", type=int, default=None,
                       help="latent updates per guided step")
        p.add_argument("--seed", default=None,
                       help="master seed (default: LOCO_SEED or 0)")
        p.add_argument("--out", type=Path, default=Path("loco_out"))
        p.add_argument("--detach-norms", action="store_true", default=None)

    gen = sub.add_parser("generate", help="run one guided generation")
    add_common(gen)

    bench = sub.add_parser("bench", help="run the layout benchmark")
    add_common(bench)
    bench.add_argument("--gamma-sweep", type=str, default=None,
                       help="comma-separated loss scales to sweep")
    bench.add_argument("--seeds", type=int, default=3,
                       help="number of seeds per layout (seed, seed+1, ...)")

    grad = sub.add_parser("gradcheck",
                          help="check the loss gradient against finite differences")
    grad.add_argument("--seed", default=None)
    grad.add_argument("--detach-norms", action="store_true", default=None,
                      help="check only the detached-divisor mode")
    grad.add_argument("--instances", type=int, default=10,
                      help="seeded instances per mode")
    grad.add_argument("--corrupt-gradient", action="store_true",
                      help=argparse.SUPPRESS)  # negative-control test hook
    return parser


def _guidance_config(args: argparse.Namespace) -> GuidanceConfig:
    """Config file values first, then flag overrides, on top of defaults."""
    values: dict = {}
    if args.config is not None:
        text = _read_text(args.config, ContractError)
        try:
            doc = json.loads(text)
        except ValueError as err:  # JSONDecodeError, or an integer too long
            raise ContractError(
                f"config file {args.config} is not valid JSON: {err}") from None
        if not isinstance(doc, dict):
            raise ContractError("config file must hold a JSON object")
        known = {f.name for f in fields(GuidanceConfig)}
        unknown = set(doc) - known
        if unknown:
            raise ContractError(f"unknown config fields: {sorted(unknown)}")
        values.update(doc)
    for flag, field in [("gamma", "gamma"), ("alpha", "alpha"),
                        ("beta", "beta"), ("guided_steps", "guided_steps"),
                        ("iters", "iterations_per_step"),
                        ("detach_norms", "detach_norms")]:
        got = getattr(args, flag, None)
        if got is not None:
            values[field] = got
    return GuidanceConfig(**values)


def write_pgm(path: Path, grid: np.ndarray) -> None:
    """Plain PGM (P2) heatmap, 255 gray levels, max-rescaled."""
    peak = max(float(grid.max()), 1e-12)
    levels = np.rint(255.0 * grid / peak).astype(int)
    rows, cols = levels.shape
    lines = ["P2", f"{cols} {rows}", "255"]
    lines += [" ".join(str(v) for v in row) for row in levels]
    path.write_text("\n".join(lines) + "\n")


def _slug(text: str) -> str:
    return re.sub(r"\W+", "_", text.lower()).strip("_")


def _write_generate_artifacts(run: GuidedRun, out: Path, seed: int,
                              layout_path: Path) -> list[str]:
    out.mkdir(parents=True, exist_ok=True)
    written: list[str] = []

    with (out / "losses.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "iteration", "lac", "ptc", "total"])
        for step in run.steps:
            for it, bd in enumerate(step.losses):
                writer.writerow([step.index, it, repr(bd.lac), repr(bd.ptc),
                                 repr(bd.total)])
    written.append("losses.csv")

    metrics, labels = _evaluate(run.layout, run.final_attention, DEFAULT_TAU)
    (out / "labels.json").write_text(json.dumps({
        "resolution": run.final_attention.resolution,
        "tau": DEFAULT_TAU,
        "labels": labels.tolist(),
    }, indent=2) + "\n")
    written.append("labels.json")

    attn = run.final_attention
    names = ["sot"] + [f"obj{i + 1}_{_slug(p.text)}"
                       for i, p in enumerate(run.layout.phrases)] + ["eot"]
    res = attn.resolution
    maps = object_maps(attn.values, run.layout)
    grids = ([attn.token_map(attn.sot_index)]
             + [m.reshape(res, res) for m in maps]
             + [attn.token_map(attn.eot_index)])
    for name, grid in zip(names, grids):
        fname = f"heatmap_{name}.pgm"
        write_pgm(out / fname, grid)
        written.append(fname)

    curve = run.loss_curve()
    summary = {
        "layout_file": str(layout_path),
        "prompt": run.layout.prompt,
        "seed": seed,
        "guidance_enabled": run.config.guided_steps > 0,
        "guidance": asdict(run.config),
        "backbone": asdict(run.backbone),
        "latent_updates": len(curve),
        "final_losses": (asdict(curve[-1]) if curve else None),
        "metrics": {
            "all_correct": metrics.all_correct,
            "mean_iou": metrics.mean_iou,
            "objects": [asdict(o) for o in metrics.objects],
            "relations_total": metrics.relations_total,
            "relations_correct": metrics.relations_correct,
        },
        "artifacts": written + ["summary.json"],
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    written.append("summary.json")
    return written


def cmd_generate(args: argparse.Namespace) -> int:
    if args.layout is None:
        raise ContractError("generate requires --layout FILE")
    layout = parse_layout(_read_text(args.layout, LayoutError))
    cfg = _guidance_config(args)
    seed = _seed(args)
    run = guided_sample(layout, cfg, BackboneConfig(), seed)
    written = _write_generate_artifacts(run, args.out, seed, args.layout)
    print(f"wrote {len(written)} artifacts to {args.out}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ContractError("bench needs at least one seed per layout")
    suite_dir = args.layout if args.layout is not None else bundled_suite_dir()
    suite = load_suite(suite_dir)
    cfg = _guidance_config(args)
    seed = _seed(args)
    seeds = list(range(seed, seed + args.seeds))
    sweep = _gamma_sweep(args.gamma_sweep) if args.gamma_sweep else None
    report = run_benchmark(suite, cfg, BackboneConfig(), seeds,
                           gamma_sweep=sweep)
    args.out.mkdir(parents=True, exist_ok=True)
    report_path = args.out / "bench_report.json"
    report_path.write_text(report.to_json() + "\n")

    print(f"{'arm':<12} {'acc%':>6} {'mIoU':>6} {'inbox':>6} {'rel%':>6}")
    for arm in report.arms:
        agg = report.aggregates[arm]
        rel = agg["relation_accuracy"]
        print(f"{arm:<12} {agg['accuracy']:6.1f} {agg['mean_iou']:6.3f} "
              f"{agg['mean_inbox_mass']:6.3f} "
              f"{rel if rel is None else format(rel, '6.1f')}")
    for entry in report.gamma_sweep:
        print(f"gamma={entry['gamma']:<8g} acc={entry['accuracy']:5.1f}% "
              f"mIoU={entry['mean_iou']:.3f}")
    print(f"report: {report_path}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if args.instances < 1:
        raise ContractError("gradcheck needs at least one instance")
    seed = _seed(args)
    modes = [True] if args.detach_norms else [False, True]
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_where: tuple[int, int] | None = None
    for i in range(args.instances):
        content = int(rng.integers(2, 7))  # 4..8 tokens after SoT/EoT
        objects = int(rng.integers(1, min(content, 2) + 1))
        for detach in modes:
            result = gradient_check(seed + i, resolution=8,
                                    content_words=content, n_objects=objects,
                                    detach_norms=detach,
                                    corrupt=args.corrupt_gradient)
            instance = f"seed={seed + i} tokens={content + 2} detach={detach}"
            print(f"{instance}: rel_err={result.max_rel_error:.3e}")
            if not np.isfinite(result.max_rel_error):
                print(f"FAIL: non-finite relative error at {instance}",
                      file=sys.stderr)
                return 1
            if result.max_rel_error > worst:
                worst = result.max_rel_error
                worst_where = result.worst_coordinate
    print(f"max relative error: {worst:.3e}")
    if worst > GRADCHECK_TOLERANCE:
        print(f"FAIL: tolerance {GRADCHECK_TOLERANCE:g} exceeded at "
              f"latent coordinate {worst_where}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "bench":
            return cmd_bench(args)
        return cmd_gradcheck(args)
    except (LayoutError, ContractError, ShapeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
