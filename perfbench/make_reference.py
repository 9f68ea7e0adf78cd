"""Regenerate reference.json: the outputs every benchmark check compares to.

Runs one run_benchmark call per seed in workloads.POOL_SEEDS (about 14 s
each on one core) and stores, per seed, the per-arm and per-gamma
aggregates and the per-layout ``all_correct``, ``mean_iou`` and mean in-box
mass of the unguided ("none") and default ("lac_ptc") arms, which are
exactly the single-request workloads' outputs.

    python3 perfbench/make_reference.py

Regenerate only for a deliberate change of loco's outputs, and say so.
"""

from __future__ import annotations

import json
import sys

import environment  # first: pins BLAS threads, finds the checkout's loco

from loco import evaluate
from loco.suite import bundled_suite_dir, load_suite
from workloads import (BACKBONE, GUIDED, POOL_SEEDS, REFERENCE_PATH, SWEEP,
                       mean_inbox_mass, rises_then_falls)

AGGREGATE_KEYS = ("runs", "accuracy", "relation_accuracy", "mean_iou",
                  "mean_inbox_mass")


def reference_for(suite: list, seed: int) -> dict:
    report = evaluate.run_benchmark(suite, GUIDED, BACKBONE, seeds=[seed],
                                    gamma_sweep=SWEEP)
    requests = {
        arm: {r["layout"]: {"all_correct": r["all_correct"],
                            "mean_iou": r["mean_iou"],
                            "mean_inbox_mass": mean_inbox_mass(
                                [o["inbox_mass"] for o in r["objects"]])}
              for r in report.records if r["arm"] == arm}
        for arm in ("none", "lac_ptc")
    }
    return {
        "aggregates": {arm: {k: agg[k] for k in AGGREGATE_KEYS}
                       for arm, agg in report.aggregates.items()},
        "gamma_sweep": [{"gamma": e["gamma"],
                         **{k: e[k] for k in AGGREGATE_KEYS}}
                        for e in report.gamma_sweep],
        "requests": requests,
    }


def main() -> int:
    suite = load_suite(bundled_suite_dir())
    seeds = {}
    for seed in POOL_SEEDS:
        seeds[str(seed)] = entry = reference_for(suite, seed)
        ious = [e["mean_iou"] for e in entry["gamma_sweep"]]
        print(f"seed {seed}: lac_ptc accuracy "
              f"{entry['aggregates']['lac_ptc']['accuracy']:.1f}, sweep "
              f"mean_iou rises then falls: {rises_then_falls(ious)}",
              file=sys.stderr)
    doc = {"machine": environment.machine(), "seeds": seeds}
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
