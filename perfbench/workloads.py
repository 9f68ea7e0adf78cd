"""The benchmark's workloads: inputs from a seed, the loco calls, the checks.

Each workload turns the benchmark's ``--seed`` into a fixed round of
operations. An operation makes its loco calls in ``run`` (the timed part)
and compares the result with the stored reference in ``check`` (untimed).
loco receives only the generated inputs: layouts from the bundled suite and
integer run seeds.

Run seeds for suite_bench and the single-request workloads come from
``POOL_SEEDS``, because their checks compare against per-seed reference
values that ``make_reference.py`` stored in ``reference.json``. gradcheck
needs no reference (its check is the error bound), so its seeds are drawn
freely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from loco import evaluate, guidance
from loco.backbone import BackboneConfig
from loco.guidance import GuidanceConfig

POOL_SEEDS = tuple(range(16))
SWEEP = (1.0, 5.0, 30.0, 300.0)
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# mean_iou and mean_inbox_mass may move by rounding noise (a fused gradient
# that differs from the tape by 1e-15 is an allowed change); one relabelled
# grid cell moves them by more than 1e-3.
FLOAT_TOLERANCE = 1e-6
GRADCHECK_MAX_REL_ERROR = 1e-4
GRADCHECK_RESOLUTION = 8

# Operations in one round of each workload. A run repeats its round until
# --seconds have passed; a traced run makes one round untraced, one traced.
# Few inputs, many repeats: a run reports each input's mean adjusted time
# (see speed.py).
SUITE_BENCH_CALLS = 2
SINGLE_GUIDED_REQUESTS = 24  # each layout once
SINGLE_UNGUIDED_REQUESTS = 48  # each layout twice
GRADCHECK_CHECKS = 4  # two per detach mode

GUIDED = GuidanceConfig()
UNGUIDED = GuidanceConfig(guided_steps=0)
BACKBONE = BackboneConfig()


@dataclass
class Op:
    """One operation: ``units`` pieces of work, timed as a whole."""

    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    units: int = 1


@dataclass
class Workload:
    # (seed, suite, reference) -> the fixed list of operations one round runs.
    inputs: Callable[[int, list, dict], list[Op]]
    unit: str
    # (module, function): run the speed probe before each call of it inside
    # an operation too, for operations long enough to span a speed phase.
    probe_site: tuple[Any, str] | None = None


def load_reference() -> dict:
    doc = json.loads(REFERENCE_PATH.read_text())
    return {int(seed): entry for seed, entry in doc["seeds"].items()}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_TOLERANCE


def _compare_aggregate(label: str, got: dict, want: dict) -> list[str]:
    problems = []
    for key in ("runs", "accuracy", "relation_accuracy"):
        if got[key] != want[key]:
            problems.append(f"{label} {key}: {got[key]} != reference {want[key]}")
    for key in ("mean_iou", "mean_inbox_mass"):
        if not _close(got[key], want[key]):
            problems.append(f"{label} {key}: {got[key]!r} != reference "
                            f"{want[key]!r} within {FLOAT_TOLERANCE}")
    return problems


def rises_then_falls(values: list[float]) -> bool:
    """Interior peak, strictly rising before it and strictly falling after."""
    peak = int(np.argmax(values))
    return (0 < peak < len(values) - 1
            and all(values[i] < values[i + 1] for i in range(peak))
            and all(values[i] > values[i + 1]
                    for i in range(peak, len(values) - 1)))


def request(layout, seed: int, cfg: GuidanceConfig):
    """What ``loco generate`` does for one layout: sample, then score."""
    run = guidance.guided_sample(layout, cfg, BACKBONE, seed)
    labels = evaluate.decode_labels(run.final_attention, layout)
    detections = evaluate.detect_regions(labels)
    return evaluate.layout_metrics(detections, layout, run.final_attention)


# ---------------------------------------------------------------------------
# suite_bench: the paper-reproduction tables, one run seed per call.

def _suite_bench_inputs(seed: int, suite: list, ref: dict) -> list[Op]:
    rng = np.random.default_rng(seed)
    run_seeds = rng.choice(POOL_SEEDS, size=SUITE_BENCH_CALLS, replace=False)
    trajectories = len(suite) * (len(evaluate.ARMS) + len(SWEEP))
    return [
        Op(run=lambda s=int(s): evaluate.run_benchmark(
               suite, GUIDED, BACKBONE, seeds=[s], gamma_sweep=SWEEP),
           check=lambda report, s=int(s): _check_report(report, ref[s]),
           units=trajectories)
        for s in run_seeds
    ]


def _check_report(report, want: dict) -> list[str]:
    problems = []
    for arm in evaluate.ARMS:
        problems += _compare_aggregate(arm, report.aggregates[arm],
                                       want["aggregates"][arm])
    gammas = [entry["gamma"] for entry in report.gamma_sweep]
    if gammas != list(SWEEP):
        return problems + [f"gamma sweep {gammas} != {list(SWEEP)}"]
    for got, entry in zip(report.gamma_sweep, want["gamma_sweep"]):
        problems += _compare_aggregate(f"gamma {got['gamma']:g}", got, entry)
    ious = [entry["mean_iou"] for entry in report.gamma_sweep]
    if not rises_then_falls(ious):
        problems.append(f"gamma sweep mean_iou {ious} does not rise then fall")
    return problems


# ---------------------------------------------------------------------------
# single_guided / single_unguided: one `loco generate` request at a time.

def _single_inputs(cfg: GuidanceConfig, arm: str, count: int):
    def inputs(seed: int, suite: list, ref: dict) -> list[Op]:
        rng = np.random.default_rng(seed)
        start = int(rng.integers(len(suite)))
        ops = []
        for j in range(count):
            name, layout = suite[(start + j) % len(suite)]
            s = POOL_SEEDS[int(rng.integers(len(POOL_SEEDS)))]
            want = ref[s]["requests"][arm][name]
            ops.append(Op(
                run=lambda l=layout, s=s: request(l, s, cfg),
                check=lambda m, w=want, label=f"{name} seed {s} {arm}":
                    check_request(m, w, label)))
        return ops
    return inputs


def mean_inbox_mass(masses: list[float]) -> float:
    """Continuous summary of a request: moves with any change of the latent."""
    return float(np.mean(masses))


def check_request(metrics, want: dict, label: str) -> list[str]:
    problems = []
    if metrics.all_correct != want["all_correct"]:
        problems.append(f"{label} all_correct: {metrics.all_correct} != "
                        f"reference {want['all_correct']}")
    got = {"mean_iou": metrics.mean_iou,
           "mean_inbox_mass": mean_inbox_mass(
               [o.inbox_mass for o in metrics.objects])}
    for key, value in got.items():
        if not _close(value, want[key]):
            problems.append(f"{label} {key}: {value!r} != reference "
                            f"{want[key]!r} within {FLOAT_TOLERANCE}")
    return problems


# ---------------------------------------------------------------------------
# gradcheck: finite differences against the tape gradient, both detach modes.

def _gradcheck_inputs(seed: int, suite: list, ref: dict) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for j in range(GRADCHECK_CHECKS):
        s, detach = int(rng.integers(2 ** 31)), j % 2 == 1
        ops.append(Op(
            run=lambda s=s, d=detach: guidance.gradient_check(
                s, resolution=GRADCHECK_RESOLUTION, detach_norms=d),
            check=lambda result, label=f"seed {s} detach_norms={detach}":
                _check_gradient(result, label)))
    return ops


def _check_gradient(result, label: str) -> list[str]:
    err = result.max_rel_error
    if not np.isfinite(err) or err > GRADCHECK_MAX_REL_ERROR:
        return [f"gradcheck {label}: max_rel_error {err!r} > "
                f"{GRADCHECK_MAX_REL_ERROR}"]
    return []


WORKLOADS = {
    "suite_bench": Workload(_suite_bench_inputs, "trajectory",
                            probe_site=(evaluate, "guided_sample")),
    "single_guided": Workload(
        _single_inputs(GUIDED, "lac_ptc", SINGLE_GUIDED_REQUESTS), "request"),
    "single_unguided": Workload(
        _single_inputs(UNGUIDED, "none", SINGLE_UNGUIDED_REQUESTS), "request"),
    "gradcheck": Workload(_gradcheck_inputs, "check"),
}
