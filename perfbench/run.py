"""loco's benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload suite_bench --seed 0 --seconds 20 --trace 0

Run from anywhere inside a loco checkout; it measures the loco under the
checkout's ``src/``. One process, one thread, closed loop with one client:
each operation starts when the previous one has been checked.

``--trace 0`` repeats the workload's round of operations until ``--seconds``
have passed (at least one round) and reports the end-to-end metrics from
each input's mean time, adjusted to the speed probe's reference speed
(see speed.py); the wall-clock figures are in the description line.
``--trace 1`` runs the round twice, untraced and then traced, and reports
the per-layer metrics and the tracing overhead. Every operation's output is
checked (see workloads.py); the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``, preceded by one line
describing the run and the machine.
"""

from __future__ import annotations

import environment  # first: pins BLAS threads, finds the checkout's loco

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from loco import suite as suite_module
from loco.suite import bundled_suite_dir
from speed import PROBE_REFERENCE_S, SpeedProbe
import tracing
from workloads import (POOL_SEEDS, UNGUIDED, WORKLOADS, check_request,
                       load_reference, request)

SETUP_PROBES = 7
# Speed-probe ticks before timing starts; the first ones run slower.
WARM_UP_TICKS = 20
SETUP_PROBE = Path(__file__).with_name("setup_probe.py")
# Tracing's sum of self times must match the traced wall time this closely.
ADDITIVITY_TOLERANCE = 1e-9


class Tally:
    """Attempted and failed operations, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    def run(self, op) -> tuple[float, float]:
        """Run and check one operation; returns when its run started, ended."""
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as err:  # a failed operation, not a failed benchmark
            self.record([f"{type(err).__name__}: {err}"])
            return start, time.perf_counter()
        end = time.perf_counter()
        self.record(op.check(result))
        return start, end


def setup(workload: str, seed: int):
    """Everything before the first operation: suite, reference, inputs."""
    suite = suite_module.load_suite(bundled_suite_dir())
    ref = load_reference()
    return suite, ref, WORKLOADS[workload].inputs(seed, suite, ref)


def probe_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Set-up of fresh processes: import loco, load the suite, inputs.

    Returns (wall, adjusted) seconds per process; each process times the
    speed probe right after its set-up.
    """
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(SETUP_PROBE), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        wall, tick = map(float, proc.stdout.split()[-2:])
        times.append((wall, wall * PROBE_REFERENCE_S / tick))
    return times


def warm_up(suite: list, ref: dict, tally: Tally) -> None:
    """One unguided request, so BLAS and lazy imports are ready."""
    name, layout = suite[0]
    seed = POOL_SEEDS[0]
    tally.record(check_request(request(layout, seed, UNGUIDED),
                               ref[seed]["requests"]["none"][name],
                               f"warm-up {name} seed {seed}"))


def measure(workload: str, seed: int, seconds: float, tally: Tally):
    """Repeat the round until ``seconds`` pass; average each input's times.

    The speed probe ticks before every operation (and inside it at the
    workload's probe site), and each time is adjusted to the probe's
    reference speed (see speed.py).
    """
    suite, ref, ops = setup(workload, seed)
    warm_up(suite, ref, tally)
    probe = SpeedProbe()
    for _ in range(WARM_UP_TICKS):
        probe.tick()
    site = WORKLOADS[workload].probe_site
    hook = probe.before_each(*site) if site else contextlib.nullcontext()
    walls: list[list[float]] = [[] for _ in ops]
    adjusted: list[list[float]] = [[] for _ in ops]
    done = 0
    start = time.perf_counter()
    with hook:
        while done < len(ops) or time.perf_counter() - start < seconds:
            i = done % len(ops)
            first = len(probe.ticks) - 1  # the tick just before ops[i]
            op_start, op_end = tally.run(ops[i])
            probe.tick()  # after ops[i], before the next operation
            wall, adj = probe.adjust(op_start, op_end, first,
                                     len(probe.ticks) - 1)
            walls[i].append(wall)
            adjusted[i].append(adj)
            done += 1
    units = [op.units for op in ops]

    def figures(times: list[list[float]]) -> tuple[float, float]:
        per_input = [statistics.fmean(t) for t in times]
        return (sum(units) / sum(per_input),
                statistics.median(t / u for t, u in zip(per_input, units))
                * 1000.0)

    adj_rate, adj_ms = figures(adjusted)
    wall_rate, wall_ms = figures(walls)
    metrics = {
        "adj_ops_per_s": (adj_rate, "1/s"),
        "adj_op_ms.p50": (adj_ms, "ms"),
    }
    return metrics, {"inputs": len(ops), "ops_run": done,
                     "unit": WORKLOADS[workload].unit,
                     "wall_s": time.perf_counter() - start,
                     "wall_ops_per_s": wall_rate, "wall_op_ms.p50": wall_ms,
                     "probe_ms.p50":
                         statistics.median(probe.durations()) * 1000.0,
                     "probe_ticks": len(probe.ticks)}


def trace(workload: str, seed: int, tally: Tally):
    """One round untraced, then the same round traced."""
    ref = load_reference()

    def one_round() -> None:
        suite = suite_module.load_suite(bundled_suite_dir())
        for op in WORKLOADS[workload].inputs(seed, suite, ref):
            tally.run(op)

    warm_up(suite_module.load_suite(bundled_suite_dir()), ref, tally)
    start = time.perf_counter()
    one_round()
    untraced = time.perf_counter() - start
    with tracing.Tracer() as tracer:
        traced = tracer.root(one_round)
    metrics = tracer.metrics()
    accounted = sum(value for value, unit in metrics.values() if unit == "s")
    if abs(accounted - traced) > ADDITIVITY_TOLERANCE * traced:
        tally.problems.append(f"self times sum to {accounted!r} s, traced "
                              f"wall time is {traced!r} s")
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return metrics, {"spans": len(tracer.spans)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    tally = Tally()
    if args.trace:
        metrics, detail = trace(args.workload, args.seed, tally)
    else:
        setup_times = probe_setup(args.workload, args.seed)
        metrics, detail = measure(args.workload, args.seed, args.seconds,
                                  tally)
        metrics["setup_s"] = (
            statistics.median(adj for _, adj in setup_times), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        detail["setup_wall_s"] = [wall for wall, _ in setup_times]

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **detail,
                      "problems": tally.problems[:20],
                      "machine": environment.machine()}))
    print(json.dumps({
        "correct": not tally.failed and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
