"""Time one fresh set-up: import loco, load the suite, build the inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds from interpreter start-up to the first operation being
ready, then the median of a few speed-probe ticks taken right after it, so
that run.py can adjust the set-up time to the probe's reference speed
(see speed.py). run.py starts several of these and reports the median
adjusted time as setup_s.
"""

import time

START = time.perf_counter()
SPEED_TICKS = 7

import statistics  # noqa: E402
import sys  # noqa: E402

import run  # noqa: E402  (imports loco and the workloads)
from speed import SpeedProbe  # noqa: E402

run.setup(sys.argv[1], int(sys.argv[2]))
ready = time.perf_counter() - START
probe = SpeedProbe()
for _ in range(SPEED_TICKS):
    probe.tick()
print(ready, statistics.median(probe.durations()))
