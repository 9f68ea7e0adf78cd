"""Machine-speed probe: a fixed kernel timed between operations.

The benchmark's reference machine is a 2-vCPU VM whose cores are shared
with other tenants. Its speed drifts by up to +-30% in phases of seconds to
minutes, and CPU time tracks wall time through them, so the process is not
descheduled: every instruction runs slower. One fixed input of
``guided_sample`` took 46 to 102 ms within four minutes, and in the same
recording a pure-Python loop, a small numpy loop and ``gradient_check`` slowed
and sped up together (log-time correlations 0.7-0.8). Slow phases last longer
than a run, so repeats inside a run cannot average them away.

So a run times this kernel before every operation (and, where a workload
asks for it, before every trajectory inside one), and reports each
operation's wall time scaled to the speed at which the kernel takes
``PROBE_REFERENCE_S``. The ticks cut the work into segments, and each is
scaled by the two ticks around it::

    adjusted = sum(segment * PROBE_REFERENCE_S / mean(tick before, tick after))

The kernel is benchmark code and identical on every commit, so a change to
loco moves the adjusted time exactly as it moves the wall time at a fixed
machine speed. perfbench/README.md gives the recordings the kernel was
chosen from.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Iterator

import numpy as np

LOOP_ITERATIONS = 10_000
BLAS_REPEATS = 45
# About the kernel's median time on the reference machine (2-vCPU x86_64 VM,
# Python 3.11.7, numpy 2.4.6). A fixed scale: it turns probe-relative times
# back into seconds and must stay the same between the commits compared.
PROBE_REFERENCE_S = 0.0018


class _Operands:
    """The kernel's arrays, made once: a latent-sized 256x32 input, a 32x32
    factor and the 256x32 output. 136 KB in all, so they stay cache-resident
    between ticks, and the kernel allocates nothing: its time must not depend
    on the allocator's or the caches' state, which loco's own work sets."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.latent = rng.standard_normal((256, 32))
        self.factor = 0.05 * rng.standard_normal((32, 32))
        self.out = np.empty((256, 32))


_OPERANDS = _Operands()


def kernel() -> float:
    """An interpreter-bound loop, then small BLAS products with ``exp``.

    loco's work mixes per-call Python overhead with small numpy kernels,
    and the two slow down by different amounts under contention, so the
    probe samples both.
    """
    x = 0
    for i in range(LOOP_ITERATIONS):
        x += i * i % 7
    ops = _OPERANDS
    for _ in range(BLAS_REPEATS):
        np.matmul(ops.latent, ops.factor, out=ops.out)
        np.exp(ops.out, out=ops.out)
    return x + float(ops.out[0, 0])


class SpeedProbe:
    """Times ``kernel`` on demand and keeps every tick, in order."""

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []  # (start, end) of each

    def tick(self) -> float:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.ticks.append((start, end))
        return end - start

    def durations(self) -> list[float]:
        return [end - start for start, end in self.ticks]

    @contextlib.contextmanager
    def before_each(self, owner: object, attr: str) -> Iterator[None]:
        """Tick before every call of ``owner.attr`` while the block runs."""
        original: Callable = getattr(owner, attr)

        def probed(*args, **kwargs):
            self.tick()
            return original(*args, **kwargs)

        setattr(owner, attr, probed)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def adjust(self, start: float, end: float, first: int,
               last: int) -> tuple[float, float]:
        """Wall and adjusted time of the work timed from ``start`` to ``end``.

        Tick ``first`` ran just before the work and tick ``last`` just after
        it; the ticks in between ran inside it and are taken out. They cut
        the work into segments, and each segment is scaled by the mean of
        the two ticks around it.
        """
        ticks = self.ticks[first:last + 1]
        cuts = [start] + [t for tick in ticks[1:-1] for t in tick] + [end]
        wall = adjusted = 0.0
        for k in range(len(ticks) - 1):
            segment = cuts[2 * k + 1] - cuts[2 * k]
            around = (ticks[k][1] - ticks[k][0]
                      + ticks[k + 1][1] - ticks[k + 1][0]) / 2
            wall += segment
            adjusted += segment * PROBE_REFERENCE_S / around
        return wall, adjusted
