"""Outside-in layer trace: spans around loco's public functions.

The tracer rebinds each traced function at the module attribute its caller
looks it up through (``loco.guidance`` and ``loco.evaluate`` call sites,
``Tape.backward`` on the class) and restores the originals on exit; nothing
under ``src/`` changes. Spans stay in memory as (name, start, end, parent)
and become per-layer call counts and self times when the trace ends. A
span's self time is its duration minus its children's, so the self times
of all spans, the benchmark's own root span included, add up to the traced
wall time.

The noise draw inside ``denoise_step`` cannot be timed from outside, so
after each traced denoise step the tracer replays the same
``default_rng([seed, 1, t]).standard_normal((q, d_z))`` draw in a span of
its own and reports that as ``backbone.noise_draw_s``.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from loco import diffmath, evaluate, guidance, suite

ROOT = "bench"
NOISE_REPLAY = "bench.noise_replay"

# (owner, attribute, span name): the call sites the tracer rebinds.
SITES = (
    (suite, "load_suite", "suite.load_suite"),
    (guidance, "embed_tokens", "backbone.embed_tokens"),
    (guidance, "build_projections", "backbone.build_projections"),
    (guidance, "cross_attention", "backbone.cross_attention"),
    (guidance, "denoise_step", "backbone.denoise_step"),
    (guidance, "loco_loss", "guidance.loco_loss"),
    (guidance, "update_latent", "guidance.update_latent"),
    (guidance, "guided_sample", "guidance.guided_sample"),
    (evaluate, "guided_sample", "guidance.guided_sample"),
    (guidance, "gradient_check", "guidance.gradient_check"),
    (diffmath.Tape, "backward", "diffmath.backward"),
    (evaluate, "decode_labels", "evaluate.decode_labels"),
    (evaluate, "detect_regions", "evaluate.detect_regions"),
    (evaluate, "layout_metrics", "evaluate.layout_metrics"),
    (evaluate, "run_benchmark", "evaluate.run_benchmark"),
)

# Per-layer metric -> (unit, span names whose self times or calls it sums).
SELF_TIMES = {
    "suite.load_suite.self_s": ("suite.load_suite",),
    "backbone.setup_s": ("backbone.embed_tokens",
                         "backbone.build_projections"),
    "backbone.cross_attention.self_s": ("backbone.cross_attention",),
    "backbone.denoise_step.self_s": ("backbone.denoise_step",),
    "backbone.noise_draw_s": (NOISE_REPLAY,),
    "guidance.loco_loss.self_s": ("guidance.loco_loss",),
    "guidance.update_latent.self_s": ("guidance.update_latent",),
    "guidance.guided_sample.self_s": ("guidance.guided_sample",),
    "guidance.gradient_check.self_s": ("guidance.gradient_check",),
    "diffmath.backward.self_s": ("diffmath.backward",),
    "evaluate.decode_labels.self_s": ("evaluate.decode_labels",),
    "evaluate.detect_regions.self_s": ("evaluate.detect_regions",),
    "evaluate.layout_metrics.self_s": ("evaluate.layout_metrics",),
    "evaluate.run_benchmark.self_s": ("evaluate.run_benchmark",),
    "bench.self_s": (ROOT,),
}
CALLS = {
    "backbone.cross_attention.calls": "backbone.cross_attention",
    "backbone.denoise_step.calls": "backbone.denoise_step",
    "guidance.loco_loss.calls": "guidance.loco_loss",
    "guidance.guided_sample.calls": "guidance.guided_sample",
    "guidance.gradient_check.calls": "guidance.gradient_check",
    "diffmath.backward.calls": "diffmath.backward",
}


class Tracer:
    """Context manager: rebinds the call sites, restores them on exit."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.tape_nodes: list[int] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, Callable]] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name in SITES:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            if attr == "backward":
                wrapped = self._backward(original)
            elif attr == "denoise_step":
                wrapped = self._denoise(original)
            else:
                wrapped = self._span(name, original)
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def root(self, fn: Callable[[], object]) -> float:
        """Run ``fn`` under the root span; returns the span's duration."""
        index = len(self.spans)
        self._span(ROOT, fn)()
        _, start, end, _ = self.spans[index]
        return end - start

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def _backward(self, original: Callable) -> Callable:
        traced = self._span("diffmath.backward", original)

        def backward(tape, loss):
            self.tape_nodes.append(len(tape))
            return traced(tape, loss)

        return backward

    def _denoise(self, original: Callable) -> Callable:
        traced = self._span("backbone.denoise_step", original)
        replay = self._span(NOISE_REPLAY, _noise_draw)

        def denoise_step(state, attn, tokens, proj, rho, sigma_t):
            out = traced(state, attn, tokens, proj, rho, sigma_t)
            if sigma_t > 0:
                replay(state.rng_seed, state.t, state.z.shape)
            return out

        return denoise_step

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self time in seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - inner)
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        times = self.self_times()
        out = {
            metric: (sum(times.get(n, (0, 0.0))[1] for n in names), "s")
            for metric, names in SELF_TIMES.items()
        }
        for metric, name in CALLS.items():
            out[metric] = (times.get(name, (0, 0.0))[0], "count")
        nodes = self.tape_nodes or [0]
        out["diffmath.tape_nodes.mean"] = (float(np.mean(nodes)), "count")
        out["diffmath.tape_nodes.max"] = (max(nodes), "count")
        return out


def _noise_draw(rng_seed: int, t: int, shape: tuple[int, int]) -> None:
    np.random.default_rng([rng_seed, 1, t]).standard_normal(shape)
