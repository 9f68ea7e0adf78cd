"""Byte-identity guard: one SHA-256 per output artifact, recorded in
``tests/data/outputs.json``.

The artifacts are a one-seed benchmark report over three suite layouts with
the gamma sweep, the analytic and numeric gradients of eight gradient checks
(four seeds, both detach modes), and the final latent and loss curve of
three guided runs. A change that claims to keep the outputs must leave every
hash as recorded; a change that moves them on purpose regenerates the
manifest with

    PYTHONPATH=src python tests/test_outputs.py

and says so in CHANGES.md. The bits depend on the BLAS build (a product's
summation order is the library's), so a manifest recorded against one numpy
and BLAS build may not match another; regenerate it at the parent commit
there before comparing a change.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from loco.backbone import BackboneConfig
from loco.evaluate import arm_config, run_benchmark
from loco.guidance import GuidanceConfig, gradient_check, guided_sample
from loco.suite import bundled_suite_dir, load_suite

MANIFEST = Path(__file__).parent / "data" / "outputs.json"

BENCH_LAYOUTS = ("fusion_cup_hat", "triple_phrases", "quad_mixed")
SWEEP = (1.0, 5.0, 30.0, 300.0)
CHECK_SEEDS = (0, 1, 2, 3)
RUN_LAYOUT = "fusion_ball_cup"
RUN_CONFIGS = {
    "lac_ptc": GuidanceConfig(),
    "detach": GuidanceConfig(detach_norms=True),
    "lac_wo_norm": arm_config(GuidanceConfig(), "lac_wo_norm"),
}


def _sha(*parts) -> str:
    """SHA-256 over strings (UTF-8) and float64 arrays (raw C-order bytes)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode())
        else:
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    return h.hexdigest()


def artifacts() -> dict[str, str]:
    """Every artifact's hash, by name."""
    bundled = dict(load_suite(bundled_suite_dir()))
    out = {}
    suite = [(name, bundled[name]) for name in BENCH_LAYOUTS]
    report = run_benchmark(suite, GuidanceConfig(), BackboneConfig(),
                           seeds=[0], gamma_sweep=SWEEP)
    out["bench_report"] = _sha(report.to_json())
    for seed in CHECK_SEEDS:
        for detach in (False, True):
            check = gradient_check(seed, detach_norms=detach)
            out[f"gradcheck_{seed}_detach_{detach}"] = _sha(check.analytic,
                                                            check.numeric)
    for label, cfg in RUN_CONFIGS.items():
        run = guided_sample(bundled[RUN_LAYOUT], cfg, BackboneConfig(), 0)
        curve = np.array([[bd.lac, bd.ptc, bd.total]
                          for bd in run.loss_curve()])
        out[f"guided_{label}"] = _sha(run.final_z, curve)
    return out


def test_outputs_match_the_recorded_hashes():
    recorded = json.loads(MANIFEST.read_text())
    got = artifacts()
    assert sorted(got) == sorted(recorded)
    changed = [name for name in recorded if got[name] != recorded[name]]
    assert changed == [], f"artifacts changed: {changed}"


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(artifacts(), indent=2) + "\n")
