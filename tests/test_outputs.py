"""Byte-identity guard: one SHA-256 per output artifact, recorded in
``tests/data/outputs.json``.

The artifacts are a one-seed benchmark report over three suite layouts with
the gamma sweep, the analytic and numeric gradients of eight gradient
checks (four seeds, both detach modes; one hash each, so a change to one
side shows apart from the other), the final latent and loss curve of
three guided runs, the ``cross_mass_probe`` values of every suite layout at
two seeds and two configs (as a list of float-hex strings), and every file
the command line writes, made through ``main()``: ``loco generate`` on
``fusion_cup_hat`` three ways, ``loco bench --seeds 1 --gamma-sweep
1,5,30,300`` over the bundled suite, both at seed 0, and the standard
output of ``loco gradcheck --seed 4 --instances 3``. The commands run
inside a scratch directory with relative paths, so no absolute path enters
an artifact. A change that claims to keep the outputs must leave every hash
as recorded; a change that moves them on purpose regenerates the manifest
with

    PYTHONPATH=src python tests/test_outputs.py

and says so in CHANGES.md. The bits depend on the BLAS build (a product's
summation order is the library's), so a manifest recorded against one numpy
and BLAS build may not match another; regenerate it at the parent commit
there before comparing a change.
"""

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from loco.backbone import BackboneConfig
from loco.cli import main
from loco.evaluate import arm_config, cross_mass_probe, run_benchmark
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
GENERATE_LAYOUT = "fusion_cup_hat"
# Each generate run's extra flags; wo_norm.json is written next to the
# layout.
GENERATE_RUNS = {
    "default": [],
    "detach": ["--detach-norms"],
    "wo_norm": ["--config", "wo_norm.json"],
}
PROBE_SEEDS = (0, 1)
# Criterion 5's two configs: with and without the padding-token loss.
PROBE_CONFIGS = (GuidanceConfig(), arm_config(GuidanceConfig(), "lac"))


def _sha(*parts) -> str:
    """SHA-256 over strings (UTF-8) and float64 arrays (raw C-order bytes)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode())
        else:
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    return h.hexdigest()


def _cli_artifacts(work: Path) -> dict[str, str]:
    """The hash of every file the command line writes, by command and file
    name, made through ``main()`` inside the directory ``work``."""
    shutil.copy(bundled_suite_dir() / f"{GENERATE_LAYOUT}.json", work)
    (work / "wo_norm.json").write_text(
        json.dumps({"alpha": 0.0, "lac_normalize": False}))
    stdout = io.StringIO()
    with contextlib.chdir(work):
        for label, flags in GENERATE_RUNS.items():
            assert main(["generate", "--layout", f"{GENERATE_LAYOUT}.json",
                         "--seed", "0", "--out", f"generate_{label}",
                         *flags]) == 0
        assert main(["bench", "--seed", "0", "--seeds", "1", "--gamma-sweep",
                     "1,5,30,300", "--out", "bench"]) == 0
        with contextlib.redirect_stdout(stdout):
            assert main(["gradcheck", "--seed", "4", "--instances", "3"]) == 0
    out = {f"cli_{path.parent.name}/{path.name}": _sha(path.read_text())
           for path in sorted(work.glob("*/*"))}
    out["cli_gradcheck/stdout"] = _sha(stdout.getvalue())
    return out


def artifacts(work: Path) -> dict[str, str]:
    """Every artifact's hash, by name; the command line writes into the
    empty directory ``work``."""
    bundled = dict(load_suite(bundled_suite_dir()))
    out = {}
    suite = [(name, bundled[name]) for name in BENCH_LAYOUTS]
    report = run_benchmark(suite, GuidanceConfig(), BackboneConfig(),
                           seeds=[0], gamma_sweep=SWEEP)
    out["bench_report"] = _sha(report.to_json())
    for seed in CHECK_SEEDS:
        for detach in (False, True):
            check = gradient_check(seed, detach_norms=detach)
            name = f"gradcheck_{seed}_detach_{detach}"
            out[f"{name}_analytic"] = _sha(check.analytic)
            out[f"{name}_numeric"] = _sha(check.numeric)
    for label, cfg in RUN_CONFIGS.items():
        run = guided_sample(bundled[RUN_LAYOUT], cfg, BackboneConfig(), 0)
        curve = np.array([[bd.lac, bd.ptc, bd.total]
                          for bd in run.loss_curve()])
        out[f"guided_{label}"] = _sha(run.final_z, curve)
    probes = [cross_mass_probe(layout, cfg, BackboneConfig(), seed).hex()
              for layout in bundled.values() for seed in PROBE_SEEDS
              for cfg in PROBE_CONFIGS]
    out["cross_mass_probe"] = _sha("\n".join(probes))
    return {**out, **_cli_artifacts(work)}


def test_outputs_match_the_recorded_hashes(tmp_path):
    recorded = json.loads(MANIFEST.read_text())
    got = artifacts(tmp_path)
    assert sorted(got) == sorted(recorded)
    changed = [name for name in recorded if got[name] != recorded[name]]
    assert changed == [], f"artifacts changed: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        MANIFEST.write_text(json.dumps(artifacts(Path(work)), indent=2) + "\n")
