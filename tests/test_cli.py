"""Command-line surface: artifacts, exit codes, config plumbing."""

import argparse
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loco import cli, diffmath
from loco.backbone import BackboneConfig
from loco.cli import _guidance_config, build_parser, main, write_pgm
from loco.diffmath import ContractError
from loco.evaluate import run_benchmark
from loco.guidance import (GradCheckResult, GuidanceConfig, gradient_check,
                           guided_sample)
from loco.layout import parse_layout
from loco.suite import bundled_suite_dir
from strategies import mostly

TWO_OBJECT_DOC = json.loads((bundled_suite_dir() / "pair_cat_dog.json").read_text())


@pytest.fixture
def layout_file(tmp_path):
    path = tmp_path / "layout.json"
    path.write_text(json.dumps(TWO_OBJECT_DOC))
    return path


def read_tree(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_write_pgm_format(tmp_path):
    grid = np.array([[0.0, 0.5], [1.0, 0.25]])
    out = tmp_path / "probe.pgm"
    write_pgm(out, grid)
    assert out.read_text() == "P2\n2 2\n255\n0 128\n255 64\n"


def test_generate_writes_expected_artifacts(layout_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["generate", "--layout", str(layout_file), "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"losses.csv", "labels.json", "summary.json",
                     "heatmap_sot.pgm", "heatmap_obj1_cat.pgm",
                     "heatmap_obj2_dog.pgm", "heatmap_eot.pgm"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["guidance_enabled"] is True
    assert summary["guidance"]["gamma"] == 30.0
    assert summary["latent_updates"] == 50
    header = (out / "losses.csv").read_text().splitlines()[0]
    assert header == "step,iteration,lac,ptc,total"
    labels = json.loads((out / "labels.json").read_text())
    assert labels["resolution"] == 16
    assert len(labels["labels"]) == 16


def test_generate_unguided_flagged(layout_file, tmp_path):
    out = tmp_path / "run"
    assert main(["generate", "--layout", str(layout_file), "--out", str(out),
                 "--guided-steps", "0"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["guidance_enabled"] is False
    assert summary["final_losses"] is None
    assert (out / "losses.csv").read_text().strip() == "step,iteration,lac,ptc,total"


def test_generate_byte_identical_reruns(layout_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--layout", str(layout_file), "--out", str(out1),
                 "--seed", "3"]) == 0
    assert main(["generate", "--layout", str(layout_file), "--out", str(out2),
                 "--seed", "3"]) == 0
    tree1, tree2 = read_tree(out1), read_tree(out2)
    assert tree1 == tree2


def test_generate_requires_layout(tmp_path, capsys):
    assert main(["generate", "--out", str(tmp_path)]) == 1
    assert "layout" in capsys.readouterr().err


def test_generate_reports_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"prompt": "cat", "objects": []}')
    assert main(["generate", "--layout", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "objects" in capsys.readouterr().err


def test_seed_from_environment(layout_file, tmp_path, monkeypatch):
    monkeypatch.setenv("LOCO_SEED", "77")
    out = tmp_path / "run"
    assert main(["generate", "--layout", str(layout_file), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 77


def test_config_file_and_flag_precedence(layout_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": 5.0, "alpha": 0.1}))
    out = tmp_path / "run"
    assert main(["generate", "--layout", str(layout_file), "--out", str(out),
                 "--config", str(cfg), "--gamma", "7.0"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["guidance"]["gamma"] == 7.0  # flag beats file
    assert summary["guidance"]["alpha"] == 0.1  # file beats default


@pytest.mark.parametrize("command", ["generate", "bench"])
@pytest.mark.parametrize("flag, field, value", [
    (["--gamma", "7.5"], "gamma", 7.5),
    (["--alpha", "0.4"], "alpha", 0.4),
    (["--beta", "0.5"], "beta", 0.5),
    (["--guided-steps", "3"], "guided_steps", 3),
    (["--iters", "9"], "iterations_per_step", 9),
    (["--detach-norms"], "detach_norms", True),
])
def test_each_guidance_flag_sets_its_field(command, flag, field, value):
    built = _guidance_config(build_parser().parse_args([command] + flag))
    assert built == replace(GuidanceConfig(), **{field: value})


def _assert_one_error_line(captured) -> None:
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_config_file_rejects_unknown_fields(layout_file, tmp_path, capsys):
    # Removed settings are unknown fields like any other.
    cfg = tmp_path / "cfg.json"
    for field in ("gama", "schedule_kind", "ptc_target"):
        cfg.write_text(json.dumps({field: "linear"}))
        assert main(["generate", "--layout", str(layout_file),
                     "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        _assert_one_error_line(captured)
        assert f"unknown config fields: ['{field}']" in captured.err


@pytest.mark.parametrize("doc, field", [({"guided_steps": 2.5}, "guided_steps"),
                                        ({"gamma": "30"}, "gamma"),
                                        ({"detach_norms": 1}, "detach_norms")])
def test_config_file_rejects_wrong_types(layout_file, tmp_path, capsys, doc,
                                         field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["generate", "--layout", str(layout_file), "--out", str(out),
                 "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert field in captured.err
    assert not out.exists()


@pytest.mark.parametrize("extra", [["--guided-steps", "0"], []])
def test_non_finite_alpha_is_one_error_line(layout_file, tmp_path, capsys,
                                            extra):
    out = tmp_path / "o"
    assert main(["generate", "--layout", str(layout_file), "--out", str(out),
                 "--alpha", "nan"] + extra) == 1
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert "alpha must be nonnegative and finite" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("flag, message", [
    pytest.param(["--iters", "100000000000000000000"],
                 "iterations_per_step must be at least 1 and at most 1000",
                 id="iters-1e20"),
    pytest.param(["--guided-steps", "52"],
                 "guided_steps must be nonnegative and at most 51",
                 id="guided-steps-52"),
])
def test_out_of_bounds_loop_length_is_one_error_line(layout_file, tmp_path,
                                                     capsys, flag, message):
    # A count of 1e20 updates per guided step would run until killed.
    out = tmp_path / "o"
    assert main(["generate", "--layout", str(layout_file), "--out", str(out)]
                + flag) == 1
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert message in captured.err
    assert not out.exists()


# Fuzzed config documents: known and unknown field names, numbers (NaN,
# infinities and ints beyond float range included) or any JSON value.
CONFIG_DOCS = mostly(st.dictionaries(
    st.sampled_from([f.name for f in fields(GuidanceConfig)] + ["gama"]),
    mostly(st.integers(-2, 12) | st.floats() | st.just(10 ** 400)),
    max_size=4))


@settings(max_examples=300, deadline=None)
@given(doc=CONFIG_DOCS)
def test_fuzzed_config_documents_build_or_fail_in_one_line(tmp_path_factory,
                                                           doc):
    root = tmp_path_factory.mktemp("fuzz")
    layout, cfg, out = root / "layout.json", root / "cfg.json", root / "o"
    layout.write_text(json.dumps(TWO_OBJECT_DOC))
    cfg.write_text(json.dumps(doc))
    argv = ["generate", "--layout", str(layout), "--config", str(cfg),
            "--out", str(out)]
    try:
        built = _guidance_config(build_parser().parse_args(argv))
    except ContractError:
        # Only a rejected config reaches main: it fails before sampling.
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(argv) == 1
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()
    else:
        assert isinstance(built, GuidanceConfig)


@pytest.mark.parametrize("argv, env, source", [
    (["--seed", "-1"], None, "--seed"),
    ([], "abc", "LOCO_SEED"),
    ([], "-3", "LOCO_SEED"),
    # Only ASCII digits, from either source: no other script's digits, no
    # underscores, no spaces, and no more digits than int() converts.
    *[(["--seed", raw], None, "--seed")
      for raw in ("\uff11\uff12", "1_0", " 3")],
    *[([], raw, "LOCO_SEED")
      for raw in ("\uff11\uff12", "\u0663", "1_0", " 3")],
    pytest.param(["--seed", "9" * 5000], None, "--seed",
                 id="5000-digits---seed"),
    pytest.param([], "9" * 5000, "LOCO_SEED", id="5000-digits-LOCO_SEED"),
])
def test_bad_seed_is_one_error_line(layout_file, tmp_path, capsys, monkeypatch,
                                    argv, env, source):
    if env is not None:
        monkeypatch.setenv("LOCO_SEED", env)
    for command in (["generate", "--layout", str(layout_file),
                     "--out", str(tmp_path / "o")], ["gradcheck"]):
        assert main(command + argv) == 1
        captured = capsys.readouterr()
        _assert_one_error_line(captured)
        assert source in captured.err


def test_float_relation_index_is_one_error_line(tmp_path, capsys):
    doc = dict(TWO_OBJECT_DOC, relations=[{"a": 0.9, "b": 1, "kind": "left"}])
    path = tmp_path / "layout.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["generate", "--layout", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert "relations[0]" in captured.err
    assert not out.exists()


def test_non_finite_latent_is_one_error_line(layout_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": 1e300}))
    out = tmp_path / "o"
    assert main(["generate", "--layout", str(layout_file), "--out", str(out),
                 "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert "non-finite at timestep 0" in captured.err
    assert not out.exists()


@pytest.fixture
def small_suite_dir(tmp_path):
    suite_dir = tmp_path / "suite"
    suite_dir.mkdir()
    for name in ("pair_cat_dog", "fusion_cup_hat"):
        (suite_dir / f"{name}.json").write_text(
            (bundled_suite_dir() / f"{name}.json").read_text())
    return suite_dir


def test_bench_runs_all_arms(small_suite_dir, tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["bench", "--layout", str(small_suite_dir), "--out", str(out),
                 "--seeds", "1"]) == 0
    report = json.loads((out / "bench_report.json").read_text())
    assert report["arms"] == ["none", "lac_wo_norm", "lac", "lac_ptc"]
    assert len(report["records"]) == 2 * 1 * 4
    assert report["gamma_sweep"] == []
    stdout = capsys.readouterr().out
    assert "lac_ptc" in stdout


def test_bench_gamma_sweep_entries(small_suite_dir, tmp_path):
    out = tmp_path / "bench"
    assert main(["bench", "--layout", str(small_suite_dir), "--out", str(out),
                 "--seeds", "1", "--gamma-sweep", "1,5,30,300"]) == 0
    report = json.loads((out / "bench_report.json").read_text())
    assert [e["gamma"] for e in report["gamma_sweep"]] == [1.0, 5.0, 30.0, 300.0]


def test_bench_gamma_sweep_rejects_non_numbers(small_suite_dir, tmp_path,
                                               capsys):
    out = tmp_path / "bench"
    assert main(["bench", "--layout", str(small_suite_dir), "--out", str(out),
                 "--seeds", "1", "--gamma-sweep", "1,abc,30"]) == 1
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert "--gamma-sweep entry 'abc'" in captured.err
    assert not out.exists()


# Seed counts whose seed list cannot be built: 1e20 overflows a list's
# length, and 2**62 seeds would take 2**65 bytes. The seed bound refuses
# them before any list is built.
@pytest.mark.parametrize("count", [10 ** 20, 2 ** 62])
def test_bench_rejects_a_seed_count_that_cannot_be_listed(
        small_suite_dir, tmp_path, capsys, count):
    out = tmp_path / "bench"
    assert main(["bench", "--layout", str(small_suite_dir), "--out", str(out),
                 "--seeds", str(count)]) == 1
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert f"--seeds {count}" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate --layout", "generate --config",
                                     "bench --layout"])
def test_non_utf8_input_file_is_one_error_line(layout_file, tmp_path, capsys,
                                               command):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"prompt": "caf\u00e9 cat"}'.encode("latin-1"))
    if command == "bench --layout":
        suite_dir = tmp_path / "suite"
        suite_dir.mkdir()
        bad = bad.rename(suite_dir / bad.name)
        argv = ["bench", "--layout", str(suite_dir)]
    elif command == "generate --config":
        argv = ["generate", "--layout", str(layout_file), "--config", str(bad)]
    else:
        argv = ["generate", "--layout", str(bad)]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert bad.name in captured.err and "utf-8" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("count", [0, cli._MAX_BENCH_SEEDS + 1, 10 ** 6])
def test_bench_seed_count_outside_its_bound_runs_nothing(
        small_suite_dir, tmp_path, capsys, monkeypatch, count):
    # A million seeds is 24 million layout-seed stacks: it would run until
    # killed. The bound is checked before the suite is even read.
    def no_run(*args, **kwargs):
        raise AssertionError("an out-of-bound seed count started a run")

    monkeypatch.setattr(cli, "load_suite", no_run)
    monkeypatch.setattr(cli, "run_benchmark", no_run)
    out = tmp_path / "bench"
    assert main(["bench", "--layout", str(small_suite_dir), "--out", str(out),
                 "--seeds", str(count)]) == 1
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert f"--seeds {count} is outside [1, 1000]" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("count", [0, cli._MAX_GRADCHECK_INSTANCES + 1,
                                   10 ** 20])
def test_gradcheck_instance_count_outside_its_bound_runs_nothing(
        capsys, monkeypatch, count):
    # 10**20 instances would run until killed; the bound is checked before
    # the first check starts.
    def no_check(*args, **kwargs):
        raise AssertionError("an out-of-bound instance count ran a check")

    monkeypatch.setattr(cli, "gradient_check", no_check)
    assert main(["gradcheck", "--instances", str(count)]) == 1
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert f"--instances {count} is outside [1, 1000]" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    "generate --gamma abc", "bench --alpha 1,5", "generate --beta ''",
    "bench --guided-steps 2.5", "generate --iters ten", "bench --seeds abc",
    "gradcheck --instances 2.5"])
def test_malformed_flag_value_is_one_error_line(layout_file, tmp_path, capsys,
                                                monkeypatch, argv):
    """A flag value that fails its type check ends in one ``error:`` line
    and exit code 1 before any run starts; ``--help`` still exits 0."""
    def no_run(*args, **kwargs):
        raise AssertionError("a malformed flag value started a run")

    for name in ("guided_sample", "run_benchmark", "gradient_check"):
        monkeypatch.setattr(cli, name, no_run)
    command, flag, value = shlex.split(argv)
    paths = [] if command == "gradcheck" else [
        "--layout", str(layout_file), "--out", str(tmp_path / "o")]
    assert main([command, *paths, flag, value]) == 1
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert f"argument {flag}: invalid" in captured.err
    assert captured.out == "" and not (tmp_path / "o").exists()
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == 0



@pytest.mark.parametrize("argv, message", [
    ("bench --bogus", "unrecognized arguments: --bogus"),
    ("generate --layout x.json --seed 0 extra", "unrecognized arguments: extra"),
    ("--bogus", "unrecognized arguments: --bogus"),
    ("", "a command is required"),
])
def test_unknown_argument_or_missing_command_is_one_error_line(
        capsys, monkeypatch, argv, message):
    """An unknown flag or argument, or no command at all, ends in one
    ``error:`` line and exit code 1 before any run starts, not in
    argparse's usage block; ``--help`` still exits 0."""
    def no_run(*args, **kwargs):
        raise AssertionError("a malformed command line started a run")

    for name in ("guided_sample", "run_benchmark", "gradient_check"):
        monkeypatch.setattr(cli, name, no_run)
    assert main(shlex.split(argv)) == 1
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert message in captured.err and captured.out == ""
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0

@pytest.mark.parametrize("command", ["generate --layout", "generate --config",
                                     "bench --layout"])
def test_huge_json_integer_is_one_error_line(layout_file, tmp_path, capsys,
                                             command):
    # Python refuses to convert an integer literal of more than 4300 digits.
    huge = "9" * 5000
    bad = tmp_path / "huge.json"
    if command == "generate --config":
        bad.write_text(f'{{"gamma": {huge}}}')
        argv = ["generate", "--layout", str(layout_file), "--config", str(bad)]
    else:
        doc = json.loads(json.dumps(TWO_OBJECT_DOC))
        doc["objects"][0]["box"][0] = 123456789  # replaced by huge below
        bad.write_text(json.dumps(doc).replace("123456789", huge))
        argv = ["generate", "--layout", str(bad)]
        if command == "bench --layout":
            suite_dir = tmp_path / "suite"
            suite_dir.mkdir()
            bad = bad.rename(suite_dir / bad.name)
            argv = ["bench", "--layout", str(suite_dir)]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert "4300 digits" in captured.err
    if command != "generate --layout":
        assert bad.name in captured.err
    assert not out.exists()


def test_bench_empty_suite_dir_fails(tmp_path, capsys):
    empty = tmp_path / "suite"
    empty.mkdir()
    assert main(["bench", "--layout", str(empty), "--out", str(tmp_path / "o")]) == 1
    assert "no layouts" in capsys.readouterr().err


@pytest.mark.parametrize("path, message", [
    ("missing", "does not exist"),
    (bundled_suite_dir() / "pair_cat_dog.json", "is not a directory"),
], ids=["missing", "file"])
def test_bench_suite_path_that_is_no_directory_fails(tmp_path, capsys, path,
                                                     message):
    suite = tmp_path / path
    assert main(["bench", "--layout", str(suite), "--out",
                 str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"{suite} {message}" in err


def test_bench_names_malformed_file(tmp_path, capsys):
    suite_dir = tmp_path / "suite"
    suite_dir.mkdir()
    (suite_dir / "broken.json").write_text('{"prompt": "cat"}')
    assert main(["bench", "--layout", str(suite_dir), "--out", str(tmp_path / "o")]) == 1
    assert "broken.json" in capsys.readouterr().err


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--seed", "5", "--instances", "2"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out


def test_gradcheck_detach_only_mode(capsys):
    assert main(["gradcheck", "--seed", "5", "--instances", "1",
                 "--detach-norms"]) == 0
    out = capsys.readouterr().out
    assert "detach=True" in out and "detach=False" not in out


def test_gradcheck_corrupt_negative_control(capsys, monkeypatch):
    """An error above the tolerance fails and names its coordinate."""
    def bad_check(seed, **kwargs):
        grad = np.zeros((64, 8))
        return GradCheckResult(1e-2, (3, 4), grad, grad)

    monkeypatch.setattr(cli, "gradient_check", bad_check)
    assert main(["gradcheck", "--seed", "5", "--instances", "1"]) == 1
    err = capsys.readouterr().err
    assert "coordinate (3, 4)" in err
    with pytest.raises(SystemExit):
        build_parser().parse_args(["gradcheck", "--corrupt-gradient"])


def test_no_production_path_records_a_tape(tmp_path, layout_file, monkeypatch):
    """Sampling, the benchmark, the gradient check and the CLI never build
    a tape: the tape is only the tests' oracle."""
    def no_tape(self):
        raise AssertionError("a production path built a Tape")

    monkeypatch.setattr(diffmath.Tape, "__init__", no_tape)
    with pytest.raises(AssertionError):
        diffmath.Tape()
    layout = parse_layout(layout_file.read_text())
    run = guided_sample(layout, GuidanceConfig(), BackboneConfig(), 0)
    assert run.final_attention.shape == (256, run.tokens.n)
    run_benchmark([("pair_cat_dog", layout)], GuidanceConfig(guided_steps=1),
                  BackboneConfig(), seeds=[0], gamma_sweep=[5.0])
    assert gradient_check(3).max_rel_error <= 1e-4
    assert main(["generate", "--layout", str(layout_file), "--seed", "0",
                 "--out", str(tmp_path / "out")]) == 0


# Run in a fresh interpreter where any import of scipy fails.
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import loco
from loco.cli import main
layout, suite, out = sys.argv[1:]
assert main(["generate", "--layout", layout, "--out", out + "/gen"]) == 0
assert main(["bench", "--layout", suite, "--seeds", "1",
             "--out", out + "/bench"]) == 0
"""


def test_package_runs_without_scipy(tmp_path, layout_file):
    """numpy is the only runtime dependency: generate and a one-layout,
    one-seed bench succeed when scipy cannot be imported."""
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / layout_file.name).write_text(layout_file.read_text())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                      env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(layout_file), str(suite),
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_gradcheck_fails_on_a_non_finite_error(capsys, monkeypatch):
    """A NaN error compares false with every bound, so it must fail by
    itself rather than never becoming the worst."""
    def nan_check(seed, **kwargs):
        grad = np.zeros((64, 8))
        return GradCheckResult(float("nan") if seed == 6 else 0.0, (0, 0),
                               grad, grad)

    monkeypatch.setattr(cli, "gradient_check", nan_check)
    assert main(["gradcheck", "--seed", "5", "--instances", "3"]) == 1
    err = capsys.readouterr().err
    assert "non-finite" in err and "seed=6" in err


def test_readme_command_line_section_names_every_flag():
    """The README's "Command line" section names exactly the options of the
    three subcommands, so a flag change cannot leave it stale."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {option for sub in subparsers.choices.values()
               for action in sub._actions for option in action.option_strings}
    assert documented == options - {"-h", "--help"}
