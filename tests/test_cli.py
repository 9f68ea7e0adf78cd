"""Command-line surface: artifacts, exit codes, config plumbing."""

import contextlib
import io
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loco import cli
from loco.cli import _guidance_config, build_parser, main, write_pgm
from loco.diffmath import ContractError
from loco.guidance import GradCheckResult, GuidanceConfig
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


def test_gradcheck_corrupt_negative_control(capsys):
    assert main(["gradcheck", "--seed", "5", "--instances", "1",
                 "--corrupt-gradient"]) == 1
    err = capsys.readouterr().err
    assert "coordinate" in err


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
