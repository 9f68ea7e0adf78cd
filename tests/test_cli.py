"""Command-line surface: artifacts, exit codes, config plumbing."""

import json
from pathlib import Path

import numpy as np
import pytest

from loco.cli import main, write_pgm
from loco.suite import bundled_suite_dir

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


def test_config_file_rejects_unknown_fields(layout_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gama": 5.0}))
    assert main(["generate", "--layout", str(layout_file),
                 "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 1
    assert "gama" in capsys.readouterr().err


def _assert_one_error_line(captured) -> None:
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


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


@pytest.mark.parametrize("argv, env, source", [
    (["--seed", "-1"], None, "--seed"),
    ([], "abc", "LOCO_SEED"),
    ([], "-3", "LOCO_SEED"),
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
