import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import paneitz_lab
from paneitz_lab.cli import ExperimentConfig, config_from_args, dispatch, main


@pytest.fixture(autouse=True)
def out_root(tmp_path, monkeypatch):
    monkeypatch.setenv("PANEITZ_LAB_OUT", str(tmp_path))
    return tmp_path


def test_coeffs_command(out_root, capsys):
    record = dispatch(ExperimentConfig(command="coeffs", n=5))
    assert record.payload["alpha"] == pytest.approx(5.5)
    assert record.payload["alpha_bar"] == pytest.approx(6.5625)
    run_dir = out_root / record.config_hash
    assert (run_dir / "record.json").exists()
    assert (run_dir / "coeffs.csv").exists()
    assert (run_dir / "meta.json").exists()
    assert "alpha" in capsys.readouterr().out


def test_spectrum_command(out_root):
    record = dispatch(ExperimentConfig(command="spectrum", n=5, k=3))
    lam = record.payload["normalized_invariants"]
    assert lam[0] == pytest.approx(102.38327344058294, rel=1e-8)
    assert lam[1] == pytest.approx(921.4494609652465, rel=1e-8)


def test_config_hash_ignores_out_dir():
    a = ExperimentConfig(command="coeffs", n=5, out="runs")
    b = ExperimentConfig(command="coeffs", n=5, out="elsewhere")
    assert a.config_hash == b.config_hash
    assert a.config_hash != ExperimentConfig(command="coeffs", n=6).config_hash


def test_config_file_with_overrides(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("n = 12\nseed = 4\nL = 32\n")
    config = config_from_args(["--config", str(cfg_file), "spectrum", "--n", "8"])
    assert config.command == "spectrum"
    assert config.n == 8         # CLI wins
    assert config.seed == 4      # file value survives
    assert config.L == 32


def test_config_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a key value line\n")
    with pytest.raises(SystemExit):
        config_from_args(["--config", str(bad), "coeffs"])


def test_record_json_schema(out_root):
    record = dispatch(ExperimentConfig(command="bubble-sweep", n=12))
    doc = json.loads((out_root / record.config_hash / "record.json").read_text())
    assert doc["schema"] == 1
    assert doc["config_hash"] == record.config_hash
    assert doc["payload"]["A"] == pytest.approx(record.payload["A"])


def test_csv_full_precision(out_root):
    record = dispatch(ExperimentConfig(command="spectrum", n=5, k=1))
    text = (out_root / record.config_hash / "spectrum.csv").read_text()
    header, row = text.strip().splitlines()
    assert header == "k,lambda,lambda_bar,residual"
    lam = float(row.split(",")[1])
    assert lam == record.payload["eigenvalues"][0]  # round-trips exactly


def test_report_consolidation(out_root, capsys):
    dispatch(ExperimentConfig(command="coeffs", n=5))
    dispatch(ExperimentConfig(command="bubble-sweep", n=12))
    # corrupted record must be skipped with a warning, not fail the report
    bad_dir = out_root / "deadbeef"
    bad_dir.mkdir()
    (bad_dir / "record.json").write_text("{ not json")
    dispatch(ExperimentConfig(command="report"))
    captured = capsys.readouterr()
    assert "skipping corrupted record" in captured.err
    summary = json.loads((out_root / "report" / "summary.json").read_text())
    assert len(summary["rows"]) == 2
    assert (out_root / "report" / "summary.csv").exists()


def test_report_empty(out_root, capsys):
    dispatch(ExperimentConfig(command="report"))
    assert "no runs" in capsys.readouterr().out


def test_main_entry(out_root):
    assert main(["coeffs", "--n", "5", "--round"]) == 0


def test_unknown_density_rejected(out_root):
    with pytest.raises(SystemExit):
        dispatch(ExperimentConfig(command="spectrum", n=5, density="fancy"))


def _fresh_python(code, *args):
    """Run code in a new interpreter that imports this checkout's package."""
    src = str(Path(paneitz_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_cli_import_leaves_scipy_out():
    done = _fresh_python("import paneitz_lab.cli, sys; assert 'scipy' not in sys.modules")
    assert done.returncode == 0, done.stderr


def test_every_command_runs_without_scipy(tmp_path):
    # scipy is a test-only oracle: with it blocked, every subcommand works
    code = """
import sys
sys.modules["scipy"] = None
from paneitz_lab.cli import main
for argv in (
    ["coeffs"],
    ["spectrum", "--k", "3", "--density", "two-bubble"],
    ["bubble-sweep"],
    ["lemma3-bound"],
    ["audit"],
    ["minimize", "--k", "2", "--restarts", "1", "--iterations", "5"],
    ["report"],
):
    assert main([*argv, "--n", "12", "--out", sys.argv[1]]) == 0, argv
"""
    done = _fresh_python(code, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert len(list(tmp_path.glob("*/record.json"))) == 6
