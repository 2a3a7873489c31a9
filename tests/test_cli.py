import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import paneitz_lab
from paneitz_lab.cli import (
    COMMAND_KEYS,
    RUNNERS,
    ExperimentConfig,
    build_parser,
    config_from_args,
    dispatch,
    main,
)


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
    assert main(["coeffs", "--n", "5"]) == 0


def test_each_subparser_takes_only_its_keys():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(action.choices) == list(COMMAND_KEYS) == list(RUNNERS)
    fields = set(ExperimentConfig.__dataclass_fields__)
    for name, sub in action.choices.items():
        options = {a.dest for a in sub._actions} - {"help"}
        assert options == {"n", "seed", "out", *COMMAND_KEYS[name]}, name
        assert options <= fields
        assert set(ExperimentConfig(command=name).settings()) == {
            "command", "n", "seed", *COMMAND_KEYS[name]
        }


def test_key_read_only_by_another_command_leaves_hash_unchanged(tmp_path):
    cfg_file = tmp_path / "shared.cfg"
    cfg_file.write_text("k = 7\nrestarts = 3\nS = 30\nq = 120\n")
    shared = config_from_args(["--config", str(cfg_file), "bubble-sweep", "--n", "12"])
    plain = config_from_args(["bubble-sweep", "--n", "12", "--q", "120"])
    assert shared == plain
    assert shared.config_hash == plain.config_hash
    # a key the command reads does move the hash
    assert plain.config_hash != config_from_args(["bubble-sweep", "--n", "12"]).config_hash


def test_coeffs_off_the_round_sphere(out_root):
    assert main(["coeffs", "--n", "5", "--S", "30"]) == 0
    (record,) = out_root.glob("*/record.json")
    doc = json.loads(record.read_text())
    assert doc["payload"]["alpha"] == pytest.approx(8.25)
    assert doc["payload"]["S"] == 30.0
    assert doc["config"] == {"command": "coeffs", "n": 5, "seed": 0, "S": 30.0}


def test_round_is_refused(tmp_path, capsys):
    cfg_file = tmp_path / "round.cfg"
    cfg_file.write_text("round = true\n")
    with pytest.raises(SystemExit, match="unknown key 'round'"):
        config_from_args(["--config", str(cfg_file), "coeffs"])
    with pytest.raises(SystemExit):
        config_from_args(["coeffs", "--round"])
    assert "--round" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cfg, argv, message",
    [
        ("n = abc\n", ["coeffs"], "invalid value for n: 'abc'"),
        ("", ["bubble-sweep", "--eps-grid", "0.1,abc"], "invalid value for eps_grid: '0.1,abc'"),
        ("", ["spectrum", "--n", "5", "--k", "0"], "error: requested 0 eigenvalues"),
        ("", ["spectrum", "--n", "5", "--k", "-1"], "error: requested -1 eigenvalues"),
        ("", ["coeffs", "--n", "343"], "error: dimension n = 343 is too large"),
        ("command = coeffs\n", ["coeffs"], "unknown key 'command'"),
        ("", ["spectrum", "--n", "5", "--density", "fancy"], "invalid value for density: 'fancy'"),
    ],
)
def test_bad_values_are_refused(tmp_path, out_root, cfg, argv, message):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(cfg)
    with pytest.raises(SystemExit, match=re.escape(message)):
        main(["--config", str(cfg_file), *argv])
    assert not list(out_root.glob("*/record.json"))


def test_unknown_density_rejected(out_root):
    with pytest.raises(SystemExit):
        dispatch(ExperimentConfig(command="spectrum", n=5, density="fancy"))


@pytest.mark.parametrize(
    "typed, argv",
    [
        (dict(command="coeffs", n=5, S=30), ["coeffs", "--n", "5", "--S", "30"]),
        (dict(command="coeffs", n=5, S=30.0), ["coeffs", "--n", "5", "--S", "30.0"]),
        (dict(command="lemma3-bound", n=12, mu1=0), ["lemma3-bound", "--n", "12", "--mu1", "0"]),
        (dict(command="lemma3-bound", n=12), ["lemma3-bound", "--n", "12", "--mu1", "0.0"]),
    ],
)
def test_float_keys_hash_by_value(typed, argv):
    # an int and a float of the same value are one run with one record, from
    # the API or the CLI
    assert ExperimentConfig(**typed).config_hash == config_from_args(argv).config_hash
    # the record's config too: 30 and 30.0 compare equal, their JSON does not
    assert repr(ExperimentConfig(**typed).settings()) == repr(config_from_args(argv).settings())


# the payload keys of every record-writing command; a new field on a report
# dataclass changes the records and must change this table too
PAYLOAD_KEYS = {
    "coeffs": {"n", "S", "alpha", "alpha_bar", "a", "b", "N", "K2_inv_sq", "Q", "sharp_constant"},
    "spectrum": {"n", "density", "eigenvalues", "normalized_invariants", "residuals", "shift"},
    "minimize": {
        "n", "k", "best_coeffs", "best_objective", "final_objective", "diagnostics", "restarts"
    },
    "bubble-sweep": {"n", "eps", "Y", "A", "C", "residual", "oracle", "A_rel_error"},
    "lemma3-bound": {
        "n", "mu1", "eps", "bounds", "best_eps", "best_bound", "rhs", "ratio", "hypothesis_ok"
    },
    "audit": {"n", "reports", "elementary_inequality_violations"},
}


@pytest.mark.parametrize("command", list(PAYLOAD_KEYS))
def test_record_payload_keys(out_root, command):
    extra = {"iterations": 0, "restarts": 2} if command == "minimize" else {}
    record = dispatch(ExperimentConfig(command=command, n=12, **extra))
    doc = json.loads((out_root / record.config_hash / "record.json").read_text())
    assert set(doc) == {"schema", "config_hash", "version", "payload", "seed", "config"}
    assert set(doc["payload"]) == PAYLOAD_KEYS[command]
    if command == "coeffs":
        assert set(doc["payload"]["sharp_constant"]) == {
            "oracle", "paper_formula", "sphere_volume_formula", "ratios"
        }
    if command == "audit":
        for report in doc["payload"]["reports"]:
            assert set(report) == {"name", "lhs", "rhs", "ratio", "verdict", "details"}


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
