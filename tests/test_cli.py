import argparse
import csv
import gc
import json
import math
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
    # runs land under the default --out, relative to the working directory
    monkeypatch.chdir(tmp_path)
    return tmp_path / "runs"


def test_coeffs_command(out_root, capsys):
    record = dispatch(ExperimentConfig(command="coeffs", n=5))
    assert record.payload["alpha"] == pytest.approx(5.5)
    assert record.payload["alpha_bar"] == pytest.approx(6.5625)
    run_dir = out_root / record.config_hash
    assert {p.name for p in run_dir.iterdir()} == {"record.json", "meta.json"}
    assert "alpha" in capsys.readouterr().out


def test_spectrum_command(out_root):
    record = dispatch(ExperimentConfig(command="spectrum", n=5, k=3))
    lam = record.payload["normalized_invariants"]
    assert lam[0] == pytest.approx(102.38327344058294, rel=1e-8)
    assert lam[1] == pytest.approx(921.4494609652465, rel=1e-8)


@pytest.mark.parametrize("density", ["const", "two-bubble"])
def test_spectrum_records_the_parity_of_each_eigenvector(out_root, density):
    # both densities are even, so each eigenvector lies in the even or the
    # odd sector: its odd share is 0 or 1 up to rounding, and lambda_2 is odd
    record = dispatch(ExperimentConfig(command="spectrum", n=12, k=3, density=density))
    shares = record.payload["odd_shares"]
    assert len(shares) == 3
    assert all(s <= 1e-20 or s >= 1 - 1e-12 for s in shares), shares
    assert [s > 0.5 for s in shares] == [False, True, False]


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


def test_descent_defaults_have_one_value():
    import inspect

    from paneitz_lab import optimizer
    from paneitz_lab.optimizer import OptimizerConfig

    # two homes of the descent defaults, since cli imports no numpy-backed module
    parameters = inspect.signature(OptimizerConfig).parameters
    defaults = {name: p.default for name, p in parameters.items()}
    config = ExperimentConfig(command="minimize")
    names = {"k": "k", "restarts": "restarts", "iterations": "max_iters", "q": "q_nodes", "L": "L_final"}
    assert {key: getattr(config, key) for key in names} == {
        key: defaults[name] for key, name in names.items()
    }
    # the descent's degree is derived, not set
    assert "L_opt" not in parameters
    assert OptimizerConfig(n=12).L_opt == optimizer.L_OPT == 16


def test_minimize_below_the_descent_degree_descends_at_L(out_root):
    # L = 10 < L_OPT: q descends at degree 10 on the final basis itself, so
    # the final evaluation repeats the engine's value
    record = dispatch(ExperimentConfig(command="minimize", n=12, L=10))
    assert len(record.payload["best_coeffs"]) == 11
    final, best = record.payload["final_objective"], record.payload["best_objective"]
    assert final == pytest.approx(best, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "argv", [["minimize", "--n", "12", "--L-opt", "16"], ["lemma3-bound", "--n", "12", "--mu1", "5"]]
)
def test_retired_flags_are_unrecognized(out_root, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert not out_root.exists()


def test_retired_keys_are_unknown_to_the_api():
    with pytest.raises(TypeError, match="unknown config keys: mu1"):
        ExperimentConfig(command="lemma3-bound", mu1=0)
    with pytest.raises(TypeError, match="unknown config keys: L_opt"):
        ExperimentConfig(command="minimize", L_opt=16)


def test_record_json_schema(out_root):
    from paneitz_lab.bubbles import DEFAULT_EPS_GRID

    # two homes of one grid, since cli imports no numpy-backed module
    assert ExperimentConfig(command="bubble-sweep").eps_grid == DEFAULT_EPS_GRID
    record = dispatch(ExperimentConfig(command="bubble-sweep", n=12))
    doc = json.loads((out_root / record.config_hash / "record.json").read_text())
    assert doc["schema"] == 1
    assert doc["config_hash"] == record.config_hash
    assert doc["payload"]["A"] == pytest.approx(record.payload["A"])


@pytest.mark.parametrize("iterations", [60, 0])
def test_minimize_record_ends_on_its_trace(out_root, iterations):
    # trace.csv holds one full-precision row per state; each restart's
    # terminal value is its last row, iterations counts the steps between
    # its rows, and the winner's terminal value is best_objective
    record = dispatch(
        ExperimentConfig(command="minimize", n=12, restarts=2, iterations=iterations)
    )
    with open(out_root / record.config_hash / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    restarts = record.payload["restarts"]
    for i, restart in enumerate(restarts):
        mine = [row for row in rows if row["restart"] == str(i)]
        assert restart["iterations"] == len(mine) - 1 == int(mine[-1]["iter"])
        assert restart["terminal_lambda_bar"] == float(mine[-1]["objective"])  # round-trips exactly
    assert record.payload["best_objective"] == min(r["terminal_lambda_bar"] for r in restarts)


def test_report_consolidation(out_root, capsys):
    dispatch(ExperimentConfig(command="coeffs", n=5))
    sweep = dispatch(ExperimentConfig(command="bubble-sweep", n=12))
    descent = dispatch(ExperimentConfig(command="minimize", n=12, iterations=5))
    bound = dispatch(ExperimentConfig(command="lemma3-bound", n=12))
    # corrupted record must be skipped with a warning, not fail the report
    bad_dir = out_root / "deadbeef"
    bad_dir.mkdir()
    (bad_dir / "record.json").write_text("{ not json")
    dispatch(ExperimentConfig(command="report"))
    captured = capsys.readouterr()
    assert "skipping corrupted record" in captured.err
    summary = json.loads((out_root / "report" / "summary.json").read_text())
    assert len(summary["rows"]) == 4
    assert [p.name for p in (out_root / "report").iterdir()] == ["summary.json"]
    # each command's row carries its headline numbers, as its record holds them
    rows = {row["hash"]: row for row in summary["rows"]}
    assert rows[descent.config_hash]["mu_estimate"] == descent.payload["final_objective"]
    assert (
        rows[descent.config_hash]["attainment_product"]
        == descent.payload["diagnostics"]["attainment_product"]
    )
    assert rows[bound.config_hash]["bound_ratio"] == bound.payload["ratio"]
    assert rows[sweep.config_hash]["A_rel_error"] == sweep.payload["A_rel_error"]


@pytest.mark.parametrize(
    "body",
    [
        "[1, 2]",
        '"text"',
        '{"payload": [], "config": {"command": "minimize"}}',
        '{"payload": {}, "config": []}',
        '{"payload": {"diagnostics": [1]}, "config": {"command": "minimize"}}',
    ],
)
def test_report_skips_a_malformed_record(out_root, capsys, body):
    dispatch(ExperimentConfig(command="coeffs", n=5))
    bad_dir = out_root / "deadbeef"
    bad_dir.mkdir()
    (bad_dir / "record.json").write_text(body)
    dispatch(ExperimentConfig(command="report"))
    assert "skipping corrupted record" in capsys.readouterr().err
    summary = json.loads((out_root / "report" / "summary.json").read_text())
    assert [row["command"] for row in summary["rows"]] == ["coeffs"]


def test_report_empty(out_root, capsys):
    dispatch(ExperimentConfig(command="report"))
    assert "no runs" in capsys.readouterr().out


def test_main_entry(out_root):
    frozen = gc.get_freeze_count()
    assert main(["coeffs", "--n", "5"]) == 0
    # only the process entry freezes the heap; in-process callers keep theirs
    assert gc.get_freeze_count() == frozen


def test_meta_records_phase_times_beside_an_unchanged_record(out_root):
    config = ExperimentConfig(command="spectrum", n=5, k=3)
    run_dir = out_root / config.config_hash
    dispatch(config)
    record = (run_dir / "record.json").read_bytes()
    meta = json.loads((run_dir / "meta.json").read_text())
    assert {"written", "run_s", "write_s", "python", "numpy", "blas", "OPENBLAS_NUM_THREADS"} <= set(meta)
    assert meta["run_s"] >= 0 and meta["write_s"] >= 0
    assert meta["python"] == ".".join(map(str, sys.version_info[:3]))
    # the BLAS numpy was built against, and the thread count as the environment gives it
    blas = sys.modules["numpy"].show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert meta["blas"] == f"{blas['name']} {blas['version']}"
    assert meta["OPENBLAS_NUM_THREADS"] == os.environ.get("OPENBLAS_NUM_THREADS")
    dispatch(config)
    assert (run_dir / "record.json").read_bytes() == record
    assert not set(meta) & set(json.loads(record))


@pytest.mark.parametrize(
    "typed",
    [dict(command="coeffs", seed=-1), dict(command="spectrum", n=5, seed=-3)],
)
def test_negative_seed_is_refused_by_the_api(typed):
    with pytest.raises(SystemExit, match=re.escape(f"invalid value for seed: {typed['seed']}")):
        ExperimentConfig(**typed)


def test_seed_is_hashed_only_where_it_is_read(out_root):
    # no command reads the seed: two seeds are one run with one record, which
    # holds no seed
    for argv in (["spectrum", "--n", "5"], ["minimize", "--n", "5", "--iterations", "0"]):
        for seed in ("0", "1"):
            assert main([*argv, "--seed", seed]) == 0
    records = sorted(out_root.glob("*/record.json"))
    assert len(records) == 2
    for record in records:
        doc = json.loads(record.read_text())
        assert "seed" not in doc and "seed" not in doc["config"]


def test_the_readme_cli_examples_run(tmp_path):
    # each line of the README's CLI example runs as written, so an example
    # that the guards refuse fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [argv for argv in (line.split("#", 1)[0].split() for line in block.splitlines()) if argv]
    assert {argv[0] for argv in lines} == {"paneitz-lab"}
    assert {argv[1] for argv in lines} == set(RUNNERS)
    for argv in lines:
        assert main([*argv[1:], "--out", str(tmp_path)]) == 0, argv


def test_out_flag_alone_sets_the_output_root(tmp_path, monkeypatch):
    # no environment variable overrides --out
    monkeypatch.setenv("PANEITZ_LAB_OUT", str(tmp_path / "env"))
    assert main(["coeffs", "--n", "5", "--out", str(tmp_path / "flag")]) == 0
    assert len(list((tmp_path / "flag").glob("*/record.json"))) == 1
    assert not (tmp_path / "env").exists()


def test_each_subparser_takes_only_its_keys():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(action.choices) == list(COMMAND_KEYS) == list(RUNNERS)
    fields = set(ExperimentConfig.__annotations__)
    for name, sub in action.choices.items():
        options = {a.dest for a in sub._actions} - {"help"}
        assert options == {"n", "seed", "out", *COMMAND_KEYS[name]}, name
        assert options <= fields
        # --seed is taken by every command, but read and hashed by none
        assert set(ExperimentConfig(command=name).settings()) == {"command", "n", *COMMAND_KEYS[name]}
    assert [name for name, keys in COMMAND_KEYS.items() if "seed" in keys] == []


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
    assert doc["config"] == {"command": "coeffs", "n": 5, "S": 30.0}


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
        ("", ["spectrum", "--n", "5", "--k", "0"], "invalid value for k: 0 (must be >= 1)"),
        ("", ["spectrum", "--n", "5", "--k", "-1"], "invalid value for k: -1 (must be >= 1)"),
        ("", ["coeffs", "--n", "343"], "error: dimension n = 343 is too large"),
        ("command = coeffs\n", ["coeffs"], "unknown key 'command'"),
        ("", ["spectrum", "--n", "5", "--density", "fancy"], "invalid value for density: 'fancy'"),
        ("", ["minimize", "--n", "5", "--restarts", "0"], "error: restarts must be 1 or 2, got 0"),
        (
            "",
            ["minimize", "--n", "5", "--iterations", "-3"],
            "error: max_iters (--iterations) must be >= 0, got -3",
        ),
        ("mu1 = 5\n", ["lemma3-bound", "--n", "12"], "unknown key 'mu1'"),
        ("L_opt = 16\n", ["minimize", "--n", "12"], "unknown key 'L_opt'"),
        ("", ["coeffs", "--n", "5", "--S", "nan"], "invalid value for S: nan"),
        ("", ["coeffs", "--n", "5", "--S", "inf"], "invalid value for S: inf"),
        ("S = -inf\n", ["coeffs", "--n", "5"], "invalid value for S: -inf"),
        ("", ["minimize", "--n", "12", "--L", "0"], "invalid value for L: 0 (must be >= 2)"),
        (
            "",
            ["lemma3-bound", "--n", "12", "--eps-grid", "inf,0.1"],
            "invalid value for eps_grid: (inf, 0.1)",
        ),
        (
            "",
            ["bubble-sweep", "--n", "12", "--eps-grid", "nan,0.1,0.2"],
            "invalid value for eps_grid: (nan, 0.1, 0.2)",
        ),
        (
            "",
            ["lemma3-bound", "--n", "12", "--eps-grid", "1e200,0.1"],
            "error: eps=1e+200 is too large at n=12: eps^2 overflows",
        ),
        (
            "",
            ["lemma3-bound", "--n", "12", "--eps-grid", "1e40,0.1,0.2"],
            "error: eps=1e+40 is too large at n=12: the L^N mass of phi_eps underflows",
        ),
        (
            "",
            ["bubble-sweep", "--n", "12", "--eps-grid", "1e40,0.1,0.2"],
            "error: eps=1e+40 is too large at n=12: the L^N mass of phi_eps underflows",
        ),
        (
            "",
            ["bubble-sweep", "--n", "12", "--eps-grid", "1e200,0.1,0.2"],
            "error: eps=1e+200 is too large at n=12: eps^2 overflows",
        ),
        (
            "",
            ["lemma3-bound", "--n", "12", "--eps-grid", "3e13,0.1"],
            "error: eps=30000000000000.0 is too large at n=12: the L^N mass of phi_eps",
        ),
        (
            "",
            ["bubble-sweep", "--n", "30", "--eps-grid", "1e10,0.1,0.2"],
            "error: eps=10000000000.0 is too large at n=30: the L^N mass of phi_eps",
        ),
        (
            "",
            ["bubble-sweep", "--n", "12", "--eps-grid", "2e13,0.1,0.2"],
            "error: eps=20000000000000.0 is too large at n=12: the L^N mass of phi_eps "
            "underflows to 4.94e-322, below the normal double range",
        ),
        (
            "",
            ["bubble-sweep", "--n", "30", "--eps-grid", "1.5e5,0.1,0.2"],
            "error: eps=150000.0 is too large at n=30: the L^N mass of phi_eps "
            "underflows to 1.27e-320, below the normal double range",
        ),
        (
            "",
            ["spectrum", "--n", "12", "--q", "100000", "--L", "5"],
            "error: q=100000 exceeds the cap of 6400 quadrature nodes",
        ),
        ("", ["audit", "--n", "335"], "error: Gauss weights underflow to zero at n=335, q=200"),
        ("", ["audit", "--n", "342"], "error: Gauss weights underflow to zero at n=342, q=200"),
        ("", ["minimize", "--n", "12", "--k", "3"], "error: k must be 1 or 2, got 3"),
        ("", ["minimize", "--n", "5", "--k", "5"], "error: k must be 1 or 2, got 5"),
        ("", ["audit", "--n", "5", "--seed", "-1"], "invalid value for seed: -1 (must be >= 0)"),
        ("", ["minimize", "--n", "5", "--seed", "-1"], "invalid value for seed: -1 (must be >= 0)"),
        ("seed = -1\n", ["coeffs", "--n", "5"], "invalid value for seed: -1 (must be >= 0)"),
        ("", ["spectrum", "--n", "5", "--seed", "-2"], "invalid value for seed: -2 (must be >= 0)"),
        (
            "",
            ["bubble-sweep", "--n", "12", "--eps-grid", "0.1,0.1,0.1"],
            "error: need at least 3 distinct grid points to fit two parameters, got [0.1, 0.1, 0.1]",
        ),
        (
            "",
            ["bubble-sweep", "--n", "12", "--eps-grid", "0.1,0.2,0.1"],
            "error: need at least 3 distinct grid points to fit two parameters, got [0.1, 0.1, 0.2]",
        ),
        ("", ["spectrum", "--n", "5", "--L", "-1"], "invalid value for L: -1 (must be >= 0)"),
        ("", ["audit", "--n", "5", "--L", "-2"], "invalid value for L: -2 (must be >= 0)"),
        ("", ["spectrum", "--n", "5", "--q", "-4"], "invalid value for q: -4 (must be >= 2)"),
        ("q = 1\n", ["minimize", "--n", "5"], "invalid value for q: 1 (must be >= 2)"),
        ("", ["minimize", "--n", "5", "--k", "0"], "invalid value for k: 0 (must be >= 1)"),
        ("", ["spectrum", "--n", "5", "--k", "60"], "invalid value for k: 60 (must be <= L + 1 = 49)"),
        (
            "",
            ["lemma3-bound", "--n", "283"],
            "error: the two-plane bound at n=283, eps=0.075 is not finite (nan)",
        ),
        (
            "",
            ["lemma3-bound", "--n", "284"],
            "error: the two-plane bound at n=284, eps=0.05 is not finite (nan)",
        ),
        ("", ["minimize", "--n", "12", "--L", "1"], "invalid value for L: 1 (must be >= 2)"),
        ("", ["minimize", "--n", "12", "--q", "16"], "invalid value for q: 16 (must be > L = 48)"),
        ("", ["audit", "--n", "5", "--L", "0"], "invalid value for L: 0 (must be >= 1)"),
        ("", ["lemma3-bound", "--n", "12", "--L", "0"], "invalid value for L: 0 (must be >= 1)"),
        (
            "",
            ["coeffs", "--n", "5", "--S", "1e155"],
            "error: scalar curvature S = 1e+155 is too large at n = 5: S^2 overflows",
        ),
        (
            "",
            ["lemma3-bound", "--n", "20", "--q", "100", "--L", "100"],
            "invalid value for q: 100 (must be > L = 100)",
        ),
        ("", ["minimize", "--n", "5", "--restarts", "3"], "error: restarts must be 1 or 2, got 3"),
        ("restarts = 8\n", ["minimize", "--n", "5"], "error: restarts must be 1 or 2, got 8"),
        (
            "",
            ["audit", "--n", "341", "--q", "50", "--L", "10"],
            "error: euclidean-corollary: the L^N mass of u, 0, is below the normal double "
            "range at n = 341",
        ),
        (
            "",
            ["bubble-sweep", "--n", "12", "--q", "50"],
            "error: eps=0.05 under the alias floor 0.1885; need q >= 189 nodes",
        ),
    ],
)
def test_bad_values_are_refused(tmp_path, out_root, cfg, argv, message):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(cfg)
    with pytest.raises(SystemExit, match=re.escape(message)):
        main(["--config", str(cfg_file), *argv])
    assert not out_root.exists()


def test_an_empty_eps_grid_is_refused_by_name(out_root):
    # the API takes eps_grid=(), which lemma3-bound refuses by name, not in
    # numpy's argmin, before the run directory exists
    message = "eps_grid is empty: the bound needs at least one eps"
    with pytest.raises(ValueError, match=re.escape(message)):
        dispatch(ExperimentConfig(command="lemma3-bound", n=12, eps_grid=()))
    assert not out_root.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_payload_writes_no_run_directory(out_root, monkeypatch, value):
    monkeypatch.setitem(RUNNERS, "coeffs", lambda config: ({"x": [1.0, value]}, ""))
    with pytest.raises(SystemExit, match="error: Out of range float values are not JSON compliant"):
        main(["coeffs", "--n", "5"])
    assert not out_root.exists()


def test_unknown_density_rejected(out_root):
    with pytest.raises(SystemExit):
        dispatch(ExperimentConfig(command="spectrum", n=5, density="fancy"))


@pytest.mark.parametrize(
    "typed, argv",
    [
        (dict(command="coeffs", n=5, S=30), ["coeffs", "--n", "5", "--S", "30"]),
        (dict(command="coeffs", n=5, S=30.0), ["coeffs", "--n", "5", "--S", "30.0"]),
        (
            dict(command="lemma3-bound", n=12, eps_grid=(1, 0.1)),
            ["lemma3-bound", "--n", "12", "--eps-grid", "1,0.1"],
        ),
        (
            dict(command="bubble-sweep", n=12, eps_grid=(0.1, 0.2, 1)),
            ["bubble-sweep", "--n", "12", "--eps-grid", "0.1,0.2,1.0"],
        ),
    ],
)
def test_float_keys_hash_by_value(typed, argv):
    # an int and a float of the same value are one run with one record, from
    # the API or the CLI
    assert ExperimentConfig(**typed).config_hash == config_from_args(argv).config_hash
    # the record's config too: 30 and 30.0 compare equal, their JSON does not
    assert repr(ExperimentConfig(**typed).settings()) == repr(config_from_args(argv).settings())


# the payload keys of every record-writing command; a new field on a report
# record type changes the records and must change this table too
PAYLOAD_KEYS = {
    "coeffs": {"n", "S", "alpha", "alpha_bar", "a", "b", "N", "K2_inv_sq", "Q", "sharp_constant"},
    "spectrum": {"n", "density", "eigenvalues", "normalized_invariants", "residuals", "odd_shares"},
    "minimize": {
        "n", "k", "best_coeffs", "best_objective", "final_objective", "diagnostics", "restarts"
    },
    "bubble-sweep": {"n", "eps", "Y", "A", "C", "residual", "oracle", "A_rel_error"},
    "lemma3-bound": {
        "n", "mu1", "eps", "bounds", "best_eps", "best_bound", "rhs", "ratio", "hypothesis_ok"
    },
    "audit": {"n", "reports", "elementary_inequality"},
}


@pytest.mark.parametrize("command", list(PAYLOAD_KEYS))
def test_record_payload_keys(out_root, command):
    extra = {"iterations": 0, "restarts": 2} if command == "minimize" else {}
    record = dispatch(ExperimentConfig(command=command, n=12, **extra))
    run_dir = out_root / record.config_hash
    # each number once: no file repeats the record's arrays
    assert {p.name for p in run_dir.iterdir()} == {"record.json", "meta.json"} | (
        {"trace.csv"} if command == "minimize" else set()
    )
    doc = json.loads((run_dir / "record.json").read_text())
    assert set(doc) == {"schema", "config_hash", "version", "payload", "config"}
    assert set(doc["payload"]) == PAYLOAD_KEYS[command]
    if command == "coeffs":
        assert set(doc["payload"]["sharp_constant"]) == {
            "oracle", "paper_formula", "sphere_volume_formula", "ratios"
        }
    if command == "audit":
        for report in doc["payload"]["reports"]:
            assert set(report) == {"name", "lhs", "rhs", "ratio", "verdict", "details"}
        assert doc["payload"]["elementary_inequality"] == {
            "p3": {"C": 8.0, "sharp_C": 3.0}, "p4": {"C": 16.0, "sharp_C": 7.0}
        }
    if command == "lemma3-bound":
        from paneitz_lab.einstein import sharp_constant_oracle

        # the round sphere's first invariant, the one mu1 the command takes
        assert doc["payload"]["mu1"] == sharp_constant_oracle(12)
    if command == "minimize":
        for restart in doc["payload"]["restarts"]:
            assert set(restart) == {
                "label", "status", "iterations", "terminal_lambda_bar", "stationarity",
                "pencil_solves", "rejected_trials",
            }
            assert (restart["pencil_solves"], restart["rejected_trials"]) == (1, 0)
        header = (run_dir / "trace.csv").read_text().splitlines()[0]
        assert header == "restart,label,iter,objective,grad_norm,gap,residual"


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_audit_runs_in_low_dimensions(out_root, n):
    # the Euclidean check's core radius follows n: R = 50 leaves too much
    # of the n = 5 bubble's mass in the tail
    assert main(["audit", "--n", str(n)]) == 0


@pytest.mark.parametrize("n", [51, 52, 60, 326, 327, 334])
def test_audit_records_hold_no_nan(out_root, n):
    # a NaN side once reached the record as a "violated" verdict from n = 52
    # on; from n = 327 on the bubble's L^N mass is subnormal, and the
    # corollary is evaluated at a power-of-two amplitude (the ratio's error
    # is the radial grid's: at most 5.1e-14 here)
    assert main(["audit", "--n", str(n)]) == 0
    (record,) = out_root.glob("*/record.json")
    doc = json.loads(record.read_text(), parse_constant=lambda c: pytest.fail(f"{c} in record"))
    for rep in doc["payload"]["reports"]:
        assert all(math.isfinite(rep[key]) for key in ("lhs", "rhs", "ratio"))
    (corollary,) = [r for r in doc["payload"]["reports"] if r["name"] == "euclidean-corollary"]
    assert corollary["ratio"] == pytest.approx(2 ** (4 / n), rel=1e-13)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [258, 334])
def test_minimize_in_high_dimensions(out_root, n):
    # the two-bubble start's |q|^(2N) overflows from n = 258 on unless the
    # L^N mass is taken of q / max|q|
    assert main(["minimize", "--n", str(n), "--restarts", "2", "--iterations", "5"]) == 0
    (record,) = out_root.glob("*/record.json")
    doc = json.loads(record.read_text(), parse_constant=lambda c: pytest.fail(f"{c} in record"))
    payload = doc["payload"]
    assert all(math.isfinite(v) for v in payload["best_coeffs"])
    assert math.isfinite(payload["best_objective"]) and math.isfinite(payload["final_objective"])
    assert payload["diagnostics"]["attainment_product"] >= 1 - 1e-8


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [300, 334])
def test_overflowing_two_plane_density_is_refused_quietly(out_root, n):
    # u_eps overflows at the nodes: refused by name before the plane's
    # minimax runs, with no numpy warning on the way
    message = f"error: the two-plane bound at n={n}, eps=0.05 is not finite (nan)"
    with pytest.raises(SystemExit, match=re.escape(message)):
        main(["lemma3-bound", "--n", str(n)])
    assert not list(out_root.glob("*/record.json"))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [140, 151])
def test_overflowing_bubble_mass_gives_finite_records(out_root, n):
    # |phi_eps|^N overflows at eps = 0.05 and q = 1600 from n = 131 on; the
    # sweep once wrote NaN and the bound refused a zero field (c_eps = 0)
    assert main(["lemma3-bound", "--n", str(n), "--q", "1600", "--L", "400"]) == 0
    assert main(["bubble-sweep", "--n", str(n), "--q", "1600"]) == 0
    payloads = {}
    for record in out_root.glob("*/record.json"):
        doc = json.loads(record.read_text(), parse_constant=lambda c: pytest.fail(f"{c} in record"))
        payloads[doc["config"]["command"]] = doc["payload"]
    bound, sweep = payloads["lemma3-bound"], payloads["bubble-sweep"]
    assert all(math.isfinite(b) for b in bound["bounds"])
    assert 1 <= bound["ratio"] < 1.001
    assert all(math.isfinite(y) for y in sweep["Y"])
    # the well-resolved samples sit at or above the sharp constant
    assert min(sweep["Y"][1:]) >= sweep["oracle"] * (1 - 1e-9)


TWO_BUBBLE_STARTS = [["spectrum", "--density", "two-bubble"], ["minimize", "--restarts", "2"]]


@pytest.mark.parametrize("argv", TWO_BUBBLE_STARTS)
@pytest.mark.parametrize("n, q, nearest", [(12, 3, "1.107"), (50, 8, "1.032"), (300, 35, "1.005")])
def test_a_two_bubble_start_with_no_node_near_a_pole_is_refused_by_name(out_root, argv, n, q, nearest):
    # the bubbles vanish from 2 CUTOFF_RADIUS = 1 rad off each pole; with no
    # Gauss node that close the start is zero at every node
    message = (
        f"error: the two-bubble start is zero at every node at n={n}, q={q}: the bubbles "
        f"vanish from 1 rad off each pole, and the nearest node lies {nearest} rad off one"
    )
    with pytest.raises(SystemExit, match=re.escape(message)):
        main([*argv, "--n", str(n), "--q", str(q), "--L", "2"])
    assert not out_root.exists()


@pytest.mark.parametrize("argv", TWO_BUBBLE_STARTS)
@pytest.mark.parametrize("n, q", [(12, 4), (50, 9), (300, 36)])
def test_a_two_bubble_start_with_a_node_near_each_pole_runs(out_root, argv, n, q):
    # one node more puts one 0.974, 0.992 and 0.997 rad off each pole
    assert main([*argv, "--n", str(n), "--q", str(q), "--L", "2"]) == 0
    (record,) = out_root.glob("*/record.json")
    assert json.loads(record.read_text())["config"]["q"] == q


def _fresh_python(*args):
    """Run a new interpreter with args that imports this checkout's package."""
    src = str(Path(paneitz_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_module_entry_writes_its_record(tmp_path):
    done = _fresh_python("-m", "paneitz_lab.cli", "coeffs", "--n", "5", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    (run_dir,) = [
        line.removeprefix("run directory: ")
        for line in done.stdout.splitlines()
        if line.startswith("run directory: ")
    ]
    assert (Path(run_dir) / "record.json").is_file()


def test_module_entry_refuses_without_a_traceback(out_root):
    done = _fresh_python("-m", "paneitz_lab.cli", "coeffs", "--n", "343")
    assert done.returncode == 1
    assert done.stderr.startswith("error: dimension n = 343 is too large")
    assert "Traceback" not in done.stderr
    assert not out_root.exists()


def test_process_entry_freezes_the_heap_for_shutdown(tmp_path):
    code = """
import gc, sys
from paneitz_lab.cli import entry
assert gc.get_freeze_count() == 0
assert entry() == 0
assert gc.get_freeze_count() > 0
"""
    done = _fresh_python("-c", code, "coeffs", "--n", "5", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr


def test_cli_import_leaves_scipy_out():
    done = _fresh_python("-c", "import paneitz_lab.cli, sys; assert 'scipy' not in sys.modules")
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
    done = _fresh_python("-c", code, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert len(list(tmp_path.glob("*/record.json"))) == 6


def test_default_minimize_leaves_bubbles_unloaded(tmp_path):
    # the default descends the constant start alone, so only a two-bubble
    # start or density imports paneitz_lab.bubbles
    code = """
import sys
sys.modules["paneitz_lab.bubbles"] = None
from paneitz_lab.cli import main
assert main(["minimize", "--k", "2", "--iterations", "5", "--n", "12", "--out", sys.argv[1]]) == 0
"""
    done = _fresh_python("-c", code, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert len(list(tmp_path.glob("*/record.json"))) == 1


def test_closed_form_commands_run_without_numpy(tmp_path):
    # coeffs and report compute nothing with arrays: with numpy blocked they
    # write the same bytes as an unblocked run
    code = """
import sys
if sys.argv[2] == "blocked":
    sys.modules["numpy"] = None
from paneitz_lab.cli import main
for argv in (["coeffs"], ["coeffs", "--S", "30"], ["report"]):
    assert main([*argv, "--n", "12", "--out", sys.argv[1]]) == 0, argv
"""
    outputs = {}
    for mode in ("blocked", "unblocked"):
        out = tmp_path / mode
        done = _fresh_python("-c", code, str(out), mode)
        assert done.returncode == 0, done.stderr
        outputs[mode] = {
            path.relative_to(out): path.read_bytes()
            for path in sorted(out.rglob("*"))
            if path.is_file() and path.name != "meta.json"
        }
    # numpy maps to None there, which is a key of sys.modules but no version
    metas = [json.loads(path.read_text()) for path in (tmp_path / "blocked").glob("*/meta.json")]
    assert len(metas) == 2 and all("python" in meta for meta in metas)
    assert not any(meta.keys() & {"numpy", "blas", "OPENBLAS_NUM_THREADS"} for meta in metas)
    assert len(outputs["blocked"]) == 2 + 1  # record.json per run, the report's summary.json
    assert outputs["blocked"] == outputs["unblocked"]


def test_commands_run_without_dataclasses(tmp_path):
    # no module of the package builds a dataclass, numpy.random is read only
    # for a Krylov solve, and numpy.ma not at all: with the
    # three blocked, the seven commands of the cli-cold benchmark write the
    # same bytes as an unblocked run, and coeffs and report load no inspect
    code = """
import sys
if sys.argv[2] == "blocked":
    sys.modules["dataclasses"] = sys.modules["numpy.random"] = sys.modules["numpy.ma"] = None
from paneitz_lab.cli import main
commands = (
    ["coeffs"],
    ["report"],
    ["spectrum", "--k", "3", "--density", "two-bubble"],
    ["bubble-sweep"],
    ["lemma3-bound"],
    ["audit"],
    ["minimize", "--k", "2", "--restarts", "2", "--iterations", "50"],
    ["report"],
)
for i, argv in enumerate(commands):
    assert main([*argv, "--n", "12", "--seed", "0", "--out", sys.argv[1]]) == 0, argv
    if i == 1:
        assert "inspect" not in sys.modules
"""
    outputs = {}
    for mode in ("blocked", "unblocked"):
        out = tmp_path / mode
        done = _fresh_python("-c", code, str(out), mode)
        assert done.returncode == 0, done.stderr
        outputs[mode] = {
            path.relative_to(out): path.read_bytes()
            for path in sorted(out.rglob("*"))
            if path.is_file() and path.name != "meta.json"
        }
    # a record.json per command, minimize's trace.csv, the report's summary.json
    assert len(outputs["blocked"]) == 6 + 1 + 1
    assert outputs["blocked"] == outputs["unblocked"]


def test_report_loads_no_package_module_but_cli(tmp_path):
    code = """
import sys
from paneitz_lab.cli import main
assert main(["report", "--out", sys.argv[1]]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "paneitz_lab"))
"""
    done = _fresh_python("-c", code, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "['paneitz_lab', 'paneitz_lab.cli']"


def test_constant_spectrum_leaves_the_optimizer_unloaded(tmp_path):
    code = """
import sys
from paneitz_lab.cli import main
assert main(["spectrum", "--density", "const", "--n", "12", "--out", sys.argv[1]]) == 0
assert "paneitz_lab.optimizer" not in sys.modules
"""
    done = _fresh_python("-c", code, str(tmp_path))
    assert done.returncode == 0, done.stderr
