"""Command-line harness: configuration, dispatch, and run persistence.

Each invocation resolves to one ExperimentConfig (flat key=value file plus
command-line overrides), runs one subcommand, and persists a RunRecord as
runs/<config-hash>/record.json; minimize adds its per-state descent trace as
trace.csv.  COMMAND_KEYS names the keys each subcommand reads besides n;
with n they alone make its config hash and the config in its record, and
no command reads --seed.  record.json is a pure function of the config —
timestamps and wall-clock data go to a sibling meta.json so identical
configs produce byte-identical records.  numpy is imported by the runners
that compute with arrays, never here, so `coeffs` and `report` start
without it.
"""

import argparse
import datetime
import gc
import hashlib
import json
import math
import sys
import time
import types
import typing
from pathlib import Path

ARTIFACT_VERSION = "0.1.0"
SCHEMA = 1


class ExperimentConfig:
    """Every key a subcommand can read, with its type and default."""

    command: str
    n: int = 5
    S: float | None = None    # scalar curvature; None is the round sphere
    L: int = 48
    q: int = 200
    k: int = 2
    restarts: int = 1
    iterations: int = 60
    seed: int = 0             # read by nothing, see _COMMON_KEYS
    eps_grid: tuple[float, ...] = (0.05, 0.075, 0.1, 0.15, 0.2)  # bubbles.DEFAULT_EPS_GRID
    density: typing.Literal["const", "two-bubble"] = "const"
    out: str = "runs"         # output root; in neither the hash nor the record

    def __init__(self, command: str, **values):
        hints = ExperimentConfig.__annotations__
        unknown = values.keys() - hints.keys()
        if unknown:
            raise TypeError(f"unknown config keys: {', '.join(sorted(unknown))}")
        self.command = command
        for key in list(hints)[1:]:  # each key after command has its default here
            setattr(self, key, values.get(key, getattr(ExperimentConfig, key)))
        # checked and typed here, for flags and the Python API alike: a bad
        # density reaches no runner, and S = 30 is the run and record of S = 30.0
        if self.density not in typing.get_args(hints["density"]):
            raise SystemExit(f"invalid value for density: {self.density!r}")
        self.S = None if self.S is None else float(self.S)
        if self.S is not None and not math.isfinite(self.S):
            raise SystemExit(f"invalid value for S: {self.S!r} (must be finite)")
        for key, low in (("seed", 0), ("L", 0), ("q", 2), ("k", 1)):
            if getattr(self, key) < low:
                raise SystemExit(f"invalid value for {key}: {getattr(self, key)!r} (must be >= {low})")
        # audit's two eigenvalues and lemma3-bound's plane need two basis
        # functions, and minimize's k = 2 descent reads three eigenvalues
        least_L = {"audit": 1, "lemma3-bound": 1, "minimize": 2}.get(self.command, 0)
        if self.L < least_L:
            raise SystemExit(f"invalid value for L: {self.L} (must be >= {least_L})")
        if self.command == "spectrum" and self.k > self.L + 1:
            raise SystemExit(f"invalid value for k: {self.k} (must be <= L + 1 = {self.L + 1})")
        if {"q", "L"} <= set(COMMAND_KEYS[self.command]) and self.q <= self.L:
            raise SystemExit(f"invalid value for q: {self.q} (must be > L = {self.L})")
        self.eps_grid = tuple(map(float, self.eps_grid))
        if not all(map(math.isfinite, self.eps_grid)):
            raise SystemExit(f"invalid value for eps_grid: {self.eps_grid!r} (entries must be finite)")

    def __eq__(self, other) -> bool:
        return type(other) is ExperimentConfig and vars(self) == vars(other)

    def settings(self) -> dict:
        """command, n and the keys this command reads, sorted."""
        keys = ("command", "n", *COMMAND_KEYS[self.command])
        return {key: getattr(self, key) for key in sorted(keys)}

    def canonical(self) -> str:
        """key=value lines, every float as %.17g."""
        items = []
        for key, value in self.settings().items():
            if isinstance(value, float):
                value = f"{value:.17g}"
            elif isinstance(value, tuple):
                value = ",".join(f"{v:.17g}" for v in value)
            items.append(f"{key}={value}")
        return "\n".join(items)

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


# keys each subcommand reads besides n; every subcommand also takes --n,
# --seed and --out, and none of them reads (or hashes) the seed
COMMAND_KEYS = {
    "coeffs": ("S",),
    "spectrum": ("q", "L", "k", "density"),
    "minimize": ("q", "L", "k", "restarts", "iterations"),
    "bubble-sweep": ("q", "eps_grid"),
    "lemma3-bound": ("q", "L", "eps_grid"),
    "audit": ("q", "L"),
    "report": (),
}
# seed is read by nothing: kept, checked >= 0, as perfbench/workloads.py passes it
_COMMON_KEYS = ("n", "seed", "out")


class RunRecord(typing.NamedTuple):
    config_hash: str
    version: str
    payload: dict
    config: dict


def _jsonify(obj):
    """Recursively coerce numpy scalars/arrays for deterministic JSON.

    Both carry tolist(), which gives the plain Python float, int or bool,
    or nested lists of them, without this module importing numpy.
    """
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if hasattr(obj, "tolist"):
        return _jsonify(obj.tolist())
    return obj


# ---------------------------------------------------------------------------
# subcommand payloads


def _run_coeffs(config: ExperimentConfig):
    """Closed-form operator coefficients and the sharp-constant report."""
    from .einstein import EinsteinData, derive_coefficients, q_curvature_einstein
    from .einstein import round_sphere, sharp_constant_report

    data = round_sphere(config.n) if config.S is None else EinsteinData(n=config.n, S=config.S)
    coeffs = derive_coefficients(data)
    report = sharp_constant_report(data)
    sharp_constant = report._asdict()
    del sharp_constant["n"]
    payload = {
        "n": data.n,
        "S": data.S,
        "alpha": coeffs.alpha,
        "alpha_bar": coeffs.alpha_bar,
        "a": coeffs.a,
        "b": coeffs.b,
        "N": coeffs.N,
        "K2_inv_sq": coeffs.K2_inv_sq,
        "Q": q_curvature_einstein(data),
        "sharp_constant": sharp_constant,
    }
    summary = (
        f"n={data.n} alpha={coeffs.alpha:.6g} alpha_bar={coeffs.alpha_bar:.6g} "
        f"a={coeffs.a:.6g} b={coeffs.b:.6g} K2^-2={coeffs.K2_inv_sq:.6g} "
        f"(printed-formula ratio {report.ratios['paper_over_oracle']:.4g})"
    )
    return payload, summary


def _density_for(config: ExperimentConfig, setup):
    from .spectral import constant_density, density_from_sqrt_field

    if config.density == "const":
        return constant_density(setup.basis, setup.coeffs.N)
    from .optimizer import two_bubble_initializer

    return density_from_sqrt_field(two_bubble_initializer(setup.basis), setup.coeffs.N)


def _run_spectrum(config: ExperimentConfig):
    """Generalized eigenvalues for a named density."""
    from .spectral import normalized_invariant, round_setup, solve_density

    setup = round_setup(config.n, q=config.q, L=config.L)
    u = _density_for(config, setup)
    spec = solve_density(setup, u, config.k)
    lam_bar = [normalized_invariant(spec, u, j + 1) for j in range(len(spec))]
    # the share |v_odd|^2 / |v|^2 of each eigenvector's odd coefficients: for
    # an even density every eigenvector is even (0) or odd (1), up to rounding
    odd_shares = [(v.coeffs[1::2] @ v.coeffs[1::2]) / (v.coeffs @ v.coeffs) for v in spec.eigenfields]
    payload = {
        "n": config.n,
        "density": config.density,
        "eigenvalues": spec.eigenvalues,
        "normalized_invariants": lam_bar,
        "residuals": spec.residuals,
        "odd_shares": odd_shares,
    }
    summary = "lambda_bar = " + ", ".join(f"{v:.6g}" for v in lam_bar)
    return payload, summary


def _run_minimize(config: ExperimentConfig):
    """Descend the normalized eigenvalue invariant."""
    from .optimizer import OptimizerConfig, minimize

    res = minimize(
        OptimizerConfig(
            n=config.n,
            k=config.k,
            restarts=config.restarts,
            max_iters=config.iterations,
            q_nodes=config.q,
            L_final=config.L,
        )
    )
    rows = [
        [ridx, tr.start_label, it, *cols]
        for ridx, tr in enumerate(res.traces)
        for it, cols in enumerate(zip(tr.objectives, tr.grad_norms, tr.gaps, tr.residuals))
    ]
    payload = {
        "n": config.n,
        "k": config.k,
        "best_coeffs": res.best.coeffs,
        "best_objective": res.best_objective,
        "final_objective": res.final_objective,
        "diagnostics": res.diagnostics,
        "restarts": [
            {
                "label": tr.start_label,
                "status": tr.status,
                "iterations": len(tr.objectives) - 1,  # steps taken
                "terminal_lambda_bar": tr.objectives[-1],
                "stationarity": tr.stationarity,
                "pencil_solves": tr.pencil_solves,
                "rejected_trials": tr.rejected_trials,
            }
            for tr in res.traces
        ],
    }
    summary = (
        f"mu_{config.k} estimate: {res.final_objective:.8g} "
        f"(engine value {res.best_objective:.8g})"
    )
    header = ["restart", "label", "iter", "objective", "grad_norm", "gap", "residual"]
    return payload, summary, (header, rows)


def _run_bubble_sweep(config: ExperimentConfig):
    """Fit the small-eps expansion of the sharp quotient."""
    from .bubbles import epsilon_sweep
    from .einstein import sharp_constant_oracle

    rep = epsilon_sweep(config.eps_grid, config.n, q=config.q)
    oracle = sharp_constant_oracle(config.n)
    payload = {**rep._asdict(), "oracle": oracle, "A_rel_error": rep.A / oracle - 1.0}
    summary = (
        f"fit A={rep.A:.8g} (oracle {oracle:.8g}, rel err {payload['A_rel_error']:.3g}), "
        f"C={rep.C:.6g}, residual {rep.residual:.3g}"
    )
    return payload, summary


def _run_lemma3_bound(config: ExperimentConfig):
    """Two-plane upper bound from the two-component test density."""
    from .bubbles import lemma3_bound
    from .einstein import sharp_constant_oracle

    mu1 = sharp_constant_oracle(config.n)  # the round sphere's first invariant
    rep = lemma3_bound(config.n, mu1, config.eps_grid, q=config.q, L=config.L)
    payload = {"mu1": mu1, **rep._asdict()}
    summary = f"best bound {rep.best_bound:.8g} vs target {rep.rhs:.8g} (ratio {rep.ratio:.6g})"
    return payload, summary


def _run_audit(config: ExperimentConfig):
    """Audit the Sobolev-type inequalities and the elementary one's constant."""
    from .bubbles import elementary_inequality_constant
    from .sobolev import euclidean_corollary_check, lemma1_audit, refined_inequality_ratio
    from .spectral import constant_density, round_setup
    from .zonal import constant_field

    setup = round_setup(config.n, q=config.q, L=config.L)
    u = constant_density(setup.basis, setup.coeffs.N)
    v = constant_field(setup.basis)
    reports = [refined_inequality_ratio(u, v, setup.coeffs)]
    # the constant field attains the least A of Lemma 1 in every measured case
    reports += lemma1_audit(0.1, 2.0, [v], config.n)
    reports.append(euclidean_corollary_check(config.n))
    payload = {
        "n": config.n,
        "reports": [r._asdict() for r in reports],
        # C = 2^p, the constant acceptance criterion 12 samples, beside the sharp C_p
        "elementary_inequality": {
            f"p{p}": {"C": 2.0**p, "sharp_C": elementary_inequality_constant(p)} for p in (3, 4)
        },
    }
    summary = "; ".join(f"{r.name}: {r.verdict} (ratio {r.ratio:.6g})" for r in reports)
    return payload, summary


def dispatch(config: ExperimentConfig) -> RunRecord:
    """Execute one subcommand and persist its RunRecord."""
    runner = RUNNERS[config.command]
    if config.command == "report":
        return runner(config)
    t0 = time.perf_counter()
    payload, summary, *trace = runner(config)  # only minimize returns a trace table
    t1 = time.perf_counter()
    record = RunRecord(
        config_hash=config.config_hash,
        version=ARTIFACT_VERSION,
        payload=_jsonify(payload),
        config=_jsonify(config.settings()),
    )
    doc = {"schema": SCHEMA, **record._asdict()}
    # a NaN or Infinity is refused here, before the run directory exists
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    run_dir = Path(config.out) / config.config_hash
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "record.json").write_text(text)
    for header, rows in trace:  # per-state rows that no record holds
        import csv  # only minimize writes a trace, so no other command loads csv

        with open(run_dir / "trace.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows)
    # wall-clock data lives outside the deterministic record, written last
    # so that write_s covers the record and the trace
    meta = {
        "written": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "run_s": t1 - t0,
        "write_s": time.perf_counter() - t1,
        "python": ".".join(map(str, sys.version_info[:3])),
    }
    # a module, not merely a key: a run may map numpy to None to keep it out
    numpy = sys.modules.get("numpy")
    if isinstance(numpy, types.ModuleType):
        meta["numpy"] = numpy.__version__
    (run_dir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(f"[{config.command}] {summary}")
    print(f"run directory: {run_dir}")
    return record


def _run_report(config: ExperimentConfig) -> RunRecord:
    """Consolidate every valid record under the output root."""
    root = Path(config.out)
    rows = []
    for record_path in sorted(root.glob("*/record.json")):
        try:
            doc = json.loads(record_path.read_text())
            if not isinstance(doc, dict):
                raise ValueError("the record is not a JSON object")
            payload, settings = doc["payload"], doc["config"]
            if not (isinstance(payload, dict) and isinstance(settings, dict)):
                raise ValueError("payload and config must be JSON objects")
            diag = payload.get("diagnostics") or {}
            if not isinstance(diag, dict):
                raise ValueError("diagnostics must be a JSON object")
            cmd = settings["command"]
        except (ValueError, KeyError, OSError) as exc:  # JSONDecodeError is a ValueError
            print(f"warning: skipping corrupted record {record_path}: {exc}", file=sys.stderr)
            continue
        row = {
            "hash": doc.get("config_hash", record_path.parent.name),
            "command": cmd,
            "n": settings.get("n"),
        }
        if cmd == "minimize":
            row["mu_estimate"] = payload.get("final_objective")
            row["attainment_product"] = diag.get("attainment_product")
        elif cmd == "lemma3-bound":
            row["bound_ratio"] = payload.get("ratio")
        elif cmd == "bubble-sweep":
            row["A_rel_error"] = payload.get("A_rel_error")
        rows.append(row)
    if not rows:
        print("no runs found under", root)
        return RunRecord(config.config_hash, ARTIFACT_VERSION, payload={}, config={})
    keys = sorted({k for r in rows for k in r})
    report_dir = root / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    doc = {"schema": SCHEMA, "version": ARTIFACT_VERSION, "rows": _jsonify(rows)}
    (report_dir / "summary.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    for r in rows:
        print("  ".join(f"{k}={r[k]}" for k in keys if k in r and r[k] is not None))
    return RunRecord(config.config_hash, ARTIFACT_VERSION, payload=doc, config={})


RUNNERS = {
    "coeffs": _run_coeffs,
    "spectrum": _run_spectrum,
    "minimize": _run_minimize,
    "bubble-sweep": _run_bubble_sweep,
    "lemma3-bound": _run_lemma3_bound,
    "audit": _run_audit,
    "report": _run_report,
}


# ---------------------------------------------------------------------------
# argument handling


def _parse(key: str, text: str):
    """The value of one key from its text, typed by its ExperimentConfig field."""
    hint = ExperimentConfig.__annotations__[key]
    if typing.get_origin(hint) is typing.Literal:
        return text  # checked against its values by ExperimentConfig
    base = (typing.get_args(hint) or (hint,))[0]  # float | None, tuple[float, ...] -> float
    try:
        if typing.get_origin(hint) is tuple:
            return tuple(base(v) for v in text.split(","))
        return base(text)
    except ValueError:
        raise SystemExit(f"invalid value for {key}: {text!r}") from None


def _load_config_file(path: str) -> dict:
    """key -> text; a key that no subcommand reads is refused."""
    declared = set(_COMMON_KEYS).union(*COMMAND_KEYS.values())
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SystemExit(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in declared:
            raise SystemExit(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paneitz-lab",
        description="Numerical laboratory for fourth-order conformal eigenvalue invariants on round spheres.",
    )
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, keys in COMMAND_KEYS.items():
        p = sub.add_parser(name, help=RUNNERS[name].__doc__)
        for key in (*_COMMON_KEYS, *keys):
            p.add_argument("--" + key.replace("_", "-"), dest=key)
    return parser


def config_from_args(argv=None) -> ExperimentConfig:
    """Config file values overridden by flags; keys the command does not
    read are dropped, so one file can serve several commands."""
    args = vars(build_parser().parse_args(argv))
    command, path = args.pop("command"), args.pop("config")
    values = _load_config_file(path) if path else {}
    values.update((key, text) for key, text in args.items() if text is not None)
    read = {*_COMMON_KEYS, *COMMAND_KEYS[command]}
    return ExperimentConfig(
        command, **{key: _parse(key, text) for key, text in values.items() if key in read}
    )


def main(argv=None) -> int:
    config = config_from_args(argv)
    try:
        dispatch(config)
    except (ValueError,) as exc:
        raise SystemExit(f"error: {exc}")
    return 0


def entry() -> int:
    """Process entry of `paneitz-lab` and `python -m paneitz_lab.cli`.

    Runs main(), then freezes every object left alive, so the full garbage
    collections of interpreter shutdown skip numpy's, argparse's and the
    package's objects.  Normal finalization still runs: stdio flush, atexit,
    file closes.  Kept out of main() so that in-process callers see no
    process-wide change.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
