"""The benchmark's workloads: fixed job lists, warm-up jobs and output checks.

Every job is a closed-loop step: the benchmark calls ``run`` (timed), then
``check`` (untimed), then starts the next job.  ``run`` reaches the package
only through module attributes (``spectral.round_setup``), never through
names bound at import, so the tracing wrappers see every call.

Checks come from mathematics and independent oracles, never from outputs
pinned at some commit.  ``known_defects`` lists the (job, check) pairs that
fail at the commit that introduced the benchmark; see README.md.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import paneitz_lab.bubbles as bubbles
import paneitz_lab.einstein as einstein
import paneitz_lab.optimizer as optimizer
import paneitz_lab.spectral as spectral
import paneitz_lab.toolkit as toolkit
import paneitz_lab.zonal as zonal

import spans

HERE = Path(__file__).resolve().parent
RESIDUAL_TOL = 1e-10
ROUNDOFF = 1e-9  # relative slack on exact inequalities between computed values


@dataclass
class Job:
    """One unit of user work.  ``run(tracer)`` returns the outputs that
    ``check(outputs)`` turns into ({check: passed}, {value: number})."""

    name: str
    run: Callable
    check: Callable


@dataclass
class Workload:
    name: str
    modules: list[str]                      # imported by the user's process
    jobs: Callable[[int], list[Job]]        # seed -> fixed job list
    warmup: Callable[[], None]
    expected_layers: list[str]              # span names that must record calls
    known_defects: dict[str, set[str]] = field(default_factory=dict)
    in_process: bool = True
    calibration: str = "sampled"            # how job times are calibrated, see calib.py


# ---------------------------------------------------------------------------
# descent: the k = 2 regime of the paper


def _descent_run(seed: int):
    config = optimizer.OptimizerConfig(n=12, k=2, seed=seed)
    result = optimizer.minimize(config)
    setup = spectral.round_setup(config.n, q=config.q_nodes, L=config.L_opt)
    u = spectral.density_from_sqrt_field(zonal.ZonalField(setup.basis, result.best.coeffs), setup.coeffs.N)
    spec = spectral.solve_density(setup, u, 2)
    v, w = spec.eigenfields
    profile = toolkit.nodal_profile(w, u, v)
    residual = toolkit.fixed_point_residual(w, u)
    return result, spec, profile, residual


def _descent_check(out):
    result, spec, profile, residual = out
    n = result.config.n
    K = einstein.sharp_constant_oracle(n)
    final, engine = result.final_objective, result.best_objective
    checks = {
        "final_between_sharp_and_engine": K * (1 - ROUNDOFF) <= final <= engine * (1 + ROUNDOFF),
        "winner_is_nodal": profile.sign_changes >= 1,
        "eigen_residual": float(np.max(spec.residuals)) <= RESIDUAL_TOL,
    }
    values = {
        "mu2_excess": final / (2.0 ** (4.0 / n) * K) - 1.0,
        "fixed_point_residual": residual,
        "iterations": sum(len(t.objectives) for t in result.traces),
    }
    return checks, values


def _descent_jobs(seed: int) -> list[Job]:
    return [
        Job(f"minimize-seed{seed + i}", lambda tracer, s=seed + i: _descent_run(s), _descent_check)
        for i in range(3)
    ]


def _descent_warmup():
    optimizer.minimize(optimizer.OptimizerConfig(n=12, k=2, restarts=2, max_iters=20))


DESCENT = Workload(
    name="descent",
    modules=["paneitz_lab.optimizer", "paneitz_lab.toolkit"],
    jobs=_descent_jobs,
    warmup=_descent_warmup,
    expected_layers=[
        "optimizer.minimize",
        "spectral.solve_generalized_eigen",
        "spectral.assemble_mass",
        "toolkit.nodal_profile",
        "toolkit.fixed_point_residual",
    ],
)


# ---------------------------------------------------------------------------
# fine-grid: large quadratures, few large pencils

FINE_GRID = ((12, 200, 48), (12, 1600, 400), (20, 1600, 400), (30, 1600, 400))


def _fine_run(n: int, q: int, L: int, rng_seed):
    setup = spectral.round_setup(n, q=q, L=L)
    N = setup.coeffs.N
    u_const = spectral.constant_density(setup.basis, N)
    spec_const = spectral.solve_density(setup, u_const, 2)
    rng = np.random.default_rng(rng_seed)
    c = np.zeros(setup.basis.dim)
    c[:9] = rng.standard_normal(9) * 0.5 ** np.arange(9)
    c[0] += 1.0
    u_rand = spectral.density_from_sqrt_field(zonal.ZonalField(setup.basis, c), N)
    spec_rand = spectral.solve_density(setup, u_rand, 2)
    lam1 = spectral.normalized_invariant(spec_const, u_const, 1)
    sweep = bubbles.epsilon_sweep(bubbles.DEFAULT_EPS_GRID, n, q=q)
    bound = bubbles.lemma3_bound(n, einstein.sharp_constant_oracle(n), bubbles.DEFAULT_EPS_GRID, q=q, L=L)
    return setup.rule, lam1, (spec_const, spec_rand), sweep, bound


_GEGENBAUER: dict[tuple[int, int], np.ndarray] = {}


def _gegenbauer_weights(n: int, q: int) -> np.ndarray:
    """Independent oracle: Gauss weights for (1-x^2)^((n-2)/2) on [-1, 1],
    scaled by Vol(S^(n-1)) like the package's rule.  scipy.special is
    imported here, so that only fine-grid's peak RSS carries it."""
    if (n, q) not in _GEGENBAUER:
        from scipy.special import roots_gegenbauer

        _, w = roots_gegenbauer(q, (n - 1) / 2)
        _GEGENBAUER[(n, q)] = w * einstein.euclidean_sphere_area(n)
    return _GEGENBAUER[(n, q)]


def _fine_check(out):
    rule, lam1, spectra, sweep, bound = out
    n, q = rule.n, len(rule.nodes)
    K = einstein.sharp_constant_oracle(n)
    weight_sum_err = abs(rule.weights.sum() / einstein.sphere_volume(n) - 1.0)
    weight_err = float(np.max(np.abs(rule.weights / _gegenbauer_weights(n, q) - 1.0)))
    lam1_err = lam1 / K - 1.0
    residual = max(float(np.max(s.residuals)) for s in spectra)
    sweep_min = float(np.min(sweep.Y)) / K - 1.0
    checks = {
        "weights_sum_to_volume": weight_sum_err <= 1e-12,
        "weights_match_gegenbauer": weight_err <= 1e-8,
        "lambda1_constant_is_sharp": abs(lam1_err) <= 1e-8,
        "eigen_residual": residual <= RESIDUAL_TOL,
        "sweep_not_below_sharp": sweep_min >= -ROUNDOFF,
    }
    values = {
        "weight_rel_err": weight_err,
        "lambda1_rel_err": lam1_err,
        "sweep_min_rel": sweep_min,
        "residual_max": residual,
        "bound_ratio": bound.ratio,
    }
    return checks, values


def _fine_jobs(seed: int) -> list[Job]:
    return [
        Job(f"n{n}-q{q}-L{L}", lambda tracer, a=(n, q, L, [seed, i]): _fine_run(*a), _fine_check)
        for i, (n, q, L) in enumerate(FINE_GRID)
    ]


FINE = Workload(
    name="fine-grid",
    modules=["paneitz_lab.spectral", "paneitz_lab.bubbles"],
    jobs=_fine_jobs,
    warmup=lambda: _fine_run(12, 200, 48, 0),
    expected_layers=[
        "zonal.build_quadrature",
        "zonal.build_basis",
        "spectral.round_setup",
        "spectral.solve_generalized_eigen",
        "bubbles.epsilon_sweep",
        "bubbles.lemma3_bound",
        "bubbles.profile_quotient",
        "bubbles.bubble_field",
    ],
    # Measured when the benchmark was added (ROADMAP items 1 and 5): the
    # Golub-Welsch weights lose relative accuracy near the poles, and at
    # q = 200 the eps = 0.05 bubble quotient falls below the sharp constant.
    known_defects={
        "n12-q200-L48": {"sweep_not_below_sharp"},
        "n12-q1600-L400": {"weights_match_gegenbauer"},
        "n20-q1600-L400": {"weights_match_gegenbauer"},
        "n30-q1600-L400": {"weights_match_gegenbauer", "lambda1_constant_is_sharp"},
    },
    # large-matrix LAPACK and BLAS: the small reference step would track
    # the machine's spells worse than the job's own wall time
    calibration="dense",
)


# ---------------------------------------------------------------------------
# cli-cold: one fresh CLI process per subcommand

CLI_COMMANDS = (
    ("coeffs", []),
    ("spectrum", ["--k", "3", "--density", "two-bubble"]),
    ("bubble-sweep", []),
    ("lemma3-bound", []),
    ("audit", []),
    ("minimize", ["--k", "2", "--restarts", "2", "--iterations", "50"]),
    ("report", []),
)


@dataclass
class ChildResult:
    status: int
    seconds: float
    maxrss_kb: int
    log: str


def spawn(argv: list[str], env: dict, log_path: Path) -> ChildResult:
    """Run a child to completion with stdout and stderr in ``log_path``.

    ``wait4`` gives the rusage of this one child, so its peak RSS is its own.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(log_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - t0
    return ChildResult(os.waitstatus_to_exitcode(status), seconds, usage.ru_maxrss, log_path.read_text())


def child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PANEITZ_LAB_OUT"}
    env["PYTHONPATH"] = str(src)
    return env


class CliJobs:
    """Builds the cli-cold job list for one output root."""

    def __init__(self, src: Path, work: Path):
        self.env = child_env(src)
        self.work = work
        self.out = work / "runs"
        self.first_bytes: dict[str, bytes] = {}

    def _run(self, command: str, args: list[str], tracer):
        log = self.work / f"{command}.log"
        if tracer is None:
            argv = [sys.executable, "-m", "paneitz_lab.cli", *args]
            return spawn(argv, self.env, log)
        span_file = self.work / f"{command}.spans.json"
        argv = [sys.executable, str(HERE / "child.py"), "cli", str(span_file), "--", *args]
        result = spawn(argv, self.env, log)
        tracer.merge(json.loads(span_file.read_text()), tracer.current())
        return result

    def _check(self, command: str, result: ChildResult):
        if command == "report":
            doc_path = self.out / "report" / "summary.json"
        else:
            run_dirs = [line.split(":", 1)[1].strip() for line in result.log.splitlines() if line.startswith("run directory:")]
            doc_path = Path(run_dirs[-1]) / "record.json" if run_dirs else self.out / "missing"
        raw = doc_path.read_bytes() if result.status == 0 and doc_path.exists() else b""
        first = self.first_bytes.setdefault(command, raw)
        schema = json.loads(raw).get("schema") if raw else None
        checks = {
            "exit_status_zero": result.status == 0,
            "record_schema_1": schema == 1,
            "record_byte_identical": raw == first,
        }
        written = sum(p.stat().st_size for p in doc_path.parent.iterdir()) if raw else 0
        return checks, {"maxrss_kb": result.maxrss_kb, "bytes_written": written}

    def jobs(self, seed: int) -> list[Job]:
        out = []
        for command, extra in CLI_COMMANDS:
            args = [command, *extra, "--n", "12", "--seed", str(seed), "--out", str(self.out)]
            out.append(
                Job(
                    command,
                    lambda tracer, c=command, a=args: self._run(c, a, tracer),
                    lambda o, c=command: self._check(c, o),
                )
            )
        return out

    def warmup(self) -> None:
        # a throwaway output root, so the report job sees only its own records
        self._run("coeffs", ["coeffs", "--n", "12", "--out", str(self.work / "warmup")], None)


def cli_workload(src: Path, work: Path) -> Workload:
    cli = CliJobs(src, work)
    return Workload(
        name="cli-cold",
        modules=spans.module_names()[1:],
        jobs=cli.jobs,
        warmup=cli.warmup,
        expected_layers=["import.numpy", "cli.dispatch", "cli.runner", "sobolev.lemma1_audit", "optimizer.minimize"],
        in_process=False,
        calibration="bracketed",
    )


def get(name: str, src: Path, work: Path) -> Workload:
    if name == "cli-cold":
        return cli_workload(src, work)
    return {"descent": DESCENT, "fine-grid": FINE}[name]

