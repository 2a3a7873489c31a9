"""Measurement loop, metrics and report of the paneitz-lab benchmark.

Imported by run.py after BLAS is pinned and ``src/`` is on the path.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import calib
import spans
import workloads

HERE = Path(__file__).resolve().parent
MODULES = ("bench", "import", "einstein", "zonal", "spectral", "toolkit", "optimizer", "bubbles", "sobolev", "cli")

SETUP_SAMPLES = 10  # fresh interpreters timed per run
SETUP_BEFORE = 2    # of them before the first pass, then one after each pass


def metric_units(root: Path, kind: str) -> dict[str, str]:
    """Metric name -> unit of one kind ("end_to_end" or "per_layer"), in the
    order of BENCHMARK.json, the one list of the benchmark's metrics."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _select(metrics: dict[str, float], units: dict[str, str]) -> dict[str, float]:
    """``metrics`` in the order of ``units``; they must name the same metrics."""
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics computed and listed in BENCHMARK.json differ: {sorted(set(metrics) ^ set(units))}")
    return {k: metrics[k] for k in units}


@dataclass
class JobRecord:
    pass_index: int
    traced: bool
    name: str
    seconds: float  # calibrated, see calib.py
    wall: float = 0.0
    error: str | None = None
    checks: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)


@dataclass
class Pass:
    index: int
    traced: bool
    span_lo: int = 0
    span_hi: int = 0
    counters: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# environment


def _blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS reports, asked through its own API."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def _cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path, seed: int, jobs) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads_reported": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "jobs": [job.name for job in jobs],
        "load_model": "closed loop, 1 client",
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root / "src"),
    }


# ---------------------------------------------------------------------------
# measurement


class SetupProbe:
    """Calibrated wall time of fresh interpreters importing the workload's
    modules.

    ``SETUP_SAMPLES`` starts per run, spread over it: ``SETUP_BEFORE``
    before the first pass, one after each pass, the rest after the last.
    One untimed start first compiles bytecode and fills the file cache,
    costs a user pays once.
    """

    def __init__(self, workload, src: Path, work: Path):
        self.argv = [sys.executable, str(HERE / "child.py"), "imports", *workload.modules]
        self.env = workloads.child_env(src)
        self.log = work / "setup.log"
        self.times: list[float] = []  # calibrated
        self.walls: list[float] = []
        self.layers: list[dict] = []
        self._spawn()

    def _spawn(self):
        r = workloads.spawn(self.argv, self.env, self.log)
        if r.status != 0:
            raise RuntimeError(f"import child failed:\n{r.log}")
        return r

    def sample(self, upto: int) -> None:
        """Time fresh starts until ``upto`` have been taken in this run."""
        while len(self.times) < upto:
            r = self._spawn()
            steps = json.loads(r.log.strip().splitlines()[-1])
            self.times.append(calib.calibrated_start(r.seconds, steps["numpy"] + steps["scipy"]))
            self.walls.append(r.seconds)
            self.layers.append(steps)

    def seconds(self) -> float:
        """The median start.  The fastest start spread more from run to run
        on a shared machine, since fast spells of its CPU come and go."""
        return statistics.median(self.times)


def run_job(job, pass_index: int, tracer, inst, ref: calib.Reference, mode: str) -> JobRecord:
    """Run, time and check one job, calibrated by ``mode`` (calib.py).
    Traced jobs are bracketed rather than sampled, so that no sample lands
    inside a span."""
    rec = JobRecord(pass_index, tracer is not None, job.name, 0.0)
    out = None
    timing = calib.Timing()
    try:
        if tracer is None:
            with ref.timed(mode) as timing:
                out = job.run(None)
        else:
            with inst, ref.timed("bracketed" if mode == "sampled" else mode) as timing:
                root = tracer.open(spans.ROOT_SPAN)
                try:
                    out = job.run(tracer)
                finally:
                    tracer.close(root)
    except Exception:
        rec.error = traceback.format_exc()
    rec.wall, rec.seconds = timing.wall, timing.seconds
    if rec.error is None:
        try:
            checks, rec.values = job.check(out)
            rec.checks = {k: bool(v) for k, v in checks.items()}
        except Exception:
            rec.error = traceback.format_exc()
    return rec


def run_loop(jobs, seconds: float, trace: bool, tracer, inst, setup: SetupProbe,
             ref: calib.Reference, mode: str) -> tuple[list[JobRecord], list[Pass]]:
    """Repeat the job list while another pass fits in ``seconds``."""
    records, passes, walls = [], [], []
    start = time.perf_counter()
    setup.sample(SETUP_BEFORE)
    while True:
        p = Pass(len(passes), trace and len(passes) % 2 == 1)
        if p.traced:
            p.span_lo, before = len(tracer), dict(tracer.counters)
        t0 = time.perf_counter()
        for job in jobs:
            if p.traced:
                tracer.job += 1
            records.append(run_job(job, p.index, tracer if p.traced else None, inst, ref, mode))
        setup.sample(min(len(setup.times) + 1, SETUP_SAMPLES))
        walls.append(time.perf_counter() - t0)
        if p.traced:
            p.span_hi = len(tracer)
            p.counters = {k: v - before.get(k, 0.0) for k, v in tracer.counters.items()}
        passes.append(p)
        if len(passes) < (2 if trace else 1):
            continue
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            setup.sample(SETUP_SAMPLES)
            return records, passes


# ---------------------------------------------------------------------------
# metrics


def pass_totals(records, traced: bool, attr: str = "seconds") -> list[float]:
    """Job time of every complete pass, calibrated or (``attr="wall"``) not."""
    totals: dict[int, float] = {}
    for r in records:
        if r.traced == traced:
            totals[r.pass_index] = totals.get(r.pass_index, 0.0) + getattr(r, attr)
    return list(totals.values())


def end_to_end(workload, records, setup: SetupProbe) -> dict[str, float]:
    untraced = [r for r in records if not r.traced]
    if workload.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = max(r.values.get("maxrss_kb", 0) for r in untraced)
    return {
        "setup_s": setup.seconds(),
        "job_s_p50": statistics.median(r.seconds for r in untraced),
        "total_s": statistics.median(pass_totals(records, False)),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def _layers_of_pass(tracer, p: Pass, records) -> dict[str, float]:
    s = spans.summarize(tracer, p.span_lo, p.span_hi)
    calls, incl, own = s["calls"], s["incl"], s["self"]
    c = p.counters
    solves_in_minimize = spans.count_within(tracer, p.span_lo, p.span_hi, "spectral.solve_generalized_eigen", "optimizer.minimize")
    jobs = [r for r in records if r.pass_index == p.index]
    total = sum(r.wall for r in jobs)
    m = {
        "zonal.build_quadrature.calls": calls["zonal.build_quadrature"],
        "zonal.build_quadrature.s": incl["zonal.build_quadrature"],
        "zonal.build_basis.s": incl["zonal.build_basis"],
        "spectral.solve_generalized_eigen.calls": calls["spectral.solve_generalized_eigen"],
        "spectral.solve_generalized_eigen.s": incl["spectral.solve_generalized_eigen"],
        "spectral.solve_generalized_eigen.shifts": c.get("spectral.solve_generalized_eigen.shifts", 0.0),
        "spectral.pencil_dim_max": tracer.maxima["spectral.pencil_dim_max"],
        "spectral.assemble_mass.calls": calls["spectral.assemble_mass"],
        "spectral.assemble_mass.s": incl["spectral.assemble_mass"],
        "spectral.assemble_mass.flops": c.get("spectral.assemble_mass.flops", 0.0),
        "spectral.round_setup.calls": calls["spectral.round_setup"],
        "spectral.round_setup.s": incl["spectral.round_setup"],
        "optimizer.minimize.s": incl["optimizer.minimize"],
        "optimizer.iterations": c.get("optimizer.iterations", 0.0),
        "optimizer.accept_ratio": c.get("optimizer.iterations", 0.0) / solves_in_minimize if solves_in_minimize else 0.0,
        "optimizer.restarts_max_iters": c.get("optimizer.restarts_max_iters", 0.0),
        "bubbles.epsilon_sweep.s": incl["bubbles.epsilon_sweep"],
        "bubbles.lemma3_bound.s": incl["bubbles.lemma3_bound"],
        "bubbles.profile_quotient.calls": calls["bubbles.profile_quotient"],
        "bubbles.bubble_field.calls": calls["bubbles.bubble_field"],
        "toolkit.s": s["module_outer"]["toolkit"],
        "sobolev.s": s["module_outer"]["sobolev"],
        "einstein.s": s["module_outer"]["einstein"],
        "cli.runner.s": incl["cli.runner"],
        "cli.persist.s": own["cli.dispatch"],
        "cli.bytes_written": sum(r.values.get("bytes_written", 0) for r in jobs),
        **{f"{mod}.self_s": s["module_self"][mod] for mod in MODULES},
        "trace.self_sum_s": s["self_sum"],
        "trace.total_s": total,
        "trace.spans": p.span_hi - p.span_lo,
    }
    return m


def mu2_excess(records) -> float | None:
    """Median over the descent jobs of mu2-estimate / (2^(4/n) K2^-2) - 1."""
    excess = {r.name: r.values["mu2_excess"] for r in records if "mu2_excess" in r.values}
    return statistics.median(excess.values()) if excess else None


def per_layer(tracer, passes, records, setup: SetupProbe, ref: calib.Reference, units: dict[str, str]) -> dict[str, float]:
    per_pass = [_layers_of_pass(tracer, p, records) for p in passes if p.traced]
    m = {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
    for label in ("numpy", "scipy", "paneitz_lab"):
        m[f"import.{label}_s"] = statistics.median(d[label] for d in setup.layers)
    m["mu2_excess"] = mu2_excess(records) or 0.0
    m["trace.overhead_frac"] = statistics.median(pass_totals(records, True)) / statistics.median(pass_totals(records, False)) - 1.0
    m["calib.step_us"] = ref.median_step() * 1e6
    m["calib.job_wall_s_p50"] = statistics.median(r.wall for r in records if not r.traced)
    m["calib.total_wall_s"] = statistics.median(pass_totals(records, False, "wall"))
    return _select(m, units)


def check_layers(workload, tracer) -> None:
    """Every layer the workload exists to load must have been traced."""
    missing = [n for n in workload.expected_layers if n not in tracer.names]
    if missing:
        raise RuntimeError(f"{workload.name}: no spans recorded for {missing}")


# ---------------------------------------------------------------------------
# report


def _verdict(workload, records) -> tuple[bool, int, dict]:
    """(correct, failed jobs, failures per check).

    A failed job raised or failed a check.  The run stays correct while
    every failure is one of the workload's known defects.
    """
    correct, failed, per_check = True, 0, {}
    for r in records:
        bad = {name for name, ok in r.checks.items() if not ok}
        for name in r.checks:
            per_check.setdefault(name, 0)
        for name in bad:
            per_check[name] += 1
        if r.error:
            per_check["raised"] = per_check.get("raised", 0) + 1
        if bad or r.error:
            failed += 1
        if r.error or not bad <= workload.known_defects.get(r.name, set()):
            correct = False
    return correct, failed, per_check


def _print_jobs(workload, records) -> None:
    for r in records:
        bad = sorted(k for k, ok in r.checks.items() if not ok)
        known = workload.known_defects.get(r.name, set())
        status = "raised" if r.error else ("ok" if not bad else "FAIL " + ",".join(
            f"{b}{' (known defect)' if b in known else ''}" for b in bad))
        vals = " ".join(f"{k}={v:.4g}" for k, v in r.values.items())
        print(f"  pass {r.pass_index}{' traced' if r.traced else ''}  {r.name:<22} {r.seconds:9.4f} s "
              f"(wall {r.wall:.4f} s)  {status}  {vals}")
        if r.error:
            print("    " + r.error.strip().replace("\n", "\n    "))
        for name in sorted(known - set(bad)) if not r.error else ():
            print(f"    known defect no longer shows: {name}")


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, out_dir: Path) -> int:
    out_dir.mkdir(exist_ok=True)
    work = out_dir / f"work-{name}-{os.getpid()}"
    work.mkdir()
    try:
        return _run(name, seed, seconds, trace, root, out_dir, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(name, seed, seconds, trace, root, out_dir, work) -> int:
    src = root / "src"
    workload = workloads.get(name, src, work)
    jobs = workload.jobs(seed)
    env = environment(root, seed, jobs)
    print(f"== {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))

    ref = calib.Reference()
    setup = SetupProbe(workload, src, work)
    workload.warmup()
    ref.warm(workload.calibration)

    tracer = inst = None
    if trace:
        tracer = spans.Tracer()
        inst = spans.Instrumentation(tracer, spans.load_modules())
        with inst:
            stale = inst.unwrapped()
        if stale:
            raise RuntimeError(f"unwrapped bindings of traced functions: {stale}")
    records, passes = run_loop(jobs, seconds, trace, tracer, inst, setup, ref, workload.calibration)

    _print_jobs(workload, records)
    correct, failed, per_check = _verdict(workload, records)
    e2e = end_to_end(workload, records, setup)
    n_untraced = sum(not r.traced for r in records)
    n_passes = sum(not p.traced for p in passes)
    print("check failures: " + ", ".join(f"{k} {v}/{len(records)}" for k, v in sorted(per_check.items())))
    print(f"fail_frac {failed / len(records):.4f} ({failed} of {len(records)} jobs)")
    excess = mu2_excess(records)
    if excess is not None:
        print(f"mu2_excess {excess:.6f} (median of {len(jobs)} jobs)")
    print(f"job times calibrated: {workload.calibration} (calib.py); the reference step's median wall time "
          f"in this run was {ref.median_step() * 1e6:.2f} us over {len(ref.per_step)} samples; "
          f"starts calibrated by their own numpy and scipy.linalg import, defined as {calib.IMPORT_S} s")
    print(f"setup_s {e2e['setup_s']:.4f} s (median of {len(setup.times)} fresh interpreters; "
          f"wall median {statistics.median(setup.walls):.4f} s)")
    print(f"job_s_p50 {e2e['job_s_p50']:.4f} s (median of {n_untraced} untraced jobs; "
          f"wall median {statistics.median(r.wall for r in records if not r.traced):.4f} s)")
    print(f"total_s {e2e['total_s']:.4f} s (median of {n_passes} untraced passes of {len(jobs)} jobs; "
          f"wall median {statistics.median(pass_totals(records, False, 'wall')):.4f} s)")
    print(f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MB ({'this process' if workload.in_process else 'largest CLI child'})")

    if trace:
        check_layers(workload, tracer)
        units = metric_units(root, "per_layer")
        metrics = per_layer(tracer, passes, records, setup, ref, units)
        for k in units:
            print(f"  {k:<42} {metrics[k]:.6g} {units[k]}")
        overhead = metrics["trace.overhead_frac"] * metrics["calib.total_wall_s"]
        print(f"self times of a traced pass sum to {metrics['trace.self_sum_s']:.4f} s "
              f"(its wall job time {metrics['trace.total_s']:.4f} s); untraced wall total {metrics['calib.total_wall_s']:.4f} s; "
              f"tracing overhead {overhead:+.4f} s ({metrics['trace.overhead_frac']:+.1%}, from calibrated totals)")
        tracer.write_csv(out_dir / f"{name}-seed{seed}-spans.csv")
    else:
        units = metric_units(root, "end_to_end")
        metrics = _select(e2e, units)

    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = dict(result, env=env, failures_per_check=per_check, setup_calibrated=setup.times, setup_walls=setup.walls,
                  calibration=workload.calibration, reference_per_step=ref.per_step,
                  jobs=[{"pass": r.pass_index, "traced": r.traced, "name": r.name, "seconds": r.seconds, "wall": r.wall,
                         "checks": r.checks, "values": r.values, "error": r.error} for r in records])
    (out_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1, default=float) + "\n")
    print(json.dumps(result))
    return 0
