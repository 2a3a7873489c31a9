"""Span tracing of paneitz_lab from outside the package.

The benchmark never edits ``src/``.  Instead it replaces every public
function of every ``paneitz_lab`` module, and every other binding of that
function object (``from .x import f`` copies, dict values such as the CLI's
``RUNNERS``), with a wrapper that records a span.  A span is
(name, start, end, parent, job): ``perf_counter`` seconds, the index of the
enclosing span (-1 at the root) and the job it belongs to.  Spans stay in
memory; ``write_csv`` dumps them once the run is over.

This module imports only the standard library, so the traced CLI child can
time ``import numpy`` itself.
"""

from __future__ import annotations

import csv
import functools
import importlib
import importlib.util
import inspect
import pkgutil
import time
from collections import defaultdict

PACKAGE = "paneitz_lab"
ROOT_SPAN = "bench.job"


class Tracer:
    """In-memory span store plus work counters gathered by probes."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.job = -1
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(float("nan"))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.jobs.append(self.job)
        self._stack.append(i)
        return i

    def current(self) -> int:
        """Index of the innermost open span."""
        return self._stack[-1]

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        popped = self._stack.pop()
        if popped != i:
            raise RuntimeError(f"span {self.names[i]} closed out of order")

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """Record a finished span, e.g. one measured in a child process."""
        i = len(self.names)
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.jobs.append(self.job)
        return i

    def export(self) -> dict:
        """Spans and counters as JSON-ready data, for ``merge``."""
        return {
            "spans": [list(row) for row in zip(self.names, self.starts, self.ends, self.parents)],
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }

    def merge(self, doc: dict, parent: int) -> None:
        """Append spans exported by a child process under span ``parent``.

        ``perf_counter`` reads CLOCK_MONOTONIC on Linux, so child and parent
        timestamps share one time base.
        """
        base = len(self.names)
        for name, start, end, p in doc["spans"]:
            self.add(name, start, end, base + p if p >= 0 else parent)
        for key, value in doc["counters"].items():
            self.counters[key] += value
        for key, value in doc["maxima"].items():
            self.maxima[key] = max(self.maxima[key], value)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start", "end", "parent", "job"])
            for i in range(len(self.names)):
                out.writerow([i, self.names[i], repr(self.starts[i]), repr(self.ends[i]), self.parents[i], self.jobs[i]])


# ---------------------------------------------------------------------------
# probes: counters read from a traced call's arguments or result


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _probe_solve(tracer, args, kwargs, result):
    if result.shift > 0:
        tracer.counters["spectral.solve_generalized_eigen.shifts"] += 1
    dim = len(_arg(args, kwargs, 0, "A_diag"))
    tracer.maxima["spectral.pencil_dim_max"] = max(tracer.maxima["spectral.pencil_dim_max"], dim)


def _probe_mass(tracer, args, kwargs, result):
    # computed, not measured: one (dim x q) by (q x dim) product
    basis = _arg(args, kwargs, 1, "basis")
    tracer.counters["spectral.assemble_mass.flops"] += 2.0 * basis.dim**2 * len(basis.rule.nodes)


def _probe_minimize(tracer, args, kwargs, result):
    tracer.counters["optimizer.iterations"] += sum(len(t.objectives) for t in result.traces)
    tracer.counters["optimizer.restarts_max_iters"] += sum(t.status == "max-iters" for t in result.traces)


PROBES = {
    "spectral.solve_generalized_eigen": _probe_solve,
    "spectral.assemble_mass": _probe_mass,
    "optimizer.minimize": _probe_minimize,
}


# ---------------------------------------------------------------------------
# wrapping


def module_names() -> list[str]:
    """The package and every submodule, found without importing them."""
    spec = importlib.util.find_spec(PACKAGE)
    subs = pkgutil.iter_modules(spec.submodule_search_locations)
    return [PACKAGE] + [f"{PACKAGE}.{info.name}" for info in subs]


def load_modules() -> list:
    """The package and every submodule, imported."""
    return [importlib.import_module(name) for name in module_names()]


def span_name(module: str, attr: str) -> str | None:
    """Span name for a function defined in ``module``, or None if untraced.

    Public functions are traced under ``<module>.<name>``.  The CLI's
    subcommand runners are private, but the persistence split needs them,
    so all of them share the span ``cli.runner``.
    """
    short = module.rpartition(".")[2]
    if short == "cli" and attr.startswith("_run_"):
        return "cli.runner"
    if attr.startswith("_"):
        return None
    return f"{short}.{attr}"


def _wrap(fn, name: str, tracer: Tracer):
    probe = PROBES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if probe is not None:
            probe(tracer, args, kwargs, result)
        return result

    return traced


def _namespaces(mods):
    """Every dict that binds package functions: module globals and the
    dicts stored in them."""
    for mod in mods:
        ns = vars(mod)
        yield mod.__name__, ns
        for key, value in list(ns.items()):
            if isinstance(value, dict) and not key.startswith("__"):
                yield f"{mod.__name__}.{key}", value


class Instrumentation:
    """Wrappers for every traced function, applied and removed as a unit."""

    def __init__(self, tracer: Tracer, mods):
        self.mods = mods
        self.wrappers: dict[int, object] = {}
        self.names: dict[int, str] = {}
        for mod in mods:
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = span_name(mod.__name__, attr)
                    if name is not None:
                        self.wrappers[id(obj)] = _wrap(obj, name, tracer)
                        self.names[id(obj)] = name
        self._patches: list[tuple[dict, str, object]] = []

    def apply(self) -> None:
        for _, ns in _namespaces(self.mods):
            for key, value in list(ns.items()):
                wrapper = self.wrappers.get(id(value))
                if wrapper is not None and value is not wrapper:
                    ns[key] = wrapper
                    self._patches.append((ns, key, value))

    def restore(self) -> None:
        for ns, key, value in reversed(self._patches):
            ns[key] = value
        self._patches.clear()

    def unwrapped(self) -> list[str]:
        """Bindings that still hold an original traced function."""
        wrapped = {id(w) for w in self.wrappers.values()}
        return [
            f"{where}.{key}"
            for where, ns in _namespaces(self.mods)
            for key, value in ns.items()
            if id(value) in self.wrappers and id(value) not in wrapped
        ]

    def __enter__(self):
        self.apply()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# ---------------------------------------------------------------------------
# aggregation


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    count once, so the result never goes negative.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(starts)):
        lo, hi = starts[i], ends[i]
        covered, reach = 0.0, lo
        for c in sorted(children.get(i, ()), key=starts.__getitem__):
            s, e = max(starts[c], reach), min(ends[c], hi)
            if e > s:
                covered += e - s
                reach = e
        out.append(hi - lo - covered)
    return out


def module_of(name: str) -> str:
    return name.partition(".")[0]


def summarize(tracer: Tracer, lo: int, hi: int) -> dict:
    """Per-name and per-module totals over spans ``lo..hi-1``.

    ``calls``/``incl``/``self`` are keyed by span name; ``module_self`` sums
    self time by module and ``module_outer`` sums the spans of a module that
    no span of the same module encloses (time a caller spent inside it).
    """
    names = tracer.names[lo:hi]
    starts = tracer.starts[lo:hi]
    ends = tracer.ends[lo:hi]
    parents = [p - lo if p >= lo else -1 for p in tracer.parents[lo:hi]]
    selfs = self_times(starts, ends, parents)
    calls, incl, self_ = defaultdict(int), defaultdict(float), defaultdict(float)
    module_self, module_outer = defaultdict(float), defaultdict(float)
    modules = [module_of(n) for n in names]
    for i, name in enumerate(names):
        dur = ends[i] - starts[i]
        calls[name] += 1
        incl[name] += dur
        self_[name] += selfs[i]
        module_self[modules[i]] += selfs[i]
        p = parents[i]
        while p >= 0 and modules[p] != modules[i]:
            p = parents[p]
        if p < 0:
            module_outer[modules[i]] += dur
    return {
        "calls": calls,
        "incl": incl,
        "self": self_,
        "module_self": module_self,
        "module_outer": module_outer,
        "self_sum": sum(selfs),
    }


def count_within(tracer: Tracer, lo: int, hi: int, name: str, ancestor: str) -> int:
    """Spans called ``name`` that have an ``ancestor`` span above them."""
    inside = {}
    total = 0
    for i in range(lo, hi):
        p = tracer.parents[i]
        inside[i] = tracer.names[i] == ancestor or (p >= lo and inside.get(p, False))
        if tracer.names[i] == name and p >= lo and inside.get(p, False):
            total += 1
    return total
