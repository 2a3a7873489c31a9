"""Machine-speed references for the benchmark's timings.

The benchmark's timings are CPU-bound, single-threaded work on a machine
whose CPU speed can drift for seconds to minutes at a time: on a shared
2-vCPU virtual machine the same `minimize` ran 40-60 % slower in such
spells, with no steal time reported and no page faults.  So a timing is
taken together with the speed of fixed reference work that does not touch
paneitz_lab, and rescaled to a defined speed of that work:

    calibrated = wall * nominal step time / mean(measured step time)

The inputs of every reference are fixed, so its work never changes; a
change to paneitz_lab moves the calibrated times and leaves the references
alone.  There are two kinds of step, since the spells slow kinds of work
differently:

- ``small``: one 17x17 pencil solve the way `descent` makes thousands of
  them (a mass matrix over 200 weighted nodes, its Cholesky test, the
  eigendecomposition of the scaled pencil and the residuals of two
  eigenvectors) plus a little interpreted Python.  Defined as
  ``SMALL_STEP_S``.
- ``dense``: the eigendecomposition of a fixed 400x400 symmetric matrix,
  the large-matrix LAPACK work of `fine-grid`.  Defined as ``DENSE_STEP_S``.

and four modes (``timed``):

- ``sampled``, for work in this process: a SIGALRM every ``SAMPLE_EVERY_S``
  runs ``SAMPLE_STEPS`` small steps, whose time is taken out of the wall
  time, plus one sample at each end, so a spell that starts or ends inside
  a job counts by its share of the job.
- ``bracketed``: ``BLOCK_STEPS`` small steps right before and right after,
  for work in a child process, since samples taken while the child runs
  would compete with it for the CPU.
- ``dense``: ``DENSE_STEPS`` dense steps right before and right after.
- ``none``: the wall time as measured.

A fresh interpreter's start is rescaled by its own import of numpy and
scipy.linalg instead (``calibrated_start``).
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.linalg

SMALL_STEP_S = 1.3e-4  # defined length of a small step: calibrated seconds are wall seconds at that speed
DENSE_STEP_S = 0.025   # defined length of a dense step
BLOCK_STEPS = 250      # small steps before and after, about 35 ms
DENSE_STEPS = 2        # dense steps before and after, about 50 ms
SAMPLE_STEPS = 16      # small steps per in-process sample, about 2 ms
SAMPLE_EVERY_S = 0.05  # in-process sampling period
DENSE_N = 400
SEED = 20071003        # the steps' inputs; fixed, independent of the workload seed
IMPORT_S = 0.3         # defined length of a fresh import of numpy and scipy.linalg
MODES = ("sampled", "bracketed", "dense", "none")


@dataclass
class Timing:
    wall: float = 0.0     # seconds of the timed work, samples taken out
    seconds: float = 0.0  # calibrated


class Reference:
    """Times the fixed steps and keeps the seconds per step of every sample."""

    def __init__(self):
        rng = np.random.default_rng(SEED)
        self.phi = rng.standard_normal((17, 200))
        self.weights = rng.random(200)
        self.scale = 1.0 / np.sqrt(1.0 + np.arange(17.0))  # A^(-1/2) of a diagonal operator form
        self.grid = np.arange(200) * 0.01
        self.dense: np.ndarray | None = None  # made on first use, so only fine-grid's memory carries it
        self.per_step: list[float] = []

    def _small(self, i: int) -> float:
        density = 1.0 + 0.1 * np.sin(self.grid * i)
        mass = (self.phi * (self.weights * density)) @ self.phi.T
        np.linalg.cholesky(mass)
        s = self.scale
        w, vecs = scipy.linalg.eigh((mass * s).T * s)
        acc = 0.0
        for j in np.argsort(w)[::-1][:2]:
            v = vecs[:, j] * s / np.sqrt(w[j])
            av = v / s**2
            acc += float(np.linalg.norm(av - (mass @ v) / w[j]) / np.linalg.norm(av))
        return acc + sum(k * 0.5 for k in range(40))

    def _dense(self, i: int) -> float:
        if self.dense is None:
            x = np.random.default_rng(SEED).standard_normal((DENSE_N, DENSE_N))
            self.dense = x @ x.T + DENSE_N * np.eye(DENSE_N)
        vals, vecs = scipy.linalg.eigh(self.dense)
        return float(vals[i % DENSE_N]) + float(vecs[0, 0])

    def steps(self, count: int, kind: str = "small") -> float:
        """Run ``count`` steps after one untimed step, which brings the
        step's code and data back into the caches the timed work used;
        their mean wall time in seconds."""
        step = self._dense if kind == "dense" else self._small
        acc = step(0)
        t0 = time.perf_counter()
        for i in range(count):
            acc += step(i)
        seconds = (time.perf_counter() - t0) / count
        if not np.isfinite(acc):
            raise RuntimeError("reference step produced a non-finite value")
        self.per_step.append(seconds)
        return seconds

    def warm(self, mode: str) -> None:
        """Untimed steps of the mode's kind, which run cold at first."""
        if mode == "dense":
            self.steps(DENSE_STEPS, "dense")
        elif mode != "none":
            self.steps(BLOCK_STEPS)
        self.per_step.clear()

    @contextmanager
    def timed(self, mode: str):
        """Time the body; the yielded Timing is filled in when it ends."""
        if mode not in MODES:
            raise ValueError(f"unknown calibration mode {mode!r}")
        t = Timing()
        if mode == "none":
            t0 = time.perf_counter()
            try:
                yield t
            finally:
                t.seconds = t.wall = time.perf_counter() - t0
            return
        if mode in ("bracketed", "dense"):
            count, kind, nominal = (DENSE_STEPS, "dense", DENSE_STEP_S) if mode == "dense" else (BLOCK_STEPS, "small", SMALL_STEP_S)
            before = self.steps(count, kind)
            t0 = time.perf_counter()
            try:
                yield t
            finally:
                t.wall = time.perf_counter() - t0
                t.seconds = calibrated(t.wall, [before, self.steps(count, kind)], nominal)
            return
        samples = [self.steps(SAMPLE_STEPS)]
        spent = 0.0
        busy = False

        def sample(signum, frame):
            nonlocal spent, busy
            if busy:  # a late signal while a sample runs
                return
            busy = True
            s0 = time.perf_counter()
            samples.append(self.steps(SAMPLE_STEPS))
            spent += time.perf_counter() - s0
            busy = False

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            yield t
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t.wall = time.perf_counter() - t0 - spent
            signal.signal(signal.SIGALRM, previous)
            samples.append(self.steps(SAMPLE_STEPS))
            t.seconds = calibrated(t.wall, samples)

    def median_step(self) -> float:
        """Median seconds per step of the run; 0 when nothing was calibrated."""
        return statistics.median(self.per_step) if self.per_step else 0.0


def calibrated(wall: float, per_step: list[float], nominal: float = SMALL_STEP_S) -> float:
    """``wall`` rescaled to the speed at which a step takes ``nominal``."""
    return wall * nominal / statistics.fmean(per_step)


def calibrated_start(wall: float, reference_import: float) -> float:
    """A fresh interpreter's ``wall`` time rescaled to the speed at which
    its own import of numpy and scipy.linalg takes IMPORT_S.

    That import comes before any paneitz_lab module, so the program cannot
    change it, and it is the same kind of work as the rest of a start (file
    reads, unmarshalling, dynamic loading), timed in the same process.
    """
    return wall * IMPORT_S / reference_import
