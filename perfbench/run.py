"""paneitz-lab benchmark: one closed-loop client running one workload.

    python3 perfbench/run.py --workload descent --seed 0 --seconds 25 --trace 0

A single user runs the workload's fixed job list again and again until
``--seconds`` of measuring is used up (at least one pass; with ``--trace 1``
at least one untraced and one traced pass, alternating).  Every output is
checked after its job, outside the timed region.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics, end-to-end ones with ``--trace 0`` and per-layer ones with
``--trace 1``.  ``--workload all`` runs every workload, each in its own
process, and prints one combined line.

The program is imported from ``src/`` of the checkout that holds this file;
BLAS is pinned to one thread.  Files go to ``.perfbench/`` in that checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("descent", "fine-grid", "cli-cold")
BLAS_THREADS = "1"


def _pin_blas() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def _pin_cpu() -> None:
    """Keep this process and the children it starts on one CPU, so that the
    reference step (calib.py) times the CPU that runs the timed work."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS and imports stay apart."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "paneitz_lab" / "__init__.py").is_file():
        print(f"error: no paneitz_lab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    _pin_blas()
    _pin_cpu()
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    import bench  # imports numpy and the package, so only after the pinning

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, OUT)


if __name__ == "__main__":
    sys.exit(main())
