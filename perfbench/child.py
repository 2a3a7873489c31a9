"""Child processes that the benchmark starts in a fresh interpreter.

    python3 perfbench/child.py imports MODULE...
        Import numpy, scipy and the given paneitz_lab modules; print the
        seconds of each step as JSON.  Measures set-up time, so this path
        loads nothing beyond what the interpreter has at start.

    python3 perfbench/child.py cli SPANS_JSON -- CLI_ARGS...
        Run ``paneitz_lab.cli.main(CLI_ARGS)`` with every package function
        traced and write the spans to SPANS_JSON.  The traced twin of
        ``python -m paneitz_lab.cli``; it imports the whole package up front
        so that the wrappers exist before the subcommand runs.
"""

import importlib
import sys
import time

PACKAGE = "paneitz_lab"


def timed_imports(modules) -> list[tuple[str, float, float]]:
    """Import numpy, scipy and the given package modules in that order.

    Returns (step, start, end) in ``perf_counter`` seconds for each step.
    Only meaningful in a fresh interpreter.
    """
    steps = [("numpy", ["numpy"]), ("scipy", ["scipy.linalg"]), (PACKAGE, modules)]
    out = []
    for label, names in steps:
        t0 = time.perf_counter()
        for name in names:
            importlib.import_module(name)
        out.append((label, t0, time.perf_counter()))
    return out


def _run_cli(out_path: str, args: list[str]) -> int:
    import json

    import spans

    tracer = spans.Tracer()
    for label, t0, t1 in timed_imports(spans.module_names()):
        tracer.add(f"import.{label}", t0, t1, -1)
    from paneitz_lab import cli

    code = 0
    with spans.Instrumentation(tracer, spans.load_modules()) as inst:
        stale = inst.unwrapped()
        if stale:
            raise RuntimeError(f"unwrapped bindings: {stale}")
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
    if isinstance(code, str):
        print(code, file=sys.stderr)
        code = 1
    with open(out_path, "w") as fh:
        json.dump(tracer.export(), fh)
    return code or 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["imports"]:
        steps = timed_imports(argv[1:])
        import json  # loaded by numpy already; imported after the timing anyway

        print(json.dumps({label: t1 - t0 for label, t0, t1 in steps}))
        return 0
    if argv[:1] == ["cli"] and argv[2:3] == ["--"]:
        return _run_cli(argv[1], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
