"""Self-test of the benchmark: tracer coverage, trace transparency, golden gate.

Usage: ``python3 perfbench/selftest.py`` (about half a minute).  Checks that

1. once the tracer is installed, no ``lodeg`` module still references an
   unwrapped public function of a traced layer;
2. ``--trace 1`` runs print every per-layer metric and their traced reports
   match the untraced ones byte for byte (``run.py`` compares them);
3. a deliberately wrong golden value makes the run fail: ``failed`` > 0,
   ``correct`` false and a non-zero exit code.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import sys

from setup_probe import import_lodeg

import run
import workloads
from tracer import LAYERS, Tracer


def public_functions() -> dict[int, str]:
    """Every public function of the traced layers, found independently of
    the tracer, keyed by identity."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"lodeg.{layer}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == module.__name__:
                found[id(obj)] = f"{layer}.{name}"
    from lodeg.conormal import VarietySpec

    found[id(VarietySpec.__dict__["define"].__func__)] = "conormal.VarietySpec.define"
    return found


def references_to(targets: dict[int, str]) -> list[str]:
    from lodeg.conormal import VarietySpec

    hits = [
        f"{name}.{attr}"
        for name, module in list(sys.modules.items())
        if module is not None and (name == "lodeg" or name.startswith("lodeg."))
        for attr, obj in vars(module).items()
        if id(obj) in targets
    ]
    if id(VarietySpec.__dict__["define"].__func__) in targets:
        hits.append("lodeg.conormal.VarietySpec.define")
    return hits


def check_coverage() -> list[str]:
    targets = public_functions()
    before = references_to(targets)
    tracer = Tracer()
    tracer.install()
    try:
        left = references_to(targets)
    finally:
        tracer.uninstall()
    restored = references_to(targets)
    problems = [f"still unwrapped after install: {ref}" for ref in left]
    if not before or sorted(restored) != sorted(before):
        problems.append("uninstall did not restore the original references")
    print(f"coverage: {len(targets)} functions, {len(before)} references wrapped")
    return problems


def run_main(argv: list[str]) -> tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


def check_traced(workload: str) -> list[str]:
    code, result = run_main(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1"])
    problems = []
    if code != 0 or not result["correct"] or result["failed"]:
        problems.append(f"{workload}: traced run not correct (exit {code})")
    missing = set(run.metric_units("per_layer")) - set(result["metrics"])
    if missing:
        problems.append(f"{workload}: per-layer metrics missing: {sorted(missing)}")
    print(f"traced {workload}: exit {code}, {result['attempted']} calls, "
          f"overhead {result['metrics']['trace.overhead_s']['value']:.3f} s")
    return problems


def check_wrong_golden() -> list[str]:
    saved = workloads.VECTORS["sphere"]
    workloads.VECTORS["sphere"] = {**saved, "bidegree": (3,) + saved["bidegree"][1:]}
    try:
        code, result = run_main(["--workload", "golden_counts", "--seed", "7", "--seconds", "1", "--trace", "0"])
    finally:
        workloads.VECTORS["sphere"] = saved
    ratio = result["failed"] / result["attempted"]
    print(f"wrong golden: exit {code}, failed {result['failed']}/{result['attempted']}")
    if code == 0 or result["correct"] or ratio == 0:
        return ["a wrong golden value did not fail the run"]
    return []


def main() -> int:
    import_lodeg()
    problems = check_coverage()
    for workload in ("golden_counts", "conormal_saturation"):
        problems += check_traced(workload)
    problems += check_wrong_golden()
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test passed" if not problems else "self-test FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
