"""The lodeg benchmark: one workload, timed end to end or traced per layer.

Usage::

    python3 perfbench/run.py --workload golden_counts --seed 1 --seconds 40 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  The run is one process on one thread.  It drives ``lodeg`` the
way a user does, by calling ``lodeg.cli.main([...])`` in-process with
``--no-timings`` and capturing the report; every report is checked against
the golden values in ``workloads.py``.  A call fails if it exits non-zero,
raises, or reports any value other than the golden one.

A *pass* is the workload's call list with one fresh set of seeded inputs.
Passes repeat until the next one would end after ``--seconds``; at least
one pass always runs.

``--trace 0`` prints the end-to-end metrics:

- ``wall_ref``: median time of one pass, i.e. time to solution for the
  workload's whole call list, in reference units (below);
- ``call_ref.p50``, ``call_ref.p90``: per-call latency over all calls of the
  run, in reference units;
- ``peak_rss_mb``: peak resident memory of this process;
- ``setup_s``: median over seven set-ups (this process and six fresh
  interpreters) of importing lodeg and numpy and loading the inputs.

Timings in reference units come from ``refclock.py``: the host's speed
drifts, so each call's seconds are divided by the time of a fixed piece of
reference work sampled during and around the call.  The plain seconds and
the mean reference unit are in the context line.

``--trace 1`` spends half of ``--seconds`` on untraced passes and half on
the same passes with the outside tracer (``tracer.py``) installed.  It
prints the per-layer metrics, per pass, and ``trace.overhead_s``: median
traced pass minus median untraced pass, compared in reference units and
scaled to seconds.  Traced and untraced reports must
match byte for byte, or the run is not correct.  The spans are written to
``.perfbench-out/`` at the root of the checkout.

The last line of stdout is the result object; the line before it records
the machine and the code.  The exit code is 0 when every call was correct,
1 when some call failed, and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

from refclock import ReferenceClock
from setup_probe import HERE, ROOT, SRC, MissingProgram, set_up
from workloads import NAMES, Call, Workload

SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60



def metric_units(kind: str) -> dict[str, str]:
    """Name and unit of each ``end_to_end`` or ``per_layer`` metric, in the
    order of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@dataclass
class PassRecord:
    spans: list[tuple[float, float]] = field(default_factory=list)
    reports: list[str] = field(default_factory=list)


@dataclass
class Outcome:
    clock: ReferenceClock
    passes: list[PassRecord] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def call_seconds(self) -> list[float]:
        return [self.clock.work_seconds(*span) for p in self.passes for span in p.spans]

    def call_refs(self) -> list[float]:
        return [self.clock.in_units(*span) for p in self.passes for span in p.spans]

    def pass_seconds(self) -> list[float]:
        return [sum(self.clock.work_seconds(*span) for span in p.spans) for p in self.passes]

    def pass_refs(self) -> list[float]:
        return [sum(self.clock.in_units(*span) for span in p.spans) for p in self.passes]


def invoke(cli, call: Call) -> tuple[str, bool, tuple[float, float]]:
    """Run one CLI call in-process; return its stdout, correctness and span."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(call.argv))
    except SystemExit as err:
        code = err.code
    except Exception:
        traceback.print_exc()
        code = None
    span = (start, time.perf_counter())
    out = buf.getvalue()
    ok = code == 0
    if ok:
        try:
            ok = json.loads(out)["results"] == call.expected
        except (ValueError, KeyError, TypeError):
            ok = False
    if not ok:
        print(f"FAILED {call.label} --seed {call.argv[3]}: exit {code}", file=sys.stderr)
    return out, ok, span


def run_passes(cli, workload: Workload, budget_s: float, limit: int | None = None) -> Outcome:
    """Run passes 0, 1, ... while the next is expected to end within
    ``budget_s``; at most ``limit`` passes."""
    start = time.perf_counter()
    durations: list[float] = []
    with ReferenceClock() as clock:
        outcome = Outcome(clock)
        while limit is None or len(outcome.passes) < limit:
            if durations and time.perf_counter() - start + statistics.median(durations) > budget_s:
                break
            calls = workload.pass_calls(len(outcome.passes))
            record = PassRecord()
            for call in calls:
                out, ok, span = invoke(cli, call)
                record.spans.append(span)
                record.reports.append(out)
                outcome.attempted += 1
                outcome.failed += not ok
            durations.append(record.spans[-1][1] - record.spans[0][0])
            outcome.passes.append(record)
    return outcome


def measure_setup(name: str, seed: int, own: float) -> float:
    samples = [own]
    probe = os.path.join(HERE, "setup_probe.py")
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, probe, name, str(seed)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def end_to_end(outcome: Outcome, setup_s: float) -> dict[str, float]:
    calls = outcome.call_refs()
    return {
        "setup_s": setup_s,
        "wall_ref": statistics.median(outcome.pass_refs()),
        "call_ref.p50": statistics.median(calls),
        "call_ref.p90": statistics.quantiles(calls, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def raw_seconds(outcome: Outcome) -> dict[str, float]:
    """The same timings in plain seconds, for the context line."""
    calls = outcome.call_seconds()
    return {
        "wall_s": statistics.median(outcome.pass_seconds()),
        "call_s.p50": statistics.median(calls),
        "call_s.p90": statistics.quantiles(calls, n=10, method="inclusive")[8],
        "reference_unit_s": outcome.clock.mean_unit_s(),
    }


def traced_run(
    cli, workload: Workload, seconds: float, out_name: str
) -> tuple[list[Outcome], dict[str, float], bool]:
    """Untraced passes, then the same passes traced; per-layer metrics."""
    from tracer import Tracer

    plain = run_passes(cli, workload, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(cli, workload, seconds / 2, limit=len(plain.passes))
    finally:
        tracer.uninstall()
    n = len(traced.passes)
    identical = all(
        a.reports == b.reports for a, b in zip(plain.passes[:n], traced.passes)
    )
    if not identical:
        print("FAILED traced reports differ from untraced ones", file=sys.stderr)
    layers = tracer.layer_metrics(n)
    # Compared in reference units, then scaled back to seconds at the
    # run's mean speed, so that host speed changes between the halves cancel.
    unit_s = statistics.mean([plain.clock.mean_unit_s(), traced.clock.mean_unit_s()])
    layers["trace.overhead_s"] = unit_s * (
        statistics.median(traced.pass_refs()) - statistics.median(plain.pass_refs()[:n])
    )
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"spans-{out_name}.json"), "w") as fh:
        json.dump({"passes": n, "spans": tracer.span_records()}, fh)
    return [plain, traced], layers, identical


def context(args: argparse.Namespace, outcomes: list[Outcome]) -> dict[str, object]:
    """The machine, the code, and the plain seconds of each half of the run."""
    import numpy

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "lodeg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        # The benchmark may run from an exported tree inside another repo.
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = done.stdout.split()
        same_tree = done.returncode == 0 and os.path.samefile(lines[0], ROOT)
        commit = lines[1] if same_tree else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pass_seconds": [o.pass_seconds() for o in outcomes],
        "raw": [raw_seconds(o) for o in outcomes],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as workdir:
        try:
            workload = set_up(args.workload, args.seed, workdir)
        except MissingProgram as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        own_setup = time.perf_counter() - start
        import lodeg.cli as cli

        if args.trace:
            outcomes, metrics, identical = traced_run(
                cli, workload, args.seconds, f"{args.workload}-{args.seed}"
            )
            units = metric_units("per_layer")
        else:
            outcomes = [run_passes(cli, workload, args.seconds)]
            identical = True
            metrics = end_to_end(outcomes[0], measure_setup(args.workload, args.seed, own_setup))
            units = metric_units("end_to_end")

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = failed == 0 and identical
    print(json.dumps({"context": context(args, outcomes)}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
