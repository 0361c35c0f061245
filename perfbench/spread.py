"""Run the benchmark over several seeds and report medians and spreads.

Usage::

    python3 perfbench/spread.py --workload golden_counts --seeds 1 10 [--trace 0]

Runs ``run.py`` once per seed, one run at a time, for ``run_seconds`` from
``BENCHMARK.json``.  For every metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread ``(q3 - q1) /
median``, and for end-to-end metrics whether the spread is within a third
of the metric's bound.  The last line is the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    runs = []
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "exit": done.returncode, **json.loads(lines[-2]), **result})
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: exit {done.returncode}, correct {result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed", file=sys.stderr)

    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        row = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        if name in bounds:
            row["bound"] = bounds[name]
            row["within_third_of_bound"] = spread < bounds[name] / 3
        summary[name] = row
        print(f"{name:50s} median {median:12.5f}  spread {spread:7.4f}"
              + (f"  bound {bounds[name]}" if name in bounds else ""), file=sys.stderr)
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "run_seconds": spec["run_seconds"], "runs": runs, "metrics": summary}))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
