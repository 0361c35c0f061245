"""The benchmark's set-up, and a probe that times it in a fresh interpreter.

Set-up is what a user pays before the first answer: importing ``lodeg``
(and numpy with it), writing the workload's inputs and loading them with
``VarietySpec.define``.  ``run.py`` times its own set-up and that of a few
fresh interpreters running this file, and reports the median.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``; prints the
set-up time in seconds.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


class MissingProgram(RuntimeError):
    """``src/lodeg`` of this checkout cannot be imported."""


def import_lodeg():
    """Import ``lodeg`` from this checkout's ``src``, never from elsewhere."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import lodeg
    except ImportError as err:
        raise MissingProgram(f"cannot import lodeg from {SRC}: {err}") from err
    if not os.path.abspath(lodeg.__file__).startswith(SRC + os.sep):
        raise MissingProgram(f"lodeg was imported from {lodeg.__file__}, not {SRC}")
    return lodeg


def set_up(name: str, seed: int, workdir: str):
    """Import lodeg, write the workload's inputs and load those of pass 0."""
    lodeg = import_lodeg()
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    from workloads import Workload

    workload = Workload(name, seed, workdir)
    for path in sorted({call.argv[1] for call in workload.pass_calls(0)}):
        with open(path) as fh:
            doc = json.load(fh)
        lodeg.VarietySpec.define(doc["variables"], doc["polynomials"])
    return workload


def main(argv: list[str]) -> int:
    name, seed = argv[0], int(argv[1])
    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as workdir:
        set_up(name, seed, workdir)
        print(time.perf_counter() - _START)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
