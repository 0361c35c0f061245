"""Workloads of the lodeg benchmark: inputs, call lists and golden values.

A workload is a list of ``lodeg`` CLI calls (one *pass*) that the benchmark
repeats with fresh seeds until its time is up.  Every call has a golden
``results`` block; a call whose exit code is not 0 or whose reported values
differ from the golden ones counts as failed.

The golden values come from ``tests/test_acceptance.py`` where it states
them, and otherwise from the reports of the initial release, cross-checked
by the identities ``verify`` tests (sectional vector = bidegree vector, the
binomial transform, the polar relation).  The det3 sections carry the det3
bidegree vector (0, 0, 0, 0, 6, 12, 12, 6, 3): cutting the 8-dimensional
hypersurface by ``i`` generic affine hyperplanes leaves a variety whose
critical point count is entry ``i`` of the sectional vector, which equals
entry ``i`` of the bidegree vector.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Any

# The golden inputs of tests/data, copied so that the benchmark does not
# change when the test data does.
VARIETIES: dict[str, dict[str, Any]] = {
    "sphere": {
        "variables": ["x1", "x2", "x3"],
        "polynomials": ["x1^2 + x2^2 + x3^2 - 100"],
    },
    "quadric_cone": {
        "variables": ["x1", "x2", "x3"],
        "polynomials": ["x1*x2 - x3^2"],
        "homogeneous": True,
    },
    "affine_cubic": {
        "variables": ["x1", "x2", "x3"],
        "polynomials": ["1 + x1 + x2^2 + x3^3"],
    },
    "space_curve": {
        "variables": ["x", "y", "z"],
        "polynomials": ["x^2 + y^2 + z^2 - 1", "y - x^2"],
    },
    "cubic_binomial": {
        "variables": ["x1", "x2", "x3", "x4"],
        "polynomials": ["x1^2*x2 - x3*x4"],
    },
}

# (bidegrees, sectional, polar, chern_mather) per golden input; the
# critical point count is entry 0 of the bidegrees.
VECTORS: dict[str, dict[str, tuple[int, ...]]] = {
    "sphere": {
        "bidegree": (2, 2, 2),
        "sectional": (2, 2, 2),
        "polar": (2, 2, 2),
        "chern_mather": (2, 2, 2),
    },
    "quadric_cone": {
        "bidegree": (0, 2, 2),
        "sectional": (0, 2, 2),
        "polar": (0, 2, 2),
        "chern_mather": (0, 2, 2),
    },
    "affine_cubic": {
        "bidegree": (2, 4, 3),
        "sectional": (2, 4, 3),
        "polar": (4, 6, 3),
        "chern_mather": (1, 2, 3),
    },
    "space_curve": {
        "bidegree": (6, 4),
        "sectional": (6, 4),
        "polar": (8, 4),
        "chern_mather": (-2, 4),
    },
    "cubic_binomial": {
        "bidegree": (1, 4, 5, 3),
        "sectional": (1, 4, 5, 3),
        "polar": (3, 6, 6, 3),
        "chern_mather": (1, 3, 4, 3),
    },
}

DUAL_AT_INFINITY = {"sphere": False, "affine_cubic": True, "cubic_binomial": True}

DET3_BIDEGREES = (0, 0, 0, 0, 6, 12, 12, 6, 3)
# Dimensions of the det3 sections; a section in k variables is det3 cut by
# 9 - k hyperplanes, so these check entries 5, 6 and 7.  The 5-variable
# section (entry 4, about 8 s) would leave too few passes in a run.
DET3_SECTION_DIMS = (4, 3, 2)

NAMES = ("golden_counts", "conormal_saturation", "det3_stretch")


@dataclass(frozen=True)
class Call:
    """One CLI call and the ``results`` block its report must carry."""

    argv: tuple[str, ...]
    expected: dict[str, Any]

    @property
    def label(self) -> str:
        return f"{self.argv[0]} {os.path.basename(self.argv[1])}"


def _payload(kind: str, values: tuple[int, ...], ambient: int) -> dict[str, Any]:
    return {
        "kind": kind,
        "values": list(values),
        "dimension": len(values) - 1,
        "ambient": ambient,
    }


def _golden_results(command: str, variety: str) -> dict[str, Any]:
    vec = VECTORS[variety]
    n = len(VARIETIES[variety]["variables"])
    if command == "lodeg":
        return {"lo_degree": vec["bidegree"][0]}
    if command in ("bidegrees", "sectional", "polar"):
        kind = "bidegree" if command == "bidegrees" else command
        return {command: _payload(kind, vec[kind], n)}
    bidegrees = _payload("bidegree", vec["bidegree"], n)
    if command == "chern_mather":
        return {
            "bidegrees": bidegrees,
            "chern_mather": _payload("chern_mather", vec["chern_mather"], n),
        }
    if command == "euler_obstruction":
        b = vec["bidegree"]
        return {
            "bidegrees": bidegrees,
            "euler_obstruction": sum((-1) ** i * v for i, v in enumerate(b)),
        }
    raise ValueError(f"no golden value for {command} on {variety}")


def _det3_section(dim: int, rng: random.Random) -> dict[str, Any]:
    """det of a 3x3 matrix of random affine forms in ``dim`` variables: a
    generic ``dim``-dimensional affine section of the det3 hypersurface."""
    ys = [f"y{k + 1}" for k in range(dim)]

    def coefficient() -> int:
        # Below both default primes, like the program's own random data.
        return rng.randrange(1, 1 << 30)

    def form() -> str:
        terms = [str(coefficient())] + [f"{coefficient()}*{y}" for y in ys]
        return "(" + " + ".join(terms) + ")"

    m = [[form() for _ in range(3)] for _ in range(3)]
    terms = []
    for sign, (a, b, c) in (
        ("+", (0, 1, 2)), ("+", (1, 2, 0)), ("+", (2, 0, 1)),
        ("-", (0, 2, 1)), ("-", (1, 0, 2)), ("-", (2, 1, 0)),
    ):
        terms.append(f"{sign} {m[0][a]}*{m[1][b]}*{m[2][c]}")
    return {"variables": ys, "polynomials": [" ".join(terms)[2:]]}


def _write(workdir: str, name: str, doc: dict[str, Any]) -> str:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return path


class Workload:
    """The inputs and golden results of one workload for one seed.

    The seed fixes every input: the ``--seed`` of each call and, for det3,
    the random sections.  Pass ``p`` is generated on request, so a run never
    runs out of fresh passes; the inputs of pass ``p`` depend only on the
    workload, the seed and ``p``.
    """

    def __init__(self, name: str, seed: int, workdir: str) -> None:
        if name not in NAMES:
            raise KeyError(f"unknown workload {name!r}; choose from {NAMES}")
        self.name = name
        self.seed = seed
        self.workdir = workdir
        if name == "golden_counts":
            names = list(VECTORS)
        elif name == "conormal_saturation":
            names = list(DUAL_AT_INFINITY)
        else:
            names = []
        self._paths = {v: _write(workdir, v, VARIETIES[v]) for v in names}

    @staticmethod
    def _call(command: str, path: str, seed: int, expected: dict[str, Any]) -> Call:
        return Call((command, path, "--seed", str(seed), "--no-timings"), expected)

    def pass_calls(self, index: int) -> tuple[Call, ...]:
        rng = random.Random(f"lodeg-bench:{self.name}:{self.seed}:{index}")
        seed = rng.randrange(1 << 31)
        if self.name == "golden_counts":
            commands = ("lodeg", "bidegrees", "sectional", "polar", "chern_mather")
            plan = [(c, v) for v in VECTORS for c in commands]
            plan.append(("euler_obstruction", "quadric_cone"))
            return tuple(
                self._call(c, self._paths[v], seed, _golden_results(c, v))
                for c, v in plan
            )
        if self.name == "conormal_saturation":
            key = "dual_contains_hyperplane_at_infinity"
            return tuple(
                self._call("dual_infinity", self._paths[v], seed, {key: flag})
                for v, flag in DUAL_AT_INFINITY.items()
            )
        calls = []
        for dim in DET3_SECTION_DIMS:
            path = _write(self.workdir, f"det3_section{dim}_pass{index}", _det3_section(dim, rng))
            calls.append(self._call("lodeg", path, seed, {"lo_degree": DET3_BIDEGREES[9 - dim]}))
        return tuple(calls)
