"""Whole ``--no-timings`` reports, pinned byte for byte.

Each file under ``tests/data/reports/`` holds the exit code, stdout and
stderr of one ``lodeg`` call, run from the repository root with relative
input paths so that the report's ``input.path`` is stable.  After an
intended report change, rewrite them from the repository root with
``PYTHONPATH=src python tests/test_report_snapshots.py``.
"""

import contextlib
import io
import os

import pytest

from lodeg.cli import COMMANDS, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPORTS = os.path.join(ROOT, "tests", "data", "reports")


def _cases() -> dict[str, list[str]]:
    cases = {}
    # twisted_cubic_cone and rank1_2x3 have codimension 2 and three
    # generators: their systems carry an excess multiplier.
    for name in ("quadric_cone", "sphere", "twisted_cubic_cone", "sym3", "rank1_2x3"):
        for command in COMMANDS:
            extra = ["--i", "1"] if command == "correspondence" else []
            cases[f"{name}.{command}"] = [command, f"tests/data/{name}.json"] + extra
    cases["sphere.correspondence.explicit"] = [
        "correspondence", "tests/data/sphere.json",
        "--i", "1", "--covector", "10,5,17", "--slice", "x3-6",
    ]
    # Each at its last nonzero index below the degree: at rank1_2x3's the
    # multiplier system restricted to the slice still has an excess.
    cases["sym3.correspondence.i4"] = ["correspondence", "tests/data/sym3.json", "--i", "4"]
    cases["rank1_2x3.correspondence.i3"] = [
        "correspondence", "tests/data/rank1_2x3.json", "--i", "3",
    ]
    cases["sphere.bidegrees.text"] = ["bidegrees", "tests/data/sphere.json", "--format", "text"]
    cases["quadric_cone.verify.text"] = ["verify", "tests/data/quadric_cone.json", "--format", "text"]
    # Prime lists: three factors between 2**30 and 2**32, one prime
    # repeated, one prime other than the defaults, and two primes whose
    # residues overflow an int64 product: 2**61 - 1 and 2**64 - 59, the
    # largest accepted prime.
    cases["sphere.bidegrees.three_primes"] = [
        "bidegrees", "tests/data/sphere.json",
        "--prime", "1073741827", "--prime", "2147483629", "--prime", "3037000493",
    ]
    cases["sphere.bidegrees.wide_primes"] = [
        "bidegrees", "tests/data/sphere.json",
        "--prime", "2305843009213693951", "--prime", "18446744073709551557",
    ]
    cases["quadric_cone.lodeg.repeated_prime"] = [
        "lodeg", "tests/data/quadric_cone.json", "--prime", "2147483647", "--prime", "2147483647",
    ]
    cases["sphere.polar.one_prime"] = ["polar", "tests/data/sphere.json", "--prime", "2147483629"]
    # The counting commands on the other small inputs, and the two that
    # build explicit conormal ideals (dual_infinity, verify).
    for name in ("affine_cubic", "space_curve", "cubic_binomial"):
        for command in (
            "lodeg", "bidegrees", "sectional", "polar", "chern_mather", "dual_infinity", "verify",
        ):
            cases[f"{name}.{command}"] = [command, f"tests/data/{name}.json"]
    # The largest input's bidegrees, the most reduction work per report,
    # and its dual_infinity, the largest explicit conormal ideal.
    for command in ("bidegrees", "dual_infinity"):
        cases[f"det3.{command}"] = [command, "tests/data/det3.json"]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--no-timings"])
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def _snapshot_path(case: str) -> str:
    return os.path.join(REPORTS, f"{case}.txt")


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_snapshot(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    with open(_snapshot_path(case)) as fh:
        expected = fh.read()
    assert _run(CASES[case]) == expected


def test_every_snapshot_has_a_case():
    assert sorted(f[: -len(".txt")] for f in os.listdir(REPORTS)) == sorted(CASES)


if __name__ == "__main__":
    os.chdir(ROOT)
    os.makedirs(REPORTS, exist_ok=True)
    for case, argv in sorted(CASES.items()):
        with open(_snapshot_path(case), "w") as fh:
            fh.write(_run(argv))
