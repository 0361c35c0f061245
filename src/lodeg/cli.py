"""Command line front end.

Input is a JSON file naming the variables and listing polynomial strings;
each subcommand wraps one library operation and prints a report.  Reports
are deterministic for a fixed (input, seed, primes) triple, except for the
timings block, which ``--no-timings`` removes when byte-identical output
matters.

Exit codes: 0 success, 2 the recounts never agreed (or a characteristic
hazard), 3 bad input (including inputs whose degrees exceed what the
Groebner engine represents), 4 budget exhausted, 5 a verified identity
failed, 6 internal error.  Every failure prints one line to stderr and no
traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from typing import Any, Optional, Sequence

from . import invariants
from .conormal import DegenerateSlice, DimensionMismatch, InvalidVariety, VarietySpec
from .groebner import MAX_MATRIX_PRIME, BudgetExceeded, CharacteristicHazard
from .invariants import DegreeVector, NotACone
from .poly import ParseError
from .randomness import DEFAULT_PRIMES, AgreementPolicy, Instability

EXIT_OK = 0
EXIT_INSTABILITY = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5
EXIT_INTERNAL = 6


class InputProblem(Exception):
    """Anything wrong with the input file or explicit flag data."""


def _load_variety(path: str) -> tuple[VarietySpec, dict[str, Any], list[str]]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise InputProblem(f"cannot read {path}: {err}") from err
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as err:
        raise InputProblem(f"{path}: invalid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise InputProblem(f"{path}: expected a JSON object")
    variables = doc.get("variables")
    polynomials = doc.get("polynomials")
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise InputProblem(f"{path}: 'variables' must be a list of names")
    if not isinstance(polynomials, list) or not all(isinstance(p, str) for p in polynomials):
        raise InputProblem(f"{path}: 'polynomials' must be a list of strings")
    warnings: list[str] = []
    assumed = bool(doc.get("assumed_irreducible", True))
    try:
        spec = VarietySpec.define(variables, polynomials, assumed_irreducible=assumed)
    except ParseError as err:
        raise InputProblem(f"{path}: polynomial parse error: {err}") from err
    except InvalidVariety as err:
        raise InputProblem(f"{path}: {err}") from err
    except ValueError as err:
        raise InputProblem(f"{path}: {err}") from err
    if "homogeneous" in doc:
        declared = bool(doc["homogeneous"])
        actual = spec.is_homogeneous()
        if declared and not actual:
            raise InputProblem(f"{path}: declared homogeneous but generators are not")
        if actual and not declared:
            warnings.append("generators are homogeneous although the file says otherwise")
    if not assumed:
        warnings.append(
            "input declared possibly reducible; counts are reported without "
            "irreducibility guarantees"
        )
    meta = {
        "path": path,
        "sha256": hashlib.sha256(raw).hexdigest(),
        "variables": list(variables),
        "polynomials": list(polynomials),
    }
    return spec, meta, warnings


def _parse_covector(text: str, n: int) -> list[Fraction]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise InputProblem(f"covector needs {n} entries, got {len(parts)}")
    try:
        return [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as err:
        raise InputProblem(f"bad covector entry: {err}") from err


def _parse_slice_form(text: str, spec: VarietySpec) -> tuple[list[Fraction], Fraction]:
    """An affine form given as a polynomial string, e.g. ``x3-6`` for x3 = 6."""
    try:
        poly = spec.ring.parse(text)
    except ParseError as err:
        raise InputProblem(f"bad slice form {text!r}: {err}") from err
    if poly.total_degree() > 1:
        raise InputProblem(f"slice form {text!r} is not affine")
    coeffs = []
    for k in range(spec.n):
        unit = [0] * spec.n
        unit[k] = 1
        coeffs.append(Fraction(poly.coefficient(tuple(unit))))
    if all(c == 0 for c in coeffs):
        raise InputProblem(f"slice form {text!r} has no variable part")
    return coeffs, -Fraction(poly.constant_coefficient())


def _vector_payload(vec: DegreeVector) -> dict[str, Any]:
    return {
        "kind": vec.kind,
        "values": list(vec.values),
        "dimension": vec.dimension,
        "ambient": vec.ambient,
    }


def _policy_from_args(args: argparse.Namespace) -> AgreementPolicy:
    primes = tuple(args.prime) if args.prime else DEFAULT_PRIMES
    for p in primes:
        if p > MAX_MATRIX_PRIME:
            raise InputProblem(
                f"--prime {p} is above {MAX_MATRIX_PRIME}: products of residues "
                "must fit in 64-bit integers"
            )
    return AgreementPolicy(
        seeds_per_trial=args.trials, primes=primes, max_retries=3
    )


def _run_command(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    spec, meta, warnings = _load_variety(args.input)
    policy = _policy_from_args(args)
    budget = args.budget_secs
    seed = args.seed
    results: dict[str, Any] = {}
    timings: dict[str, float] = {}
    exit_code = EXIT_OK

    def timed(name: str, fn):
        start = time.perf_counter()
        value = fn()
        timings[name] = round(time.perf_counter() - start, 3)
        return value

    if args.command == "lodeg":
        covector = (
            _parse_covector(args.covector, spec.n) if args.covector else None
        )
        value = timed(
            "lo_degree",
            lambda: invariants.lo_degree(
                spec, seed, covector=covector, policy=policy, budget_secs=budget
            ),
        )
        results["lo_degree"] = value
        if covector is not None:
            warnings.append(
                "explicit covector supplied; the count is for that objective, "
                "not the generic one"
            )
    elif args.command == "bidegrees":
        vec = timed(
            "bidegrees",
            lambda: invariants.bidegrees(spec, seed, policy=policy, budget_secs=budget),
        )
        results["bidegrees"] = _vector_payload(vec)
    elif args.command == "sectional":
        vec = timed(
            "sectional",
            lambda: invariants.sectional_lo_degrees(
                spec, seed, policy=policy, budget_secs=budget
            ),
        )
        results["sectional"] = _vector_payload(vec)
    elif args.command == "polar":
        vec = timed(
            "polar",
            lambda: invariants.polar_degrees(spec, seed, policy=policy, budget_secs=budget),
        )
        results["polar"] = _vector_payload(vec)
    elif args.command == "chern_mather":
        b = timed(
            "bidegrees",
            lambda: invariants.bidegrees(spec, seed, policy=policy, budget_secs=budget),
        )
        a = timed("transform", lambda: invariants.chern_mather_from_bidegrees(b))
        results["bidegrees"] = _vector_payload(b)
        results["chern_mather"] = _vector_payload(a)
    elif args.command == "euler_obstruction":
        b = timed(
            "bidegrees",
            lambda: invariants.bidegrees(spec, seed, policy=policy, budget_secs=budget),
        )
        results["bidegrees"] = _vector_payload(b)
        if not spec.is_homogeneous():
            raise NotACone("all generators must be homogeneous")
        results["euler_obstruction"] = b.alternating_sum()
    elif args.command == "dual_infinity":
        flag = timed(
            "dual_infinity",
            lambda: invariants.dual_contains_hyperplane_at_infinity(
                spec, seed=seed, budget_secs=budget
            ),
        )
        results["dual_contains_hyperplane_at_infinity"] = flag
    elif args.command == "correspondence":
        covector = (
            _parse_covector(args.covector, spec.n) if args.covector else None
        )
        slices = (
            [_parse_slice_form(s, spec) for s in args.slice] if args.slice else None
        )
        report = timed(
            "correspondence",
            lambda: invariants.critical_correspondence(
                spec,
                args.i,
                seed,
                covector=covector,
                slices=slices,
                policy=policy,
                budget_secs=budget,
            ),
        )
        results["correspondence"] = {
            "i": report.i,
            "seed": report.seed,
            "count_critical": report.count_critical,
            "count_conormal": report.count_conormal,
            "generic": report.generic,
            "expected": report.expected,
        }
    elif args.command == "verify":
        reports = []
        sectional = timed(
            "sectional_vs_bidegrees",
            lambda: invariants.verify_sectional_bidegrees(
                spec, seed, policy=policy, budget_secs=budget
            ),
        )
        reports.append(sectional)
        polar = timed(
            "polar_relation",
            lambda: invariants.verify_polar_relation(
                spec, seed, policy=policy, budget_secs=budget
            ),
        )
        reports.append(polar)
        b = DegreeVector("bidegree", sectional.left, spec.dimension, spec.n)
        a = invariants.chern_mather_from_bidegrees(b)
        roundtrip = invariants.bidegrees_from_chern_mather(a)
        reports.append(
            invariants.VerificationReport(
                "binomial transform round-trip",
                roundtrip.values == b.values,
                b.values,
                roundtrip.values,
                seed,
                policy.primes,
            )
        )
        if spec.is_homogeneous():
            reports.append(
                invariants.VerificationReport(
                    "alternating sum equals transform's 0th entry",
                    b.alternating_sum() == a.values[0],
                    (b.alternating_sum(),),
                    (a.values[0],),
                    seed,
                    policy.primes,
                )
            )
        else:
            warnings.append(
                "generators are not homogeneous; cone-point check skipped"
            )
        results["reports"] = [
            {
                "identity": r.identity,
                "passed": r.passed,
                "left": list(r.left),
                "right": list(r.right),
                "notes": list(r.notes),
            }
            for r in reports
        ]
        results["all_passed"] = all(r.passed for r in reports)
        if not results["all_passed"]:
            exit_code = EXIT_VERIFY
    else:  # pragma: no cover - argparse restricts choices
        raise InputProblem(f"unknown command {args.command!r}")

    report = {
        "command": args.command,
        "input": meta,
        "config": {
            "seed": seed,
            "primes": list(policy.primes),
            "trials": policy.seeds_per_trial,
            "budget_secs": budget,
        },
        "results": results,
        "warnings": warnings,
    }
    if not args.no_timings:
        report["timings"] = timings
    return report, exit_code


def _render_text(report: dict[str, Any]) -> str:
    lines = [f"command: {report['command']}", f"input: {report['input']['path']}"]
    cfg = report["config"]
    lines.append(
        f"seed {cfg['seed']}, primes {cfg['primes']}, trials {cfg['trials']}"
    )
    for key, value in sorted(report["results"].items()):
        if isinstance(value, dict) and "values" in value:
            lines.append(f"{key}: {tuple(value['values'])}")
        elif key == "reports":
            for item in value:
                status = "pass" if item["passed"] else "FAIL"
                lines.append(f"  [{status}] {item['identity']}: "
                             f"{tuple(item['left'])} vs {tuple(item['right'])}")
                for note in item["notes"]:
                    lines.append(f"         {note}")
        elif isinstance(value, dict):
            for sub, sv in value.items():
                lines.append(f"{key}.{sub}: {sv}")
        else:
            lines.append(f"{key}: {value}")
    for w in report["warnings"]:
        lines.append(f"warning: {w}")
    if "timings" in report:
        total = sum(report["timings"].values())
        lines.append(f"time: {total:.3f}s")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lodeg",
        description="Exact critical-point counts of linear objectives on affine varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "lodeg": "count critical points of a generic linear objective",
        "bidegrees": "slice counts of the conormal variety",
        "sectional": "critical-point counts after 0..d hyperplane sections",
        "polar": "slice counts of the projective conormal variety",
        "chern_mather": "characteristic-class coefficients via the binomial transform",
        "euler_obstruction": "alternating sum of slice counts at a cone vertex",
        "dual_infinity": "does the dual variety contain the hyperplane at infinity",
        "correspondence": "explicit objective and slice versus conormal intersections",
        "verify": "run the identity checks and report pass/fail",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="variety JSON file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--prime",
            type=int,
            action="append",
            help="prime modulus; repeat for agreement across several",
        )
        p.add_argument("--trials", type=int, default=2,
                       help="independent seeds per agreement round")
        p.add_argument("--budget-secs", type=float, default=None)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--no-timings", action="store_true",
                       help="omit wall times for byte-identical reports")
        if name in ("lodeg", "correspondence"):
            p.add_argument("--covector",
                           help="comma-separated objective coefficients")
        if name == "correspondence":
            p.add_argument("--i", type=int, required=True,
                           help="number of affine sections")
            p.add_argument("--slice", action="append",
                           help="affine form, e.g. 'x3-6' for the section x3=6")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, exit_code = _run_command(args)
    except InputProblem as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (NotACone, DegenerateSlice, DimensionMismatch, ValueError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Instability as err:
        print(f"instability: {err}", file=sys.stderr)
        return EXIT_INSTABILITY
    except BudgetExceeded as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except CharacteristicHazard as err:
        print(f"instability: {err}", file=sys.stderr)
        return EXIT_INSTABILITY
    except Exception as err:  # a failed self-check or any other bug
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_render_text(report))
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
