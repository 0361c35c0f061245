"""Command line front end.

Input is a JSON file naming the variables and listing polynomial strings;
each subcommand is one row of ``COMMANDS``: its extra flags, one library
call and the builder of its ``results`` block.  Reports are deterministic
for a fixed (input, seed, primes) triple, except for the timings block,
which ``--no-timings`` removes when byte-identical output matters.  The
timings block holds one entry, keyed by the command name: the wall time of
the library call.  Per-stage times come from the benchmark's opt-in tracer
(``perfbench/run.py --trace 1``), not from the report.

Exit codes (the ``FAILURES`` table): 0 success, 2 the recounts never
agreed (including an unlucky random saturation, or a characteristic
hazard), 3 bad input (a usage error or a flag value out of range, such as a
``--budget-secs`` that is not a positive number of seconds; any
``poly.InputError``, including inputs whose degrees exceed what packed
monomials represent or whose generators have a Jacobian of too low a rank;
or data that degenerates a slice), 4 budget exhausted, 5 a verified
identity failed, 6 internal error.  Every failure prints one line to stderr and no
traceback; ``--help`` exits 0.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Any, Callable, NoReturn, Optional, Sequence

from . import invariants
from .conormal import DegenerateSlice, DimensionMismatch, VarietySpec
from .groebner import BudgetExceeded, CharacteristicHazard
from .poly import InputError, ParseError, residue_ring
from .randomness import DEFAULT_PRIMES, AgreementPolicy, Instability

EXIT_OK = 0
EXIT_INSTABILITY = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5
EXIT_INTERNAL = 6


# How ``main`` reports a failure: the first row whose exception types match
# gives the stderr prefix and the exit code; anything else is internal.
FAILURES: tuple[tuple[tuple[type[Exception], ...], str, int], ...] = (
    ((InputError, DegenerateSlice, DimensionMismatch), "input error", EXIT_INPUT),
    ((Instability, CharacteristicHazard), "instability", EXIT_INSTABILITY),
    ((BudgetExceeded,), "budget exceeded", EXIT_BUDGET),
)


def _load_variety(
    path: str, primes: tuple[int, ...], budget_secs: Optional[float]
) -> tuple[VarietySpec, dict[str, Any], list[str]]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as err:
        raise InputError(f"{path}: invalid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    variables = doc.get("variables")
    polynomials = doc.get("polynomials")
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise InputError(f"{path}: 'variables' must be a list of names")
    if not isinstance(polynomials, list) or not all(isinstance(p, str) for p in polynomials):
        raise InputError(f"{path}: 'polynomials' must be a list of strings")
    warnings: list[str] = []
    assumed = bool(doc.get("assumed_irreducible", True))
    try:
        spec = VarietySpec.define(
            variables, polynomials, assumed_irreducible=assumed, primes=primes,
            budget_secs=budget_secs,
        )
    except ParseError as err:
        raise InputError(f"{path}: polynomial parse error: {err}") from err
    except InputError as err:
        raise InputError(f"{path}: {err}") from err
    if "homogeneous" in doc:
        declared = bool(doc["homogeneous"])
        actual = spec.is_homogeneous()
        if declared and not actual:
            raise InputError(f"{path}: declared homogeneous but generators are not")
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
        raise InputError(f"covector needs {n} entries, got {len(parts)}")
    try:
        return [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as err:
        raise InputError(f"bad covector entry: {err}") from err


def _parse_slice_form(text: str, spec: VarietySpec) -> tuple[list[Fraction], Fraction]:
    """An affine form given as a polynomial string, e.g. ``x3-6`` for x3 = 6."""
    try:
        poly = spec.ring.parse(text)
    except ParseError as err:
        raise InputError(f"bad slice form {text!r}: {err}") from err
    if poly.total_degree() > 1:
        raise InputError(f"slice form {text!r} is not affine")
    coeffs = []
    for k in range(spec.n):
        unit = [0] * spec.n
        unit[k] = 1
        coeffs.append(Fraction(poly.coefficient(tuple(unit))))
    if all(c == 0 for c in coeffs):
        raise InputError(f"slice form {text!r} has no variable part")
    return coeffs, -Fraction(poly.constant_coefficient())


def _policy_from_args(args: argparse.Namespace) -> AgreementPolicy:
    primes = tuple(args.prime) if args.prime else DEFAULT_PRIMES
    residue_ring(primes)  # each prime must be a valid characteristic
    return AgreementPolicy(
        seeds_per_trial=args.trials, primes=primes, max_retries=3
    )


# One row per subcommand: its help, its library call (given the parsed
# input, the flags and the agreement policy), the builder of the report's
# ``results`` block from the call's value, the command's own warnings and
# its flags beyond the common ones.  Library functions are looked up when
# a command runs, so wrappers installed on ``invariants`` (tracing, tests)
# apply.
Call = Callable[[VarietySpec, argparse.Namespace, AgreementPolicy], Any]
Flag = tuple[str, dict[str, Any]]


@dataclass(frozen=True)
class Command:
    help: str
    call: Call
    payload: Callable[[Any], dict[str, Any]]
    warnings: Callable[[Any, argparse.Namespace], list[str]] = lambda value, args: []
    flags: tuple[Flag, ...] = ()


def _counted(name: str) -> Call:
    """The call ``invariants.<name>(spec, seed, policy=..., budget_secs=...)``."""
    return lambda spec, args, policy: getattr(invariants, name)(
        spec, args.seed, policy=policy, budget_secs=args.budget_secs
    )


def _covector(args: argparse.Namespace, spec: VarietySpec) -> Optional[list[Fraction]]:
    return _parse_covector(args.covector, spec.n) if args.covector else None


_COMMON_FLAGS: tuple[Flag, ...] = (
    ("input", {"help": "variety JSON file"}),
    ("--seed", {"type": int, "default": 0}),
    ("--prime", {"type": int, "action": "append",
                 "help": "prime modulus; repeat for agreement across several"}),
    ("--trials", {"type": int, "default": 2, "help": "independent seeds per agreement round"}),
    ("--budget-secs", {"type": float, "default": None}),
    ("--format", {"choices": ("json", "text"), "default": "json"}),
    ("--no-timings", {"action": "store_true",
                      "help": "omit wall times for byte-identical reports"}),
)
_COVECTOR: Flag = ("--covector", {"help": "comma-separated objective coefficients"})
_REPORT_FIELDS = ("identity", "passed", "left", "right", "notes")

COMMANDS: dict[str, Command] = {
    "lodeg": Command(
        "count critical points of a generic linear objective",
        lambda spec, args, policy: invariants.lo_degree(
            spec, args.seed, covector=_covector(args, spec), policy=policy,
            budget_secs=args.budget_secs,
        ),
        lambda value: {"lo_degree": value},
        warnings=lambda value, args: [
            "explicit covector supplied; the count is for that objective, "
            "not the generic one"
        ] if args.covector else [],
        flags=(_COVECTOR,),
    ),
    "bidegrees": Command(
        "slice counts of the conormal variety",
        _counted("bidegrees"), lambda b: {"bidegrees": asdict(b)},
    ),
    "sectional": Command(
        "critical-point counts after 0..d hyperplane sections",
        _counted("sectional_lo_degrees"), lambda s: {"sectional": asdict(s)},
    ),
    "polar": Command(
        "slice counts of the projective conormal variety",
        _counted("polar_degrees"), lambda delta: {"polar": asdict(delta)},
    ),
    "chern_mather": Command(
        "characteristic-class coefficients via the binomial transform",
        _counted("bidegrees"),
        lambda b: {
            "bidegrees": asdict(b),
            "chern_mather": asdict(invariants.chern_mather_from_bidegrees(b)),
        },
    ),
    "euler_obstruction": Command(
        "alternating sum of slice counts at a cone vertex",
        _counted("euler_obstruction_with_bidegrees"),
        lambda value: {"bidegrees": asdict(value[1]), "euler_obstruction": value[0]},
    ),
    "dual_infinity": Command(
        "does the dual variety contain the hyperplane at infinity",
        lambda spec, args, policy: invariants.dual_contains_hyperplane_at_infinity(
            spec, policy.primes[0], seed=args.seed, budget_secs=args.budget_secs
        ),
        lambda flag: {"dual_contains_hyperplane_at_infinity": flag},
    ),
    "correspondence": Command(
        "explicit objective and slice versus conormal intersections",
        lambda spec, args, policy: invariants.critical_correspondence(
            spec,
            args.i,
            args.seed,
            covector=_covector(args, spec),
            slices=[_parse_slice_form(s, spec) for s in args.slice] if args.slice else None,
            policy=policy,
            budget_secs=args.budget_secs,
        ),
        lambda report: {"correspondence": asdict(report)},
        flags=(
            _COVECTOR,
            ("--i", {"type": int, "required": True, "help": "number of affine sections"}),
            ("--slice", {"action": "append",
                         "help": "affine form, e.g. 'x3-6' for the section x3=6"}),
        ),
    ),
    "verify": Command(
        "run the identity checks and report pass/fail",
        _counted("verify_identities"),
        lambda outcome: {
            "reports": [{key: getattr(r, key) for key in _REPORT_FIELDS} for r in outcome[0]],
            "all_passed": all(r.passed for r in outcome[0]),
        },
        warnings=lambda outcome, args: outcome[1],
    ),
}


def _run_command(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    # NaN would never run out, and infinity neither; both print as invalid
    # JSON in the report.
    if args.budget_secs is not None and not 0 < args.budget_secs < math.inf:
        raise InputError(
            f"--budget-secs must be a positive number of seconds, got {args.budget_secs}"
        )
    policy = _policy_from_args(args)
    spec, meta, warnings = _load_variety(args.input, policy.primes, args.budget_secs)
    command = COMMANDS[args.command]
    start = time.perf_counter()
    value = command.call(spec, args, policy)
    elapsed = round(time.perf_counter() - start, 3)
    results = command.payload(value)
    report = {
        "command": args.command,
        "input": meta,
        "config": {
            "seed": args.seed,
            "primes": list(policy.primes),
            "trials": policy.seeds_per_trial,
            "budget_secs": args.budget_secs,
        },
        "results": results,
        "warnings": warnings + command.warnings(value, args),
    }
    if not args.no_timings:
        report["timings"] = {args.command: elapsed}
    return report, EXIT_OK if results.get("all_passed", True) else EXIT_VERIFY


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
        lines.append(f"time: {report['timings'][report['command']]:.3f}s")
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an input error (exit 3, one line)."""

    def error(self, message: str) -> NoReturn:
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and kept."""
    parser = _Parser(
        prog="lodeg",
        description="Exact critical-point counts of linear objectives on affine varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, options in _COMMON_FLAGS + command.flags:
            p.add_argument(flag, **options)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report, exit_code = _run_command(args)
    except Exception as err:
        for kinds, prefix, code in FAILURES:
            if isinstance(err, kinds):
                print(f"{prefix}: {err}", file=sys.stderr)
                return code
        # A failed self-check or any other bug.
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_render_text(report))
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
