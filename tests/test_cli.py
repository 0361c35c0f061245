import dataclasses
import json
import os
import subprocess
import sys

import pytest

from lodeg import groebner, invariants
from lodeg.cli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_INSTABILITY,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VERIFY,
    build_parser,
    main,
)
from lodeg.poly import PACK_LIMIT
from lodeg.randomness import DEFAULT_PRIMES, derive_seed

from conftest import data_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


class TestReports:
    def test_bidegrees_sphere(self, capsys):
        code, report = run_json(capsys, "bidegrees", data_path("sphere.json"))
        assert code == EXIT_OK
        assert report["command"] == "bidegrees"
        assert report["results"]["bidegrees"]["values"] == [2, 2, 2]
        assert report["results"]["bidegrees"]["kind"] == "bidegree"
        assert report["input"]["variables"] == ["x1", "x2", "x3"]
        assert len(report["input"]["sha256"]) == 64
        assert report["config"]["seed"] == 0
        assert report["config"]["trials"] == 2
        assert "timings" in report

    def test_lodeg_with_covector(self, capsys):
        code, report = run_json(
            capsys, "lodeg", data_path("sphere.json"), "--covector", "10,5,17"
        )
        assert code == EXIT_OK
        assert report["results"]["lo_degree"] == 2
        assert any("explicit covector" in w for w in report["warnings"])

    def test_sectional(self, capsys):
        code, report = run_json(capsys, "sectional", data_path("sphere.json"))
        assert code == EXIT_OK
        assert report["results"]["sectional"]["values"] == [2, 2, 2]

    def test_polar(self, capsys):
        code, report = run_json(capsys, "polar", data_path("sphere.json"))
        assert code == EXIT_OK
        assert report["results"]["polar"]["values"] == [2, 2, 2]

    def test_chern_mather(self, capsys):
        code, report = run_json(
            capsys, "chern_mather", data_path("cubic_binomial.json")
        )
        assert code == EXIT_OK
        assert report["results"]["bidegrees"]["values"] == [1, 4, 5, 3]
        assert report["results"]["chern_mather"]["values"] == [1, 3, 4, 3]

    def test_euler_obstruction(self, capsys):
        code, report = run_json(
            capsys, "euler_obstruction", data_path("quadric_cone.json")
        )
        assert code == EXIT_OK
        assert report["results"]["euler_obstruction"] == 0

    def test_dual_infinity_false(self, capsys):
        code, report = run_json(capsys, "dual_infinity", data_path("sphere.json"))
        assert code == EXIT_OK
        assert report["results"]["dual_contains_hyperplane_at_infinity"] is False

    def test_dual_infinity_uses_the_requested_prime(self, monkeypatch, capsys):
        real = invariants.projective_conormal_ideal
        primes = []

        def spied(spec, p, **kwargs):
            primes.append(p)
            return real(spec, p, **kwargs)

        monkeypatch.setattr(invariants, "projective_conormal_ideal", spied)
        code, report = run_json(
            capsys, "dual_infinity", data_path("sphere.json"), "--prime", "2147483629"
        )
        assert code == EXIT_OK
        assert report["config"]["primes"] == [2147483629]
        assert primes == [2147483629]

    def test_dimension_uses_the_requested_prime(self, monkeypatch, capsys):
        from lodeg import conormal

        real = conormal.krull_dimension
        fields = []

        def spied(source):
            fields.append(source.ring.field_)
            return real(source)

        monkeypatch.setattr(conormal, "krull_dimension", spied)
        code, report = run_json(
            capsys, "lodeg", data_path("sphere.json"), "--prime", "2147483629"
        )
        assert code == EXIT_OK
        assert report["results"]["lo_degree"] == 2
        assert fields
        assert all(fld.p % 2147483647 for fld in fields)

    def test_budget_reaches_the_input_dimension(self, deadline_budgets, capsys):
        # Every Groebner basis, the input's dimension first, gets the budget.
        code, report = run_json(
            capsys, "sectional", data_path("sphere.json"), "--budget-secs", "7"
        )
        assert code == EXIT_OK
        assert report["results"]["sectional"]["values"] == [2, 2, 2]
        assert deadline_budgets and set(deadline_budgets) == {7.0}

    def test_input_warnings(self, tmp_path, capsys):
        cone = tmp_path / "cone.json"
        cone.write_text(json.dumps({
            "variables": ["x", "y", "z"],
            "polynomials": ["x^2 + y^2 - z^2"],
            "homogeneous": False,
            "assumed_irreducible": False,
        }))
        warnings = [
            "generators are homogeneous although the file says otherwise",
            "input declared possibly reducible; counts are reported without "
            "irreducibility guarantees",
        ]
        code, report = run_json(capsys, "lodeg", str(cone))
        assert code == EXIT_OK
        assert report["warnings"] == warnings
        code, out, err = run_cli(capsys, "lodeg", str(cone), "--format", "text")
        assert code == EXIT_OK
        assert err == ""
        assert [line for line in out.splitlines() if line.startswith("warning: ")] == [
            f"warning: {w}" for w in warnings
        ]

    def test_double_star_powers(self, tmp_path, capsys):
        # ^ and ** both denote powers: the same input written with ** gives
        # the same results.
        with open(data_path("cubic_binomial.json")) as f:
            doc = json.load(f)
        starred = tmp_path / "starred.json"
        doc["polynomials"] = [p.replace("^", "**") for p in doc["polynomials"]]
        assert any("**" in p for p in doc["polynomials"])
        starred.write_text(json.dumps(doc))
        runs = [
            run_json(capsys, "bidegrees", path, "--no-timings")
            for path in (data_path("cubic_binomial.json"), str(starred))
        ]
        assert [code for code, _ in runs] == [EXIT_OK, EXIT_OK]
        assert runs[0][1]["results"] == runs[1][1]["results"]

    def test_dimension_disagreement_is_instability(self, tmp_path, capsys):
        split = tmp_path / "split.json"
        split.write_text(
            json.dumps({"variables": ["x", "y"], "polynomials": ["2147483647*x + y", "y"]})
        )
        code, out, err = run_cli(capsys, "lodeg", str(split))
        assert code == EXIT_INSTABILITY
        assert out == ""
        assert err == (
            "instability: dimension of the vanishing locus: no agreement across trials: "
            "(seed=0, prime=2147483629) -> 0, (seed=0, prime=2147483647) -> 1\n"
        )

    def test_correspondence_worked_example(self, capsys):
        code, report = run_json(
            capsys,
            "correspondence",
            data_path("sphere.json"),
            "--i", "1",
            "--covector", "10,5,17",
            "--slice", "x3-6",
        )
        assert code == EXIT_OK
        body = report["results"]["correspondence"]
        assert body["count_critical"] == 2
        assert body["count_conormal"] == 2
        assert body["generic"] is True

    def test_verify_counts_bidegrees_once(self, monkeypatch, capsys):
        real = invariants.bidegrees
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(invariants, "bidegrees", counted)
        code, report = run_json(capsys, "verify", data_path("quadric_cone.json"))
        assert code == EXIT_OK
        assert report["results"]["all_passed"] is True
        assert len(calls) == 1

    def test_verify_reports_a_failed_round_trip(self, monkeypatch, capsys):
        def wrong(a, n=None):
            return invariants.DegreeVector("bidegree", (9,) * len(a.values), a.dimension, a.ambient)

        monkeypatch.setattr(invariants, "bidegrees_from_chern_mather", wrong)
        code, report = run_json(capsys, "verify", data_path("quadric_cone.json"))
        assert code == EXIT_VERIFY
        assert report["results"]["all_passed"] is False
        (round_trip,) = [
            r for r in report["results"]["reports"] if r["identity"] == ROUND_TRIP
        ]
        assert round_trip["passed"] is False
        assert round_trip["right"] == [9, 9, 9]

    def test_timings_one_entry_per_command(self, capsys):
        code, report = run_json(capsys, "verify", data_path("sphere.json"))
        assert code == EXIT_OK
        assert list(report["timings"]) == ["verify"]

    def test_verify_passes(self, capsys):
        code, report = run_json(capsys, "verify", data_path("sphere.json"))
        assert code == EXIT_OK
        assert report["results"]["all_passed"] is True
        identities = [r["identity"] for r in report["results"]["reports"]]
        assert len(identities) == len(set(identities)) == 3


class TestDeterminism:
    def test_reports_are_byte_identical_without_timings(self, capsys):
        args = ("bidegrees", data_path("space_curve.json"), "--no-timings")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        assert "timings" not in json.loads(first)

    def test_prime_and_trials_flags(self, capsys):
        code, report = run_json(
            capsys,
            "bidegrees",
            data_path("sphere.json"),
            "--prime", "2147483647",
            "--trials", "1",
        )
        assert code == EXIT_OK
        assert report["config"]["primes"] == [2147483647]
        assert report["config"]["trials"] == 1
        assert report["results"]["bidegrees"]["values"] == [2, 2, 2]


def _identity(name, left, right, notes=()):
    return {"identity": name, "passed": True, "left": left, "right": right, "notes": list(notes)}


SECTIONAL = "sectional counts match conormal slice counts"
DICHOTOMY = "affine vs projective conormal count dichotomy"
ROUND_TRIP = "binomial transform round-trip"
CONE_POINT = "alternating sum equals transform's 0th entry"
NOT_AT_INFINITY = "dual contains hyperplane at infinity: False"


class TestReportSnapshots:
    """Whole ``results`` and ``warnings`` blocks, pinned exactly."""

    def snapshot(self, capsys, *argv):
        code, report = run_json(capsys, *argv, "--no-timings")
        assert code == EXIT_OK
        return report["results"], report["warnings"]

    def test_verify_quadric_cone(self, capsys):
        results, warnings = self.snapshot(capsys, "verify", data_path("quadric_cone.json"))
        assert results == {
            "all_passed": True,
            "reports": [
                _identity(SECTIONAL, [0, 2, 2], [0, 2, 2]),
                _identity(DICHOTOMY, [0, 2, 2], [0, 2, 2], [NOT_AT_INFINITY]),
                _identity(ROUND_TRIP, [0, 2, 2], [0, 2, 2]),
                _identity(CONE_POINT, [0], [0]),
            ],
        }
        assert warnings == []

    def test_verify_sphere(self, capsys):
        results, warnings = self.snapshot(capsys, "verify", data_path("sphere.json"))
        assert results == {
            "all_passed": True,
            "reports": [
                _identity(SECTIONAL, [2, 2, 2], [2, 2, 2]),
                _identity(DICHOTOMY, [2, 2, 2], [2, 2, 2], [NOT_AT_INFINITY]),
                _identity(ROUND_TRIP, [2, 2, 2], [2, 2, 2]),
            ],
        }
        assert warnings == ["generators are not homogeneous; cone-point check skipped"]

    def test_correspondence_worked_example(self, capsys):
        results, warnings = self.snapshot(
            capsys,
            "correspondence",
            data_path("sphere.json"),
            "--i", "1",
            "--covector", "10,5,17",
            "--slice", "x3-6",
        )
        assert results == {
            "correspondence": {
                "i": 1,
                "seed": 0,
                "count_critical": 2,
                "count_conormal": 2,
                "generic": True,
                "expected": 2,
            }
        }
        assert warnings == []


class TestTextFormat:
    def test_bidegrees_text(self, capsys):
        code, out, err = run_cli(
            capsys, "bidegrees", data_path("sphere.json"), "--format", "text"
        )
        assert code == EXIT_OK
        assert "bidegrees: (2, 2, 2)" in out
        assert "command: bidegrees" in out

    def test_verify_text_lists_identities(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", data_path("quadric_cone.json"), "--format", "text"
        )
        assert code == EXIT_OK
        assert out.count("[pass]") == 4

    def test_correspondence_text(self, capsys):
        code, out, err = run_cli(
            capsys, "correspondence", data_path("sphere.json"), "--i", "1",
            "--format", "text", "--no-timings",
        )
        assert code == EXIT_OK
        assert err == ""
        assert out.splitlines()[3:] == [
            "correspondence.i: 1",
            "correspondence.seed: 0",
            "correspondence.count_critical: 2",
            "correspondence.count_conormal: 2",
            "correspondence.generic: True",
            "correspondence.expected: 2",
        ]


class TestFailures:
    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, "bidegrees", "no_such_file.json")
        assert code == EXIT_INPUT
        assert "input error" in err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "bidegrees", str(bad))
        assert code == EXIT_INPUT
        assert "invalid JSON" in err

    def test_bad_polynomial(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"variables": ["x"], "polynomials": ["x +* 1"]}))
        code, _, err = run_cli(capsys, "bidegrees", str(bad))
        assert code == EXIT_INPUT
        assert "parse error" in err

    @pytest.mark.parametrize("command", ["bidegrees", "sectional"])
    def test_generator_vanishing_modulo_a_prime(self, command, tmp_path, capsys):
        # The line x = -1 is the whole plane modulo 2147483647.
        line = tmp_path / "line.json"
        line.write_text(
            json.dumps({"variables": ["x", "y"], "polynomials": ["2147483647*x + 2147483647"]})
        )
        code, out, err = run_cli(capsys, command, str(line), "--prime", "2147483647")
        assert code == EXIT_INPUT
        assert out == ""
        assert err == (
            f"input error: {line}: generator 2147483647*x + 2147483647 vanishes modulo "
            "the prime 2147483647\n"
        )
        code, out, _ = run_cli(capsys, command, str(line), "--prime", "2147483629")
        assert code == EXIT_OK
        assert json.loads(out)["results"][command]["values"] == [0, 1]

    def test_false_homogeneity_claim(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "variables": ["x", "y"],
                    "polynomials": ["x^2 + y - 1"],
                    "homogeneous": True,
                }
            )
        )
        code, _, err = run_cli(capsys, "bidegrees", str(bad))
        assert code == EXIT_INPUT
        assert "declared homogeneous" in err

    def test_euler_obstruction_needs_cone(self, capsys):
        code, _, err = run_cli(
            capsys, "euler_obstruction", data_path("sphere.json")
        )
        assert code == EXIT_INPUT
        assert "homogeneous" in err

    def test_euler_obstruction_rejects_before_counting(self, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("bidegrees counted for a non-cone")

        monkeypatch.setattr(invariants, "bidegrees", never)
        code, out, err = run_cli(capsys, "euler_obstruction", data_path("sphere.json"))
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "input error: all generators must be homogeneous\n"

    def test_saturation_disagreement_is_instability(self, monkeypatch, capsys):
        real = groebner.saturate
        calls = []

        def drifting(ideal, g):
            out = real(ideal, g)
            calls.append(out)
            if len(calls) % 2 == 0:
                ring = out.ring
                out = groebner.GroebnerBasis(ring, out.basis + (ring.gen(0) ** 7,))
            return out

        monkeypatch.setattr(groebner, "saturate", drifting)
        code, out, err = run_cli(capsys, "dual_infinity", data_path("sphere.json"))
        assert code == EXIT_INSTABILITY == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("instability: saturation by random combinations")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1, 2], "expected a JSON object"),
            ({"variables": "x", "polynomials": ["x"]}, "'variables' must be a list of names"),
            ({"variables": ["x"], "polynomials": [1]}, "'polynomials' must be a list of strings"),
        ],
        ids=["not-an-object", "variables", "polynomials"],
    )
    def test_json_shape(self, doc, message, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "bidegrees", str(bad))
        assert code == EXIT_INPUT
        assert out == ""
        assert err == f"input error: {bad}: {message}\n"

    @pytest.mark.parametrize(
        "extra, start",
        [
            (["--covector", "1,x,3"], "input error: bad covector entry: "),
            (["--covector", "1,1/0,3"], "input error: bad covector entry: zero denominator in '1/0'\n"),
            (["--slice", "5"], "input error: slice form '5' has no variable part\n"),
            (["--slice", "x3+*"], "input error: bad slice form 'x3+*': "),
        ],
        ids=["covector-literal", "covector-zero-denominator", "slice-constant", "slice-parse"],
    )
    def test_bad_correspondence_data(self, extra, start, capsys):
        code, out, err = run_cli(
            capsys, "correspondence", data_path("sphere.json"), "--i", "1", *extra
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith(start)
        assert err.count("\n") == 1

    def test_slice_that_leaves_the_dimension(self, tmp_path, capsys):
        # x already vanishes on the z-axis, so the slice x = 0 cuts nothing.
        axis = tmp_path / "axis.json"
        axis.write_text(json.dumps({"variables": ["x", "y", "z"], "polynomials": ["x", "y"]}))
        code, out, err = run_cli(
            capsys, "correspondence", str(axis), "--i", "1", "--slice", "x", "--covector", "1,2,3"
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "input error: dimension 1 after cutting, expected 0\n"

    def test_b0_against_the_critical_point_count(self, monkeypatch, capsys):
        # Each value is keyed by the seed it was agreed from, at every prime.
        real = invariants.lo_degree
        monkeypatch.setattr(invariants, "lo_degree", lambda *a, **kw: real(*a, **kw) + 1)
        code, out, err = run_cli(capsys, "bidegrees", data_path("sphere.json"))
        assert code == EXIT_INSTABILITY
        assert out == ""
        observed = {(derive_seed(0, 11), p): 2 for p in DEFAULT_PRIMES}
        observed.update({(derive_seed(0, 7), p): 3 for p in DEFAULT_PRIMES})
        assert err == (
            "instability: slice count at codimension 0 vs critical point count: "
            "no agreement across trials: "
            + ", ".join(f"(seed={s}, prime={p}) -> {v}" for (s, p), v in sorted(observed.items()))
            + "\n"
        )

    def test_covector_width(self, capsys):
        code, _, err = run_cli(
            capsys, "lodeg", data_path("sphere.json"), "--covector", "1,2"
        )
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "argv",
        [
            ["lodeg", data_path("sphere.json"), "--covector", "0,0,0"],
            ["correspondence", data_path("sphere.json"), "--i", "1", "--covector", "0,0/7,0"],
        ],
        ids=["lodeg", "correspondence"],
    )
    def test_zero_covector(self, argv, capsys):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "input error: covector has no nonzero entry: every point is critical for it\n"

    def test_objective_constant_on_the_slice(self, capsys):
        code, out, err = run_cli(
            capsys, "correspondence", data_path("sphere.json"),
            "--i", "1", "--covector", "0,0,1", "--slice", "x3-6",
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "input error: the objective is constant on the sliced variety\n"

    def test_nonaffine_slice_form(self, capsys):
        code, _, err = run_cli(
            capsys,
            "correspondence",
            data_path("sphere.json"),
            "--i", "1",
            "--slice", "x3^2-6",
        )
        assert code == EXIT_INPUT
        assert "not affine" in err

    def test_prime_beyond_one_64_bit_word(self, capsys):
        # 2**64 + 13 is prime; the largest accepted prime is 2**64 - 59.
        code, out, err = run_cli(
            capsys, "lodeg", data_path("sphere.json"), "--prime", "18446744073709551629"
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err == (
            "input error: characteristic must be an odd prime between 2**30 and 2**64, "
            "got 18446744073709551629\n"
        )

    def test_degree_beyond_packed_monomials(self, tmp_path, capsys):
        # Degree 16383 parses and packs; the computation's first S-pair
        # reaches degree 16384, the engine's limit.  Both variables carry
        # that degree, so the hypersurface's divided dual equations, one
        # degree lower, still reach it.
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"variables": ["x", "y"], "polynomials": ["x^16383 + y^16383 - 1"]}))
        code, out, err = run_cli(capsys, "lodeg", str(big))
        assert code == EXIT_INPUT
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("input error: a monomial reached degree 16384")
        assert err.count("\n") == 1

    def test_degree_at_the_limit_stops_at_parse(self, tmp_path, capsys):
        # x^16384 never becomes a polynomial: the parser raises, with the
        # line a Groebner basis of it used to give.
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"variables": ["x", "y"], "polynomials": ["x^16384 + y^2 - 1"]}))
        code, out, err = run_cli(capsys, "lodeg", str(big))
        assert code == EXIT_INPUT
        assert out == ""
        assert err == (
            f"input error: {big}: a monomial reached degree 16384; Groebner computations need "
            "degrees below 16384 (under a block order, each block's degree; under lex, each exponent)\n"
        )

    def test_degree_beyond_packed_monomials_in_restrict_base(self, monkeypatch, capsys):
        # A source term of degree 16384 for restrict_base cannot be built:
        # the power raises where it is formed, before any Groebner basis,
        # with the same exit 3.
        real = invariants.restrict_base

        def too_wide(system, forms):
            wide = system.ring.gen(0) ** PACK_LIMIT
            return real(dataclasses.replace(system, equations=(wide,)), forms)

        monkeypatch.setattr(invariants, "restrict_base", too_wide)
        code, out, err = run_cli(capsys, "bidegrees", data_path("sphere.json"))
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("input error: a monomial reached degree 16384")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["lodeg", data_path("sphere.json"), "--prime", "7"],
            ["correspondence", data_path("sphere.json"), "--i", "5"],
            ["correspondence", data_path("sphere.json"), "--i", "1", "--slice", "x3-6", "--slice", "x2"],
            ["lodeg", data_path("sphere.json"), "--trials", "0"],
        ],
        ids=["small-prime", "i-beyond-dimension", "two-slices-for-one", "no-trials"],
    )
    def test_bad_flag_values_are_input_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("input error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "0", "-1", "inf"])
    def test_budget_must_be_a_positive_number_of_seconds(self, capsys, value):
        # NaN and infinity never run out, and print as invalid JSON; zero
        # and negative budgets run out at once.
        code, out, err = run_cli(capsys, "lodeg", data_path("sphere.json"), "--budget-secs", value)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("input error: budget must be a positive number of seconds")
        assert err.count("\n") == 1

    def test_budget_exhausted(self, capsys):
        # The budget prints as given, not rounded to 0.0s.
        code, out, err = run_cli(
            capsys, "dual_infinity", data_path("det3.json"), "--budget-secs", "1e-6"
        )
        assert code == EXIT_BUDGET == 4
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("budget exceeded: ")
        assert err.endswith(": budget of 1e-06s exhausted\n")
        assert err.count("\n") == 1

    def test_duplicate_variable_is_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"variables": ["x", "x"], "polynomials": ["x - 1"]}))
        code, _, err = run_cli(capsys, "lodeg", str(bad))
        assert code == EXIT_INPUT
        assert "duplicate variable names" in err

    @pytest.mark.parametrize(
        "command",
        [
            ["bidegrees"],
            ["sectional"],
            ["polar"],
            ["chern_mather"],
            ["correspondence", "--i", "0"],
            ["correspondence", "--i", "1"],
        ],
        ids=" ".join,
    )
    def test_degenerate_jacobian_is_an_input_error(self, tmp_path, capsys, command):
        # x^2 cuts out the line x = 0 with a zero Jacobian there, so the
        # top count, deg X, comes out 0.
        bad = tmp_path / "double_line.json"
        bad.write_text(json.dumps({"variables": ["x", "y"], "polynomials": ["x^2"]}))
        code, out, err = run_cli(capsys, command[0], str(bad), *command[1:])
        assert code == EXIT_INPUT
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("input error: ")
        assert "Jacobian of full rank" in err
        assert err.count("\n") == 1

    def test_conormal_dimension_mismatch_is_an_input_error(self, tmp_path, capsys):
        # Over the double line x^2 the rank-deficient locus is all of it, so
        # the saturation leaves nothing.
        bad = tmp_path / "double_line.json"
        bad.write_text(json.dumps({"variables": ["x", "y"], "polynomials": ["x^2"]}))
        code, out, err = run_cli(capsys, "dual_infinity", str(bad))
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "input error: projective conormal cone has dimension -1, expected 3\n"

    def test_internal_value_error_is_not_an_input_error(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("an internal check failed")

        monkeypatch.setattr(invariants, "count_points", broken)
        code, out, err = run_cli(capsys, "lodeg", data_path("sphere.json"))
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err == "internal error: ValueError: an internal check failed\n"

    def test_internal_error_is_one_line(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("self-check failed")

        monkeypatch.setattr(invariants, "count_points", broken)
        code, out, err = run_cli(capsys, "lodeg", data_path("sphere.json"))
        assert code == EXIT_INTERNAL == 6
        assert out == ""
        assert "Traceback" not in err
        assert err == "internal error: RuntimeError: self-check failed\n"


class TestParser:
    def test_commands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["bidegrees", "foo.json", "--seed", "4"])
        assert args.command == "bidegrees"
        assert args.seed == 4

    def test_correspondence_requires_i(self, capsys):
        code, out, err = run_cli(capsys, "correspondence", "foo.json")
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "input error: the following arguments are required: --i\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["bidegrees", "foo.json", "--frobnicate"],
            ["bidegrees", "foo.json", "--seed", "x"],
            ["transmogrify", "foo.json"],
            [],
        ],
        ids=["unknown-flag", "bad-seed", "unknown-command", "no-command"],
    )
    def test_usage_errors_are_input_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("input error: ")
        assert err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["bidegrees", "--help"])
        assert exit_.value.code == 0
        assert "--budget-secs" in capsys.readouterr().out

    def test_import_leaves_numpy_out(self):
        # The package has no runtime dependency: a fresh interpreter that
        # imports it and its CLI has not imported numpy.
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = f"import sys; sys.path.insert(0, {src!r}); import lodeg, lodeg.cli; print('numpy' in sys.modules)"
        done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()
