from fractions import Fraction

import pytest

from lodeg import invariants
from lodeg.conormal import DegenerateSlice, VarietySpec
from lodeg.invariants import (
    DegreeVector,
    NotACone,
    bidegrees,
    bidegrees_from_chern_mather,
    chern_mather_from_bidegrees,
    critical_correspondence,
    dual_contains_hyperplane_at_infinity,
    euler_obstruction_at_cone_point,
    euler_obstruction_with_bidegrees,
    lo_degree,
    polar_degrees,
    sectional_lo_degrees,
    variety_degree,
    verify_identities,
    verify_polar_relation,
    verify_sectional_bidegrees,
)
from lodeg.randomness import SeedStream, derive_seed


@pytest.fixture(scope="module")
def origin():
    return VarietySpec.define(("x1", "x2"), ["x1", "x2"])


@pytest.fixture(scope="module")
def twisted_cubic():
    # Three generators for a codimension-2 curve: one multiplier is excess.
    return VarietySpec.define(
        ("x", "y", "z"),
        ["y - x^2", "z - x*y", "x*z - y^2"],
    )


class TestDegreeVector:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            DegreeVector("mystery", (1,), 0, 1)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            DegreeVector("bidegree", (1, 2), 2, 3)

    def test_alternating_sum(self):
        vec = DegreeVector("bidegree", (1, 4, 5, 3), 3, 4)
        assert vec.alternating_sum() == -1 + 4 - 5 + 3


class TestLoDegree:
    def test_sphere(self, sphere):
        assert lo_degree(sphere) == 2

    def test_explicit_covector(self, sphere):
        assert lo_degree(sphere, covector=(10, 5, 17)) == 2

    def test_point(self, origin):
        assert lo_degree(origin) == 1

    def test_cone_has_none(self, quadric_cone):
        assert lo_degree(quadric_cone) == 0


class TestBidegrees:
    def test_sphere(self, sphere):
        b = bidegrees(sphere)
        assert b.values == (2, 2, 2)
        assert b.kind == "bidegree"
        assert b.dimension == 2
        assert b.ambient == 3

    def test_affine_cubic(self, affine_cubic):
        assert bidegrees(affine_cubic).values == (2, 4, 3)

    def test_space_curve(self, space_curve):
        assert bidegrees(space_curve).values == (6, 4)

    def test_cubic_binomial(self, cubic_binomial):
        assert bidegrees(cubic_binomial).values == (1, 4, 5, 3)

    def test_redundant_generators(self, twisted_cubic):
        assert bidegrees(twisted_cubic).values == (2, 3)

    def test_conormal_method_agrees(self, sphere):
        assert bidegrees(sphere, method="conormal").values == (2, 2, 2)

    def test_unknown_method(self, sphere):
        with pytest.raises(ValueError):
            bidegrees(sphere, method="sorcery")


class TestSectional:
    def test_sphere(self, sphere):
        s = sectional_lo_degrees(sphere)
        assert s.values == (2, 2, 2)
        assert s.kind == "sectional"

    def test_space_curve(self, space_curve):
        assert sectional_lo_degrees(space_curve).values == (6, 4)

    def test_redundant_generators(self, twisted_cubic):
        assert sectional_lo_degrees(twisted_cubic).values == (2, 3)


class TestVarietyDegree:
    def test_sphere(self, sphere):
        assert variety_degree(sphere) == 2

    def test_space_curve(self, space_curve):
        assert variety_degree(space_curve) == 4

    def test_cubic_binomial(self, cubic_binomial):
        assert variety_degree(cubic_binomial) == 3

    def test_top_entry_is_degree(self, affine_cubic):
        assert bidegrees(affine_cubic).values[-1] == variety_degree(affine_cubic)


class TestPolar:
    def test_sphere(self, sphere):
        delta = polar_degrees(sphere)
        assert delta.values == (2, 2, 2)
        assert delta.kind == "polar"

    def test_cubic_binomial(self, cubic_binomial):
        assert polar_degrees(cubic_binomial).values == (3, 6, 6, 3)

    def test_space_curve(self, space_curve):
        assert polar_degrees(space_curve).values == (8, 4)

    def test_hyperplane(self):
        plane = VarietySpec.define(("x1", "x2", "x3"), ["x3"])
        assert polar_degrees(plane).values == (0, 0, 1)

    def test_conormal_method_agrees(self, sphere):
        assert polar_degrees(sphere, method="conormal").values == (2, 2, 2)


class TestDualAtInfinity:
    def test_sphere(self, sphere):
        assert dual_contains_hyperplane_at_infinity(sphere) is False

    def test_cubic_binomial(self, cubic_binomial):
        assert dual_contains_hyperplane_at_infinity(cubic_binomial) is True

    def test_quadric_cone(self, quadric_cone):
        assert dual_contains_hyperplane_at_infinity(quadric_cone) is False


class TestTransforms:
    def test_forward_worked_example(self):
        b = bidegrees_from_chern_mather([-2, 4])
        assert b.values == (6, 4)
        assert b.kind == "bidegree"

    def test_inverse_worked_example(self):
        a = chern_mather_from_bidegrees([1, 4, 5, 3])
        assert a.values == (1, 3, 4, 3)
        assert a.kind == "chern_mather"

    def test_fixed_point(self):
        assert chern_mather_from_bidegrees([2, 2, 2]).values == (2, 2, 2)

    def test_affine_cubic_coefficients(self, affine_cubic):
        a = chern_mather_from_bidegrees(bidegrees(affine_cubic))
        assert a.values == (1, 2, 3)

    def test_roundtrip_random(self):
        from lodeg.randomness import SeedStream

        stream = SeedStream(77)
        for _ in range(20):
            d = stream.integer(0, 7)
            a = [stream.integer(-50, 51) for _ in range(d + 1)]
            if a[-1] == 0:
                a[-1] = 1
            back = chern_mather_from_bidegrees(bidegrees_from_chern_mather(a, d=d, n=d))
            assert back.values == tuple(a)

    def test_kind_enforced_on_degree_vectors(self):
        vec = DegreeVector("polar", (1, 1), 1, 2)
        with pytest.raises(ValueError):
            chern_mather_from_bidegrees(vec)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bidegrees_from_chern_mather([1, 2, 3], d=1)


class TestEulerObstruction:
    def test_quadric_cone(self, quadric_cone):
        assert euler_obstruction_at_cone_point(quadric_cone) == 0

    def test_hyperplane(self):
        plane = VarietySpec.define(("x1", "x2", "x3"), ["x3"])
        assert euler_obstruction_at_cone_point(plane) == 1

    def test_point(self, origin):
        assert euler_obstruction_at_cone_point(origin) == 1

    def test_rejects_inhomogeneous(self, sphere):
        with pytest.raises(NotACone):
            euler_obstruction_at_cone_point(sphere)

    def test_with_bidegrees(self, quadric_cone):
        value, b = euler_obstruction_with_bidegrees(quadric_cone)
        assert value == euler_obstruction_at_cone_point(quadric_cone) == 0
        assert b == bidegrees(quadric_cone)


class TestCorrespondence:
    def test_sphere_worked_example(self, sphere):
        report = critical_correspondence(
            sphere,
            1,
            covector=(10, 5, 17),
            slices=[((0, 0, 1), 6)],
        )
        assert report.count_critical == 2
        assert report.count_conormal == 2
        assert report.expected == 2
        assert report.generic is True

    def test_affine_cubic_nongeneric_data(self, affine_cubic):
        report = critical_correspondence(
            affine_cubic,
            1,
            covector=(10, 5, 17),
            slices=[((0, 0, 1), 6)],
        )
        assert report.count_critical == report.count_conormal == 1
        assert report.expected == 4
        assert report.generic is False

    def test_random_data_on_curve(self, space_curve):
        report = critical_correspondence(space_curve, 0, seed=3)
        assert report.count_critical == report.count_conormal == 6
        assert report.generic is True

    def test_codimension_bounds(self, sphere):
        with pytest.raises(ValueError):
            critical_correspondence(sphere, 5)

    def test_slice_count_mismatch(self, sphere):
        with pytest.raises(ValueError):
            critical_correspondence(
                sphere, 2, covector=(1, 2, 3), slices=[((0, 0, 1), 6)]
            )


class TestCorrespondenceRedraw:
    """Drawn data is redrawn when it degenerates, at most four times;
    explicit data is not redrawn."""

    @staticmethod
    def degenerate(monkeypatch, failures):
        real = invariants._correspondence_once
        seen = []

        def flaky(spec, i, seed, u, forms, policy, budget_secs):
            seen.append((u, forms))
            if len(seen) <= failures:
                raise DegenerateSlice(f"degenerate draw {len(seen)}")
            return real(spec, i, seed, u, forms, policy, budget_secs)

        monkeypatch.setattr(invariants, "_correspondence_once", flaky)
        return seen

    def test_one_degenerate_draw(self, monkeypatch, sphere):
        seen = self.degenerate(monkeypatch, 1)
        report = critical_correspondence(sphere, 1, seed=4)
        stream = SeedStream(derive_seed(4, 302))  # attempt 1
        u = [Fraction(c) for c in stream.coefficients(sphere.n)]
        coeffs = stream.coefficients(sphere.n)
        forms = [([Fraction(c) for c in coeffs], Fraction(stream.integer()))]
        assert seen[1:] == [(u, forms)]
        assert seen[0] != seen[1]
        assert report.count_critical == report.count_conormal == report.expected == 2

    def test_keeps_degenerating(self, monkeypatch, sphere):
        seen = self.degenerate(monkeypatch, 4)
        with pytest.raises(DegenerateSlice, match="kept degenerating: degenerate draw 4"):
            critical_correspondence(sphere, 1, seed=4)
        assert len(seen) == 4

    @pytest.mark.parametrize(
        "data",
        [{"covector": (10, 5, 17)}, {"slices": [((0, 0, 1), 6)]}],
        ids=["covector", "slices"],
    )
    def test_explicit_data_is_not_redrawn(self, monkeypatch, sphere, data):
        seen = self.degenerate(monkeypatch, 1)
        with pytest.raises(DegenerateSlice, match="degenerate draw 1"):
            critical_correspondence(sphere, 1, seed=4, **data)
        assert len(seen) == 1


class TestVerification:
    def test_sectional_identity_on_sphere(self, sphere):
        report = verify_sectional_bidegrees(sphere)
        assert report.passed is True
        assert report.left == report.right == (2, 2, 2)

    def test_polar_dichotomy_on_sphere(self, sphere):
        report = verify_polar_relation(sphere)
        assert report.passed is True
        assert report.left == report.right == (2, 2, 2)
        assert "dual contains hyperplane at infinity: False" in report.notes

    def test_polar_dichotomy_on_cone(self, quadric_cone):
        report = verify_polar_relation(quadric_cone)
        assert report.passed is True
        assert report.left == report.right == (0, 2, 2)

    def test_polar_dichotomy_on_cubic_binomial(self, cubic_binomial):
        report = verify_polar_relation(cubic_binomial)
        assert report.passed is True
        assert report.left == (1, 4, 5, 3)
        assert report.right == (3, 6, 6, 3)
        assert any("strictness" in note and "1 < 3 is True" in note for note in report.notes)

    def test_identities_share_the_public_checks(self, affine_cubic):
        # The dual of the affine cubic contains the hyperplane at infinity,
        # so the polar check takes its strictness branch.
        reports, warnings = verify_identities(affine_cubic, seed=4)
        assert reports[0] == verify_sectional_bidegrees(affine_cubic, seed=4)
        assert reports[1] == verify_polar_relation(affine_cubic, seed=4)
        assert any("strictness" in note for note in reports[1].notes)
        assert [r.identity for r in reports[2:]] == ["binomial transform round-trip"]
        assert all(r.passed for r in reports)
        assert warnings == ["generators are not homogeneous; cone-point check skipped"]
