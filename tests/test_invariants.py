from fractions import Fraction
from pathlib import Path

import pytest
from conftest import load_spec

from lodeg import conormal, invariants
from lodeg.conormal import (
    DegenerateSlice,
    VarietySpec,
    multiplier_system,
    projective_multiplier_system,
    slice_variety,
)
from lodeg.invariants import (
    DegreeVector,
    NotACone,
    bidegrees,
    bidegrees_from_chern_mather,
    chern_mather_from_bidegrees,
    critical_correspondence,
    dual_contains_hyperplane_at_infinity,
    euler_obstruction_with_bidegrees,
    lo_degree,
    polar_degrees,
    sectional_lo_degrees,
    variety_degree,
    verify_identities,
)
from lodeg.groebner import Ideal, buchberger, quotient_basis
from lodeg.poly import QQ, InputError, PrimeField, ResidueRing, SplitModulus, fresh_name, residue_ring
from lodeg.randomness import DEFAULT_PRIMES, SeedStream, derive_seed


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


@pytest.fixture(scope="module")
def twisted_cubic_cone():
    # The affine cone over the twisted cubic: codimension 2, three generators.
    return load_spec("twisted_cubic_cone.json")


def _sphere():
    # A fresh spec: the shared conftest fixtures keep the systems already built.
    return VarietySpec.define(("x1", "x2", "x3"), ["x1^2 + x2^2 + x3^2 - 100"])


class TestKeptSystems:
    """A multiplier system is assembled once per (spec, modulus) and kept on
    the spec, so every grid evaluation of a command shares it."""

    @pytest.fixture
    def built(self, monkeypatch):
        fields = []
        real = conormal._assemble_multiplier_system

        def spy(gens, codim):
            fields.append(gens[0].ring.field_)
            return real(gens, codim)

        monkeypatch.setattr(conormal, "_assemble_multiplier_system", spy)
        return fields

    def test_one_system_per_bidegrees_call(self, built):
        # Three slice counts and the critical point count, two seeds each.
        assert bidegrees(_sphere()).values == (2, 2, 2)
        assert built == [residue_ring(DEFAULT_PRIMES)]

    def test_one_system_per_polar_call(self, built):
        assert polar_degrees(_sphere()).values == (2, 2, 2)
        assert built == [residue_ring(DEFAULT_PRIMES)]

    def test_per_prime_systems_after_a_split(self, built, monkeypatch):
        real = invariants.count_points

        def splitting(ideal, seed, budget_secs=None):
            if isinstance(ideal.ring.field_, ResidueRing):
                raise SplitModulus("every trial splits")
            return real(ideal, seed=seed, budget_secs=budget_secs)

        monkeypatch.setattr(invariants, "count_points", splitting)
        assert lo_degree(_sphere()) == 2
        assert built == [residue_ring(DEFAULT_PRIMES)] + [PrimeField(p) for p in DEFAULT_PRIMES]

    def test_a_sliced_spec_keeps_its_own(self, built):
        spec = _sphere()
        fld = residue_ring(DEFAULT_PRIMES)
        system = multiplier_system(spec, fld)
        assert multiplier_system(spec, fld) is system
        assert projective_multiplier_system(spec, fld) is not system
        sliced = slice_variety(spec, 1, seed=5).spec
        assert multiplier_system(sliced, fld) is not system
        assert multiplier_system(sliced, fld).base_count == 2
        assert built == [fld] * 3
        # sectional counts on the spec and each of its d sections.
        built.clear()
        assert sectional_lo_degrees(_sphere()).values == (2, 2, 2)
        assert built == [fld] * 3


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


class TestOneSlicePath:
    """For one child seed, ``_slice_count`` receives the same point and dual
    forms whichever presentation ``method`` builds: the explicit ideal is
    cut by the multiplier route's own draws."""

    @pytest.mark.parametrize("i", range(3))
    @pytest.mark.parametrize(
        "computation", [invariants._bidegree_computation, invariants._polar_computation]
    )
    def test_methods_share_the_forms(self, sphere, computation, i, monkeypatch):
        seen = {}
        for method in ("multiplier", "conormal"):
            def recorded(system, point_forms, dual_forms, stream, count_seed, budget_secs):
                seen[method] = (system, point_forms, dual_forms, count_seed)
                return {}

            monkeypatch.setattr(invariants, "_slice_count", recorded)
            computation(sphere, i, None, method)(derive_seed(4, i), (DEFAULT_PRIMES[0],))
        by_multiplier, by_conormal = seen["multiplier"], seen["conormal"]
        assert by_multiplier[1:] == by_conormal[1:]
        assert len(by_multiplier[1]) == i + (computation is invariants._polar_computation)
        # One multiplier against one dual variable per coordinate.
        assert by_multiplier[0].multiplier_count == 1
        assert by_conormal[0].multiplier_count == by_conormal[0].base_count


class TestHandDerivedEntries:
    """Bidegree entries of two determinantal cones, each derived by hand
    rather than read from a lodeg run.

    Entry i counts the critical points of a generic linear objective on X
    cut by i generic affine hyperplanes (the paper's theorem).  For a cone
    X in C^n, that section is the affine part of a section of the
    projective variety P(X) by a generic linear space of dimension n - i - 1.
    The conormal variety projects onto the affine cone over the dual
    variety, of dimension e, so fewer than i = n - e point conditions leave
    n - i > e generic dual conditions that miss it: b_i = 0 for i < n - e.
    At i = n - e the dual conditions leave deg(dual) covectors, each normal
    along a linear space of dimension i through the origin (the contact
    locus), which the i point conditions cut in one point: b_{n-e} is the
    degree of the dual variety.
    """

    @pytest.fixture(scope="class")
    def sym3(self):
        # [[a, b, c], [b, d, e], [c, e, f]]: n = 6, X of dimension 5.
        return bidegrees(load_spec("sym3.json")).values

    @pytest.fixture(scope="class")
    def rank1_2x3(self):
        # [[a, b, c], [d, e, f]] of rank at most 1: n = 6, X of dimension 4.
        return bidegrees(load_spec("rank1_2x3.json")).values

    def test_sym3_degree(self, sym3):
        """b_5 is the number of points X cuts on a generic affine line in
        C^6: the degree of the determinant, 3."""
        assert sym3[5] == 3

    def test_sym3_smooth_plane_cubic(self, sym3):
        """At i = 4 the section is a plane cubic curve.  The singular locus
        of P(X), symmetric matrices of rank 1, is the Veronese surface, which
        a generic plane of P^5 misses, so the curve is smooth; its critical
        points for a generic linear objective number its class,
        D(D - 1) = 3 * 2 = 6."""
        assert sym3[4] == 6

    def test_sym3_veronese_dual(self, sym3):
        """The dual of symmetric 3x3 matrices of rank at most 2 is the
        symmetric matrices of rank at most 1 (Gelfand, Kapranov, Zelevinsky,
        *Discriminants*, ch. 1): the Veronese surface v_2(P^2), of degree
        2^2 = 4, whose affine cone has dimension e = 3.  So b_3 = 4, and
        b_0 = b_1 = b_2 = 0.  Independently, the section at i = 3 is a
        cubic surface that meets the Veronese surface in its 4 points, one
        ordinary node each (Cayley's 4-nodal cubic): its class is
        D(D - 1)^2 - 2 * 4 = 12 - 8 = 4."""
        assert sym3[3] == 4
        assert sym3[:3] == (0, 0, 0)

    def test_rank1_2x3_segre_degree(self, rank1_2x3):
        """P(X) is the Segre embedding of P^1 x P^2 in P^5, of degree
        C(1 + 2, 1) = 3: b_4 = 3."""
        assert rank1_2x3[4] == 3

    def test_rank1_2x3_self_dual(self, rank1_2x3):
        """The dual of m x n matrices of rank at most r (m <= n) is the
        matrices of rank at most m - r (Gelfand, Kapranov, Zelevinsky,
        ch. 1): here 2 - 1 = 1, so X is self-dual, its dual of degree 3 with
        an affine cone of dimension e = 4.  So b_2 = 3, and b_0 = b_1 = 0."""
        assert rank1_2x3[2] == 3
        assert rank1_2x3[:2] == (0, 0)


class TestSectional:
    def test_sphere(self, sphere):
        s = sectional_lo_degrees(sphere)
        assert s.values == (2, 2, 2)
        assert s.kind == "sectional"

    def test_space_curve(self, space_curve):
        assert sectional_lo_degrees(space_curve).values == (6, 4)

    def test_redundant_generators(self, twisted_cubic):
        assert sectional_lo_degrees(twisted_cubic).values == (2, 3)


    def test_slices_honour_the_budget(self, sphere, monkeypatch):
        from lodeg import conormal

        real = conormal.krull_dimension
        budgets = []

        def recorded(source, budget_secs=None):
            budgets.append(budget_secs)
            return real(source, budget_secs=budget_secs)

        monkeypatch.setattr(conormal, "krull_dimension", recorded)
        sectional_lo_degrees(sphere, seed=3, budget_secs=7.0)
        assert budgets and set(budgets) == {7.0}


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


class TestConormalMethodBeyondTheSphere:
    """The explicit conormal ideals against the multiplier counts on a
    hypersurface in more variables, on two curves of codimension 2 and on a
    surface of codimension 2; the curve twisted_cubic and the surface
    twisted_cubic_cone have an excess multiplier."""

    @pytest.mark.parametrize(
        "vector, name, values",
        [
            pytest.param(vector, name, values, id=f"{vector.__name__}-{name}")
            for vector, name, values in [
                (bidegrees, "affine_cubic", (2, 4, 3)),
                (bidegrees, "space_curve", (6, 4)),
                (bidegrees, "twisted_cubic", (2, 3)),
                (polar_degrees, "affine_cubic", (4, 6, 3)),
                (polar_degrees, "space_curve", (8, 4)),
                (polar_degrees, "twisted_cubic", (4, 3)),
                (bidegrees, "twisted_cubic_cone", (0, 4, 3)),
                (polar_degrees, "twisted_cubic_cone", (0, 4, 3)),
            ]
        ],
    )
    def test_conormal_method_agrees(self, vector, name, values, request):
        spec = request.getfixturevalue(name)
        assert vector(spec).values == vector(spec, method="conormal").values == values


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
            back = chern_mather_from_bidegrees(bidegrees_from_chern_mather(a, n=d))
            assert back.values == tuple(a)

    def test_kind_enforced_on_degree_vectors(self):
        vec = DegreeVector("polar", (1, 1), 1, 2)
        with pytest.raises(ValueError):
            chern_mather_from_bidegrees(vec)

    def test_empty_vector_is_refused(self):
        with pytest.raises(InputError, match="empty bidegree vector"):
            chern_mather_from_bidegrees([])
        with pytest.raises(InputError, match="empty chern_mather vector"):
            bidegrees_from_chern_mather([])

    def test_ambient_below_the_dimension_is_refused(self):
        with pytest.raises(InputError, match="ambient dimension 1 is below the dimension 2"):
            bidegrees_from_chern_mather([1, 2, 3], n=1)
        with pytest.raises(InputError, match="ambient dimension 1 is below the dimension 2"):
            chern_mather_from_bidegrees([1, 2, 3], n=1)
        assert bidegrees_from_chern_mather([1, 2, 3], n=2).ambient == 2


class TestEulerObstruction:
    def test_quadric_cone(self, quadric_cone):
        assert euler_obstruction_with_bidegrees(quadric_cone)[0] == 0

    def test_hyperplane(self):
        plane = VarietySpec.define(("x1", "x2", "x3"), ["x3"])
        assert euler_obstruction_with_bidegrees(plane)[0] == 1

    def test_point(self, origin):
        assert euler_obstruction_with_bidegrees(origin)[0] == 1

    def test_rejects_inhomogeneous(self, sphere):
        with pytest.raises(NotACone):
            euler_obstruction_with_bidegrees(sphere)

    def test_with_bidegrees(self, quadric_cone):
        value, b = euler_obstruction_with_bidegrees(quadric_cone)
        assert value == 0
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
        report = verify_identities(sphere)[0][0]
        assert report.passed is True
        assert report.left == report.right == (2, 2, 2)

    def test_polar_dichotomy_on_sphere(self, sphere):
        report = verify_identities(sphere)[0][1]
        assert report.passed is True
        assert report.left == report.right == (2, 2, 2)
        assert "dual contains hyperplane at infinity: False" in report.notes

    def test_polar_dichotomy_on_cone(self, quadric_cone):
        report = verify_identities(quadric_cone)[0][1]
        assert report.passed is True
        assert report.left == report.right == (0, 2, 2)

    def test_polar_dichotomy_on_cubic_binomial(self, cubic_binomial):
        report = verify_identities(cubic_binomial)[0][1]
        assert report.passed is True
        assert report.left == (1, 4, 5, 3)
        assert report.right == (3, 6, 6, 3)
        assert any("strictness" in note and "1 < 3 is True" in note for note in report.notes)

    def test_identities_share_the_public_checks(self, affine_cubic):
        # The dual of the affine cubic contains the hyperplane at infinity,
        # so the polar check takes its strictness branch.  Every check reads
        # the one bidegree vector.
        reports, warnings = verify_identities(affine_cubic, seed=4)
        assert [r.identity for r in reports] == [
            "sectional counts match conormal slice counts",
            "affine vs projective conormal count dichotomy",
            "binomial transform round-trip",
        ]
        assert reports[0].left == reports[1].left == reports[2].left == (2, 4, 3)
        assert any("strictness" in note for note in reports[1].notes)
        assert all(r.passed for r in reports)
        assert warnings == ["generators are not homogeneous; cone-point check skipped"]


class TestPublicSurface:
    def test_every_export_resolves(self):
        import lodeg

        assert [name for name in lodeg.__all__ if not hasattr(lodeg, name)] == []
        assert len(set(lodeg.__all__)) == len(lodeg.__all__)

    def test_readme_library_block_runs(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        library = readme.read_text().split("\n## Library\n", 1)[1]
        block = library.split("```python\n", 1)[1].split("```", 1)[0]
        scope: dict = {}
        exec(block, scope)
        assert scope["b"].values == (2, 2, 2)
        assert scope["a"].values == (2, 2, 2)


def _affine_system(spec, field):
    if isinstance(field, PrimeField):
        return multiplier_system(spec, field)
    return conormal._assemble_multiplier_system(list(spec.generators), spec.codimension)


def _projective_system(spec, field):
    if isinstance(field, PrimeField):
        return projective_multiplier_system(spec, field)
    # A hypersurface's generator alone generates the ideal of its closure.
    name = fresh_name("p0", spec.ring.variables)
    return conormal._assemble_multiplier_system(
        [g.homogenize(name) for g in spec.generators], spec.codimension
    )


def _pins(system, u):
    n = len(u)
    return [invariants._dual_form(system, [int(j == k) for j in range(n)], u[k]) for k in range(n)]


FIELDS = {
    "QQ": QQ,
    "one-prime": PrimeField(DEFAULT_PRIMES[0]),
    "two-primes": residue_ring(DEFAULT_PRIMES),
}


class TestDividedDuals:
    """With one multiplier, every dual equation but the first with a unit
    constant is divided by the multiplier (``invariants._divided_duals``):
    the ideal, so its reduced basis, stays the same."""

    @staticmethod
    def assert_same_ideal(system, duals, points):
        divided = invariants._divided_duals(system, duals)
        assert divided[0] == duals[0]
        assert [d.total_degree() for d in divided[1:]] == [d.total_degree() - 1 for d in duals[1:]]
        before = buchberger(Ideal.of(system.ring, [*system.equations, *duals]))
        after = buchberger(Ideal.of(system.ring, [*system.equations, *divided]))
        assert after.basis == before.basis
        assert len(quotient_basis(before)) == points

    @pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
    def test_pins_on_the_sphere(self, field):
        system = _affine_system(_sphere(), field)
        self.assert_same_ideal(system, _pins(system, SeedStream(3).coefficients(3)), 2)

    @pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
    def test_pins_on_a_det3_section(self, field):
        # Seven hyperplanes leave a curve with critical point count b_7 = 6.
        section = slice_variety(load_spec("det3.json"), 7, seed=5).spec
        system = _affine_system(section, field)
        self.assert_same_ideal(system, _pins(system, SeedStream(5).coefficients(2)), 6)

    @pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
    @pytest.mark.parametrize("i", range(3))
    def test_bidegree_duals(self, affine_cubic, i, field):
        stream = SeedStream(7 + i)
        system = conormal.restrict_base(
            _affine_system(affine_cubic, field), conormal._draw_base_forms(stream, 3, i, None)
        )
        duals = [
            invariants._dual_form(system, stream.coefficients(3), stream.integer())
            for _ in range(3 - i)
        ]
        self.assert_same_ideal(system, duals, (2, 4, 3)[i])

    @pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
    @pytest.mark.parametrize("i", range(4))
    def test_polar_duals(self, cubic_binomial, i, field):
        # Constants 1, 0, ..., 0: the first dual is the pivot.
        stream = SeedStream(11 + i)
        system = conormal.restrict_base(
            _projective_system(cubic_binomial, field),
            conormal._draw_base_forms(stream, 5, 1, 1) + conormal._draw_base_forms(stream, 4, i, None),
        )
        duals = [invariants._dual_form(system, stream.coefficients(5), int(k == 0)) for k in range(4 - i)]
        if i == 3:
            # One dual equation: nothing to divide.
            assert invariants._divided_duals(system, duals) == duals
        else:
            self.assert_same_ideal(system, duals, (3, 6, 6, 3)[i])

    def test_first_zero_constant_is_skipped(self, affine_cubic):
        system = _affine_system(affine_cubic, FIELDS["one-prime"])
        stream = SeedStream(2)
        duals = [invariants._dual_form(system, stream.coefficients(3), c) for c in (0, 5, 0)]
        divided = invariants._divided_duals(system, duals)
        assert divided[1] == duals[1]
        assert [d.total_degree() for d in divided] == [2, 3, 2]
        # A zero constant makes the quotient 5*D_k / lam: the dual divided.
        assert all(
            d.total_degree() == 2 and len(d.terms) == len(o.terms)
            for d, o in zip(divided[::2], duals[::2])
        )

    def test_constant_zero_modulo_one_prime_is_skipped(self, affine_cubic):
        field = FIELDS["two-primes"]
        system = _affine_system(affine_cubic, field)
        stream = SeedStream(4)
        consts = (DEFAULT_PRIMES[0], 1, 2)
        duals = [invariants._dual_form(system, stream.coefficients(3), c) for c in consts]
        assert duals[0].constant_coefficient() != 0
        divided = invariants._divided_duals(system, duals)
        assert divided[1] == duals[1]
        assert divided[0] != duals[0] and divided[2] != duals[2]
        before = buchberger(Ideal.of(system.ring, [*system.equations, *duals]))
        after = buchberger(Ideal.of(system.ring, [*system.equations, *divided]))
        assert after.basis == before.basis

    def test_no_unit_constant_leaves_the_list(self, affine_cubic):
        field = FIELDS["two-primes"]
        system = _affine_system(affine_cubic, field)
        stream = SeedStream(6)
        duals = [
            invariants._dual_form(system, stream.coefficients(3), c)
            for c in (0, DEFAULT_PRIMES[0], DEFAULT_PRIMES[1])
        ]
        assert invariants._divided_duals(system, duals) == duals

    @staticmethod
    def counted_duals(spec, monkeypatch):
        seen = []
        monkeypatch.setattr(invariants, "count_points", lambda ideal, **kw: seen.append(ideal) or {})
        system = multiplier_system(spec, FIELDS["two-primes"])
        u = SeedStream(8).coefficients(3)
        pins = [([int(j == k) for j in range(3)], u[k]) for k in range(3)]
        invariants._slice_count(system, [], pins, SeedStream(9), 0, None)
        duals = _pins(system, u)
        start = len(system.equations)
        return system, duals, list(seen[0].generators[start:start + len(duals)])

    def test_one_multiplier_is_divided(self, monkeypatch):
        system, duals, counted = self.counted_duals(_sphere(), monkeypatch)
        assert counted == invariants._divided_duals(system, duals) != duals

    def test_two_multipliers_are_untouched(self, space_curve, monkeypatch):
        system, duals, counted = self.counted_duals(space_curve, monkeypatch)
        assert system.multiplier_count == 2
        assert counted == duals
