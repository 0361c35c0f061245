import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from lodeg import conormal
from lodeg.conormal import (
    DegenerateSlice,
    InvalidVariety,
    MultiplierSystem,
    VarietySpec,
    affine_conormal_ideal,
    multiplier_slack_forms,
    multiplier_system,
    projective_conormal_ideal,
    restrict_base,
    slice_variety,
    solve_forms,
)
from lodeg.groebner import GroebnerBasis, Ideal, buchberger, krull_dimension, normal_form
from lodeg.poly import (
    GREVLEX,
    PACK_LIMIT,
    QQ,
    DegreeLimitExceeded,
    PolyRing,
    PrimeField,
    SplitModulus,
    block_order,
    residue_ring,
)
from lodeg.randomness import DEFAULT_PRIMES, Instability, SeedStream


class TestVarietySpec:
    def test_define_from_strings(self, sphere):
        assert sphere.n == 3
        assert sphere.dimension == 2
        assert sphere.codimension == 1
        assert not sphere.is_homogeneous()

    def test_define_from_polynomials(self):
        ring = PolyRing(("x", "y"), QQ, GREVLEX)
        spec = VarietySpec.define(("x", "y"), [ring.parse("x*y - 1")])
        assert spec.dimension == 1

    def test_rejects_zero_generator(self):
        with pytest.raises(InvalidVariety):
            VarietySpec.define(("x",), ["0"])

    def test_rejects_empty_generators(self):
        with pytest.raises(InvalidVariety):
            VarietySpec.define(("x", "y"), [])

    def test_rejects_no_primes(self):
        with pytest.raises(InvalidVariety, match="^at least one prime is required$"):
            VarietySpec.define(("x", "y"), ["x*y - 1"], primes=())

    def test_rejects_unit_ideal(self):
        with pytest.raises(InvalidVariety, match="unit ideal"):
            VarietySpec.define(("x",), ["x", "x - 1"])

    def test_homogeneous_detection(self, quadric_cone):
        assert quadric_cone.is_homogeneous()

    def test_reduce_mod(self, sphere):
        ideal = sphere.reduce_mod(PrimeField(DEFAULT_PRIMES[0]))
        assert ideal.ring.field_.p == DEFAULT_PRIMES[0]
        assert len(ideal.generators) == 1

    def test_dimension_at_the_given_primes(self):
        # The x term vanishes modulo the first default prime only: the basis
        # modulo both primes splits, and the per-prime dimensions disagree.
        gens = [f"{DEFAULT_PRIMES[0]}*x + y", "y"]
        assert VarietySpec.define(("x", "y"), gens, primes=DEFAULT_PRIMES[:1]).dimension == 1
        assert VarietySpec.define(("x", "y"), gens, primes=DEFAULT_PRIMES[1:]).dimension == 0
        with pytest.raises(Instability, match="dimension of the vanishing locus"):
            VarietySpec.define(("x", "y"), gens)

    def test_an_unstable_dimension_is_not_kept(self):
        # The same generators at both primes, built around define's check:
        # every look at the dimension computes it again and raises again.
        gens = [f"{DEFAULT_PRIMES[0]}*x + y", "y"]
        spec = dataclasses.replace(
            VarietySpec.define(("x", "y"), gens, primes=DEFAULT_PRIMES[1:]), primes=DEFAULT_PRIMES
        )
        for _ in range(2):
            with pytest.raises(Instability, match="dimension of the vanishing locus"):
                spec.dimension
        assert "dimension" not in vars(spec)

    def test_rejects_a_generator_vanishing_modulo_a_prime(self):
        # Modulo the first default prime this line would be the whole plane.
        gens = [f"{DEFAULT_PRIMES[0]}*x + {DEFAULT_PRIMES[0]}"]
        assert VarietySpec.define(("x", "y"), gens, primes=DEFAULT_PRIMES[1:]).dimension == 1
        for primes in (DEFAULT_PRIMES, DEFAULT_PRIMES[:1]):
            with pytest.raises(InvalidVariety, match=f"vanishes modulo the prime {DEFAULT_PRIMES[0]}"):
                VarietySpec.define(("x", "y"), gens, primes=primes)

    def test_dimension_after_a_split_when_primes_agree(self):
        # The leading coefficient of x^2*y splits the run; both primes give
        # the points y = +-1, x^2 = 2 / (c*y + 1).
        gens = [f"{DEFAULT_PRIMES[0]}*x^2*y + x^2 - 2", "y^2 - 1"]
        assert VarietySpec.define(("x", "y"), gens).dimension == 0


def _q(*values):
    return tuple(Fraction(v) for v in values)


class TestSolveForms:
    def test_pivot_is_last_nonzero_coefficient(self):
        ring = PolyRing(("x", "y", "z"), QQ, GREVLEX)
        left, images = solve_forms(ring, [(_q(1, 2, 3), 6)])
        assert left.variables == ("x", "y")
        # x + 2y + 3z = 6 solves to z = 2 - x/3 - 2y/3.
        assert str(images[2]) == "-1/3*x - 2/3*y + 2"
        assert images[:2] == [left.gen(0), left.gen(1)]
        # A zero last coefficient moves the pivot down.
        left, images = solve_forms(ring, [(_q(1, 1, 0), 0)])
        assert left.variables == ("x", "z")
        assert str(images[1]) == "-x"

    def test_width_keeps_multipliers_out_of_reach(self):
        ring = PolyRing(("x1", "x2", "lam0"), QQ, GREVLEX)
        left, images = solve_forms(ring, [(_q(1, 1), 0)], width=2)
        assert left.variables == ("x1", "lam0")
        assert images == [left.gen(0), -left.gen(0), left.gen(1)]
        with pytest.raises(DegenerateSlice):
            solve_forms(ring, [(_q(0, 0), 1)], width=2)

    def test_source_width_forms_are_pushed(self):
        ring = PolyRing(("x", "y", "z"), QQ, GREVLEX)
        # z = 0 on the source variables, after x + 2y + 3z = 6, reads
        # -x/3 - 2y/3 = -2 on (x, y) and solves for y.
        left, images = solve_forms(ring, [(_q(1, 2, 3), 6), (_q(0, 0, 1), 0)])
        assert left.variables == ("x",)
        assert str(images[1]) == "-1/2*x + 3"
        assert images[2].is_zero()
        # The same form read on the variables left gives the same images.
        solved = ((Fraction(-1, 3), Fraction(-2, 3)), -2)
        assert solve_forms(ring, [(_q(1, 2, 3), 6), solved])[1] == images

    def test_other_widths_raise(self):
        ring = PolyRing(("x", "y", "z"), QQ, GREVLEX)
        with pytest.raises(ValueError):
            solve_forms(ring, [(_q(1, 1), 0)])
        with pytest.raises(ValueError):
            solve_forms(ring, [(_q(1, 2, 3), 6), (_q(1,), 0)])


class TestSlicing:
    def test_single_section_drops_dimension(self, sphere):
        sliced = slice_variety(sphere, 1, seed=5)
        assert sliced.spec.dimension == 1
        assert sliced.spec.n == 2
        assert len(sliced.images) == 3
        assert all(q.ring == sliced.spec.ring and q.total_degree() <= 1 for q in sliced.images)

    def test_zero_sections_is_identity(self, sphere):
        sliced = slice_variety(sphere, 0, seed=5)
        assert sliced.spec is sphere
        assert sliced.images == tuple(sphere.ring.gen(i) for i in range(3))

    def test_too_many_sections(self, sphere):
        with pytest.raises(ValueError):
            slice_variety(sphere, 3, seed=5)

    def test_same_seed_same_slice(self, sphere):
        a = slice_variety(sphere, 1, seed=9)
        b = slice_variety(sphere, 1, seed=9)
        assert a.images == b.images
        assert a.spec.generators == b.spec.generators

    def test_explicit_forms_in_source_width(self, sphere):
        # Explicit forms (the correspondence's) are cut as they are given.
        forms = [(_q(0, 0, 1), Fraction(0)), (_q(0, 1, 0), Fraction(1))]
        sliced = conormal._apply_slices(sphere, forms)
        assert sliced.spec.dimension == 0
        # x3 = 0 then x2 = 1 leaves x1^2 - 99.
        assert str(sliced.spec.generators[0]) == "x1^2 - 99"
        assert conormal._apply_slices(sphere, []).spec is sphere

    def test_inconsistent_explicit_form(self):
        plane = VarietySpec.define(("x1", "x2", "x3"), ["x3"])
        with pytest.raises(DegenerateSlice):
            conormal._apply_slices(plane, [(_q(0, 0, 1), Fraction(5))])

    def test_failed_draws_are_redrawn(self, sphere, monkeypatch):
        real = conormal._apply_slices
        seen = []

        def flaky(spec, forms):
            seen.append(forms)
            if len(seen) < 3:
                raise DegenerateSlice("unlucky draw")
            return real(spec, forms)

        monkeypatch.setattr(conormal, "_apply_slices", flaky)
        sliced = slice_variety(sphere, 1, seed=5)
        assert len(seen) == 3
        assert len({repr(forms) for forms in seen}) == 3
        third = real(sphere, seen[2])
        assert sliced.images == third.images
        assert sliced.spec.generators == third.spec.generators

    def test_four_failed_draws_raise(self, sphere, monkeypatch):
        seen = []

        def never(spec, forms):
            seen.append(forms)
            raise DegenerateSlice("unlucky draw")

        monkeypatch.setattr(conormal, "_apply_slices", never)
        with pytest.raises(
            DegenerateSlice, match="^sections kept failing to drop the dimension: unlucky draw$"
        ):
            slice_variety(sphere, 1, seed=5)
        assert len(seen) == 4


class TestMultiplierSystem:
    def test_hypersurface_covector(self, sphere):
        system = multiplier_system(sphere, PrimeField(DEFAULT_PRIMES[0]))
        assert isinstance(system, MultiplierSystem)
        assert system.base_count == 3
        assert system.multiplier_count == 1
        assert system.excess == 0
        assert system.ring.variables == ("x1", "x2", "x3", "lam0")
        assert system.covector[0] == system.ring.parse("2*x1*lam0")
        assert system.covector[2] == system.ring.parse("2*x3*lam0")

    def test_excess_counts_redundant_generators(self):
        cubic = VarietySpec.define(
            ("x", "y", "z"),
            ["y - x^2", "z - x*y", "x*z - y^2"],
        )
        assert cubic.codimension == 2
        system = multiplier_system(cubic, PrimeField(DEFAULT_PRIMES[0]))
        assert system.multiplier_count == 3
        assert system.excess == 1
        slack = multiplier_slack_forms(system, SeedStream(1))
        assert len(slack) == 1
        base_zero = (0,) * system.base_count
        assert all(m[: system.base_count] == base_zero for m in slack[0].as_dict())

    def test_restrict_base(self, sphere):
        system = multiplier_system(sphere, PrimeField(DEFAULT_PRIMES[0]))
        restricted = restrict_base(system, [((1, 1, 1), 0)])
        assert restricted.base_count == 2
        assert restricted.ring.nvars == 3
        assert len(restricted.covector) == 3

    def test_restrict_base_by_no_forms_is_the_system(self, sphere):
        system = multiplier_system(sphere, PrimeField(DEFAULT_PRIMES[0]))
        assert restrict_base(system, []) is system

    def test_restrict_base_width_check(self, sphere):
        system = multiplier_system(sphere, PrimeField(DEFAULT_PRIMES[0]))
        with pytest.raises(ValueError):
            restrict_base(system, [((1, 1), 0)])


class TestRestrictBase:
    """Restriction substitutes every polynomial of a system in one pass over
    packed monomials; these systems are built by hand."""

    @pytest.mark.parametrize("order", [GREVLEX, block_order(2)], ids=["grevlex", "block"])
    @pytest.mark.parametrize(
        "primes",
        [(), DEFAULT_PRIMES, DEFAULT_PRIMES + (1073741827,)],
        ids=["QQ", "two_primes", "three_primes"],
    )
    def test_restriction_is_the_sum_of_products(self, primes, order):
        # Each restricted polynomial against g(images) built with Polynomial
        # arithmetic, term by term, from the images of solve_forms.
        rng = random.Random(f"restrict:{primes}:{order}")
        fld = residue_ring(primes) if primes else QQ
        ring = PolyRing(("x0", "x1", "x2", "x3", "lam0", "lam1"), fld, order)

        def random_poly(degree, terms):
            monos = [m for m in itertools.product(range(degree + 1), repeat=6) if sum(m) <= degree]
            return ring.from_terms(
                (m, Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) if not primes else rng.randrange(fld.p))
                for m in rng.sample(monos, terms)
            )

        for _ in range(8):
            system = MultiplierSystem(
                ring, 4,
                tuple(random_poly(3, 6) for _ in range(2)),
                tuple(random_poly(2, 4) for _ in range(4)),
                0,
            )
            count = rng.randrange(4)
            forms = [([rng.randrange(1, 50) for _ in range(4 - k)], rng.randrange(-9, 10)) for k in range(count)]
            small, images = solve_forms(ring, forms, width=4)

            def expected(g):
                total = small.zero()
                for m, c in g.as_dict().items():
                    term = small.constant(c)
                    for q, e in zip(images, m):
                        term = term * q ** e
                    total = total + term
                return total

            restricted = restrict_base(system, forms)
            assert restricted.ring == small
            assert restricted.base_count == 4 - count
            assert restricted.equations == tuple(
                g for g in map(expected, system.equations) if not g.is_zero()
            )
            assert restricted.covector == tuple(map(expected, system.covector))

    @staticmethod
    def _system(fld, equation):
        ring = PolyRing(("x0", "x1", "lam0"), fld, GREVLEX)
        lam = ring.gen(2)
        return MultiplierSystem(ring, 2, (ring.parse(equation), lam - 1), (lam, lam), 0)

    def test_vanishing_equations(self):
        # x1 = x0 kills x0 - x1 modulo every prime: the equation is dropped.
        # P*x0 is left of x0 - x1 + P*x0, zero modulo P only: over both
        # primes that splits, and each prime alone takes its own branch.
        P, Q = DEFAULT_PRIMES
        same = [((1, -1), 0)]
        restricted = restrict_base(self._system(residue_ring(DEFAULT_PRIMES), "x0 - x1"), same)
        assert restricted.equations == (restricted.ring.parse("lam0 - 1"),)
        split = f"x0 - x1 + {P}*x0"
        with pytest.raises(SplitModulus):
            restrict_base(self._system(residue_ring(DEFAULT_PRIMES), split), same)
        assert len(restrict_base(self._system(PrimeField(P), split), same).equations) == 1
        assert len(restrict_base(self._system(PrimeField(Q), split), same).equations) == 2

    def test_width_guard(self):
        # Affine images never raise a degree, so the source term decides;
        # one at the limit is refused when it is parsed.
        fld = PrimeField(DEFAULT_PRIMES[0])
        with pytest.raises(DegreeLimitExceeded):
            restrict_base(self._system(fld, f"x0^{PACK_LIMIT} - x1"), [((1, 1), 0)])
        restricted = restrict_base(self._system(fld, f"x0^{PACK_LIMIT - 1} - x1"), [((1, 1), 0)])
        assert restricted.equations[0].total_degree() == PACK_LIMIT - 1


class TestConormalIdeals:
    def test_affine_sphere(self, sphere):
        # The closure in P^3 x P^3: a homogenizing variable, the point
        # coordinates, the dual ones and the dual side's fresh variable.
        cono = affine_conormal_ideal(sphere)
        assert cono.ring.variables == ("h0",) + sphere.ring.variables + ("u0", "u1", "u2", "h1")
        assert cono.ring.field_.p == DEFAULT_PRIMES[0]
        assert krull_dimension(cono) == 5
        for g in cono.basis:
            bidegrees = {(sum(m[:4]), sum(m[4:])) for m in g.as_dict()}
            assert len(bidegrees) == 1
        # The dual direction is parallel to the gradient, so the 2x2
        # cross terms between the point and the dual must vanish.
        gb = buchberger(Ideal.of(cono.ring, list(cono.basis)))
        cross = cono.ring.parse("x1*u1 - x2*u0")
        assert normal_form(cross, gb).is_zero()
        # The sphere's equation, homogenized on the point side.
        assert normal_form(cono.ring.parse("x1^2 + x2^2 + x3^2 - 100*h0^2"), gb).is_zero()

    def test_projective_sphere(self, sphere):
        cono = projective_conormal_ideal(sphere)
        assert cono.ring.variables[1:4] == sphere.ring.variables
        assert cono.ring.nvars == 8
        assert krull_dimension(Ideal.of(cono.ring, list(cono.basis))) == 4
        for g in cono.basis:
            bidegrees = {(sum(m[:4]), sum(m[4:])) for m in g.as_dict()}
            assert len(bidegrees) == 1

    @pytest.mark.parametrize("build", ["affine", "projective"])
    def test_dimension_reads_the_reduced_basis(self, sphere, build, monkeypatch):
        # The conormal ideal (a saturation) is handed to krull_dimension as
        # its own reduced basis, with no Buchberger run.
        handed = []

        def spy(source):
            handed.append(source)
            return krull_dimension(source)

        monkeypatch.setattr(conormal, "krull_dimension", spy)
        build_ideal = projective_conormal_ideal if build == "projective" else affine_conormal_ideal
        cono = build_ideal(sphere)
        (gb,) = handed
        assert isinstance(gb, GroebnerBasis)
        assert gb == buchberger(Ideal.of(cono.ring, list(cono.basis)))

    def test_projective_rejects_mixed_saturation(self, sphere, monkeypatch):
        # x1 - 1 mixes point-side degrees 1 and 0: only an unlucky random
        # combination could leave it in the saturation.  Over several
        # primes, only one prime at a time tells which prime drew badly.
        def mixed(ideal, other, seed):
            ring = ideal.ring
            return GroebnerBasis(ring, (ring.gen(0) - ring.one(),))

        monkeypatch.setattr(conormal, "saturate_by_ideal", mixed)
        with pytest.raises(Instability, match="bihomogeneity"):
            projective_conormal_ideal(sphere)
        with pytest.raises(SplitModulus, match="not bihomogeneous"):
            projective_conormal_ideal(sphere, residue_ring(DEFAULT_PRIMES))
