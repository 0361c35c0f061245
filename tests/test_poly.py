import itertools
import random
from fractions import Fraction

import pytest

from lodeg.poly import (
    GREVLEX,
    LEX,
    CoefficientError,
    ParseError,
    PolyRing,
    PrimeField,
    QQ,
    ResidueRing,
    SplitModulus,
    block_order,
    fresh_name,
    fresh_names,
    parse_polynomial,
    residue_ring,
)


P = 2147483647


@pytest.fixture
def ring():
    return PolyRing(("x", "y", "z"), QQ, GREVLEX)


class TestParsing:
    def test_round_trip(self, ring):
        p = ring.parse("x^2*y - 3*z + 1/2")
        assert ring.parse(str(p)) == p

    def test_rational_literal(self, ring):
        p = ring.parse("2/3*x")
        assert p.coefficient((1, 0, 0)) == Fraction(2, 3)

    def test_unary_minus_binds_the_whole_power(self, ring):
        assert ring.parse("-x^2") == -(ring.gen(0) ** 2)

    def test_parenthesized_products(self, ring):
        p = ring.parse("(x + y)*(x - y)")
        assert p == ring.gen(0) ** 2 - ring.gen(1) ** 2

    def test_negative_exponent_rejected(self, ring):
        with pytest.raises(ParseError, match="negative exponents"):
            ring.parse("x^-2")

    def test_unknown_variable_rejected(self, ring):
        with pytest.raises(ParseError) as exc:
            ring.parse("x + w")
        assert exc.value.position == 4

    def test_truncated_input(self, ring):
        with pytest.raises(ParseError):
            ring.parse("x +")

    def test_helper_function(self):
        p = parse_polynomial("a*b - 1", ("a", "b"))
        assert p.total_degree() == 2


class TestArithmetic:
    def test_distributivity(self, ring):
        f = ring.parse("x + 2*y")
        g = ring.parse("z^2 - x*y")
        h = ring.parse("3*x - 1")
        assert f * (g + h) == f * g + f * h

    def test_power_matches_repeated_product(self, ring):
        f = ring.parse("x - y + 1")
        assert f ** 3 == f * f * f

    def test_subtraction_cancels(self, ring):
        f = ring.parse("x^3*y - z")
        assert (f - f).is_zero()

    def test_scalar_coercion(self, ring):
        f = ring.parse("x")
        assert f + 1 == ring.parse("x + 1")
        assert 2 - f == ring.parse("2 - x")
        assert f * Fraction(1, 2) == ring.parse("1/2*x")

    def test_prime_field_reduction(self):
        fp = PolyRing(("x",), PrimeField(2147483647), GREVLEX)
        f = fp.parse("2147483646*x + x")
        assert f.is_zero()

    def test_partial_derivative(self, ring):
        f = ring.parse("x^3*y + y*z - 7")
        assert f.partial(0) == ring.parse("3*x^2*y")
        assert f.partial(2) == ring.parse("y")

    def test_homogenize_prepends_variable(self, ring):
        f = ring.parse("x^2 + y - 3")
        h = f.homogenize("w")
        assert h.ring.variables == ("w", "x", "y", "z")
        assert h.is_homogeneous()
        assert str(h) == "-3*w^2 + x^2 + w*y"
        # setting the new variable to 1 recovers the original
        images = [f.ring.one()] + [f.ring.gen(i) for i in range(3)]
        assert h.substitute(f.ring, images) == f

    def test_substitute_and_project(self, ring):
        # x -> y + 1 into the ring on (y, z): substitution and projection
        # are one map.
        small = PolyRing(("y", "z"), QQ, GREVLEX)
        images = [small.parse("y + 1"), small.gen(0), small.gen(1)]
        g = ring.parse("x^2 + z").substitute(small, images)
        assert g == small.parse("y^2 + 2*y + 1 + z")
        assert g.ring.variables == ("y", "z")

    def test_substitute_rejects_foreign_images(self, ring):
        small = PolyRing(("y", "z"), QQ, GREVLEX)
        other = PolyRing(("y", "z"), PrimeField(P), GREVLEX)
        f = ring.parse("x + z")
        with pytest.raises(ValueError):
            f.substitute(small, [small.gen(0), small.gen(0), other.gen(1)])
        with pytest.raises(ValueError):
            f.substitute(small, [small.gen(0), small.gen(1)])
        with pytest.raises(ValueError):
            f.substitute(other, [other.gen(0)] * 3)

    @pytest.mark.parametrize("field_", [QQ, PrimeField(P)], ids=["QQ", "GFp"])
    def test_substitute_is_the_sum_of_products(self, field_):
        # g(images) built with Polynomial arithmetic, term by term.
        rng = random.Random(f"substitute:{field_}")
        source = PolyRing(("x", "y", "z"), field_, GREVLEX)
        target = PolyRing(("a", "b"), field_, LEX)

        def random_poly(r, degree, terms):
            monos = [m for m in itertools.product(range(degree + 1), repeat=r.nvars) if sum(m) <= degree]
            return r.from_terms(
                (m, Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) if field_ == QQ else rng.randrange(P))
                for m in rng.sample(monos, terms)
            )

        for _ in range(20):
            g = random_poly(source, 4, 6)
            images = [random_poly(target, rng.randrange(1, 3), rng.randrange(1, 4)) for _ in range(3)]
            expected = target.zero()
            for m, c in g.terms:
                term = target.constant(c)
                for q, e in zip(images, m):
                    term = term * q ** e
                expected = expected + term
            assert g.substitute(target, images) == expected


class TestParserOracle:
    """The parser against the same expression built with ``Polynomial``
    arithmetic."""

    Q = 2147483629

    @pytest.mark.parametrize(
        "field_", [QQ, PrimeField(P), residue_ring((P, Q))], ids=["QQ", "GFp", "two_primes"]
    )
    def test_random_expression_trees(self, field_):
        rng = random.Random(f"parse:{field_}")
        ring = PolyRing(("x", "y", "z"), field_, GREVLEX)

        def tree(depth):
            """A random expression as (text, polynomial)."""
            kind = rng.choice(["leaf", "leaf", "+", "-", "*", "^", "neg"]) if depth else "leaf"
            if kind == "leaf":
                pick = rng.randrange(3)
                if pick == 0:
                    i = rng.randrange(3)
                    return ring.variables[i], ring.gen(i)
                if pick == 1:
                    k = rng.randrange(0, 40)
                    return str(k), ring.constant(k)
                a, b = rng.randrange(0, 40), rng.randrange(1, 9)
                return f"{a}/{b}", ring.constant(Fraction(a, b))
            if kind == "neg":
                text, value = tree(depth - 1)
                return f"-({text})", -value
            if kind == "^":
                text, value = tree(depth - 1)
                e = rng.randrange(0, 4)
                return f"({text})^{e}", value ** e
            (lt, lv), (rt, rv) = tree(depth - 1), tree(depth - 1)
            value = {"+": lv + rv, "-": lv - rv, "*": lv * rv}[kind]
            return f"({lt}) {kind} ({rt})", value

        for _ in range(80):
            text, value = tree(4)
            assert ring.parse(text) == value, text
            assert ring.parse(text.replace(" ", "")) == value, text

    def test_precedence_without_parentheses(self, ring):
        x, y, z = (ring.gen(i) for i in range(3))
        assert ring.parse("-x^2*y + 3*z - 1/2*x*y^3") == -(x ** 2) * y + 3 * z - Fraction(1, 2) * x * y ** 3
        assert ring.parse("x - -y*z") == x + y * z
        assert ring.parse("2*-x + (x+y)^2") == ring.parse("-2*x + x^2 + 2*x*y + y^2")

    def test_errors_are_kept(self):
        with pytest.raises(OverflowError):
            PolyRing(("x", "y"), QQ, GREVLEX).parse("(x*y^2)^536870912")
        with pytest.raises(ParseError, match="exponent too large"):
            PolyRing(("x",), QQ, GREVLEX).parse("x^2147483648")
        with pytest.raises(CoefficientError):
            PolyRing(("x",), PrimeField(P), GREVLEX).parse(f"x + 1/{P}")
        with pytest.raises(SplitModulus):
            PolyRing(("x",), residue_ring((P, self.Q)), GREVLEX).parse(f"x + 1/{self.Q}")
        with pytest.raises(ParseError) as exc:
            PolyRing(("x",), QQ, GREVLEX).parse("x * (x + 2")
        assert exc.value.position == 10


class TestOrders:
    def test_grevlex_ties_break_by_last_variable(self, ring):
        f = ring.parse("x*z + y^2")
        # same total degree; grevlex prefers the monomial with smaller
        # exponent on the last variable
        assert f.leading_monomial() == (0, 2, 0)

    def test_lex_order(self):
        r = PolyRing(("x", "y", "z"), QQ, LEX)
        f = r.parse("y^5 + x*z")
        assert f.leading_monomial() == (1, 0, 1)

    def test_block_order_separates_front_variables(self):
        r = PolyRing(("t", "x", "y"), QQ, block_order(1))
        f = r.parse("t + x^9*y^9")
        assert f.leading_monomial() == (1, 0, 0)


class TestFields:
    def test_prime_field_requires_large_prime(self):
        with pytest.raises(CoefficientError):
            PrimeField(97)
        with pytest.raises(CoefficientError):
            PrimeField(2147483646)

    def test_prime_field_inverts(self):
        fld = PrimeField(2147483647)
        a = 123456789
        assert fld.coerce(a * fld.invert(a)) == 1

    def test_fraction_coercion_mod_p(self):
        fld = PrimeField(2147483647)
        half = fld.coerce(Fraction(1, 2))
        assert (2 * half) % 2147483647 == 1

    def test_rationals_invert(self):
        assert QQ.invert(Fraction(3, 7)) == Fraction(7, 3)
        with pytest.raises(ZeroDivisionError):
            QQ.invert(Fraction(0))


class TestResidueRing:
    """Several primes at once: the integers modulo their product."""

    Q = 2147483629

    def test_built_from_the_distinct_primes_in_order(self):
        fld = residue_ring((P, self.Q, P))
        assert isinstance(fld, ResidueRing)
        assert fld.primes == (P, self.Q)
        assert fld.p == P * self.Q
        assert str(fld) == f"Z/({P}*{self.Q})"
        assert residue_ring((P, P)) == PrimeField(P)

    def test_every_prime_is_validated(self):
        with pytest.raises(CoefficientError):
            residue_ring((P, 7))
        with pytest.raises(ValueError):
            ResidueRing(P * self.Q + 2, (P, self.Q))

    def test_non_units_split(self):
        fld = residue_ring((P, self.Q))
        assert fld.invert(3) * 3 % fld.p == 1
        with pytest.raises(SplitModulus):
            fld.invert(P)
        with pytest.raises(ZeroDivisionError):
            fld.invert(0)
        assert fld.coerce(Fraction(1, 2)) * 2 % fld.p == 1
        with pytest.raises(SplitModulus):
            fld.coerce(Fraction(1, self.Q))

    def test_split_is_caught_by_no_existing_handler(self):
        from lodeg.conormal import DegenerateSlice, InvalidVariety

        for base in (ValueError, ZeroDivisionError, DegenerateSlice, InvalidVariety):
            assert not issubclass(SplitModulus, base)

    def test_vanishes(self):
        ring = PolyRing(("x", "y"), residue_ring((P, self.Q)), GREVLEX)
        assert ring.zero().vanishes()
        assert not ring.parse("3*x + 5").vanishes()
        # Zero modulo P only: P alone would branch the other way.
        with pytest.raises(SplitModulus):
            (ring.parse("x + 2*y") * P).vanishes()
        field_ring = PolyRing(("x", "y"), PrimeField(P), GREVLEX)
        assert not field_ring.parse("x + 2*y").vanishes()


class TestFreshNames:
    def test_fresh_names_avoid_collisions(self):
        names = fresh_names("u", 3, ("u0", "x"))
        assert len(names) == 3
        assert "u0" not in names

    def test_fresh_name_suffixes(self):
        assert fresh_name("t", ("t",)) != "t"


class TestPrinting:
    def test_constant_and_zero(self, ring):
        assert str(ring.zero()) == "0"
        assert str(ring.constant(Fraction(-3, 4))) == "-3/4"

    def test_terms_in_decreasing_order(self, ring):
        f = ring.parse("1 + x + x^2")
        assert str(f) == "x^2 + x + 1"
