import itertools
import random
from fractions import Fraction

import pytest

from lodeg.groebner import Ideal, buchberger, eliminate, saturate
from lodeg.poly import (
    GREVLEX,
    LEX,
    PACK_LIMIT,
    CoefficientError,
    DegreeLimitExceeded,
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
    substitute,
)

from conftest import order_key


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
        x, y = ring.gen(0), ring.gen(1)
        assert ring.parse("-x^2") == -(x ** 2)
        # After a product sign too: the sign applies to the power.
        assert ring.parse("x*-y^2") == -(x * y ** 2)
        assert ring.parse("x^2*-y^3") == -(x ** 2 * y ** 3)
        assert ring.parse("x*-2^2") == -4 * x
        # A unary plus changes nothing.
        assert ring.parse("+x + y") == x + y
        assert ring.parse("x + (+y)") == x + y
        assert ring.parse("x - -y") == x + y

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

    @pytest.mark.parametrize("text", ["x**2 + y**3", "(x+y)**2", "2*x ** 3*y"])
    def test_double_star_is_power(self, ring, text):
        assert ring.parse(text) == ring.parse(text.replace("**", "^"))

    def test_split_double_star_rejected(self, ring):
        with pytest.raises(ParseError, match="unexpected token"):
            ring.parse("x* *2")

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
        assert substitute([h], f.ring, images) == [f]

    def test_substitute_and_project(self, ring):
        # x -> y + 1 into the ring on (y, z): substitution and projection
        # are one map.
        small = PolyRing(("y", "z"), QQ, GREVLEX)
        images = [small.parse("y + 1"), small.gen(0), small.gen(1)]
        (g,) = substitute([ring.parse("x^2 + z")], small, images)
        assert g == small.parse("y^2 + 2*y + 1 + z")
        assert g.ring.variables == ("y", "z")

    def test_substitute_rejects_foreign_images(self, ring):
        small = PolyRing(("y", "z"), QQ, GREVLEX)
        other = PolyRing(("y", "z"), PrimeField(P), GREVLEX)
        f = ring.parse("x + z")
        with pytest.raises(ValueError):
            substitute([f], small, [small.gen(0), small.gen(0), other.gen(1)])
        with pytest.raises(ValueError):
            substitute([f], small, [small.gen(0), small.gen(1)])
        with pytest.raises(ValueError):
            substitute([f], other, [other.gen(0)] * 3)

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
            for m, c in g.as_dict().items():
                term = target.constant(c)
                for q, e in zip(images, m):
                    term = term * q ** e
                expected = expected + term
            assert substitute([g], target, images) == [expected]


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


ORACLE_FIELDS = [QQ, PrimeField(P), residue_ring((P, 2147483629))]
ORACLE_FIELD_IDS = ["QQ", "GFp", "two_primes"]
ORACLE_ORDERS = [GREVLEX, LEX, block_order(1), block_order(2)]
ORACLE_ORDER_IDS = ["grevlex", "lex", "block1", "block2"]


class TestAgainstTupleOracle:
    """``Polynomial`` on packed monomials against the same operations on
    dicts keyed by exponent tuples, written here; the order of every
    result's terms against ``conftest.order_key``."""

    @staticmethod
    def tuples(f):
        """The terms of ``f`` keyed by exponent tuples, checked to come in
        decreasing order."""
        d = f.as_dict()
        assert list(d) == sorted(d, key=order_key(f.ring.order), reverse=True)
        return d

    @staticmethod
    def reduced(d, fld):
        p = getattr(fld, "p", None)
        return {m: c % p if p else c for m, c in d.items() if (c % p if p else c)}

    def add(self, a, b, fld):
        out = dict(a)
        for m, c in b.items():
            out[m] = out.get(m, 0) + c
        return self.reduced(out, fld)

    def mul(self, a, b, fld):
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                out[m] = out.get(m, 0) + ca * cb
        return self.reduced(out, fld)

    @staticmethod
    def random_poly(rng, ring, degree, terms):
        # Integer data below every prime: no residue ring splits on it.
        monos = [m for m in itertools.product(range(degree + 1), repeat=ring.nvars) if sum(m) <= degree]
        return ring.from_terms(
            (m, Fraction(rng.choice((-1, 1)) * rng.randrange(1, 10), rng.randrange(1, 5))
             if ring.field_ == QQ else rng.randrange(1, 1 << 30))
            for m in rng.sample(monos, min(terms, len(monos)))
        )

    @pytest.mark.parametrize("order", ORACLE_ORDERS, ids=ORACLE_ORDER_IDS)
    @pytest.mark.parametrize("field_", ORACLE_FIELDS, ids=ORACLE_FIELD_IDS)
    def test_arithmetic_and_ring_changes(self, field_, order):
        rng = random.Random(f"oracle:{field_}:{order}")
        ring = PolyRing(("x", "y", "z"), field_, order)
        target = PolyRing(("a", "b"), field_, order)
        for _ in range(12):
            f, g = (self.random_poly(rng, ring, 3, rng.randrange(1, 7)) for _ in range(2))
            tf, tg = self.tuples(f), self.tuples(g)
            assert self.tuples(f + g) == self.add(tf, tg, field_)
            assert self.tuples(f - g) == self.add(tf, {m: -c for m, c in tg.items()}, field_)
            assert self.tuples(f * g) == self.mul(tf, tg, field_)
            power = {(0, 0, 0): field_.one}
            for e in range(4):
                assert self.tuples(f ** e) == power
                power = self.mul(power, tf, field_)
            for i in range(3):
                partial = {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i] for m, c in tf.items() if m[i]}
                assert self.tuples(f.partial(i)) == self.reduced(partial, field_)
            degree = max(map(sum, tf))
            assert f.total_degree() == degree
            assert f.is_homogeneous() == (len(set(map(sum, tf))) == 1)
            assert f.leading_monomial() == next(iter(tf))
            assert all(f.coefficient(m) == c for m, c in tf.items())
            assert f.constant_coefficient() == tf.get((0, 0, 0), 0)
            assert self.tuples(f.homogenize("w")) == {(degree - sum(m),) + m: c for m, c in tf.items()}
            for other in ORACLE_ORDERS:
                moved = f.to_ring(ring.with_order(other))
                assert self.tuples(moved) == tf
                assert moved.to_ring(ring) == f
            images = [self.random_poly(rng, target, 2, rng.randrange(1, 4)) for _ in range(3)]
            expected = {}
            for m, c in tf.items():
                term = {(0, 0): c}
                for q, e in zip(images, m):
                    for _ in range(e):
                        term = self.mul(term, self.tuples(q), field_)
                expected = self.add(expected, term, field_)
            assert [self.tuples(h) for h in substitute([f, g], target, images)] == [
                expected, self.tuples(substitute([g], target, images)[0])
            ]

    @pytest.mark.parametrize("order", ORACLE_ORDERS, ids=ORACLE_ORDER_IDS)
    def test_field_changes(self, order):
        # QQ -> GF(P) -> residue ring -> QQ, within one order and into each
        # other: every coefficient coerced on its own exponent tuple.
        rng = random.Random(f"oracle-fields:{order}")
        rings = [PolyRing(("x", "y", "z"), fld, order) for fld in ORACLE_FIELDS]
        rings.append(rings[0])
        for _ in range(12):
            f = self.random_poly(rng, rings[0], 3, rng.randrange(1, 7))
            # A coefficient that vanishes modulo P leaves the GF(P) image.
            f = f + rings[0].from_terms([((4, 0, 0), P)])
            for target in rings[1:]:
                coerce = target.field_.coerce
                expected = {m: coerce(c) for m, c in self.tuples(f).items() if coerce(c)}
                for other in ORACLE_ORDERS:
                    assert self.tuples(f.to_ring(target.with_order(other))) == expected
                f = f.to_ring(target)
                assert f.ring == target
                assert self.tuples(f) == expected
        # A denominator keeps its errors: not a unit modulo one of the
        # primes, or zero modulo the characteristic.
        q = ORACLE_FIELDS[2].primes[1]
        third = rings[0].from_terms([((1, 0, 0), Fraction(1, q)), ((0, 0, 0), 1)])
        assert third.to_ring(rings[1]).as_dict() == {(1, 0, 0): pow(q, -1, P), (0, 0, 0): 1}
        with pytest.raises(SplitModulus):
            third.to_ring(rings[2])
        with pytest.raises(CoefficientError):
            rings[0].from_terms([((0, 0, 0), Fraction(1, P))]).to_ring(rings[1])

    @pytest.mark.parametrize("order", ORACLE_ORDERS, ids=ORACLE_ORDER_IDS)
    @pytest.mark.parametrize("field_", ORACLE_FIELDS, ids=ORACLE_FIELD_IDS)
    def test_eliminate_and_saturate_round_trips(self, field_, order):
        # Eliminating t from I + (t - q), and saturating I by a unit, both
        # cross into a ring with t prepended and back: they give I's basis.
        rng = random.Random(f"oracle-ideals:{field_}:{order}")
        ring = PolyRing(("x", "y", "z"), field_, order)
        big = PolyRing(("t",) + ring.variables, field_, order)
        for _ in range(3):
            gens = [self.random_poly(rng, ring, 2, 3) for _ in range(2)]
            basis = buchberger(Ideal.of(ring, gens)).basis
            q = self.random_poly(rng, ring, 2, 3)
            lifted = [big.from_terms(((0,) + m, c) for m, c in self.tuples(h).items()) for h in gens + [q]]
            cut = lifted[:-1] + [big.gen(0) - lifted[-1]]
            for out in (eliminate(Ideal.of(big, cut), 1), saturate(Ideal.of(ring, gens), ring.constant(3))):
                assert out.ring == ring
                assert out.basis == basis
                for h in out.basis:
                    self.tuples(h)

    @pytest.mark.parametrize("order", ORACLE_ORDERS, ids=ORACLE_ORDER_IDS)
    def test_width_guard_holds_at_entry(self, order):
        # A digit of PACK_LIMIT never enters a polynomial, whatever builds it.
        ring = PolyRing(("x", "y", "z"), PrimeField(P), order)
        with pytest.raises(DegreeLimitExceeded):
            ring.parse(f"x^{PACK_LIMIT}")
        with pytest.raises(DegreeLimitExceeded):
            ring.from_terms([((PACK_LIMIT, 0, 0), 1)])
        half = ring.parse(f"x^{PACK_LIMIT // 2}")
        with pytest.raises(DegreeLimitExceeded):
            half * half
        with pytest.raises(DegreeLimitExceeded):
            half ** 2
        with pytest.raises(DegreeLimitExceeded):
            substitute([half], ring, [ring.parse("x^2"), ring.gen(1), ring.gen(2)])
        assert ring.parse(f"x^{PACK_LIMIT - 1}").total_degree() == PACK_LIMIT - 1
        if order == LEX:
            # Lex bounds each exponent, so a homogenizing power can pass it.
            wide = ring.parse(f"x^{PACK_LIMIT - 1}*y + 1")
            assert wide.leading_monomial() == (PACK_LIMIT - 1, 1, 0)
            with pytest.raises(DegreeLimitExceeded):
                wide.homogenize("w")


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

    def test_prime_field_fits_one_64_bit_word(self):
        assert PrimeField(2**64 - 59).p == 18446744073709551557
        # 2**64 + 13 is prime, but a residue modulo it is not one draw of
        # a SeedStream.
        with pytest.raises(CoefficientError, match="between 2\\*\\*30 and 2\\*\\*64"):
            PrimeField(2**64 + 13)

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
