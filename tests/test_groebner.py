import itertools
import random
from fractions import Fraction

import pytest

from lodeg import groebner
from lodeg.groebner import (
    BudgetExceeded,
    CharacteristicHazard,
    DegreeLimitExceeded,
    GroebnerBasis,
    Ideal,
    NotZeroDimensional,
    buchberger,
    budget,
    count_points,
    eliminate,
    krull_dimension,
    multidegree,
    multiplication_matrix,
    normal_form,
    quotient_basis,
    saturate,
    saturate_by_ideal,
    _squarefree_degree,
)
from lodeg.poly import (
    GREVLEX,
    MAX_EXPONENT,
    PACK_DIGIT_BITS,
    PACK_LIMIT,
    InputError,
    PolyRing,
    Polynomial,
    PrimeField,
    QQ,
    SplitModulus,
    block_order,
    residue_ring,
)
from lodeg.randomness import COEFF_BOUND, DEFAULT_PRIMES, Instability, SeedStream

from conftest import order_key

P1 = 2147483647


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def qring(*names):
    return PolyRing(tuple(names), QQ, GREVLEX)


def fring(*names):
    return PolyRing(tuple(names), PrimeField(P1), GREVLEX)


class TestBuchberger:
    def test_known_reduced_basis(self):
        r = qring("x", "y", "z")
        gb = buchberger(Ideal.of(r, [r.parse("x^2+y^2+z^2-1"), r.parse("y-x^2")]))
        assert [str(g) for g in gb.basis] == ["x^2 - y", "y^2 + z^2 + y - 1"]

    def test_basis_is_monic_and_sorted(self):
        r = qring("x", "y")
        gb = buchberger(Ideal.of(r, [r.parse("2*x^2*y - 4"), r.parse("3*y^3 - x")]))
        keyf = order_key(r.order)
        lms = [g.leading_monomial() for g in gb.basis]
        assert all(g.leading_coefficient() == 1 for g in gb.basis)
        assert lms == sorted(lms, key=keyf, reverse=True)

    def test_membership_decided_by_normal_form(self):
        r = qring("x", "y")
        f1, f2 = r.parse("x^2 - y"), r.parse("x*y - 1")
        gb = buchberger(Ideal.of(r, [f1, f2]))
        member = f1 * r.parse("y^3 - x") + f2 * r.parse("x + 7")
        assert normal_form(member, gb).is_zero()
        assert not normal_form(r.parse("x + 1"), gb).is_zero()

    def test_unit_ideal(self):
        r = qring("x")
        gb = buchberger(Ideal.of(r, [r.parse("x"), r.parse("x - 1")]))
        assert gb.is_unit()

    def test_zero_ideal(self):
        r = qring("x", "y")
        gb = buchberger(Ideal(r, ()))
        assert gb.basis == ()

    def test_over_prime_field(self):
        r = fring("x", "y")
        gb = buchberger(Ideal.of(r, [r.parse("x^2 - y"), r.parse("y^2 - x")]))
        check = r.parse("x^4 - x")
        assert normal_form(check, gb).is_zero()

    @staticmethod
    def cyclic4():
        r = qring("a", "b", "c", "d")
        cyclic = ["a+b+c+d", "a*b+b*c+c*d+d*a", "a*b*c+b*c*d+c*d*a+d*a*b", "a*b*c*d-1"]
        return Ideal.of(r, [r.parse(g) for g in cyclic])

    def test_budget_exceeded(self):
        with budget(1e-9), pytest.raises(BudgetExceeded):
            buchberger(self.cyclic4())

    def test_nested_budgets_restore_the_outer_one(self):
        def in_force():
            return groebner._Deadline("probe").budget

        assert in_force() == groebner.DEFAULT_BUDGET_SECS
        with budget(30.0):
            with budget(5.0):
                assert in_force() == 5.0
            assert in_force() == 30.0
            with budget(None):
                assert in_force() == groebner.DEFAULT_BUDGET_SECS
            with pytest.raises(BudgetExceeded), budget(1e-9):
                buchberger(self.cyclic4())
            assert in_force() == 30.0
        assert in_force() == groebner.DEFAULT_BUDGET_SECS

    @pytest.mark.parametrize("secs", [float("nan"), float("inf"), 0.0, -1.0])
    def test_budget_must_be_a_positive_number_of_seconds(self, secs):
        # NaN and infinity never run out; zero and negative budgets run out
        # at once.  The refused budget is not put in force.
        with pytest.raises(InputError, match="budget must be a positive number of seconds"):
            with budget(secs):
                pass
        assert groebner._Deadline("probe").budget == groebner.DEFAULT_BUDGET_SECS


def _plain_division(f, pick, key, p):
    """Textbook division mod p of the term dict ``f``: its largest term
    ``m`` is cancelled by the term dict ``pick(m, rem)`` or, when that is
    None, goes to the remainder ``rem``."""
    f = dict(f)
    rem = {}
    while f:
        m = max(f, key=key)
        c = f.pop(m)
        g = pick(m, rem)
        if g is None:
            rem[m] = c
            continue
        lm = max(g, key=key)
        factor = c * pow(g[lm], -1, p) % p
        shift = tuple(a - b for a, b in zip(m, lm))
        for gm, gc in g.items():
            if gm != lm:
                mm = tuple(a + b for a, b in zip(shift, gm))
                f[mm] = (f.get(mm, 0) - factor * gc) % p
                if not f[mm]:
                    del f[mm]
    return rem


def _first_divisor(m, heads):
    return next((g for lm, g in heads if mono_divides(lm, m)), None)


def _plain_remainder(f, basis, key, p, top=()):
    """Division by the first element of ``basis`` whose leading monomial
    divides a term; the elements of ``top`` divide too, after those of
    ``basis``, but only while no term has gone to the remainder."""
    heads = [(max(g, key=key), g) for g in basis]
    top_heads = [(max(g, key=key), g) for g in top]

    def pick(m, rem):
        g = _first_divisor(m, heads)
        return _first_divisor(m, top_heads) if g is None and not rem else g

    return _plain_division(f, pick, key, p)


def _plain_regular_remainder(f, basis, own, sig, key, p):
    """The full regular normal form below the signature ``sig``: an element
    of ``basis`` divides every term, an element ``(g, s)`` of ``own``, of
    signature ``s``, divides a term ``m`` only while ``(m / lm(g)) * s``
    lies below ``sig``."""
    heads = [(max(g, key=key), g) for g in basis]
    own_heads = [(max(g, key=key), g, s) for g, s in own]

    def pick(m, rem):
        g = _first_divisor(m, heads)
        if g is None:
            regular = (
                h
                for lm, h, s in own_heads
                if mono_divides(lm, m)
                and key(tuple(a - b + c for a, b, c in zip(m, lm, s))) < key(sig)
            )
            g = next(regular, None)
        return g

    return _plain_division(f, pick, key, p)


def _plain_spoly(f, g, key, p):
    lf, lg = max(f, key=key), max(g, key=key)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    out = {}
    for h, lm, sign in ((f, lf, 1), (g, lg, -1)):
        scale = sign * pow(h[lm], -1, p)
        shift = tuple(a - b for a, b in zip(lcm, lm))
        for m, c in h.items():
            mm = tuple(a + b for a, b in zip(shift, m))
            out[mm] = (out.get(mm, 0) + scale * c) % p
    return {m: c for m, c in out.items() if c}


def _random_generators(rng, ring, count, degree, terms):
    monos = [m for m in itertools.product(range(degree + 1), repeat=ring.nvars) if sum(m) <= degree]
    return [
        ring.from_terms((m, rng.randrange(1, P1)) for m in rng.sample(monos, terms))
        for _ in range(count)
    ]


class TestReducerAgainstPlainDivision:
    """Random small ideals over GF(P1), checked with a reduction written
    here rather than the engine's own: Buchberger's criterion on the
    returned basis, membership of the inputs, and invariance of the basis
    under permuting the generators and scaling them by units."""

    @pytest.mark.parametrize(
        "order", [GREVLEX, block_order(1)], ids=["grevlex", "block1"]
    )
    def test_random_ideals(self, order):
        rng = random.Random(f"reducer:{order.name}")
        ring = PolyRing(("x", "y", "z"), PrimeField(P1), order)
        key = order_key(order)
        # The last three have more generators than variables.
        cases = [(2, 2, 3), (3, 2, 4), (2, 3, 4), (3, 2, 3), (4, 2, 3), (5, 2, 3), (6, 2, 4)]
        for count, degree, terms in cases * 2:
            gens = _random_generators(rng, ring, count, degree, terms)
            gb = buchberger(Ideal.of(ring, gens))
            basis = [g.as_dict() for g in gb.basis]
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    s = _plain_spoly(basis[i], basis[j], key, P1)
                    assert _plain_remainder(s, basis, key, P1) == {}
            for g in gens:
                assert _plain_remainder(g.as_dict(), basis, key, P1) == {}
            shuffled = [g * rng.randrange(1, P1) for g in rng.sample(gens, len(gens))]
            assert buchberger(Ideal.of(ring, shuffled)).basis == gb.basis

    @pytest.mark.parametrize(
        "order",
        [GREVLEX, block_order(1), block_order(2)],
        ids=["grevlex", "block1", "block2"],
    )
    def test_random_ideals_five_variables(self, order):
        # Two-variable blocks put multi-digit weight rows under the test.
        rng = random.Random(f"reducer5:{order.name}:{getattr(order, 'k', 0)}")
        ring = PolyRing(("v", "w", "x", "y", "z"), PrimeField(P1), order)
        key = order_key(order)
        for count, degree, terms in [(2, 2, 3), (3, 2, 3), (2, 3, 3), (3, 2, 4), (5, 2, 3), (5, 2, 4)]:
            gens = _random_generators(rng, ring, count, degree, terms)
            gb = buchberger(Ideal.of(ring, gens))
            basis = [g.as_dict() for g in gb.basis]
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    s = _plain_spoly(basis[i], basis[j], key, P1)
                    assert _plain_remainder(s, basis, key, P1) == {}
            for g in gens:
                assert _plain_remainder(g.as_dict(), basis, key, P1) == {}
            shuffled = [g * rng.randrange(1, P1) for g in rng.sample(gens, len(gens))]
            assert buchberger(Ideal.of(ring, shuffled)).basis == gb.basis

    @pytest.mark.parametrize(
        "order",
        [GREVLEX, block_order(1), block_order(2)],
        ids=["grevlex", "block1", "block2"],
    )
    def test_targets_below_every_leading_monomial(self, order):
        # Every scan stops at its first reducer; nothing reduces.
        rng = random.Random(f"below:{order!r}")
        ring = PolyRing(("x", "y", "z"), PrimeField(P1), order)
        key = order_key(order)
        monos = list(itertools.product(range(4), repeat=3))
        checked = 0
        for count in (2, 3, 3, 4, 5):
            gb = buchberger(Ideal.of(ring, _random_generators(rng, ring, count, 2, 3)))
            lowest = min(gb.leading_monomials(), key=key)
            below = [m for m in monos if key(m) < key(lowest)]
            basis = [g.as_dict() for g in gb.basis]
            for _ in range(5):
                if not below:
                    break
                target = ring.from_terms(
                    (m, rng.randrange(1, P1)) for m in rng.sample(below, min(4, len(below)))
                )
                assert normal_form(target, gb) == target
                assert _plain_remainder(target.as_dict(), basis, key, P1) == target.as_dict()
                checked += 1
        assert checked

    @pytest.mark.parametrize(
        "order",
        [GREVLEX, block_order(1), block_order(2)],
        ids=["grevlex", "block1", "block2"],
    )
    def test_own_elements_sharing_a_leading_monomial(self, order):
        # Of two own elements with one leading monomial, only the one of
        # signature 1 may reduce below the signature x^5: the scan must pass
        # over the other, in either order, to the divisor after it.  Own
        # elements reduce only until the first term goes to the remainder;
        # the terms after it are reduced by the earlier basis alone.
        rng = random.Random(f"shared:{order!r}")
        ring = PolyRing(("x", "y", "z"), PrimeField(P1), order)
        key, pk = order_key(order), ring.packing
        normalize, invert = groebner._field_ops(ring)
        sig = pk.pack((5, 0, 0))  # above every monomial of degree 4 in each order
        used = 0
        for _ in range(12):
            earlier_gb = buchberger(Ideal.of(ring, _random_generators(rng, ring, 2, 2, 2)))
            earlier = [g.as_dict() for g in reversed(earlier_gb.basis)]  # increasing lm
            f = _random_generators(rng, ring, 1, 2, 3)[0]
            lm = f.leading_monomial()
            smaller = [
                m for m in itertools.product(range(3), repeat=3) if key(m) < key(lm) and sum(m) <= 2
            ]
            g = ring.from_terms(
                [(lm, rng.randrange(1, P1))]
                + [(m, rng.randrange(1, P1)) for m in rng.sample(smaller, min(2, len(smaller)))]
            )
            blocked = groebner._reducer(dict(f.terms), normalize, invert) + (sig,)
            allowed = groebner._reducer(dict(g.terms), normalize, invert) + (0,)
            for _ in range(4):
                target = _random_generators(rng, ring, 1, 4, 6)[0]
                want = _plain_remainder(target.as_dict(), earlier, key, P1, [g.as_dict()])
                for own in ([blocked, allowed], [allowed, blocked]):
                    got = groebner._reduce_full(
                        dict(target.terms), earlier_gb.reducers(), pk, normalize, None, sig, own
                    )
                    assert ring.from_dict(got).as_dict() == want
                used += want != _plain_remainder(target.as_dict(), earlier, key, P1)
        assert used

    @pytest.mark.parametrize("order", [GREVLEX, block_order(1)], ids=["grevlex", "block1"])
    def test_regular_reductions_keep_their_leading_terms(self, order, monkeypatch):
        # Own elements reduce only until the first term goes to the
        # remainder.  Beside each regular reduction of the loop runs the
        # full one, by plain division: own elements reduce every term they
        # regularly can.  Both must give the same leading monomial and
        # coefficient, so no criterion of the loop decides otherwise.
        rng = random.Random(f"decisions:{order!r}")
        fld = PrimeField(P1)
        ring = PolyRing(("x", "y", "z"), fld, order)
        t_ring = PolyRing(("t", "x", "y", "z"), fld, block_order(1))
        # A source off grevlex enters saturation through its grevlex basis.
        rings = [ring.with_order(GREVLEX), ring, t_ring]
        keys = {r.packing: order_key(r.order) for r in rings}
        real = groebner._reduce_full
        checked = dict.fromkeys(keys, 0)
        shorter = 0

        def spy(target, reducers, pk, normalize, deadline=None, sig=0, own=()):
            nonlocal shorter
            out = real(target, reducers, pk, normalize, deadline, sig, own)
            if not own:
                return out
            key, unpack = keys[pk], pk.unpack

            def element(lm, tail):
                return {unpack(lm): 1, **{unpack(m): -t % P1 for m, t in tail}}

            full = _plain_regular_remainder(
                {unpack(m): c % P1 for m, c in target.items() if c % P1},
                [element(lm, tail) for lm, tail in reducers],
                [(element(lm, tail), unpack(s)) for lm, tail, s in own],
                unpack(sig),
                key,
                P1,
            )
            got = {unpack(m): c for m, c in out.items()}
            assert bool(got) == bool(full)
            if full:
                lead = next(iter(got))
                assert lead == max(full, key=key)
                assert got[lead] == full[lead]
            checked[pk] += 1
            shorter += got != full
            return out

        monkeypatch.setattr(groebner, "_reduce_full", spy)
        # Square ideals, then more generators than variables.
        for count, degree in [(3, 2), (3, 2), (3, 3), (3, 3), (4, 2), (4, 3), (5, 2), (6, 2)]:
            buchberger(Ideal.of(ring, _random_generators(rng, ring, count, degree, 4)))
        # The index of t*g - 1 in saturation, always under block_order(1).
        for count in (1, 2, 2, 2, 3, 3):
            ideal = Ideal.of(ring, _random_generators(rng, ring, count, 2, 4))
            saturate(ideal, _random_generators(rng, ring, 1, 1, 2)[0])
        assert checked[ring.packing] > 50 and checked[t_ring.packing] > 10
        # Some tail was left to the earlier basis alone.
        assert shorter


class TestTwoLoops:
    """A square ideal and the same ideal with a combination of two of its
    generators added, one generator more than variables, have one reduced
    basis."""

    @staticmethod
    def with_combination(gens, rng):
        ring = gens[0].ring
        square = buchberger(Ideal.of(ring, gens))
        combo = gens[0] * rng.randrange(1, P1) + gens[-1] * rng.randrange(1, P1)
        assert buchberger(Ideal.of(ring, gens + [combo])).basis == square.basis
        return square

    @pytest.mark.parametrize(
        "order", [GREVLEX, block_order(1)], ids=["grevlex", "block1"]
    )
    def test_random_square_ideals(self, order):
        rng = random.Random(f"loops:{order.name}")
        for n, degree, terms in [(2, 2, 3), (2, 3, 4), (3, 2, 3), (3, 2, 4), (3, 3, 3), (4, 2, 3)] * 3:
            ring = PolyRing(tuple(f"x{i}" for i in range(n)), PrimeField(P1), order)
            self.with_combination(_random_generators(rng, ring, n, degree, terms), rng)


class TestKeptReducers:
    """The reducers :func:`buchberger` hands over are those of its basis,
    by increasing leading monomial, prepared once per element the signature
    loop adds."""

    FIELDS = [QQ, PrimeField(P1), residue_ring(DEFAULT_PRIMES)]

    @pytest.mark.parametrize("fld", FIELDS, ids=["QQ", "GFp", "two_primes"])
    def test_reducers_are_the_basis_reducers(self, fld):
        rng = random.Random(f"kept:{fld}")
        for order in _orders(3):
            ring = PolyRing(("x", "y", "z"), fld, order)
            normalize, invert = groebner._field_ops(ring)
            for count in (2, 3, 4, 5):
                gens = TestSeveralPrimes.integer_generators(rng, ring, count, 2, 3)
                gb = buchberger(Ideal.of(ring, gens))
                prepared = tuple(
                    groebner._reducer(dict(g.terms), normalize, invert) for g in reversed(gb.basis)
                )
                assert gb.reducers() == prepared

    def test_each_element_is_prepared_once(self, monkeypatch):
        prepared, added = [], []
        real_reducer, real_index = groebner._reducer, groebner._signature_index

        def counted_reducer(*args):
            prepared.append(args)
            return real_reducer(*args)

        def counted_index(*args):
            out = real_index(*args)
            added.append(len(out))
            return out

        monkeypatch.setattr(groebner, "_reducer", counted_reducer)
        monkeypatch.setattr(groebner, "_signature_index", counted_index)
        rng = random.Random("kept-once")
        ring = PolyRing(("x", "y", "z"), PrimeField(P1), GREVLEX)
        for count in (2, 3, 4, 6):
            prepared.clear()
            added.clear()
            gens = TestSeveralPrimes.integer_generators(rng, ring, count, 2, 3)
            gb = buchberger(Ideal.of(ring, gens))
            assert len(added) > 1
            assert len(prepared) == sum(added) >= len(gb.basis)
            gb.reducers()
            normal_form(ring.parse("x^3 + y*z"), gb)
            assert len(prepared) == sum(added)


def _scratch_reduced_basis(members, pk, normalize):
    """Minimalize, then reduce every tail modulo the whole minimal basis."""
    minimal = []
    for r in sorted(members, key=lambda r: r[0]):
        if not any(pk.divides(lm, r[0]) for lm, _ in minimal):
            minimal.append(r)
    return [
        (lm, tuple(groebner._reduce_full(dict(tail), minimal, pk, normalize).items()))
        for lm, tail in minimal
    ]


class TestAscendingScans:
    """The invariants that let every divisor scan stop at the first leading
    monomial above its target: reducers by increasing leading monomial,
    signatures stored increasing, and the inter-reduction that keeps the
    tails no new leading monomial divides."""

    FIELDS = [QQ, PrimeField(P1), residue_ring(DEFAULT_PRIMES)]

    @pytest.mark.parametrize("fld", FIELDS, ids=["QQ", "GFp", "two_primes"])
    def test_incremental_inter_reduction_is_from_scratch(self, fld, monkeypatch):
        calls = []
        real = groebner._reduced_basis

        def spy(old, added, pk, normalize, deadline):
            out = real(old, added, pk, normalize, deadline)
            calls.append((list(old), list(added), pk, normalize, out))
            return out

        monkeypatch.setattr(groebner, "_reduced_basis", spy)
        rng = random.Random(f"inter:{fld}")
        kept = retouched = 0
        for order in (GREVLEX, block_order(1)):
            ring = PolyRing(("x", "y", "z"), fld, order)
            for count in (2, 3, 4, 5, 6):
                calls.clear()
                gens = TestSeveralPrimes.integer_generators(rng, ring, count, 2, 3)
                buchberger(Ideal.of(ring, gens))
                for old, added, pk, normalize, out in calls:
                    assert out == _scratch_reduced_basis(old + added, pk, normalize)
                    before = dict(old)
                    for lm, tail in out:
                        if lm in before:
                            kept += tail is before[lm]
                            retouched += tail != before[lm]
        assert kept and retouched

    @pytest.mark.parametrize("fld", FIELDS, ids=["QQ", "GFp", "two_primes"])
    def test_scrambled_basis_has_the_same_normal_forms(self, fld):
        rng = random.Random(f"scrambled:{fld}")
        tails = 0
        for order in _orders(3):
            ring = PolyRing(("x", "y", "z"), fld, order)
            for count in (3, 4, 5):
                gens = TestSeveralPrimes.integer_generators(rng, ring, count, 2, 3)
                gb = buchberger(Ideal.of(ring, gens))
                if len(gb.basis) < 2:
                    continue
                hand = GroebnerBasis(ring, tuple(rng.sample(gb.basis, len(gb.basis))))
                assert hand.reducers() == gb.reducers()
                for target in TestSeveralPrimes.integer_generators(rng, ring, 6, 4, 6):
                    assert normal_form(target, hand) == normal_form(target, gb)
                if fld is not QQ and krull_dimension(gb) == 0:
                    qb = quotient_basis(hand)
                    assert qb == quotient_basis(gb)
                    coeffs = [rng.randrange(1, COEFF_BOUND) for _ in range(3)]
                    assert multiplication_matrix(hand, qb, coeffs) == multiplication_matrix(gb, qb, coeffs)
                    tails += 1
        assert tails or fld is QQ

    def test_signatures_never_decrease_within_an_index(self, monkeypatch):
        indices = []
        real_reduce, real_index = groebner._reduce_full, groebner._signature_index

        def spy_reduce(target, reducers, pk, normalize, deadline=None, sig=0, own=()):
            lms = [r[0] for r in reducers]
            assert lms == sorted(lms)
            if own:
                assert [r[0] for r in own] == sorted(r[0] for r in own)
            if own:  # a regular reduction of the signature loop
                indices[-1].append(sig)
            return real_reduce(target, reducers, pk, normalize, deadline, sig, own)

        def spy_index(*args):
            indices.append([])
            return real_index(*args)

        monkeypatch.setattr(groebner, "_reduce_full", spy_reduce)
        monkeypatch.setattr(groebner, "_signature_index", spy_index)
        rng = random.Random("signatures")
        for order in _orders(3):
            ring = PolyRing(("x", "y", "z"), PrimeField(P1), order)
            # Square ideals, and ideals with zero reductions (more generators
            # than variables), which feed the syzygy list.
            for count in (2, 3, 4, 5, 6):
                gens = _random_generators(rng, ring, count, 2, 3)
                buchberger(Ideal.of(ring, gens))
        sigs = [s for index in indices for s in index]
        assert len(sigs) > 50
        for index in indices:
            assert index == sorted(index)


def _order_blocks(order, n):
    """Variable blocks whose degrees the packed layout stores as digits."""
    if order == GREVLEX:
        return [(0, n)]
    return [(0, order.k), (order.k, n)]


def _block_degree(m, blocks):
    return max(sum(m[a:b]) for a, b in blocks)


def _random_monomial(rng, n, blocks, limit):
    """Random exponents whose every block degree stays below ``limit``;
    often a block sits just under it."""
    m = [0] * n
    for a, b in blocks:
        total = rng.choice([limit - 1, limit - 1 - rng.randrange(3), rng.randrange(limit), rng.randrange(6)])
        support = rng.sample(range(a, b), rng.randrange(1, b - a + 1))
        for i in support[:-1]:
            m[i] = rng.randrange(total + 1)
            total -= m[i]
        m[support[-1]] = total
    return tuple(m)


def _random_divisor(rng, m):
    return tuple(rng.choice([0, e, rng.randrange(e + 1)]) for e in m)


def _orders(n):
    yield GREVLEX
    for k in range(1, n):
        yield block_order(k)


class TestPackedMonomials:
    """Packed monomials against tuple operations written here and the order
    keys of ``conftest.order_key``, for every order on 1 to 10 variables,
    with block degrees up to the guard bound."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_packing_agrees_with_tuples(self, n):
        rng = random.Random(f"packing:{n}")
        for order in _orders(n):
            ring = PolyRing(tuple(f"x{i}" for i in range(n)), PrimeField(P1), order)
            pk = ring.packing
            blocks = _order_blocks(order, n)
            key = order_key(order)
            monos = [_random_monomial(rng, n, blocks, PACK_LIMIT) for _ in range(60)]
            packed = [pk.pack(m) for m in monos]
            for m, a in zip(monos, packed):
                assert pk.unpack(a) == m
                assert not a & pk.over
            for _ in range(200):
                i, j = rng.randrange(len(monos)), rng.randrange(len(monos))
                a, b = monos[i], monos[j]
                pa, pb = packed[i], packed[j]
                assert (pa < pb) == (key(a) < key(b))
                assert (pa == pb) == (a == b)
                assert pk.divides(pa, pb) == mono_divides(a, b)
                lcm = mono_lcm(a, b)
                assert pk.unpack(pk.lcm(pa, pb)) == lcm
                coprime = all(x == 0 or y == 0 for x, y in zip(a, b))
                assert (pk.lcm(pa, pb) == pa + pb) == coprime
                product = tuple(x + y for x, y in zip(a, b))
                # The mask passes a sum exactly when its block degrees do.
                assert bool((pa + pb) & pk.over) == (_block_degree(product, blocks) >= PACK_LIMIT)
                if _block_degree(product, blocks) < PACK_LIMIT:
                    assert pa + pb == pk.pack(product)
                if _block_degree(lcm, blocks) < PACK_LIMIT:
                    assert pk.lcm(pa, pb) == pk.pack(lcm)
                d = _random_divisor(rng, a)
                pd = pk.pack(d)
                assert pk.divides(pd, pa)
                assert pk.lcm(pd, pa) == pa
                assert pa - pd == pk.pack(tuple(x - y for x, y in zip(a, d)))

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_packing_refuses_a_block_at_the_bound(self, n):
        for order in _orders(n):
            ring = PolyRing(tuple(f"x{i}" for i in range(n)), QQ, order)
            pk = ring.packing
            for a, b in _order_blocks(order, n):
                m = [0] * n
                m[b - 1] = PACK_LIMIT
                with pytest.raises(DegreeLimitExceeded):
                    pk.pack(tuple(m))
                m[b - 1] = PACK_LIMIT - 1
                assert pk.unpack(pk.pack(tuple(m))) == tuple(m)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_free_of_the_first_block_is_grevlex_shifted_up(self, n, k):
        # Under block_order(k), a monomial free of the first k variables
        # packs as its grevlex packing in the other n, k digits up: with
        # k = 1, pack((0,) + m) == pack(m) << PACK_DIGIT_BITS lifts into the
        # t ring of saturation; the shift down leaves an elimination.
        rng = random.Random(f"shifted:{n}:{k}")
        small = PolyRing(tuple(f"x{i}" for i in range(n)), QQ, GREVLEX).packing
        names = tuple(f"t{i}" for i in range(k)) + tuple(f"x{i}" for i in range(n))
        big = PolyRing(names, QQ, block_order(k)).packing
        for _ in range(200):
            m = _random_monomial(rng, n, [(0, n)], PACK_LIMIT)
            assert big.pack((0,) * k + m) == small.pack(m) << (k * PACK_DIGIT_BITS)


class TestWidthGuard:
    """Degrees past the packed-digit bound (far below poly.MAX_EXPONENT)
    raise DegreeLimitExceeded instead of returning a basis."""

    def test_bound_is_an_input_size_limit(self):
        assert PACK_LIMIT < MAX_EXPONENT
        assert issubclass(DegreeLimitExceeded, ValueError)

    def test_input_at_the_bound(self):
        r = fring("x", "y")
        with pytest.raises(DegreeLimitExceeded):
            buchberger(Ideal.of(r, [r.parse(f"x^{PACK_LIMIT} - y")]))
        gb = buchberger(Ideal.of(r, [r.parse(f"x^{PACK_LIMIT - 1} - y")]))
        assert gb.leading_monomials() == ((PACK_LIMIT - 1, 0),)

    def test_s_pair_past_the_bound(self):
        # Both generators have degree 8193; the lcm of their leading
        # monomials has degree 16384.
        r = fring("x", "y")
        half = PACK_LIMIT // 2
        gens = [r.parse(f"x^{half}*y - 1"), r.parse(f"x*y^{half} - 1")]
        with pytest.raises(DegreeLimitExceeded):
            buchberger(Ideal.of(r, gens))
        smaller = [r.parse(f"x^{half - 1}*y - 1"), r.parse(f"x*y^{half - 1} - 1")]
        assert not buchberger(Ideal.of(r, smaller)).is_unit()

    def test_block_reduction_past_the_bound(self):
        # Under block_order(1), reducing x*y by x - y^16383 makes y^16384.
        r = PolyRing(("x", "y"), PrimeField(P1), block_order(1))
        gb = buchberger(Ideal.of(r, [r.parse(f"x - y^{PACK_LIMIT - 1}")]))
        with pytest.raises(DegreeLimitExceeded):
            normal_form(r.parse("x*y"), gb)
        assert str(normal_form(r.parse("x"), gb)) == f"y^{PACK_LIMIT - 1}"


class TestDimension:
    def test_hypersurface(self):
        r = qring("x", "y", "z")
        assert krull_dimension(Ideal.of(r, [r.parse("x*y - z^2")])) == 2

    def test_points(self):
        r = qring("x", "y")
        ideal = Ideal.of(r, [r.parse("x^2 - 1"), r.parse("y^3 - y")])
        assert krull_dimension(ideal) == 0

    def test_zero_and_unit(self):
        r = qring("x", "y", "z")
        assert krull_dimension(Ideal(r, ())) == 3
        assert krull_dimension(Ideal.of(r, [r.one()])) == -1

    def test_line_in_three_space(self):
        r = qring("x", "y", "z")
        assert krull_dimension(Ideal.of(r, [r.parse("x"), r.parse("y")])) == 1

    @pytest.mark.parametrize("seed", range(20))
    def test_minimum_covers_against_every_subset(self, seed):
        # Random monomial ideals in 6 variables: the search lists each
        # smallest set of variables meeting every support exactly once.
        rng = random.Random(seed)
        r = qring(*(f"x{i}" for i in range(6)))
        monos = [
            tuple(rng.choice((0, 0, 1, 2)) for _ in range(6)) for _ in range(rng.randint(1, 5))
        ]
        monos = [m for m in monos if any(m)] or [(1, 0, 0, 0, 0, 0)]
        gb = GroebnerBasis(r, tuple(r.from_terms([(m, 1)]) for m in monos))
        supports = [{i for i, e in enumerate(m) if e} for m in monos]
        found = groebner._minimum_covers(gb)
        for size in range(7):
            every = [
                frozenset(c) for c in itertools.combinations(range(6), size)
                if all(s & set(c) for s in supports)
            ]
            if every:
                break
        assert sorted(found, key=sorted) == sorted(every, key=sorted)
        assert krull_dimension(gb) == 6 - size


class TestMultidegree:
    """Bigraded multidegrees, ``(a, b)`` standing for ``s^a t^b``, of ideals
    in P^1 x P^1 and P^2 x P^2, each worked out by hand."""

    @staticmethod
    def p1p1(*gens):
        r = qring("x0", "x1", "y0", "y1")
        return buchberger(Ideal.of(r, [r.parse(g) for g in gens]))

    def test_hypersurface_of_bidegree_2_3(self):
        # A form of bidegree (a, b) has class a*s + b*t: each minimal prime
        # of its leading term x0^2*y0^3 counts with its exponent.
        gb = self.p1p1("x0^2*y0^3 + x1^2*y1^3")
        assert multidegree(gb, 2) == {(1, 0): 2, (0, 1): 3}

    def test_diagonal(self):
        assert multidegree(self.p1p1("x0*y1 - x1*y0"), 2) == {(1, 0): 1, (0, 1): 1}

    def test_point(self):
        assert multidegree(self.p1p1("x1", "y1"), 2) == {(1, 1): 1}

    def test_zero_and_unit(self):
        r = qring("x0", "x1", "y0", "y1")
        assert multidegree(GroebnerBasis(r, ()), 2) == {(0, 0): 1}
        assert multidegree(self.p1p1("1"), 2) == {}

    @pytest.mark.parametrize("order", [GREVLEX, block_order(3)], ids=["grevlex", "block"])
    def test_complete_intersection_in_every_order(self, order):
        # Forms of bidegrees (1, 1) and (2, 1) meet in the class
        # (s + t)(2s + t) = 2s^2 + 3st + t^2, whatever leading terms the
        # order picks.
        r = fring("x0", "x1", "x2", "y0", "y1", "y2")
        forms = ["x0*y0 + 2*x1*y1 + 3*x2*y2 + 5*x0*y1", "x0^2*y2 + 7*x1^2*y0 + 11*x2^2*y1 + 13*x0*x1*y1"]
        gb = buchberger(Ideal.of(r, [r.parse(f) for f in forms]), order=order)
        assert multidegree(gb, 3) == {(2, 0): 2, (1, 1): 3, (0, 2): 1}

    def test_refuses_a_basis_that_is_not_bihomogeneous(self):
        with pytest.raises(ValueError, match="not bihomogeneous"):
            multidegree(self.p1p1("x0*y0 - x1"), 2)


class TestEliminateAndSaturate:
    def test_eliminate_projection_of_curve(self):
        r = qring("x", "y", "z")
        ideal = Ideal.of(r, [r.parse("y - x^2"), r.parse("z - x^3")])
        out = eliminate(ideal, 1)
        assert [str(g) for g in out.basis] == ["y^3 - z^2"]
        assert out.ring.variables == ("y", "z")

    def test_eliminate_rejects_a_survivor_of_the_eliminated_block(self, monkeypatch):
        # x^2 + t listed with the leading monomial x^2: wrong under any
        # block order, and caught rather than projected away.
        r = qring("t", "x")
        pack = r.packing.pack
        bad = Polynomial(r, ((pack((0, 2)), Fraction(1)), (pack((1, 0)), Fraction(1))))
        monkeypatch.setattr(groebner, "buchberger", lambda *a, **k: GroebnerBasis(r, (bad,)))
        with pytest.raises(RuntimeError, match="eliminated variables"):
            eliminate(Ideal.of(r, [r.parse("x")]), 1)

    def test_eliminate_can_be_empty(self):
        r = qring("x", "y")
        out = eliminate(Ideal.of(r, [r.parse("x - 1")]), 1)
        assert out.basis == ()

    def test_saturate_removes_embedded_factor(self):
        r = qring("x", "y", "z")
        ideal = Ideal.of(r, [r.parse("x*y"), r.parse("x*z")])
        out = saturate(ideal, r.parse("y"))
        assert [str(g) for g in out.basis] == ["x"]

    def test_saturate_by_whole_ideal(self):
        r = fring("x", "y", "z")
        ideal = Ideal.of(r, [r.parse("x*y"), r.parse("x*z")])
        other = Ideal.of(r, [r.parse("y"), r.parse("z")])
        out = saturate_by_ideal(ideal, other, seed=5)
        assert [str(g) for g in out.basis] == ["x"]

    def test_saturate_by_ideal_raises_when_draws_disagree(self, monkeypatch):
        # Each random combination alone gives the saturation by the whole
        # ideal; two different answers mean an unlucky draw, not a result.
        # Over several primes, which prime drew badly only one prime at a
        # time tells.
        real = groebner.saturate
        cases = [(PrimeField(P1), Instability), (residue_ring(DEFAULT_PRIMES), SplitModulus)]
        for field, error in cases:
            r = PolyRing(("x", "y", "z"), field, GREVLEX)
            ideal = Ideal.of(r, [r.parse("x*y"), r.parse("x*z")])
            other = Ideal.of(r, [r.parse("y"), r.parse("z")])
            answers = []

            def drifting(ideal, g):
                out = real(ideal, g)
                answers.append(out)
                if len(answers) == 2:
                    out = GroebnerBasis(r, out.basis + (r.parse("y^2"),))
                return out

            monkeypatch.setattr(groebner, "saturate", drifting)
            with pytest.raises(error, match="saturations? by random combinations"):
                saturate_by_ideal(ideal, other, seed=5)
            assert len(answers) == 2

    @pytest.mark.parametrize(
        "as_basis, calls, indices", [(False, 1, 4), (True, 0, 2)], ids=["ideal", "grevlex-basis"]
    )
    def test_saturate_by_ideal_computes_the_basis_once(
        self, as_basis, calls, indices, monkeypatch
    ):
        # Both draws start from one reduced basis of the ideal: computed
        # once (two indices, one per generator) for an Ideal, taken as it is
        # for a grevlex basis.  Each draw then runs the index of t*g - 1.
        counts = {"buchberger": 0, "_signature_index": 0}
        for name in counts:
            real = getattr(groebner, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(groebner, name, counted)
        r = fring("x", "y", "z")
        ideal = Ideal.of(r, [r.parse("x*y"), r.parse("x*z")])
        if as_basis:
            ideal = GroebnerBasis(r, ideal.generators)
        other = Ideal.of(r, [r.parse("y"), r.parse("z")])
        out = saturate_by_ideal(ideal, other, seed=5)
        assert [str(g) for g in out.basis] == ["x"]
        assert counts == {"buchberger": calls, "_signature_index": indices}

    def test_saturate_by_ideal_refuses_another_ring(self):
        r, s = fring("x", "y", "z"), fring("x", "y", "w")
        ideal = Ideal.of(r, [r.parse("x*y"), r.parse("x*z")])
        other = Ideal.of(s, [s.parse("y"), s.parse("w")])
        with pytest.raises(ValueError, match="saturating ideal lives in a different ring"):
            saturate_by_ideal(ideal, other, seed=5)

    def test_saturate_no_op_when_coprime(self):
        r = qring("x", "y")
        ideal = Ideal.of(r, [r.parse("x^2 + 1")])
        out = saturate(ideal, r.parse("y"))
        assert [str(g) for g in out.basis] == ["x^2 + 1"]

    @staticmethod
    def seeded_cases(order, fld=PrimeField(P1)):
        # Eight seeded ideals with integer data, in two and three
        # variables, each with a seeded polynomial to saturate by.
        rng = random.Random(f"saturate:{order.name}")
        for n in (2, 3):
            ring = PolyRing(tuple(f"x{i}" for i in range(n)), fld, order)
            monos = [m for m in itertools.product(range(3), repeat=n) if sum(m) <= 2]
            for _ in range(4):
                gens = [
                    ring.from_terms((m, rng.randrange(1, COEFF_BOUND)) for m in rng.sample(monos, 3))
                    for _ in range(n - 1)
                ]
                g = ring.from_terms((m, rng.randrange(1, COEFF_BOUND)) for m in rng.sample(monos, 2))
                yield Ideal.of(ring, gens), g

    @pytest.mark.parametrize("order", [GREVLEX, block_order(1)], ids=["grevlex", "block1"])
    def test_eliminate_and_saturate_return_the_reduced_basis(self, order):
        # Projected and saturated, the basis returned is the reduced basis
        # of its own elements.
        checked = 0
        for ideal, g in self.seeded_cases(order):
            for out in (eliminate(ideal, 1), saturate(ideal, g)):
                assert out.basis == buchberger(Ideal.of(out.ring, out.basis)).basis
            checked += 1
        assert checked == 8

    @pytest.mark.parametrize("order", [GREVLEX, block_order(1)], ids=["grevlex", "block1"])
    def test_saturate_from_a_basis_is_saturate_from_the_ideal(self, order):
        # A grevlex basis is taken as the loop's prefix; a block-order
        # basis runs through the loop.  Either way the saturation is the ideal's.
        for ideal, g in self.seeded_cases(order):
            assert saturate(buchberger(ideal), g) == saturate(ideal, g)

    @staticmethod
    def tuple_route(gb, k, ring):
        # The elements of a block_order(k) basis free of the first k
        # variables, moved into ``ring`` through exponent tuples.
        kept = [
            ring.from_terms((m[k:], c) for m, c in g.as_dict().items())
            for g in gb.basis
            if not any(g.leading_monomial()[:k])
        ]
        return buchberger(Ideal.of(ring, kept))

    @pytest.mark.parametrize(
        "order, fld",
        [
            (block_order(1), PrimeField(P1)),
            (GREVLEX, residue_ring(DEFAULT_PRIMES)),
            (block_order(1), residue_ring(DEFAULT_PRIMES)),
        ],
        ids=["block1", "two_primes-grevlex", "two_primes-block1"],
    )
    def test_digit_shifts_agree_with_the_tuple_route(self, order, fld):
        # Saturation enters the t ring and both leave the eliminated block
        # by shifting packed terms; moving exponent tuples gives the same
        # bases.
        for ideal, g in self.seeded_cases(order, fld):
            ring = ideal.ring
            for k in range(1, ring.nvars):
                small = PolyRing(ring.variables[k:], fld, order)
                want = self.tuple_route(buchberger(ideal, order=block_order(k)), k, small)
                assert eliminate(ideal, k) == want
            big = PolyRing(("t",) + ring.variables, fld, block_order(1))

            def lift(p):
                return big.from_terms(((0,) + m, c) for m, c in p.as_dict().items())

            lifted = [lift(f) for f in ideal.generators] + [big.gen(0) * lift(g) - big.one()]
            want = self.tuple_route(buchberger(Ideal.of(big, lifted)), 1, ring)
            assert saturate(ideal, g) == want
            assert saturate(buchberger(ideal), g) == want

    @pytest.mark.parametrize("order, calls", [(GREVLEX, 1), (block_order(1), 2)], ids=["grevlex", "block1"])
    def test_saturate_recomputes_only_off_grevlex(self, order, calls, monkeypatch):
        # block_order's second block is grevlex: only there are the
        # eliminated generators already the ring's reduced basis, which
        # eliminate otherwise recomputes.
        real = groebner.buchberger
        seen = []

        def counted(*args, **kwargs):
            seen.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(groebner, "buchberger", counted)
        r = PolyRing(("x", "y", "z"), PrimeField(P1), order)
        out = saturate(Ideal.of(r, [r.parse("x*y"), r.parse("x*z")]), r.parse("y"))
        assert [str(g) for g in out.basis] == ["x"]
        assert len(seen) == calls


class TestZeroDimensional:
    def test_quotient_basis_of_two_circles(self):
        r = fring("x", "y")
        gb = buchberger(Ideal.of(r, [r.parse("x^2 + y^2 - 1"), r.parse("y - x^2")]))
        qb = quotient_basis(gb)
        assert len(qb) == 4

    @pytest.mark.parametrize(
        "order",
        [GREVLEX, block_order(1), block_order(2)],
        ids=["grevlex", "block1", "block2"],
    )
    def test_quotient_basis_is_the_sorted_staircase(self, order):
        # Every monomial no leading monomial divides, found by brute force
        # in the box below the pure powers, in increasing monomial order.
        # The unit ideal (basis 1) has none.
        r = PolyRing(("x", "y", "z"), PrimeField(P1), order)
        systems = [
            ["x^2 + y*z - 3", "y^2 - x*z + 2*x", "z^3 - x*y + y - 1"],
            ["x*y - 1", "x"],
        ]
        for gens in systems:
            gb = buchberger(Ideal.of(r, [r.parse(g) for g in gens]))
            lms = gb.leading_monomials()
            top = max(max(lm) for lm in lms)
            staircase = [
                m for m in itertools.product(range(top), repeat=3)
                if not any(mono_divides(lm, m) for lm in lms)
            ]
            monomials = tuple(map(r.packing.unpack, quotient_basis(gb)))
            assert monomials == tuple(sorted(staircase, key=order_key(order)))
        assert quotient_basis(gb) == ()

    def test_quotient_basis_rejects_curves(self):
        r = fring("x", "y")
        gb = buchberger(Ideal.of(r, [r.parse("y - x^2")]))
        with pytest.raises(NotZeroDimensional):
            quotient_basis(gb)

    def test_multiplication_matrix_on_quadratic(self):
        r = fring("x")
        gb = buchberger(Ideal.of(r, [r.parse("x^2 - 2")]))
        qb = quotient_basis(gb)
        mat = multiplication_matrix(gb, qb, [1])
        # basis (1, x): multiplying by x sends 1 -> x and x -> 2
        assert mat == [[0, 2], [1, 0]]

    def test_count_distinct_points_of_curve_pair(self):
        r = fring("x", "y")
        ideal = Ideal.of(r, [r.parse("x^2 + y^2 - 1"), r.parse("y - x^2")])
        assert count_points(ideal, seed=12345)[P1] == 4

    def test_count_empty_system(self):
        r = fring("x")
        assert count_points(Ideal.of(r, [r.parse("x"), r.parse("x - 1")]), seed=1)[P1] == 0

    def test_count_requires_prime_field(self):
        r = qring("x")
        with pytest.raises(TypeError):
            count_points(Ideal.of(r, [r.parse("x^2 - 1")]), seed=1)

    def test_count_univariate_with_multiplicities(self):
        # (x-1)^3 (x-2) has two distinct roots
        r = fring("x")
        f = r.parse("(x - 1)^3 * (x - 2)")
        assert count_points(Ideal.of(r, [f]), seed=9)[P1] == 2

    def test_count_matches_product_of_linear_factors(self):
        r = fring("x")
        x = r.gen(0)
        roots = [3, 5, 5, 11, 3]
        f = r.one()
        for a in roots:
            f = f * (x - a)
        assert count_points(Ideal.of(r, [f]), seed=77)[P1] == len(set(roots))

    def test_count_beyond_int64_products(self):
        # Above 2**32 a product of two residues no longer fits in an int64.
        p = 4294967291
        r = PolyRing(("x", "y"), PrimeField(p), GREVLEX)
        ideal = Ideal.of(r, [r.parse("(x - 1)^2*(x - 2)*(x - 3)"), r.parse("y^2 - x")])
        assert count_points(ideal, seed=1) == {p: 6}

    def test_characteristic_hazard_guard(self, monkeypatch):
        # A quotient dimension of 2**31 reaches the first default prime,
        # and the guard raises before any matrix is built.
        def never(*args):
            raise AssertionError("multiplication matrix built past the guard")

        monkeypatch.setattr(groebner, "quotient_basis", lambda gb: range(2**31))
        monkeypatch.setattr(groebner, "multiplication_matrix", never)
        ring = PolyRing(("x", "y"), residue_ring(DEFAULT_PRIMES), GREVLEX)
        ideal = Ideal.of(ring, [ring.parse("x^2 + y^2 - 1"), ring.parse("y - x^2")])
        with pytest.raises(CharacteristicHazard, match=f"^quotient dimension {2**31} "):
            count_points(ideal, seed=1)


def det_mod(mat, p):
    """Determinant mod ``p`` by Gaussian elimination."""
    a = [[c % p for c in row] for row in mat]
    n = len(a)
    det = 1
    for j in range(n):
        piv = next((i for i in range(j, n) if a[i][j]), None)
        if piv is None:
            return 0
        if piv != j:
            a[j], a[piv] = a[piv], a[j]
            det = -det
        det = det * a[j][j] % p
        inv = pow(a[j][j], -1, p)
        for i in range(j + 1, n):
            f = a[i][j] * inv % p
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[j])]
    return det % p


def charpoly_oracle(mat, p):
    """det(x*I - mat) mod ``p`` at x = 0..dim, interpolated (Lagrange);
    lowest coefficient first."""
    n = len(mat)
    points = range(n + 1)
    values = [
        det_mod([[(x if i == j else 0) - mat[i][j] for j in range(n)] for i in range(n)], p)
        for x in points
    ]
    out = [0] * (n + 1)
    for k, (xk, yk) in enumerate(zip(points, values)):
        basis, denom = [1], 1
        for xj in points:
            if xj != xk:
                basis = [((basis[i - 1] if i else 0) - xj * (basis[i] if i < len(basis) else 0)) % p
                         for i in range(len(basis) + 1)]
                denom = denom * (xk - xj) % p
        scale = yk * pow(denom, -1, p) % p
        out = [(o + scale * b) % p for o, b in zip(out, basis)]
    return out


def conjugate(mat, rng, p):
    """A random similar matrix: row operations with their inverse column
    operations, and swaps."""
    a = [row[:] for row in mat]
    n = len(a)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        if rng.random() < 0.3:
            a[i], a[j] = a[j], a[i]
            for row in a:
                row[i], row[j] = row[j], row[i]
            continue
        u = rng.randrange(1, p)
        a[i] = [(x + u * y) % p for x, y in zip(a[i], a[j])]
        for row in a:
            row[j] = (row[j] - u * row[i]) % p
    return a


def jordan(blocks, p):
    """Block diagonal of Jordan blocks ``(eigenvalue, size)``."""
    n = sum(size for _, size in blocks)
    a = [[0] * n for _ in range(n)]
    start = 0
    for value, size in blocks:
        for k in range(start, start + size):
            a[k][k] = value % p
            if k + 1 < start + size:
                a[k][k + 1] = 1
        start += size
    return a


class TestCharacteristicPolynomial:
    """``_charpoly_mod`` (Hessenberg reduction) against det(x*I - M)."""

    @pytest.mark.parametrize("p", [13, 101, P1])
    def test_random_matrices_of_every_dimension(self, p):
        rng = random.Random(f"charpoly:{p}")
        for n in range(1, 13):
            for _ in range(3):
                # Sparse at the small primes: zero pivots and row swaps.
                mat = [[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(n)]
                assert groebner._charpoly_mod(mat, p) == charpoly_oracle(mat, p)

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_identity_and_nilpotent(self, n):
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        expected = charpoly_oracle(identity, P1)
        assert groebner._charpoly_mod(identity, P1) == expected
        assert _squarefree_degree(expected, P1) == 1
        for nilpotent in (
            [[int(j > i) for j in range(n)] for i in range(n)],
            [[int(j < i) for j in range(n)] for i in range(n)],
            [[int(j == i - 1) for j in range(n)] for i in range(n)],
        ):
            assert groebner._charpoly_mod(nilpotent, P1) == [0] * n + [1]

    def test_zero_subdiagonal_needs_no_pivot(self):
        # Column 0 is zero below the diagonal, and so is column 2.
        mat = [
            [3, 1, 4, 1, 5],
            [0, 9, 2, 6, 5],
            [0, 3, 5, 8, 9],
            [0, 7, 0, 9, 3],
            [0, 2, 0, 8, 4],
        ]
        assert groebner._charpoly_mod(mat, P1) == charpoly_oracle(mat, P1)

    def test_row_swap_when_the_subdiagonal_entry_is_zero(self):
        # Entry (1, 0) is zero, (3, 0) is not: the pivot comes from row 3.
        mat = [
            [2, 7, 1, 8],
            [0, 2, 8, 1],
            [0, 8, 2, 8],
            [4, 5, 9, 0],
        ]
        assert groebner._charpoly_mod(mat, P1) == charpoly_oracle(mat, P1)

    @pytest.mark.parametrize(
        "blocks",
        [
            [(5, 1)],
            [(5, 3)],
            [(5, 2), (5, 2), (7, 1)],
            [(1, 1), (1, 1), (1, 1), (2, 4), (3, 2)],
            [(0, 4), (P1 - 1, 3), (11, 5)],
        ],
    )
    def test_repeated_eigenvalues_and_jordan_blocks(self, blocks):
        rng = random.Random(repr(blocks))
        mat = conjugate(jordan(blocks, P1), rng, P1)
        charpoly = groebner._charpoly_mod(mat, P1)
        assert charpoly == charpoly_oracle(mat, P1)
        assert _squarefree_degree(charpoly, P1) == len({value for value, _ in blocks})


THREE_PRIMES = (P1, 2147483629, 1073741827)
# With 3037000493 the product of three exceeds 2**63.
WIDE_PRIMES = (P1, 2147483629, 3037000493)
# Each residue modulo 2**61 - 1 or 2**64 - 59 (the largest accepted prime)
# overflows an int64 product.
WORD_PRIMES = (P1, 2**61 - 1, 2**64 - 59)


def split_basis(gb, p):
    """The basis modulo the prime ``p`` of its field, dropping the terms
    that vanish there: the oracle for a basis over several primes."""
    ring = gb.ring.with_field(PrimeField(p))
    return GroebnerBasis(
        ring,
        tuple(Polynomial(ring, tuple((m, c % p) for m, c in g.terms if c % p)) for g in gb.basis),
    )


class TestSeveralPrimes:
    """One basis modulo a product of primes, split per prime, against each
    prime's own basis (see "Several primes at once")."""

    @staticmethod
    def integer_generators(rng, ring, count, degree, terms):
        # Integer data below every prime: the same system modulo each.
        monos = [
            m for m in itertools.product(range(degree + 1), repeat=ring.nvars) if sum(m) <= degree
        ]
        return [
            ring.from_terms((m, rng.randrange(1, COEFF_BOUND)) for m in rng.sample(monos, terms))
            for _ in range(count)
        ]

    @pytest.mark.parametrize("primes", [DEFAULT_PRIMES, THREE_PRIMES], ids=["two", "three"])
    def test_split_basis_is_each_primes_basis(self, primes):
        rng = random.Random(f"split:{len(primes)}")
        checked = 0
        for n in range(2, 6):
            for order in _orders(n):
                ring = PolyRing(tuple(f"x{i}" for i in range(n)), residue_ring(primes), order)
                # Square, then with one generator fewer and one more.
                for count in (n, n - 1, n + 1):
                    gens = self.integer_generators(rng, ring, count, 2, 3)
                    gb = buchberger(Ideal.of(ring, gens))
                    for p in primes:
                        ring_p = ring.with_field(PrimeField(p))
                        own = buchberger(Ideal.of(ring_p, [g.to_ring(ring_p) for g in gens]))
                        assert split_basis(gb, p) == own
                    checked += 1
        assert checked == 3 * sum(range(2, 6))

    def test_tail_terms_vanishing_at_one_prime_are_dropped(self):
        # A tail coefficient zero modulo P1 only needs no inversion.
        ring = PolyRing(("x", "y"), residue_ring(DEFAULT_PRIMES), GREVLEX)
        gens = [ring.parse(f"x - {P1}*y"), ring.parse("y^2 - 1")]
        gb = buchberger(Ideal.of(ring, gens))
        for p in DEFAULT_PRIMES:
            ring_p = ring.with_field(PrimeField(p))
            own = buchberger(Ideal.of(ring_p, [g.to_ring(ring_p) for g in gens]))
            assert split_basis(gb, p) == own
        assert [str(g) for g in split_basis(gb, P1).basis] == ["y^2 + 2147483646", "x"]

    @staticmethod
    def zero_dimensional_generators(rng, ring):
        # x_i^2 plus an affine form: no common zero at infinity, so the
        # quotient has dimension 2^n under every order.
        n = ring.nvars
        gens = []
        for i in range(n):
            terms = {tuple(2 * (j == i) for j in range(n)): rng.randrange(1, COEFF_BOUND)}
            for j in rng.sample(range(n + 1), 3):
                terms[tuple(int(k == j) for k in range(n))] = rng.randrange(1, COEFF_BOUND)
            gens.append(ring.from_terms(terms.items()))
        return gens

    @staticmethod
    def assert_shared_tail(ring, gens, seed):
        """The ring's quotient basis, matrix and counts, read modulo each
        prime, are that prime's own."""
        gb = buchberger(Ideal.of(ring, gens))
        qb = quotient_basis(gb)
        coeffs = SeedStream(seed).coefficients(ring.nvars)
        mat = multiplication_matrix(gb, qb, coeffs)
        counts = count_points(Ideal.of(ring, gens), seed=seed)
        assert list(counts) == list(ring.field_.primes)
        for p in ring.field_.primes:
            own = split_basis(gb, p)
            own_qb = quotient_basis(own)
            assert own_qb == qb
            modulo_p = [[c % p for c in row] for row in mat]
            assert modulo_p == multiplication_matrix(own, own_qb, coeffs)
            ring_p = ring.with_field(PrimeField(p))
            alone = Ideal.of(ring_p, [g.to_ring(ring_p) for g in gens])
            assert count_points(alone, seed=seed) == {p: counts[p]}

    @pytest.mark.parametrize(
        "primes", [DEFAULT_PRIMES, WIDE_PRIMES, WORD_PRIMES], ids=["two", "three", "word"]
    )
    def test_shared_tail_is_each_primes_tail(self, primes):
        rng = random.Random(f"tail:{len(primes)}")
        checked = 0
        for n in range(2, 6):
            for order in _orders(n):
                ring = PolyRing(tuple(f"x{i}" for i in range(n)), residue_ring(primes), order)
                self.assert_shared_tail(ring, self.zero_dimensional_generators(rng, ring), checked)
                checked += 1
        assert checked == sum(range(2, 6))

    @pytest.mark.parametrize(
        "primes", [DEFAULT_PRIMES, WIDE_PRIMES, WORD_PRIMES], ids=["two", "three", "word"]
    )
    def test_shared_tail_with_a_term_vanishing_at_one_prime(self, primes):
        ring = PolyRing(("x", "y"), residue_ring(primes), GREVLEX)
        gens = [ring.parse(f"x - {P1}*y"), ring.parse("y^2 - 1")]
        self.assert_shared_tail(ring, gens, seed=3)

    @staticmethod
    def count_calls(monkeypatch, *names):
        """Calls of the named ``groebner`` functions, counted from now on."""
        calls = dict.fromkeys(names, 0)
        for name in names:
            real = getattr(groebner, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(groebner, name, counted)
        return calls

    @pytest.mark.parametrize("primes", [DEFAULT_PRIMES, WIDE_PRIMES], ids=["two", "three"])
    def test_one_tail_per_trial(self, primes, monkeypatch):
        calls = self.count_calls(monkeypatch, "quotient_basis", "multiplication_matrix")
        ring = PolyRing(("x", "y"), residue_ring(primes), GREVLEX)
        ideal = Ideal.of(ring, [ring.parse("x^2 + y^2 - 1"), ring.parse("y - x^2")])
        assert count_points(ideal, seed=12345) == {p: 4 for p in primes}
        assert calls == {"quotient_basis": 1, "multiplication_matrix": 1}

    def test_one_form_for_every_prime(self, monkeypatch):
        # The run over both primes and the run at each prime alone build
        # the matrix of one form, drawn below every prime.
        seen = []
        real = groebner.multiplication_matrix

        def spy(gb, qb, coeffs):
            seen.append(list(coeffs))
            return real(gb, qb, coeffs)

        monkeypatch.setattr(groebner, "multiplication_matrix", spy)
        ring = PolyRing(("x", "y"), residue_ring(DEFAULT_PRIMES), GREVLEX)
        gens = [ring.parse("x^2 + y^2 - 1"), ring.parse("y - x^2")]
        counts = count_points(Ideal.of(ring, gens), seed=12345)
        for p in DEFAULT_PRIMES:
            ring_p = ring.with_field(PrimeField(p))
            alone = Ideal.of(ring_p, [g.to_ring(ring_p) for g in gens])
            assert count_points(alone, seed=12345) == {p: counts[p]}
        assert len(seen) == 3
        assert seen[0] == seen[1] == seen[2]
        assert len(seen[0]) == 2 and all(1 <= c < COEFF_BOUND for c in seen[0])

    @pytest.mark.parametrize("primes", [DEFAULT_PRIMES, WIDE_PRIMES], ids=["two", "three"])
    def test_count_unit_ideal_is_zero_at_every_prime(self, primes):
        ring = PolyRing(("x", "y"), residue_ring(primes), GREVLEX)
        ideal = Ideal.of(ring, [ring.parse("x*y - 1"), ring.parse("x")])
        assert count_points(ideal, seed=1) == {p: 0 for p in primes}

    @pytest.mark.parametrize("primes", [DEFAULT_PRIMES, WIDE_PRIMES], ids=["two", "three"])
    def test_count_positive_dimensional_raises_once(self, primes, monkeypatch):
        calls = self.count_calls(monkeypatch, "quotient_basis")
        ring = PolyRing(("x", "y"), residue_ring(primes), GREVLEX)
        with pytest.raises(NotZeroDimensional):
            count_points(Ideal.of(ring, [ring.parse("y - x^2")]), seed=1)
        assert calls == {"quotient_basis": 1}

    def diverging_ideal(self, fld):
        # The leading coefficient P1 of x^2*y vanishes modulo P1 only.
        ring = PolyRing(("x", "y"), fld, GREVLEX)
        return Ideal.of(ring, [ring.parse(f"{P1}*x^2*y + x^2 - 2"), ring.parse("y^2 - 1")])

    def test_a_non_unit_leading_coefficient_splits(self):
        with pytest.raises(SplitModulus):
            buchberger(self.diverging_ideal(residue_ring(DEFAULT_PRIMES)))

    def test_count_points_counts_every_prime(self):
        ring = PolyRing(("x", "y"), residue_ring(THREE_PRIMES), GREVLEX)
        ideal = Ideal.of(ring, [ring.parse("x^2 + y^2 - 1"), ring.parse("y - x^2")])
        counts = count_points(ideal, seed=12345)
        assert counts == {p: 4 for p in THREE_PRIMES}
        for p in THREE_PRIMES:
            ring_p = ring.with_field(PrimeField(p))
            alone = Ideal.of(ring_p, [g.to_ring(ring_p) for g in ideal.generators])
            assert count_points(alone, seed=12345) == {p: 4}


class TestGroebnerBasisType:
    def test_leading_monomials_exposed(self):
        r = qring("x", "y")
        gb = buchberger(Ideal.of(r, [r.parse("x^2 - y")]))
        assert gb.leading_monomials() == ((2, 0),)
        assert isinstance(gb, GroebnerBasis)
