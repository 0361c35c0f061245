import pytest

from lodeg.groebner import Ideal, NotZeroDimensional, count_points
from lodeg.poly import GREVLEX, PolyRing, residue_ring
from lodeg.randomness import (
    COEFF_BOUND,
    DEFAULT_PRIMES,
    AgreementPolicy,
    Instability,
    SeedStream,
    agreed_value,
    derive_seed,
)


def test_streams_are_deterministic():
    a = [SeedStream(42).next_u64() for _ in range(5)]
    b = [SeedStream(42).next_u64() for _ in range(5)]
    assert a == b


def test_distinct_seeds_diverge():
    assert SeedStream(1).next_u64() != SeedStream(2).next_u64()


def test_integer_range_and_nonzero():
    stream = SeedStream(7)
    draws = [stream.integer() for _ in range(1000)]
    assert all(1 <= d < COEFF_BOUND for d in draws)


def test_integers_fit_below_both_primes():
    assert COEFF_BOUND <= min(DEFAULT_PRIMES)


def test_integer_span_fits_one_word():
    # One 64-bit word draws any span up to 2**64, and no wider one: the
    # rejection loop would then never accept a word.
    assert 0 <= SeedStream(1).integer(0, 2**64) < 2**64
    with pytest.raises(ValueError, match="wider than one 64-bit word"):
        SeedStream(1).integer(1, 2**64 + 2)


def test_derive_seed_decorrelates():
    children = {derive_seed(99, i) for i in range(100)}
    assert len(children) == 100


class TestAgreement:
    def test_constant_computation(self):
        assert agreed_value(lambda s, primes: dict.fromkeys(primes, 7), 1, DEFAULT_PRIMES) == 7

    def test_policy_rejects_degenerate_settings(self):
        with pytest.raises(ValueError):
            AgreementPolicy(seeds_per_trial=0)
        with pytest.raises(ValueError):
            AgreementPolicy(max_retries=-1)

    def test_disagreement_raises_with_observations(self):
        def flaky(seed, primes):
            return {prime: prime % 1000 for prime in primes}

        with pytest.raises(Instability) as exc:
            agreed_value(flaky, 1, DEFAULT_PRIMES, context="flaky count")
        assert exc.value.context == "flaky count"
        assert len(exc.value.observations) >= 2

    def test_degenerate_draws_are_retried(self):
        policy = AgreementPolicy(seeds_per_trial=1)
        bad_child = derive_seed(5, 0)

        def sometimes_degenerate(seed, primes):
            if seed == bad_child:
                raise NotZeroDimensional("unlucky slice")
            return dict.fromkeys(primes, 11)

        assert agreed_value(sometimes_degenerate, 5, DEFAULT_PRIMES[:1], policy) == 11

    def test_persistent_degeneracy_becomes_instability(self):
        def always_degenerate(seed, primes):
            raise NotZeroDimensional("never finite")

        with pytest.raises(Instability):
            agreed_value(always_degenerate, 2, DEFAULT_PRIMES)

    def test_only_degenerate_draws_are_named(self):
        def always_degenerate(seed, primes):
            raise NotZeroDimensional("never finite")

        with pytest.raises(Instability) as exc:
            agreed_value(always_degenerate, 2, DEFAULT_PRIMES, context="doomed count")
        assert str(exc.value) == (
            "doomed count: every attempt was a degenerate draw (last: never finite)"
        )
        assert exc.value.observations == {}

    def test_some_completed_attempt_reports_observations(self):
        # The first attempt disagrees, every later one is degenerate.
        policy = AgreementPolicy(seeds_per_trial=1, max_retries=2)
        first = derive_seed(3, 0)

        def mixed(seed, primes):
            if seed != first:
                raise NotZeroDimensional("never finite")
            return {prime: prime % 1000 for prime in primes}

        with pytest.raises(Instability) as exc:
            agreed_value(mixed, 3, DEFAULT_PRIMES, policy, context="mixed count")
        assert str(exc.value).startswith("mixed count: no agreement across trials: (seed=")
        assert len(exc.value.observations) == 2

    def test_all_pairs_consulted(self):
        calls = []

        def tracker(seed, primes):
            calls.extend((seed, prime) for prime in primes)
            return dict.fromkeys(primes, 1)

        agreed_value(tracker, 8, DEFAULT_PRIMES, AgreementPolicy(seeds_per_trial=2))
        assert len(calls) == 4
        assert {p for _, p in calls} == set(DEFAULT_PRIMES)
        assert len({s for s, _ in calls}) == 2


class TestSplitFallback:
    """A trial whose computation modulo the product of the primes splits is
    rerun one prime at a time, and observes what one-prime grids do."""

    def recorded(self, leading):
        # ``leading`` has the coefficient P of the first default prime, which
        # is zero modulo P only: the run modulo the product must split.
        P = DEFAULT_PRIMES[0]
        calls, seen = [], {}

        def count(child, primes):
            calls.append(primes)
            ring = PolyRing(("x", "y"), residue_ring(primes), GREVLEX)
            ideal = Ideal.of(ring, [ring.parse(f"{P}*{leading} + x^2 - 2"), ring.parse("y^2 - 1")])
            found = count_points(ideal, seed=child)
            seen.update(((child, p), v) for p, v in found.items())
            return found

        return count, calls, seen

    def one_prime_observations(self, leading, policy):
        merged = {}
        for prime in DEFAULT_PRIMES:
            count, _, seen = self.recorded(leading)
            agreed_value(count, 4, (prime,), policy)
            merged.update(seen)
        return merged

    def test_fallback_agrees_with_one_prime_policies(self):
        # Four points modulo either prime: x^2 = 2 / (P*y + 1) and y = +-1.
        policy = AgreementPolicy(seeds_per_trial=2, max_retries=0)
        count, calls, seen = self.recorded("x^2*y")
        assert agreed_value(count, 4, DEFAULT_PRIMES, policy) == 4
        assert calls == [DEFAULT_PRIMES, (DEFAULT_PRIMES[0],), (DEFAULT_PRIMES[1],)] * 2
        assert seen == self.one_prime_observations("x^2*y", policy)

    def test_fallback_disagreement_reports_one_prime_observations(self):
        # P*x^3 + x^2 - 2 has two roots modulo P and three modulo the other.
        policy = AgreementPolicy(seeds_per_trial=2, max_retries=0)
        count, _, _ = self.recorded("x^3")
        with pytest.raises(Instability) as exc:
            agreed_value(count, 4, DEFAULT_PRIMES, policy)
        observations = self.one_prime_observations("x^3", policy)
        assert exc.value.observations == observations
        assert sorted(set(observations.values())) == [4, 6]
