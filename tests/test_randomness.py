import pytest

from lodeg.groebner import NotZeroDimensional
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


def test_residue_and_nonzero_residue():
    stream = SeedStream(13)
    p = DEFAULT_PRIMES[0]
    assert 0 <= stream.residue(p) < p
    assert 1 <= stream.nonzero_residue(p) < p


def test_derive_seed_decorrelates():
    children = {derive_seed(99, i) for i in range(100)}
    assert len(children) == 100


class TestAgreement:
    def test_constant_computation(self):
        assert agreed_value(lambda s, p: 7, seed=1) == 7

    def test_policy_rejects_degenerate_settings(self):
        with pytest.raises(ValueError):
            AgreementPolicy(seeds_per_trial=0)
        with pytest.raises(ValueError):
            AgreementPolicy(primes=())

    def test_disagreement_raises_with_observations(self):
        def flaky(seed, prime):
            return prime % 1000

        with pytest.raises(Instability) as exc:
            agreed_value(flaky, seed=1, context="flaky count")
        assert exc.value.context == "flaky count"
        assert len(exc.value.observations) >= 2

    def test_degenerate_draws_are_retried(self):
        policy = AgreementPolicy(seeds_per_trial=1, primes=(DEFAULT_PRIMES[0],))
        bad_child = derive_seed(5, 0)

        def sometimes_degenerate(seed, prime):
            if seed == bad_child:
                raise NotZeroDimensional("unlucky slice")
            return 11

        assert agreed_value(sometimes_degenerate, seed=5, policy=policy) == 11

    def test_persistent_degeneracy_becomes_instability(self):
        def always_degenerate(seed, prime):
            raise NotZeroDimensional("never finite")

        with pytest.raises(Instability):
            agreed_value(always_degenerate, seed=2)

    def test_all_pairs_consulted(self):
        calls = []

        def tracker(seed, prime):
            calls.append((seed, prime))
            return 1

        policy = AgreementPolicy(seeds_per_trial=2, primes=DEFAULT_PRIMES)
        agreed_value(tracker, seed=8, policy=policy)
        assert len(calls) == 4
        assert {p for _, p in calls} == set(DEFAULT_PRIMES)
        assert len({s for s, _ in calls}) == 2
