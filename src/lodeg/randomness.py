"""Seeded randomness and the agreement protocol for Monte Carlo counts.

All genericity in the package flows through :class:`SeedStream`, a
splitmix-style 64-bit generator chosen for trivial cross-language
reproducibility.  State update and output for a stream with state ``s``:

    s        <- (s + 0x9E3779B97F4A7C15) mod 2**64
    z        <- s
    z        <- (z xor (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2**64
    z        <- (z xor (z >> 27)) * 0x94D049BB133111EB mod 2**64
    output   <- z xor (z >> 31)

Counts obtained from random data are only reported once they agree across
every (seed, prime) pair of the grid: the seeds an :class:`AgreementPolicy`
demands, and the primes its caller counts at (a variety's own, in
``invariants``).  A disagreement after the configured retries raises
:class:`Instability` carrying everything observed.

The grid runs one computation per seed for all of the primes at once,
modulo their product (see "Several primes at once" in ``groebner``).
When that computation splits (``SplitModulus``: some prime would take
another branch), the trial falls back to the same computation one prime at
a time, so every observation is still that of one (seed, prime) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .poly import InputError, SplitModulus

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

DEFAULT_PRIMES = (2147483647, 2147483629)

# Random integer coefficients live in [1, 2**30): below both default
# characteristics, so one draw denotes the same field element modulo every
# configured prime and cross-prime runs recount the same geometric data.
COEFF_BOUND = 1 << 30


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Disjoint child seed for trial ``index``; stable across runs."""
    return _mix((seed & _MASK) ^ _mix(index + 1))


class SeedStream:
    """Deterministic stream of 64-bit words and derived small draws."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def integer(self, low: int = 1, high: int = COEFF_BOUND) -> int:
        """Uniform-ish integer in ``[low, high)`` by rejection sampling of
        one 64-bit word, so the span is at most 2**64."""
        span = high - low
        if span <= 0:
            raise ValueError("empty range")
        if span > 1 << 64:
            raise ValueError(f"span {span} is wider than one 64-bit word")
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            word = self.next_u64()
            if word < limit:
                return low + word % span

    def residue(self, p: int) -> int:
        """Field residue in ``[0, p)``."""
        return self.integer(0, p)

    def nonzero_residue(self, p: int) -> int:
        return self.integer(1, p)

    def coefficients(self, count: int) -> list[int]:
        """Nonzero integer coefficients shared meaningfully by all primes."""
        return [self.integer() for _ in range(count)]


class Instability(RuntimeError):
    """Randomized recounts failed to agree within the retry budget.

    ``degenerate`` is the failure of the last attempt when every attempt
    was a degenerate draw; the message then says so."""

    def __init__(
        self,
        context: str,
        observations: dict[tuple[int, int], int],
        degenerate: Optional[Exception] = None,
    ) -> None:
        if degenerate is None:
            detail = "no agreement across trials: " + ", ".join(
                f"(seed={s}, prime={p}) -> {v}" for (s, p), v in sorted(observations.items())
            )
        else:
            detail = f"every attempt was a degenerate draw (last: {degenerate})"
        super().__init__(f"{context}: {detail}")
        self.context = context
        self.observations = observations


@dataclass(frozen=True)
class AgreementPolicy:
    """How many independent recounts must agree before a value is reported;
    the primes they run at are the caller's."""

    seeds_per_trial: int = 2
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.seeds_per_trial < 1 or self.max_retries < 0:
            raise InputError("degenerate agreement policy")


DEFAULT_POLICY = AgreementPolicy()


def agreed_value(
    computation: Callable[[int, tuple[int, ...]], dict[int, int]],
    seed: int,
    primes: tuple[int, ...],
    policy: AgreementPolicy = DEFAULT_POLICY,
    context: str = "randomized count",
) -> int:
    """Run ``computation(seed, primes)``, which returns ``{prime: value}``,
    over the grid of the policy's seeds and ``primes`` until agreement.

    Each seed gets one call with all of ``primes``; if it raises
    ``SplitModulus``, one call per distinct prime, in order.  Every attempt
    uses fresh derived seeds; values must match exactly.  The callable may
    raise ``NotZeroDimensional`` or ``DegenerateSlice`` for an unlucky draw
    -- those are treated as a failed trial and retried.  When every
    attempt is one, the :class:`Instability` raised says so.
    """
    from .conormal import DegenerateSlice
    from .groebner import NotZeroDimensional

    last_observations: dict[tuple[int, int], int] = {}
    completed = False  # whether some attempt was not a degenerate draw
    for attempt in range(policy.max_retries + 1):
        observations: dict[tuple[int, int], int] = {}
        degenerate: Optional[Exception] = None
        for s_index in range(policy.seeds_per_trial):
            child = derive_seed(seed, attempt * policy.seeds_per_trial + s_index)
            try:
                try:
                    found = computation(child, primes)
                    observations.update(((child, p), found[p]) for p in primes)
                except SplitModulus:
                    # One prime at a time; a degenerate draw at a later
                    # prime keeps the observations before it.
                    for prime in dict.fromkeys(primes):
                        observations[(child, prime)] = computation(child, (prime,))[prime]
            except (NotZeroDimensional, DegenerateSlice) as err:
                degenerate = err
                break
        if degenerate is None:
            completed = True
            values = set(observations.values())
            if len(values) == 1:
                return values.pop()
        last_observations = observations or last_observations
    raise Instability(context, last_observations, None if completed else degenerate)

