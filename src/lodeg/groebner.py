"""Groebner-basis engine and the zero-dimensional point counter.

:func:`buchberger` computes reduced Groebner bases with one signature loop
(see "The loop").  Everything downstream -- Krull dimension, elimination,
saturation, quotient bases, and point counting via the squarefree part of
a characteristic polynomial -- is built on top of it.  Elimination and
saturation return the reduced basis they compute, a :class:`GroebnerBasis`.

Packed monomials
----------------
Every monomial, in a :class:`Polynomial` and in the engine alike, is one
Python ``int`` of ``2n`` digits, ``PACK_DIGIT_BITS`` bits each, for ``n``
variables, in the layout of the ring's variable count and order
(``PolyRing.packing``).  This layout is the only definition of the
monomial orders.  The engine takes a polynomial's terms as they are and
builds its results from them; exponent tuples come back only at ring
changes, parsing, printing and the tuple-valued queries (see ``poly``).

- The low ``n`` digits are the exponents, variable ``i`` in digit ``i``.
- The high ``n`` digits are the order's weight rows, most significant
  first.  Each variable block of the order gives its prefix degrees, from
  the block's degree down to the degree of its first variable alone.
  Grevlex is one block of all variables: its rows are the degree, the
  degree without the last variable, without the last two, and so on.  At
  equal degree, comparing the degree without ``x_{n-1}`` compares
  ``-e_{n-1}``, so these rows order exactly as the degree followed by the
  negated exponents from the last variable.  ``block_order(k)`` is two
  blocks, the first ``k`` variables and the rest.  Lex is one block per
  variable, so its rows are the exponents.

Every digit is a nonnegative sum of exponents.  So, while no digit
overflows:

- packing is additive, ``pack(a*b) == pack(a) + pack(b)``: a reduction step
  shifts a tail term ``t`` to ``(m - lm) + t``;
- int comparison is the monomial order: the working-set heap and the
  S-pair queue hold plain ints;
- with ``H`` the top (guard) bit of every digit, ``a`` divides ``b`` iff
  ``((b | H) - a) & H == H``: while every digit of ``a`` and ``b`` stays
  below its guard bit, no digit borrows from the next, and a digit keeps its
  guard bit iff ``a``'s digit is at most ``b``'s (the weight digits are sums
  of exponents, so they divide whenever the exponents do);
- the lcm is a digitwise max of the exponent digits, selected by the same
  guard-bit subtraction; its weight rows are rebuilt with one
  multiplication per block: for a block of ``s`` exponent digits ``E`` and
  ``B = 2**PACK_DIGIT_BITS``, digit ``j < s`` of
  ``E * (1 + B + ... + B**(s-1))`` is the sum of the block's first
  ``j + 1`` exponents;
- ``a`` and ``b`` are coprime iff their lcm is their product,
  ``lcm == a + b``.

Width guard.  Digits never wrap.  The top two bits of every digit are
headroom: every monomial of a :class:`Polynomial` (checked where it is
built, see ``poly``), every term a reduction pops with a nonzero
coefficient and the lcm of every S-pair before it is reduced must keep all
digits below ``PACK_LIMIT = 2**(PACK_DIGIT_BITS - 2)`` (one mask test), or
:class:`DegreeLimitExceeded` is raised.  That bound suffices: every other
monomial a computation forms (signatures aside, see "Signature width") is
``m - lm + t`` (``lm`` dividing ``m``), an lcm of two checked monomials, or
a product of two checked monomials, whose digits are at most the sum of
two checked digits, below ``2 * PACK_LIMIT``, the guard bit.  Each digit
is at most the degree of a variable block, so the limit reads: total
degree below ``PACK_LIMIT`` under grevlex, each block's degree under a
block order, each exponent under lex.  So an input beyond it is refused
when it is parsed.

Reduction
---------
A normal form keeps its working set as a coefficient dict plus a heap of
negated packed monomials, so terms pop in strictly decreasing order.  A
basis element becomes a reducer (leading monomial, tail scaled by minus
the inverse leading coefficient) once, when it joins the basis, and stays
one through inter-reduction, which reduces the tail alone.  An S-pair
carries its packed lcm from when it is queued.  The reducers of the
finished basis travel inside its :class:`GroebnerBasis`, so
:func:`normal_form`, :func:`quotient_basis` and
:func:`multiplication_matrix` reduce with them.

Every list that a divisor is searched in is kept by increasing packed
monomial: the reducers, the own elements of an index, the leading
monomials of the earlier basis, the signatures of the criteria.  Packing
is additive, so if ``a`` divides ``b`` then ``b - a`` is a packed monomial
and ``a <= b``; a scan for a divisor of ``m`` ends at the first entry
``lm > m``, with nothing after it that could divide.

The loop
--------
Most S-pairs of Buchberger's algorithm reduce to zero, and a zero
reduction costs a full normal form and yields nothing.  :func:`buchberger`
runs every ideal through one incremental signature loop in the style of
F5C (Faugere, ISSAC 2002; Eder and Faugere, JSC 80, 2017).  Every count of
the invariants is a point count of a square system (``n`` Lagrange
equations in ``n`` unknowns).  When its generators form a regular
sequence, as a generic complete intersection's do, the F5 criterion below
removes every zero reduction; on the counting workloads of the benchmark
no S-pair reduces to zero.  Other inputs stay correct: their zero
reductions feed the syzygy criterion.  The ideals of elimination and
saturation have more generators than variables, so they are never a
regular sequence, and the same loop serves them.  Each index ends in a
minimalization and inter-reduction, so the basis is canonical.

Signature loop.  Inputs are taken by increasing leading monomial.  Input
``f_i`` has signature ``e_i``; the work before it is the reduced basis
``G`` of ``f_1, ..., f_{i-1}``.  An element of index ``i`` has a signature
``u*e_i`` (position over term), stored as the packed monomial ``u``, so
signatures of one index compare as ints.  S-pairs of index ``i`` (with a
new element on the signature side) are queued by signature, one per
signature, keeping the one whose signature side was added last.  A pair is
dropped when its signature ``u`` is

- divisible by a leading monomial of ``G`` (F5, when the pair is formed):
  ``g*e_i - f_i*(...)`` is a syzygy with signature ``lm(g)*e_i``.  The
  test reads the exponent digits of ``u`` alone, before the pair's lcm is
  packed, so a dropped pair builds no lcm.  A pair of a new element ``f``
  with ``g`` in ``G`` is dropped first, in one subtraction, when
  ``gcd(lm(f), lm(g))`` divides ``sig(f)``: then ``lm(g)`` divides ``u``.
  Of a pair of two elements of the index, the side with the larger
  ``sig - lm`` has the larger signature, as ``u - u_b = (sig - lm) -
  (sig_b - lm_b)``, so the side is chosen without the lcm too;
- divisible by the signature of a pair that reduced to zero (syzygy);
- divisible by the signature of an element added after its signature
  side (add-order rewriting).

A popped pair is reduced regularly: a reducer from ``G`` always applies,
an element ``g`` of index ``i`` only as ``t*g`` with ``t*sig(g) < u``, so
the result keeps the signature ``u``.  Every nonzero result joins the
basis, including one whose leading term only a same-signature multiple
could reduce (singular top-reducible): discarding those under add-order
rewriting can lose a needed element.  When the queue is empty, the elements
and ``G`` are minimalized and inter-reduced into the next ``G``.

Signatures pop in increasing order, so the signatures of the elements and
of the zero reductions are stored increasing: the queue holds one pair per
signature, and each pair queued when an element of signature ``s`` is
added has a signature above ``s``.  That signature is at least ``(lcm -
lm) + s``, above ``s`` unless ``lm`` is a multiple ``t*lm_b`` of an own
element's (no leading monomial of ``G`` divides ``lm``).  Then ``t*sig_b >=
s``, as ``lm`` is regularly irreducible, and equality forms no pair.

Signature width.  A queued signature is ``(lcm - lm) + sig`` for an lcm of
two checked leading monomials (digits below ``2 * PACK_LIMIT``) and a
stored, checked signature (below ``PACK_LIMIT``), so its digits stay below
``3 * PACK_LIMIT < 2**PACK_DIGIT_BITS``: no digit wraps, and int comparison
is still the monomial order.  A digit may reach its guard bit, though, so
the guard-bit test "does a checked monomial divide ``u``" can answer a false
"no", never a false "yes"; a false "no" skips a criterion, which costs
work but never a wrong basis.  F5 alone is exact: it tests the exponent
digits of ``(lcm - lm) + sig``, each at most an exponent of ``lcm`` plus
one of ``sig``, below ``2 * PACK_LIMIT``, the guard bit.  Each popped
signature and its lcm pass the width guard after the criteria and before
the pair is reduced or its signature stored.

Saturation
----------
:func:`saturate` computes ``I : g^oo`` by the Rabinowitsch trick: it
eliminates ``t`` from ``I + (t*g - 1)`` under ``block_order(1)`` (Cox,
Little, O'Shea, *Ideals, Varieties, and Algorithms*, 4.4).  There ``t*g -
1`` has the only leading monomial that contains ``t``, so the loop takes it
last, and every index before it builds the reduced basis of ``I``.  On
``t``-free polynomials the block order is grevlex, so that prefix is the
reduced grevlex basis of ``I``, the same for every ``g``; a basis that
already is one is the prefix as it stands (over a residue ring too, see
below).  So :func:`saturate` lifts such a basis into the ``t`` ring and
runs only the index of ``t*g - 1``, and :func:`saturate_by_ideal` computes
the basis once for both of its draws.  Each draw reduces the S-pairs it
would reduce after the prefix, so every basis is the same.

Several primes at once
----------------------
The agreement grid counts every trial modulo each of a policy's primes
``p_1, ..., p_k``.  Its integer data are the same modulo each, so one
computation over ``Z/N``, ``N = p_1*...*p_k`` (a
:class:`~lodeg.poly.ResidueRing`), does the work of ``k``, in the style of
the D5 principle (Della Dora, Dicrescenzo, Duval, EUROCAL 1985) and of
modular Groebner bases (Arnold, JSC 35, 2003).  By the Chinese remainder
theorem a residue mod ``N`` is its ``k`` residues mod the ``p_i``, and ring
operations act on each alone.  So the run mod ``N``, read mod ``p_i``, is
the run mod ``p_i``, up to terms whose coefficient is zero mod ``p_i`` and
not mod ``N``, until a branch depends on such a coefficient.

- As a tail term, such a coefficient is harmless: it reduces or stays in a
  remainder, and mod ``p_i`` the step adds nothing.
- As a leading coefficient or a pivot, it is inverted, and inverting a
  residue that is not a unit raises ``SplitModulus``.  The run stops there,
  and the caller reruns one prime at a time.

Without a split, every reducer mod ``p_i`` is the reducer of the run mod
``p_i``: same leading monomial, monic.  Every criterion and selection looks
only at leading monomials and signatures, which agree.  So the run mod
``p_i`` is a valid run of the same algorithm, perhaps with its inputs in
another order, and the reduced basis, being unique, read mod ``p_i`` is the
basis mod ``p_i``.  It is monic, and its leading monomials are the same mod
every prime, so :func:`count_points` runs its tail once over ``Z/N`` too:

- :func:`quotient_basis` reads only leading monomials, so one call gives
  each prime's quotient basis.
- A normal form by prepared reducers inverts nothing (each reducer was
  scaled once, when its element joined the basis), and its one zero test is
  harmless (below), so every normal form of :func:`multiplication_matrix`,
  read mod ``p_i``, is the normal form mod ``p_i``.  No ``SplitModulus``
  can arise in the tail.

Only the matrix mod ``p_i`` of a random form and its characteristic
polynomial, by reduction to Hessenberg form in Python ints, are built once
per prime.

Every zero test crossed mod ``N`` is followed by an inversion of the same
value, is harmless, or raises ``SplitModulus`` itself:

- ``_reduce_full``, ``if not c``: a term that is zero mod ``p_i`` only is
  either reduced (mod ``p_i`` the step adds nothing) or kept in the
  remainder.  Every nonzero remainder (``if r``)
  becomes a reducer, whose leading coefficient is inverted, so a remainder
  that is zero mod ``p_i`` only splits.  That covers an input generator
  that vanishes mod ``p_i`` only: it reduces to such a remainder or to zero.
  The width guard checks such a term too, though mod ``p_i`` it is absent:
  a limit on degrees that the counts stay far below.  The normal forms of
  :func:`multiplication_matrix` cross the same test; they end in a
  remainder, never a reducer, so nothing is inverted and a coefficient
  zero mod ``p_i`` only stays in the table as a zero mod ``p_i``.
- ``conormal.restrict_base`` drops a vanishing equation, and
  ``conormal._rank_minors`` a vanishing minor, through
  ``Polynomial.vanishes``, which raises for one that vanishes mod some
  primes only.  The number of minors also fixes how many coefficients a
  combination in :func:`saturate_by_ideal` draws.
- ``conormal.solve_forms`` picks the pivot of each form by a nonzero test
  and inverts it at once.  Its row updates test ``if a`` and add a
  multiple of ``a``, which is nothing mod ``p_i`` when ``a`` vanishes there;
  ``invariants._dual_form`` skips a covector entry the same way.
- ``invariants._divided_duals`` takes as pivot the first constant that is
  a unit modulo ``N`` (its proof needs a unit modulo every prime) and
  inverts nothing.  A run one prime at a time may pick another pivot; every
  choice gives the same ideal, so the same reduced basis.
- :func:`saturate_by_ideal` redraws a combination that vanishes, through
  ``Polynomial.vanishes``.
- Checks that fail mod ``N`` (two saturations that differ, a saturation
  that is not bihomogeneous) raise ``SplitModulus`` too: which prime fails,
  and what the primes before it did, only one prime at a time tells.

The self-check of :func:`buchberger` runs mod ``N``: an input reduces to
zero mod every ``p_i``, hence mod ``N``.

Wall-clock budgets: every basis computation gets the whole budget in force
when it starts, and raises :class:`BudgetExceeded` when it runs out.  The
budget is set for a block of calls by :func:`budget` (a context variable),
and is ``DEFAULT_BUDGET_SECS`` outside any block; no function takes it as
an argument.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from bisect import insort
from heapq import heapify, heappop, heappush
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .poly import (
    GREVLEX,
    PACK_DIGIT_BITS,
    DegreeLimitExceeded,
    Grevlex,
    InputError,
    Mono,
    PolyRing,
    Polynomial,
    PrimeField,
    ResidueRing,
    SplitModulus,
    _Packing,
    block_order,
    fresh_name,
)
from .randomness import Instability, SeedStream, derive_seed

DEFAULT_BUDGET_SECS = 120.0

# Seconds of wall clock per basis computation; see :func:`budget`.
_BUDGET: ContextVar[float] = ContextVar("budget", default=DEFAULT_BUDGET_SECS)


class BudgetExceeded(RuntimeError):
    """A Groebner computation ran past its wall-clock budget."""

    def __init__(self, context: str, budget_secs: float) -> None:
        super().__init__(f"{context}: budget of {budget_secs:g}s exhausted")
        self.context = context
        self.budget_secs = budget_secs


class NotZeroDimensional(RuntimeError):
    """Point counting was asked for an ideal with positive-dimensional locus."""


class CharacteristicHazard(RuntimeError):
    """The quotient dimension is too close to the field characteristic."""


@dataclass(frozen=True)
class Ideal:
    """A finitely generated ideal; zero generators are dropped on creation.

    An empty generator tuple denotes the zero ideal (this arises naturally
    from elimination, e.g. eliminating x from (x*y - 1)).
    """

    ring: PolyRing
    generators: tuple[Polynomial, ...]

    @staticmethod
    def of(ring: PolyRing, gens: Iterable[Polynomial]) -> "Ideal":
        kept = tuple(g for g in gens if not g.is_zero())
        for g in kept:
            if g.ring != ring:
                raise ValueError("generator lives in a different ring")
        return Ideal(ring, kept)


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced, monic Groebner basis, sorted by decreasing leading monomial,
    and its packed reducers (see "Reduction") by increasing leading
    monomial, prepared on first use unless :func:`buchberger` handed its own
    over.  A basis built by hand may list its elements in any order: the
    prepared reducers are sorted, as every divisor scan needs."""

    ring: PolyRing
    basis: tuple[Polynomial, ...]
    _reducers: Optional[tuple] = field(default=None, compare=False, repr=False)

    def reducers(self) -> tuple:
        if self._reducers is None:
            normalize, invert = _field_ops(self.ring)
            prepared = (_reducer(dict(g.terms), normalize, invert) for g in self.basis)
            object.__setattr__(self, "_reducers", tuple(sorted(prepared, key=itemgetter(0))))
        return self._reducers

    def is_unit(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].is_constant() and not self.basis[0].is_zero()

    def leading_monomials(self) -> tuple[Mono, ...]:
        return tuple(g.leading_monomial() for g in self.basis)


@contextmanager
def budget(secs: Optional[float]) -> Iterator[None]:
    """Give every Groebner basis computed inside the block ``secs``
    seconds of wall clock, each its own; ``None`` is the default budget.
    The budget in force before the block is restored when it ends.  NaN
    and infinity would never run out and zero or less would at once, so
    each raises :class:`InputError`."""
    if secs is not None and not 0 < secs < float("inf"):
        raise InputError(f"budget must be a positive number of seconds, got {secs}")
    token = _BUDGET.set(DEFAULT_BUDGET_SECS if secs is None else secs)
    try:
        yield
    finally:
        _BUDGET.reset(token)


class _Deadline:
    """The budget in force (see :func:`budget`), counted from now."""

    __slots__ = ("limit", "budget", "context")

    def __init__(self, context: str) -> None:
        self.budget = _BUDGET.get()
        self.limit = time.monotonic() + self.budget
        self.context = context

    def check(self) -> None:
        if time.monotonic() > self.limit:
            raise BudgetExceeded(self.context, self.budget)


# ---------------------------------------------------------------------------
# Reduction core: packed monomials, prepared reducers, normal forms
# ---------------------------------------------------------------------------


def _field_ops(ring: PolyRing):
    """Return (normalize, invert) closures for the ring's field."""
    fld = ring.field_
    if isinstance(fld, PrimeField):
        p = fld.p
        return (lambda c: c % p), fld.invert
    return (lambda c: c), (lambda c: 1 / c)


def _reducer(d: dict, normalize, invert) -> tuple[int, tuple]:
    """Prepared reducer ``(lm, tail)`` of a nonzero packed dict whose first
    key is its leading monomial.

    Each tail pair is ``(m, -c/lc)``, so reducing a term ``a*u`` by it adds
    ``a*t`` at ``(u - lm) + m`` for every tail pair ``(m, t)``."""
    items = iter(d.items())
    lm, lc = next(items)
    inv = invert(lc)
    return lm, tuple((m, normalize(-c * inv)) for m, c in items)


def _has_divisor(m: int, lms: Iterable[int], guard: int) -> bool:
    """Whether a packed monomial of ``lms``, increasing, divides ``m``; the
    scan ends at the first one above ``m``."""
    guarded = m | guard
    for lm in lms:
        if lm > m:
            return False
        if (guarded - lm) & guard == guard:
            return True
    return False


def _reduce_full(
    target: dict,
    reducers: Sequence[tuple[int, tuple]],
    pk: _Packing,
    normalize,
    deadline: Optional[_Deadline] = None,
    sig: int = 0,
    own: Sequence[tuple[int, tuple, int]] = (),
) -> dict:
    """Full normal form of the packed dict ``target`` modulo prepared
    ``reducers``; with a signature ``sig``, the regular normal form.

    ``reducers`` and ``own`` are by increasing leading monomial.  The first
    reducer whose leading monomial divides a term reduces it; the scan is
    one guard-bit subtraction per reducer, up to the first leading monomial
    above the term.  The working set is a dict of coefficients plus a heap
    of negated packed monomials, one entry per monomial: a monomial is
    pushed when it first enters the dict and stays there, with a
    coefficient that may cancel to zero, until popped; a popped zero is
    skipped.  Terms are popped in strictly decreasing order, and every term
    a reduction step adds is smaller than the term being reduced, so a
    popped monomial never returns and the result comes out in decreasing
    order.  Coefficients are reduced by ``normalize`` once, when their term
    is popped.

    Every popped term with a nonzero coefficient passes the width guard
    before it is used, so a step's new terms ``(m - lm) + t`` keep their
    digits below the guard bit (see the module docstring).

    There ``reducers`` (the earlier inputs' basis) always reduce, and an
    element ``(lm, tail, s)`` of ``own`` reduces ``m`` only if ``(m - lm) +
    s < sig``, keeping the signature.
    """
    guard, over = pk.guard, pk.over
    work = dict(target)
    heap = [-m for m in work]
    heapify(heap)
    out: dict = {}
    steps = 0
    while heap:
        steps += 1
        if deadline is not None and not steps & 63:
            deadline.check()
        m = -heappop(heap)
        c = normalize(work.pop(m))
        if not c:
            continue
        if m & over:
            raise DegreeLimitExceeded()
        guarded = m | guard
        tail = None
        for lm, t in reducers:
            if lm > m:
                break
            if (guarded - lm) & guard == guard:
                tail = t
                break
        if tail is None:
            for lm, t, s in own:
                if lm > m:
                    break
                if (guarded - lm) & guard == guard and m - lm + s < sig:
                    tail = t
                    break
            if tail is None:
                out[m] = c
                continue
        shift = m - lm
        for tm, tc in tail:
            mm = shift + tm
            old = work.get(mm)
            if old is None:
                work[mm] = c * tc
                heappush(heap, -mm)
            else:
                work[mm] = old + c * tc
    return out


def _spoly(f: tuple[int, tuple], g: tuple[int, tuple], lcm: int) -> dict:
    """S-polynomial of two prepared reducers, unnormalized."""
    acc: dict = {}
    for (lm, tail), sign in ((f, -1), (g, 1)):
        shift = lcm - lm
        for m, c in tail:
            mm = shift + m
            acc[mm] = acc.get(mm, 0) + sign * c
    return acc


def _reduced_basis(
    old: list, added: list, pk: _Packing, normalize, deadline: _Deadline
) -> list[tuple[int, tuple]]:
    """Reduced basis, as monic prepared reducers by increasing leading
    monomial, of a reduced basis ``old`` (the same shape) and monic prepared
    reducers ``added`` that together form a Groebner basis.

    An element of ``old`` that stays in the minimal basis keeps its tail
    unless a new leading monomial that stays divides one of its terms.  That
    is exact: the tail is irreducible by the old leading monomials, and a
    normal form modulo the minimal basis is unique."""
    guard = pk.guard
    # Minimalize: drop members whose leading monomial another one divides.
    minimal: list[tuple[int, tuple]] = []
    lms: list[int] = []
    for r in sorted(old + added, key=itemgetter(0)):
        if not _has_divisor(r[0], lms, guard):
            minimal.append(r)
            lms.append(r[0])
    # An lm of ``old`` that stays is its old element's: the sort is stable.
    kept = {lm for lm, _ in old}
    fresh = [lm for lm in lms if lm not in kept]

    # Inter-reduce tails.  A reducer's tail is minus its polynomial's tail,
    # and reduction is linear, so the reduced tail is the normal form of
    # the tail.  Its terms lie below ``lm``, which divides none of them, so
    # reducing by all of ``minimal`` is reducing by the others.
    return [
        (lm, tail)
        if lm in kept and not any(_has_divisor(m, fresh, guard) for m, _ in tail)
        else (lm, tuple(_reduce_full(dict(tail), minimal, pk, normalize, deadline).items()))
        for lm, tail in minimal
    ]


def _signature_basis(
    polys: list[dict], pk: _Packing, normalize, invert, deadline: _Deadline, reduced: Sequence = ()
) -> list[tuple[int, tuple]]:
    """Incremental signature loop (F5C style); returns the reduced basis as
    monic prepared reducers, by increasing leading monomial.

    Input ``f_i`` (by increasing leading monomial) reduced modulo the
    reduced basis ``G`` of the earlier inputs starts index ``i``; ``G`` and
    the elements of index ``i`` then give the next ``G``.  The first ``G``
    is ``reduced``, a reduced basis in the same shape as the result."""
    reduced = list(reduced)
    for f in sorted(polys, key=max):
        r = _reduce_full(f, reduced, pk, normalize, deadline)
        if r:
            added = _signature_index(r, reduced, pk, normalize, invert, deadline)
            reduced = _reduced_basis(reduced, added, pk, normalize, deadline)
    return reduced


def _signature_index(
    first: dict,
    earlier: list[tuple[int, tuple]],
    pk: _Packing,
    normalize,
    invert,
    deadline: _Deadline,
) -> list[tuple[int, tuple]]:
    """Elements of one index of the signature loop, as monic prepared
    reducers; ``first`` has signature 1 and ``earlier`` is the reduced
    basis of the earlier inputs, by increasing leading monomial.

    See the module docstring for the criteria and the width argument."""
    guard, over = pk.guard, pk.over
    earlier_es = [lm & pk.low for lm, _ in earlier]  # exponent digits
    own: list[tuple[int, tuple, int]] = []  # (lm, tail, signature), in add order
    by_lm: list[tuple[int, tuple, int]] = []  # the same, by increasing lm
    sigs: list[int] = []  # their signatures, increasing (see "The loop")
    syzygies: list[int] = []  # increasing
    pending: dict[int, tuple[int, tuple, int]] = {}  # signature -> (side, other, lcm)
    queue: list[int] = []

    # The lcm of two leading monomials is that of _Packing.lcm, inlined.
    low, low_guard, from_exponents = pk.low, pk.low_guard, pk.from_exponents
    top = PACK_DIGIT_BITS - 1

    def rewritable(u: int, side: int) -> bool:
        return _has_divisor(u, syzygies, guard) or _has_divisor(
            u, islice(sigs, side + 1, None), guard
        )

    def f5_drops(u_e: int) -> bool:
        # Whether a leading monomial of G divides the signature whose
        # exponent digits are u_e; those digits stay below the guard bit.
        guarded = u_e | low_guard
        for e_g in earlier_es:
            if (guarded - e_g) & low_guard == low_guard:
                return True
        return False

    def queue_pair(u: int, side: int, other: tuple, lcm: int) -> None:
        held = pending.get(u)
        if held is not None and held[0] >= side:
            return
        if rewritable(u, side):
            return
        if held is None:
            heappush(queue, u)
        pending[u] = (side, other, lcm)

    def add(sig: int, d: dict) -> None:
        h = len(own)
        lm, tail = _reducer(d, normalize, invert)  # remainders come out decreasing
        own.append((lm, tail, sig))
        insort(by_lm, own[-1], key=itemgetter(0))
        sigs.append(sig)
        e = lm & low
        sig_e = sig & low
        for other in earlier:
            e_g = other[0] & low
            ge = ((e | low_guard) - e_g) & low_guard
            lcm_e = e_g ^ ((e ^ e_g) & (ge - (ge >> top)))
            # gcd(lm, lm_g) dividing sig means lm_g divides the signature:
            # F5 would drop the pair.  Exponent digits decide divisibility.
            if ((sig_e | low_guard) - (e + e_g - lcm_e)) & low_guard == low_guard:
                continue
            if f5_drops(lcm_e - e + sig_e):
                continue
            lcm = from_exponents(lcm_e)
            queue_pair(lcm - lm + sig, h, other, lcm)
        for b in range(h):
            lm_b, tail_b, sig_b = own[b]
            # The signatures u = lcm - lm + sig and u_b = lcm - lm_b + sig_b
            # differ by (sig - lm) - (sig_b - lm_b): no lcm picks the side.
            diff = (sig - lm) - (sig_b - lm_b)
            if not diff:
                continue
            e_b = lm_b & low
            ge = ((e | low_guard) - e_b) & low_guard
            lcm_e = e_b ^ ((e ^ e_b) & (ge - (ge >> top)))
            if diff > 0:
                side, s_lm, s_sig, other = h, lm, sig, (lm_b, tail_b)
            else:
                side, s_lm, s_sig, other = b, lm_b, sig_b, (lm, tail)
            if f5_drops(lcm_e - (s_lm & low) + (s_sig & low)):
                continue
            lcm = from_exponents(lcm_e)
            queue_pair(lcm - s_lm + s_sig, side, other, lcm)

    add(0, first)
    while queue:
        u = heappop(queue)
        side, other, lcm = pending.pop(u)
        if rewritable(u, side):
            continue
        if (u | lcm) & over:
            raise DegreeLimitExceeded()
        deadline.check()
        lm, tail, _ = own[side]
        r = _reduce_full(_spoly((lm, tail), other, lcm), earlier, pk, normalize, deadline, u, by_lm)
        if r:
            add(u, r)
        else:
            syzygies.append(u)
    return [(lm, tail) for lm, tail, _ in own]


def buchberger(ideal: Ideal, order=None) -> GroebnerBasis:
    """Reduced Groebner basis of ``ideal`` in the ring's (or given) order.

    The result is canonical: monic generators, fully inter-reduced, sorted by
    decreasing leading monomial, with their prepared reducers.  Every ideal
    runs the signature loop (see the module docstring).  Each input
    generator is checked to reduce to zero against the finished basis.
    Raises :class:`DegreeLimitExceeded` when a monomial outgrows packed
    exponents.
    """
    ring = ideal.ring if order is None else ideal.ring.with_order(order)
    deadline = _Deadline("buchberger")
    # Generators share the ideal's ring, so only the order may differ.
    polys = [dict(g.to_ring(ring).terms) for g in ideal.generators if not g.is_zero()]
    return _checked_basis(ring, polys, _signature_basis(polys, ring.packing, *_field_ops(ring), deadline))


def _checked_basis(ring: PolyRing, polys: list[dict], reduced: list) -> GroebnerBasis:
    """The basis of the monic prepared reducers ``reduced`` (by increasing
    leading monomial), once every input of ``polys`` reduces to zero
    against them (the self-check)."""
    pk = ring.packing
    normalize, _ = _field_ops(ring)
    one = ring.field_.one
    for d in polys:
        if _reduce_full(d, reduced, pk, normalize):
            raise RuntimeError("input generator does not reduce to zero against its basis")
    basis = tuple(
        Polynomial(ring, ((lm, one),) + tuple((m, normalize(-t)) for m, t in tail))
        for lm, tail in reversed(reduced)
    )
    return GroebnerBasis(ring, basis, tuple(reduced))


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of ``p`` modulo the basis."""
    normalize, _ = _field_ops(gb.ring)
    target = dict(p.to_ring(gb.ring).terms)
    return gb.ring.from_dict(_reduce_full(target, gb.reducers(), gb.ring.packing, normalize))


# ---------------------------------------------------------------------------
# Krull dimension and multidegree from leading terms
# ---------------------------------------------------------------------------


def _minimum_covers(gb: GroebnerBasis) -> list[frozenset[int]]:
    """Every smallest set of variables meeting the support of each leading
    monomial of ``gb``: the minimal primes of largest dimension of its
    leading-term ideal.  Each branch takes a variable of the support with
    fewest choices left and rules out those of the branches before it, so
    each cover is reached once."""
    supports = {frozenset(i for i, e in enumerate(lm) if e) for lm in gb.leading_monomials()}
    pruned: list[frozenset[int]] = []
    for s in sorted(supports, key=len):
        if not any(t <= s for t in pruned):
            pruned.append(s)
    # One variable of each support is a cover.
    best = [len(pruned)]
    covers: list[frozenset[int]] = []

    def search(remaining: list[frozenset[int]], used: frozenset[int], banned: frozenset[int]) -> None:
        live = [s for s in remaining if not (s & used)]
        if not live:
            if len(used) < best[0]:
                best[0] = len(used)
                covers.clear()
            covers.append(used)
            return
        if len(used) >= best[0]:
            return
        choices = sorted(min((s - banned for s in live), key=len))
        for k, v in enumerate(choices):
            search(live, used | {v}, banned.union(choices[:k]))

    search(pruned, frozenset(), frozenset())
    return covers


def krull_dimension(source: Ideal | GroebnerBasis) -> int:
    """Dimension of the vanishing locus, computed combinatorially from the
    leading-term ideal of a Groebner basis.

    Returns -1 for the unit ideal; the zero ideal has dimension ``nvars``.
    """
    gb = source if isinstance(source, GroebnerBasis) else buchberger(source)
    if gb.is_unit():
        return -1
    return gb.ring.nvars - len(_minimum_covers(gb)[0])


def multidegree(gb: GroebnerBasis, split: int) -> dict[tuple[int, int], int]:
    """The multidegree ``{(a, b): coefficient}``, for ``s^a t^b``, of the
    ideal of a bihomogeneous reduced basis whose first ``split`` variables
    have degree (1, 0) and the rest (0, 1).

    A Groebner degeneration keeps it, and for the leading-term ideal M it
    sums, over the minimum covers P, the product of P's degrees times the
    length of M at P: the number of standard monomials of M with the
    variables outside P set to 1 (Miller, Sturmfels, *Combinatorial
    Commutative Algebra*, GTM 227, Cor. 8.47 and Thm 8.53)."""
    if not all(_is_bihomogeneous(g, split) for g in gb.basis):
        raise ValueError("multidegree of a basis that is not bihomogeneous")
    if not gb.basis:
        return {(0, 0): 1}  # the zero ideal
    out: dict[tuple[int, int], int] = {}
    for cover in _minimum_covers(gb):
        kept = sorted(cover)
        local = PolyRing(tuple(gb.ring.variables[v] for v in kept), gb.ring.field_, GREVLEX)
        lms = (local.from_terms([(tuple(lm[v] for v in kept), 1)]) for lm in gb.leading_monomials())
        key = (sum(v < split for v in kept), sum(v >= split for v in kept))
        out[key] = out.get(key, 0) + len(quotient_basis(GroebnerBasis(local, tuple(lms))))
    return out


def _is_bihomogeneous(poly: Polynomial, split: int) -> bool:
    degrees = {(sum(m[:split]), sum(m[split:])) for m in poly.as_dict()}
    return len(degrees) <= 1


# ---------------------------------------------------------------------------
# Elimination and saturation
# ---------------------------------------------------------------------------


def eliminate(ideal: Ideal, k: int) -> GroebnerBasis:
    """Intersect with the subring spanned by all but the first ``k`` variables.

    Returns the reduced Groebner basis of the intersection in the smaller
    ring, in the ring's order; it is empty for the zero ideal.
    """
    n = ideal.ring.nvars
    if not 1 <= k < n:
        raise ValueError(f"cannot eliminate {k} of {n} variables")
    gb = buchberger(ideal, order=block_order(k))
    return _eliminated(gb, k, ideal.ring.order)


def _eliminated(gb: GroebnerBasis, k: int, order) -> GroebnerBasis:
    """The elements of ``gb`` (under ``block_order(k)``) free of the first
    ``k`` variables, as a reduced basis under ``order``.  The second block
    is grevlex, so only another order recomputes it."""
    small = PolyRing(tuple(gb.ring.variables[k:]), gb.ring.field_, order)
    kept = []
    for g in gb.basis:
        if any(g.leading_monomial()[:k]):
            continue
        # Under a block order a leading monomial free of the eliminated
        # block forces the whole polynomial to be free of it.
        terms = g.as_dict()
        if any(any(m[:k]) for m in terms):
            raise RuntimeError(f"eliminated variables left in {g}")
        kept.append(small.from_terms((m[k:], c) for m, c in terms.items()))
    if isinstance(order, Grevlex):
        return GroebnerBasis(small, tuple(kept))
    return buchberger(Ideal.of(small, kept))


def saturate(source: Ideal | GroebnerBasis, g: Polynomial) -> GroebnerBasis:
    """Saturation of an ideal, or of the ideal of a reduced basis, by ``g``
    (see "Saturation"), as a reduced Groebner basis in the original ring
    and order.  A basis over a grevlex ring is the prefix as it stands; any
    other source is first computed into its reduced grevlex basis."""
    ring = source.ring
    if g.ring != ring:
        raise ValueError("saturating polynomial lives in a different ring")
    if g.is_zero():
        raise ValueError("cannot saturate by the zero polynomial")
    if not (isinstance(source, GroebnerBasis) and isinstance(ring.order, Grevlex)):
        gens = source.basis if isinstance(source, GroebnerBasis) else source.generators
        source = buchberger(Ideal.of(ring, gens), order=GREVLEX)
    tname = fresh_name("t", ring.variables)
    big = PolyRing((tname,) + ring.variables, ring.field_, block_order(1))

    def lift(p: Polynomial) -> Polynomial:
        return big.from_terms(((0,) + m, c) for m, c in p.as_dict().items())

    lifted = tuple(lift(p) for p in source.basis)
    polys = [dict(p.terms) for p in lifted + (big.gen(0) * lift(g) - big.one(),)]
    deadline = _Deadline("buchberger")
    prefix = GroebnerBasis(big, lifted).reducers()  # prepared in the t ring
    reduced = _signature_basis(polys[-1:], big.packing, *_field_ops(big), deadline, prefix)
    return _eliminated(_checked_basis(big, polys, reduced), 1, ring.order)


def saturate_by_ideal(ideal: Ideal | GroebnerBasis, other: Ideal, seed: int) -> GroebnerBasis:
    """Saturate ``ideal`` (or the ideal of a reduced basis) by a whole ideal.

    Saturate by a random linear combination of the generators of ``other``
    for two derived seeds.  A generic combination gives the saturation by
    the whole ideal exactly, so the two answers agree unless a draw was
    unlucky; disagreement raises :class:`Instability` (the observations are
    the two basis sizes).  Both draws start from one reduced basis of an
    ideal over a grevlex ring, computed first (see "Saturation").  Returns
    the reduced basis of the saturation.
    """
    ring = ideal.ring
    if other.ring != ring:
        raise ValueError("saturating ideal lives in a different ring")
    if not other.generators:
        raise ValueError("cannot saturate by the zero ideal")
    if isinstance(ideal, Ideal) and isinstance(ring.order, Grevlex):
        ideal = buchberger(ideal)

    def combo(s: int) -> Polynomial:
        stream = SeedStream(s)
        while True:
            acc = ring.zero()
            for g in other.generators:
                acc = acc + g * ring.field_.coerce(stream.integer())
            if not acc.vanishes():
                return acc

    seeds = (derive_seed(seed, 0), derive_seed(seed, 1))
    first, second = (saturate(ideal, combo(s)) for s in seeds)
    if first != second:
        if isinstance(ring.field_, ResidueRing):
            # The answers differ modulo some prime; which one, and what the
            # runs before it did, only one prime at a time tells.
            raise SplitModulus("saturations by random combinations differ")
        # Keyed by (seed, characteristic); 0 stands for the rationals.
        p = getattr(ring.field_, "p", 0)
        raise Instability(
            "saturation by random combinations of the generators",
            {(seeds[0], p): len(first.basis), (seeds[1], p): len(second.basis)},
        )
    return first


# ---------------------------------------------------------------------------
# Zero-dimensional machinery
# ---------------------------------------------------------------------------


def quotient_basis(gb: GroebnerBasis) -> tuple[int, ...]:
    """Monomials outside the leading-term ideal, packed in the ring's layout,
    by increasing order; requires a finite quotient."""
    ring = gb.ring
    if gb.is_unit():
        return ()
    lms = gb.leading_monomials()
    for i in range(ring.nvars):
        if not any(all(e == 0 for j, e in enumerate(lm) if j != i) and lm[i] > 0 for lm in lms):
            raise NotZeroDimensional(
                f"no pure power of {ring.variables[i]!r} among leading terms"
            )
    pk = ring.packing
    guard, over = pk.guard, pk.over
    packed = [lm for lm, _ in gb.reducers()]  # increasing
    seen: set[int] = set()
    frontier = [0]  # the packed monomial 1
    out: list[int] = []
    while frontier:
        m = frontier.pop()
        if m in seen:
            continue
        seen.add(m)
        if _has_divisor(m, packed, guard):
            continue
        if m & over:
            raise DegreeLimitExceeded()
        out.append(m)
        frontier.extend(m + x for x in pk.variables)
    out.sort()  # packed ints compare as the monomial order
    return tuple(out)


def _poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_monic(f: list[int], p: int) -> list[int]:
    if not f:
        return f
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _poly_mod(a: list[int], b: list[int], p: int) -> list[int]:
    a = a[:]
    db, lb = len(b) - 1, b[-1]
    inv = pow(lb, -1, p)
    while len(a) - 1 >= db and a:
        factor = a[-1] * inv % p
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * c) % p
        _poly_trim(a)
        if not a:
            break
    return a


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while b:
        a, b = b, _poly_mod(a, b, p)
    return _poly_monic(a, p)


def _poly_deriv(f: list[int], p: int) -> list[int]:
    return _poly_trim([c * i % p for i, c in enumerate(f)][1:])


def _squarefree_degree(f: list[int], p: int) -> int:
    """Number of distinct roots of ``f`` in an algebraic closure: the
    degree of ``f`` over ``gcd(f, f')``."""
    f = _poly_trim(f[:])
    if len(f) <= 1:
        return 0
    df = _poly_deriv(f, p)
    if not df:
        # Only possible for constants at these degrees (deg f < p).
        return 0
    return len(f) - len(_poly_gcd(f, df, p))


def _charpoly_mod(mat: list[list[int]], p: int) -> list[int]:
    """Characteristic polynomial ``det(x*I - mat)`` mod ``p``, lowest
    coefficient first: reduce ``mat`` to upper Hessenberg form by
    similarities, then expand the leading blocks' determinants (Cohen,
    GTM 138, Algorithm 2.2.9)."""
    n = len(mat)
    h = [[c % p for c in row] for row in mat]
    for j in range(n - 2):
        # Zero column j below the subdiagonal, pivoting on row j + 1.
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = pow(h[j + 1][j], -1, p)
        top = h[j + 1]
        for i in range(j + 2, n):
            u = h[i][j] * inv % p
            if not u:
                continue
            h[i] = [(a - u * b) % p for a, b in zip(h[i], top)]
            for row in h:
                row[j + 1] = (row[j + 1] + u * row[i]) % p
    # chars[m] is the characteristic polynomial of the leading m x m block.
    chars = [[1]]
    for m in range(n):
        nxt = [0] + chars[m]
        for k, c in enumerate(chars[m]):
            nxt[k] -= h[m][m] * c
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            f = t * h[i][m]
            for k, c in enumerate(chars[i]):
                nxt[k] -= f * c
        chars.append([c % p for c in nxt])
    return chars[n]


def multiplication_matrix(gb: GroebnerBasis, qb: Sequence[int]) -> list[list[list[int]]]:
    """Multiplication by each variable on the quotient algebra.

    Returns nested lists ``tables[i][row][col]``: ``tables[i]`` has in
    column ``j`` the normal form of ``m_j * x_i``, ``m_j`` the ``j``-th
    packed standard monomial of ``qb``, as Python ints reduced modulo the
    field's modulus (which may exceed 64 bits over a
    :class:`~lodeg.poly.ResidueRing`).
    Multiplication by ``sum(c_i * x_i)`` is ``sum(c_i * tables[i])``.
    """
    ring = gb.ring
    if not isinstance(ring.field_, PrimeField):
        raise TypeError("multiplication matrices are built over prime fields only")
    n = ring.nvars
    pk = ring.packing
    index = {m: i for i, m in enumerate(qb)}
    dim = len(index)
    tables = [[[0] * dim for _ in range(dim)] for _ in range(n)]
    normalize, _ = _field_ops(ring)
    reducers = gb.reducers()
    lms = [lm for lm, _ in reducers]
    nf_cache: dict[int, dict] = {}
    for col, m in enumerate(index):
        for table, x in zip(tables, pk.variables):
            sm = m + x
            row = index.get(sm)
            if row is not None:
                table[row][col] = 1
                continue
            nf = nf_cache.get(sm)
            if nf is None:
                if not _has_divisor(sm, lms, pk.guard):
                    raise RuntimeError("standard-monomial closure violated")
                nf = _reduce_full({sm: 1}, reducers, pk, normalize)
                nf_cache[sm] = nf
            for mm, cc in nf.items():
                table[index[mm]][col] = cc
    return tables


def count_points(ideal: Ideal, seed: int) -> dict[int, int]:
    """Number of distinct solutions of a zero-dimensional system over the
    algebraic closure of GF(p), for each prime ``p`` of the ideal's field:
    ``{p: count}``.

    One Buchberger basis, one quotient basis and one set of normal forms
    (:func:`multiplication_matrix`) are computed over the field, a
    :class:`~lodeg.poly.ResidueRing` of several primes included; read
    modulo each prime they are that prime's own (see "Several primes at
    once").  Then, per prime, the count is the number of distinct
    eigenvalues of a seeded random linear form acting on the quotient
    algebra (Cox, Little, O'Shea, GTM 185, ch. 2): the squarefree part of
    its characteristic polynomial has one root per solution once the form
    separates the points.  Each prime draws its form from a fresh
    ``SeedStream(seed)``.
    """
    fld = ideal.ring.field_
    if not isinstance(fld, PrimeField):
        raise TypeError("count_points requires a prime-field ideal")
    primes = fld.primes if isinstance(fld, ResidueRing) else (fld.p,)
    gb = buchberger(ideal)
    if gb.is_unit():
        return {p: 0 for p in primes}
    qb = quotient_basis(gb)
    dim = len(qb)
    for p in primes:
        if dim >= p:
            raise CharacteristicHazard(
                f"quotient dimension {dim} is not far below characteristic {p}"
            )
    tables = multiplication_matrix(gb, qb)
    return {p: _count_modulo(tables, p, seed) for p in primes}


def _count_modulo(tables: list[list[list[int]]], p: int, seed: int) -> int:
    """The point count of :func:`count_points` at the prime ``p`` from the
    tables of :func:`multiplication_matrix`."""
    stream = SeedStream(seed)
    coeffs = [stream.nonzero_residue(p) for _ in tables]
    mat = [
        [sum(c * e for c, e in zip(coeffs, entries)) % p for entries in zip(*rows)]
        for rows in zip(*tables)
    ]
    return _squarefree_degree(_charpoly_mod(mat, p), p)
