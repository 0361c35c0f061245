"""Groebner-basis engine and the zero-dimensional point counter.

:func:`buchberger` computes reduced Groebner bases with one of two loops,
chosen from the input (see "Two loops").  Everything downstream -- Krull
dimension, elimination, saturation, quotient bases, and point counting via
the squarefree part of a minimal polynomial -- is built on top of it.

Packed monomials
----------------
Inside :func:`buchberger`, :func:`normal_form` and
:func:`multiplication_matrix` every monomial is one Python ``int`` of
``2n`` digits, ``PACK_DIGIT_BITS`` bits each, for ``n`` variables.
Exponent tuples come back only where a :class:`Polynomial` is built.

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
headroom: every term a reduction pops with a nonzero coefficient, every
packed input monomial and the lcm of every S-pair before it is reduced
must keep all digits below ``PACK_LIMIT = 2**(PACK_DIGIT_BITS - 2)`` (one
mask test), or :class:`DegreeLimitExceeded` is raised.  That bound
suffices: every other monomial a computation forms (signatures aside, see
"Signature width") is ``m - lm + t`` (``lm`` dividing ``m``), an
lcm of two checked monomials, or a product of two checked monomials, whose
digits are at most the sum of two checked digits, below
``2 * PACK_LIMIT``, the guard bit.  Each digit is at most the degree of a
variable block, so the limit reads: total degree below ``PACK_LIMIT`` under
grevlex, each block's degree under a block order, each exponent under lex.

Reduction
---------
A normal form keeps its working set as a coefficient dict plus a heap of
negated packed monomials, so terms pop in strictly decreasing order.  A
basis element becomes a reducer (leading monomial, tail scaled by minus
the inverse leading coefficient) once, when it joins the basis.  An S-pair
carries its packed lcm from when it is queued.

Two loops
---------
Most S-pairs reduce to zero, and a zero reduction costs a full normal form
and yields nothing.  Which loop avoids more of them depends on the input,
so :func:`buchberger` selects by the number of nonzero generators:

- A *square* ideal, with as many generators as variables, runs the
  signature loop.  Every count of the invariants is a point count of such
  a system (``n`` Lagrange equations in ``n`` unknowns).  When its
  generators form a regular sequence, as a generic complete intersection's
  do, the F5 criterion below removes every zero reduction (Faugere, ISSAC
  2002; Eder and Faugere, JSC 80, 2017); on the counting workloads of the
  benchmark no S-pair reduces to zero.  Other square inputs stay correct:
  their zero reductions feed the syzygy criterion.
- Any other ideal runs the pair loop: Buchberger's algorithm with the
  normal (minimal-lcm) selection and the Gebauer-Moeller update, which
  keeps one new pair per minimal lcm and none for an lcm that a coprime
  pair attains.  More generators than variables are never a regular
  sequence; these ideals come from elimination and saturation, and on
  them the signature loop, with its inter-reduction after every input,
  took 1.8 times as long as this loop (``conormal_saturation``).

Both loops end in the same minimalization and inter-reduction, and the
reduced basis is canonical, so the choice never changes a result.

Signature loop.  Inputs are taken by increasing leading monomial.  Input
``f_i`` has signature ``e_i``; the work before it is the reduced basis
``G`` of ``f_1, ..., f_{i-1}``.  An element of index ``i`` has a signature
``u*e_i`` (position over term), stored as the packed monomial ``u``, so
signatures of one index compare as ints.  S-pairs of index ``i`` (with a
new element on the signature side) are queued by signature, one per
signature, keeping the one whose signature side was added last.  A pair is
dropped when its signature ``u`` is

- divisible by a leading monomial of ``G`` (F5, when the pair is formed):
  ``g*e_i - f_i*(...)`` is a syzygy with signature ``lm(g)*e_i``;
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

Signature width.  A queued signature is ``(lcm - lm) + sig`` for an lcm of
two checked leading monomials (digits below ``2 * PACK_LIMIT``) and a
stored, checked signature (below ``PACK_LIMIT``), so its digits stay below
``3 * PACK_LIMIT < 2**PACK_DIGIT_BITS``: no digit wraps, and int comparison
is still the monomial order.  A digit may reach its guard bit, though, so
the guard-bit test "does a checked monomial divide ``u``" can answer a false
"no", never a false "yes"; a false "no" skips a criterion, which costs
work but never a wrong basis.  Each popped signature and its lcm pass the
width guard after the criteria and before the pair is reduced or its
signature stored.

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
another order, and the reduced basis, being unique, is the basis mod
``p_i``: :func:`count_points` takes it term by term, dropping the terms that
vanish there.  Then the cheap per-prime steps (quotient basis, matrix,
Krylov) run once per prime, below ``MAX_MATRIX_PRIME``.

Every zero test crossed mod ``N`` is followed by an inversion of the same
value, is harmless, or raises ``SplitModulus`` itself:

- ``_reduce_full`` and ``_reduce_regular``, ``if not c``: a term that is
  zero mod ``p_i`` only is either reduced (mod ``p_i`` the step adds
  nothing) or kept in the remainder.  Every nonzero remainder (``if r``)
  becomes a reducer, whose leading coefficient is inverted, so a remainder
  that is zero mod ``p_i`` only splits.  That covers an input generator
  that vanishes mod ``p_i`` only: it reduces to such a remainder or to zero.
  The width guard checks such a term too, though mod ``p_i`` it is absent:
  a limit on degrees that the counts stay far below.
- ``conormal.restrict_base`` drops a vanishing equation, and
  ``conormal._rank_minors`` a vanishing minor, through
  ``Polynomial.vanishes``, which raises for one that vanishes mod some
  primes only.  The number of minors also fixes how many coefficients a
  combination in :func:`saturate_by_ideal` draws.
- The loop selection ``len(polys) == ring.nvars`` counts the generators
  that are nonzero mod ``N``.  Both loops end in the same reduced basis,
  so the choice changes the path, never the result.
- ``conormal.solve_forms`` picks the pivot of each form by ``!= zero`` and
  inverts it at once.  Its row updates test ``a != zero`` and add a
  multiple of ``a``, which is nothing mod ``p_i`` when ``a`` vanishes there.
- :func:`saturate_by_ideal` redraws a combination that vanishes, through
  ``Polynomial.vanishes``.
- Checks that fail mod ``N`` (two saturations that differ, a saturation
  that is not bihomogeneous) raise ``SplitModulus`` too: which prime fails,
  and what the primes before it did, only one prime at a time tells.

The self-check of :func:`buchberger` runs mod ``N``: an input reduces to
zero mod every ``p_i``, hence mod ``N``.

Wall-clock budgets are first class: every basis computation takes a budget
in seconds and raises :class:`BudgetExceeded` when it runs out.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Iterable, Optional, Sequence

import numpy as np

from .poly import (
    BlockOrder,
    Grevlex,
    InputError,
    Lex,
    Mono,
    PolyRing,
    Polynomial,
    PrimeField,
    ResidueRing,
    SplitModulus,
    block_order,
    fresh_name,
    mono_divides,
)

DEFAULT_BUDGET_SECS = 120.0

# Largest characteristic the point counter accepts: the matrix and Krylov
# steps multiply two residues in int64 arrays, so (p - 1)**2 < 2**63.
MAX_MATRIX_PRIME = math.isqrt(2**63 - 1) + 1

# Width of one digit of a packed monomial, and the bound every checked
# digit stays below (see "Width guard" above).
PACK_DIGIT_BITS = 16
PACK_LIMIT = 1 << (PACK_DIGIT_BITS - 2)


class BudgetExceeded(RuntimeError):
    """A Groebner computation ran past its wall-clock budget."""

    def __init__(self, context: str, budget_secs: float) -> None:
        super().__init__(f"{context}: budget of {budget_secs:.1f}s exhausted")
        self.context = context
        self.budget_secs = budget_secs


class NotZeroDimensional(RuntimeError):
    """Point counting was asked for an ideal with positive-dimensional locus."""


class CharacteristicHazard(RuntimeError):
    """The quotient dimension is too close to the field characteristic."""


class DegreeLimitExceeded(InputError):
    """A monomial outgrew packed exponents: an input-size limit (see the
    module docstring)."""

    def __init__(self) -> None:
        super().__init__(
            f"a monomial reached degree {PACK_LIMIT}; Groebner computations "
            f"need degrees below {PACK_LIMIT} (under a block order, each block's "
            "degree; under lex, each exponent)"
        )


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
    """A reduced, monic Groebner basis, sorted by decreasing leading monomial."""

    ring: PolyRing
    basis: tuple[Polynomial, ...]

    def is_unit(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].is_constant() and not self.basis[0].is_zero()

    def leading_monomials(self) -> tuple[Mono, ...]:
        return tuple(g.leading_monomial() for g in self.basis)


@dataclass(frozen=True)
class QuotientBasis:
    """Standard monomials of a zero-dimensional quotient algebra."""

    ring: PolyRing
    monomials: tuple[Mono, ...]

    def __len__(self) -> int:
        return len(self.monomials)


class _Deadline:
    __slots__ = ("limit", "t0", "budget", "context")

    def __init__(self, budget_secs: Optional[float], context: str) -> None:
        self.budget = budget_secs if budget_secs is not None else DEFAULT_BUDGET_SECS
        self.t0 = time.monotonic()
        self.limit = self.t0 + self.budget
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


def _repeat(digit: int, count: int) -> int:
    """``digit`` in each of the low ``count`` digits."""
    return sum(digit << (PACK_DIGIT_BITS * i) for i in range(count))


class _Packing:
    """Packed monomials of one ring (layout in the module docstring).

    Holds only the ring's masks; one instance serves one computation."""

    __slots__ = ("spans", "blocks", "exp_bits", "low", "low_guard", "guard", "over", "shifts")

    def __init__(self, ring: PolyRing) -> None:
        n = ring.nvars
        order = ring.order
        if isinstance(order, Lex):
            sizes = [1] * n
        elif isinstance(order, BlockOrder):
            k = min(order.k, n)
            sizes = [s for s in (k, n - k) if s]
        elif isinstance(order, Grevlex):
            sizes = [n]
        else:
            raise TypeError(f"no packed layout for the order {order!r}")
        w = PACK_DIGIT_BITS
        digit = (1 << w) - 1
        self.spans: list[tuple[int, int]] = []
        # Per block: shift to its first exponent, mask and all-ones of its
        # width, and its width in bits.
        self.blocks: list[tuple[int, int, int, int]] = []
        start = 0
        for s in sizes:
            self.spans.append((start, start + s))
            self.blocks.append((start * w, _repeat(digit, s), _repeat(1, s), s * w))
            start += s
        self.exp_bits = n * w
        self.low = _repeat(digit, n)
        self.low_guard = _repeat(1 << (w - 1), n)
        self.guard = _repeat(1 << (w - 1), 2 * n)
        self.over = _repeat(3 << (w - 2), 2 * n)
        self.shifts = tuple(w * i for i in range(n))

    def from_exponents(self, e: int) -> int:
        """Packed monomial of the exponent digits ``e``; its weight rows
        must stay below one digit."""
        rows = 0
        for shift, mask, ones, width in self.blocks:
            rows = (rows << width) | (((e >> shift) & mask) * ones & mask)
        return (rows << self.exp_bits) | e

    def pack(self, m: Mono) -> int:
        if max(sum(m[a:b]) for a, b in self.spans) >= PACK_LIMIT:
            raise DegreeLimitExceeded()
        e = 0
        for x in reversed(m):
            e = (e << PACK_DIGIT_BITS) | x
        return self.from_exponents(e)

    def unpack(self, p: int) -> Mono:
        digit = (1 << PACK_DIGIT_BITS) - 1
        return tuple((p >> s) & digit for s in self.shifts)

    def pack_terms(self, terms: Iterable[tuple[Mono, object]]) -> dict:
        pack = self.pack
        return {pack(m): c for m, c in terms}

    def polynomial(self, ring: PolyRing, d: dict) -> Polynomial:
        """The polynomial of a packed dict whose keys decrease."""
        unpack = self.unpack
        return Polynomial(ring, tuple((unpack(m), c) for m, c in d.items()))

    def divides(self, a: int, b: int) -> bool:
        guard = self.guard
        return ((b | guard) - a) & guard == guard

    def lcm(self, a: int, b: int) -> int:
        low, low_guard = self.low, self.low_guard
        ea, eb = a & low, b & low
        ge = ((ea | low_guard) - eb) & low_guard  # guard bit where ea >= eb
        take_a = ge - (ge >> (PACK_DIGIT_BITS - 1))  # those digits' value bits
        return self.from_exponents(eb ^ ((ea ^ eb) & take_a))


def _reducer(d: dict, normalize, invert) -> tuple[int, tuple]:
    """Prepared reducer ``(lm, tail)`` of a nonzero packed dict whose first
    key is its leading monomial.

    Each tail pair is ``(m, -c/lc)``, so reducing a term ``a*u`` by it adds
    ``a*t`` at ``(u - lm) + m`` for every tail pair ``(m, t)``."""
    items = iter(d.items())
    lm, lc = next(items)
    inv = invert(lc)
    return lm, tuple((m, normalize(-c * inv)) for m, c in items)


def _basis_reducers(gb: GroebnerBasis, pk: _Packing) -> list:
    normalize, invert = _field_ops(gb.ring)
    return [_reducer(pk.pack_terms(g.terms), normalize, invert) for g in gb.basis]


def _reduce_full(
    target: dict,
    reducers: Sequence[tuple[int, tuple]],
    pk: _Packing,
    normalize,
    deadline: Optional[_Deadline] = None,
) -> dict:
    """Full normal form of the packed dict ``target`` modulo prepared
    ``reducers``.

    The first reducer (in list order) whose leading monomial divides a term
    reduces it; the scan is one guard-bit subtraction per reducer.  The
    working set is a dict of coefficients plus a heap of negated packed
    monomials, one entry per monomial: a monomial is pushed when it first
    enters the dict and stays there, with a coefficient that may cancel to
    zero, until popped; a popped zero is skipped.  Terms are popped in
    strictly decreasing order, and every term a reduction step adds is
    smaller than the term being reduced, so a popped monomial never returns
    and the result comes out in decreasing order.  Coefficients are reduced
    by ``normalize`` once, when their term is popped.

    Every popped term with a nonzero coefficient passes the width guard
    before it is used, so a step's new terms ``(m - lm) + t`` keep their
    digits below the guard bit (see the module docstring).
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
        for lm, tail in reducers:
            if (guarded - lm) & guard == guard:
                break
        else:
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


def _update_pairs(
    G: set[int],
    pairs: dict[tuple[int, int], int],
    h: int,
    lms: dict[int, int],
    pk: _Packing,
) -> tuple[set[int], list[tuple[int, int, int]]]:
    """Gebauer-Moeller pair update for a new generator ``h``.

    Drops from ``pairs`` (live pair -> lcm) the pairs ``h`` makes redundant
    and returns the new generator set with the new pairs ``(h, g, lcm)``:
    one per minimal lcm (no other new lcm strictly divides it), and none
    with a ``g`` coprime to ``h``.  ``G`` must be an antichain under
    divisibility of leading monomials, as the pair loop keeps it."""
    mh = lms[h]
    lcm, divides = pk.lcm, pk.divides
    lcm_with = {g: lcm(mh, lms[g]) for g in G}

    # A strict divisor of an lcm precedes it in every monomial order, and a
    # non-minimal lcm has a minimal strict divisor; so one ascending pass,
    # testing each lcm against the distinct minimal ones so far, keeps
    # exactly the minimal lcms.  Equal lcms are adjacent, and the first of
    # a class stands for it.  A class with a member g coprime to h has no
    # other member: any member with the lcm h*g is divisible by g, which an
    # antichain forbids; so its S-polynomial, which reduces to zero, is
    # never queued.
    minimal: list[int] = []
    new: list[tuple[int, int, int]] = []
    for g in sorted(G, key=lcm_with.__getitem__):
        target = lcm_with[g]
        if minimal and minimal[-1] == target:
            continue
        if any(divides(low, target) for low in minimal):
            continue
        minimal.append(target)
        if target != mh + lms[g]:
            new.append((h, g, target))

    def lcm_of(i: int) -> int:
        return lcm_with[i] if i in lcm_with else lcm(mh, lms[i])

    for (i, j), lcm_ij in list(pairs.items()):
        if divides(mh, lcm_ij) and lcm_of(i) != lcm_ij and lcm_of(j) != lcm_ij:
            del pairs[(i, j)]
    G_new = {g for g in G if not divides(mh, lms[g])}
    G_new.add(h)
    return G_new, new


def _reduced_basis(members: list, pk: _Packing, normalize, one, deadline: _Deadline) -> list[dict]:
    """Reduced basis, by decreasing leading monomial, of monic prepared
    reducers that form a Groebner basis."""
    # Minimalize: drop members whose leading monomial another one divides.
    minimal: list[tuple[int, tuple]] = []
    for r in sorted(members, key=itemgetter(0)):
        if any(pk.divides(lm, r[0]) for lm, _ in minimal):
            continue
        minimal.append(r)

    # Inter-reduce tails; stored reducers are monic, and a minimal leading
    # monomial is irreducible by the others, so each result is monic.
    reduced: list[dict] = []
    for k, (lm, tail) in enumerate(minimal):
        poly = {lm: one}
        poly.update((m, -c) for m, c in tail)
        reduced.append(_reduce_full(poly, minimal[:k] + minimal[k + 1:], pk, normalize, deadline))
    reduced.reverse()
    return reduced


def _pair_basis(
    polys: list[dict], pk: _Packing, normalize, invert, one, deadline: _Deadline
) -> list[dict]:
    """Buchberger's loop: S-pairs by increasing lcm, filtered by the
    Gebauer-Moeller update; returns the reduced basis."""
    store: dict[int, tuple[int, tuple]] = {}
    lms: dict[int, int] = {}
    G: set[int] = set()
    pairs: dict[tuple[int, int], int] = {}
    queue: list[tuple[int, int, int]] = []
    reducers: list[tuple[int, tuple]] = []

    def add_poly(d: dict) -> None:
        nonlocal G, reducers
        h = len(store)
        store[h] = _reducer(d, normalize, invert)  # remainders come out decreasing
        lms[h] = store[h][0]
        G, new = _update_pairs(G, pairs, h, lms, pk)
        for i, j, lcm in new:
            if lcm & pk.over:
                raise DegreeLimitExceeded()
            pairs[(i, j)] = lcm
            heappush(queue, (lcm, i, j))
        # Reducers by increasing leading monomial.
        reducers = [store[g] for g in sorted(G, key=lms.__getitem__)]

    for d in sorted(polys, key=max):  # by increasing leading monomial
        r = _reduce_full(d, reducers, pk, normalize, deadline)
        if r:
            add_poly(r)

    while queue:
        _, i, j = heappop(queue)
        lcm = pairs.pop((i, j), None)
        if lcm is None:
            continue  # pruned by a later Gebauer-Moeller update
        deadline.check()
        r = _reduce_full(_spoly(store[i], store[j], lcm), reducers, pk, normalize, deadline)
        if r:
            add_poly(r)
    return _reduced_basis([store[g] for g in G], pk, normalize, one, deadline)


def _reduce_regular(
    target: dict,
    sig: int,
    earlier: Sequence[tuple[int, tuple]],
    own: Sequence[tuple[int, tuple, int]],
    pk: _Packing,
    normalize,
    deadline: _Deadline,
) -> dict:
    """Full regular normal form of ``target``, whose signature is ``sig``.

    Like :func:`_reduce_full`, but a term ``m`` is reduced by an element
    ``(lm, tail, s)`` of the current index only when its multiple keeps the
    signature below ``sig``: ``(m - lm) + s < sig``.  Reducers ``earlier``
    (the basis of the previous inputs) have lower signatures and always
    reduce."""
    guard, over = pk.guard, pk.over
    work = dict(target)
    heap = [-m for m in work]
    heapify(heap)
    out: dict = {}
    steps = 0
    while heap:
        steps += 1
        if not steps & 63:
            deadline.check()
        m = -heappop(heap)
        c = normalize(work.pop(m))
        if not c:
            continue
        if m & over:
            raise DegreeLimitExceeded()
        guarded = m | guard
        for lm, tail in earlier:
            if (guarded - lm) & guard == guard:
                break
        else:
            for lm, tail, s in own:
                if (guarded - lm) & guard == guard and m - lm + s < sig:
                    break
            else:
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


def _signature_basis(
    polys: list[dict], pk: _Packing, normalize, invert, one, deadline: _Deadline
) -> list[dict]:
    """Incremental signature loop (F5C style); returns the reduced basis.

    Input ``f_i`` (by increasing leading monomial) reduced modulo the
    reduced basis ``G`` of the earlier inputs starts index ``i``; ``G`` and
    the elements of index ``i`` then give the next ``G``."""
    reduced: list[dict] = []
    for f in sorted(polys, key=max):
        earlier = [_reducer(d, normalize, invert) for d in reversed(reduced)]
        r = _reduce_full(f, earlier, pk, normalize, deadline)
        if r:
            added = _signature_index(r, earlier, pk, normalize, invert, deadline)
            reduced = _reduced_basis(earlier + added, pk, normalize, one, deadline)
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
    earlier_lms = [lm for lm, _ in earlier]
    own: list[tuple[int, tuple, int]] = []  # (lm, tail, signature), in add order
    syzygies: list[int] = []
    pending: dict[int, tuple[int, tuple, int]] = {}  # signature -> (side, other, lcm)
    queue: list[int] = []

    # Divisibility of a signature u by a checked monomial is the guard-bit
    # test of _Packing.divides, inlined.
    def rewritable(u: int, side: int) -> bool:
        guarded = u | guard
        return any((guarded - z) & guard == guard for z in syzygies) or any(
            (guarded - s) & guard == guard for _, _, s in own[side + 1:]
        )

    def queue_pair(u: int, side: int, other: tuple, lcm: int) -> None:
        guarded = u | guard
        if any((guarded - lm) & guard == guard for lm in earlier_lms) or rewritable(u, side):
            return
        held = pending.get(u)
        if held is None:
            heappush(queue, u)
        elif held[0] >= side:
            return
        pending[u] = (side, other, lcm)

    def add(sig: int, d: dict) -> None:
        h = len(own)
        lm, tail = _reducer(d, normalize, invert)  # remainders come out decreasing
        own.append((lm, tail, sig))
        for other in earlier:
            lcm = pk.lcm(lm, other[0])
            queue_pair(lcm - lm + sig, h, other, lcm)
        for b, (lm_b, tail_b, sig_b) in enumerate(own[:h]):
            lcm = pk.lcm(lm, lm_b)
            u, u_b = lcm - lm + sig, lcm - lm_b + sig_b
            if u > u_b:
                queue_pair(u, h, (lm_b, tail_b), lcm)
            elif u_b > u:
                queue_pair(u_b, b, (lm, tail), lcm)

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
        r = _reduce_regular(_spoly((lm, tail), other, lcm), u, earlier, own, pk, normalize, deadline)
        if r:
            add(u, r)
        else:
            syzygies.append(u)
    return [(lm, tail) for lm, tail, _ in own]


def buchberger(
    ideal: Ideal,
    order=None,
    budget_secs: Optional[float] = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of ``ideal`` in the ring's (or given) order.

    The result is canonical: monic generators, fully inter-reduced, sorted by
    decreasing leading monomial.  A square ideal (as many nonzero generators
    as variables) runs the signature loop, any other the pair loop (see the
    module docstring).  Each input generator is checked to reduce to zero
    against the finished basis.  Raises :class:`DegreeLimitExceeded` when a
    monomial outgrows packed exponents.
    """
    ring = ideal.ring if order is None else ideal.ring.with_order(order)
    deadline = _Deadline(budget_secs, "buchberger")
    pk = _Packing(ring)
    normalize, invert = _field_ops(ring)
    one = ring.field_.one

    # Generators share the ideal's ring, so only the order may differ.
    polys = [pk.pack_terms(g.terms) for g in ideal.generators if not g.is_zero()]
    if not polys:
        return GroebnerBasis(ring, ())
    loop = _signature_basis if len(polys) == ring.nvars else _pair_basis
    reduced = loop(polys, pk, normalize, invert, one, deadline)

    # Self-check: every input generator must reduce to zero.
    final = [_reducer(d, normalize, invert) for d in reduced]
    for d in polys:
        if _reduce_full(d, final, pk, normalize):
            raise RuntimeError("input generator does not reduce to zero against its basis")
    return GroebnerBasis(ring, tuple(pk.polynomial(ring, d) for d in reduced))


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of ``p`` modulo the basis."""
    pk = _Packing(gb.ring)
    normalize, _ = _field_ops(gb.ring)
    target = pk.pack_terms(p.to_ring(gb.ring).terms)
    return pk.polynomial(gb.ring, _reduce_full(target, _basis_reducers(gb, pk), pk, normalize))


# ---------------------------------------------------------------------------
# Krull dimension from leading terms
# ---------------------------------------------------------------------------


def _min_hitting_set_size(supports: list[frozenset[int]]) -> int:
    """Smallest number of variables meeting every support set."""
    supports = sorted(set(supports), key=len)
    pruned: list[frozenset[int]] = []
    for s in supports:
        if not any(t <= s for t in pruned):
            pruned.append(s)
    best = [len(pruned)]

    def search(remaining: list[frozenset[int]], used: set[int], size: int) -> None:
        if size >= best[0]:
            return
        live = [s for s in remaining if not (s & used)]
        if not live:
            best[0] = size
            return
        pivot = min(live, key=len)
        for v in sorted(pivot):
            search(live, used | {v}, size + 1)

    search(pruned, set(), 0)
    return best[0]


def krull_dimension(
    source: Ideal | GroebnerBasis,
    budget_secs: Optional[float] = None,
) -> int:
    """Dimension of the vanishing locus, computed combinatorially from the
    leading-term ideal of a Groebner basis.

    Returns -1 for the unit ideal; the zero ideal has dimension ``nvars``.
    """
    gb = source if isinstance(source, GroebnerBasis) else buchberger(source, budget_secs=budget_secs)
    n = gb.ring.nvars
    if not gb.basis:
        return n
    if gb.is_unit():
        return -1
    supports = [
        frozenset(i for i, e in enumerate(lm) if e) for lm in gb.leading_monomials()
    ]
    return n - _min_hitting_set_size(supports)


# ---------------------------------------------------------------------------
# Elimination and saturation
# ---------------------------------------------------------------------------


def eliminate(ideal: Ideal, k: int, budget_secs: Optional[float] = None) -> Ideal:
    """Intersect with the subring spanned by all but the first ``k`` variables.

    The returned ideal lives in the smaller ring; it may be the zero ideal.
    """
    n = ideal.ring.nvars
    if not 1 <= k < n:
        raise ValueError(f"cannot eliminate {k} of {n} variables")
    gb = buchberger(ideal, order=block_order(k), budget_secs=budget_secs)
    small = PolyRing(tuple(ideal.ring.variables[k:]), ideal.ring.field_, ideal.ring.order)
    kept = []
    for g in gb.basis:
        if any(g.leading_monomial()[:k]):
            continue
        # Under a block order a leading monomial free of the eliminated
        # block forces the whole polynomial to be free of it.
        if any(any(m[:k]) for m, _ in g.terms):
            raise RuntimeError(f"eliminated variables left in {g}")
        kept.append(small.from_dict({m[k:]: c for m, c in g.terms}))
    return Ideal.of(small, kept)


def saturate(ideal: Ideal, g: Polynomial, budget_secs: Optional[float] = None) -> Ideal:
    """Saturation by a single polynomial via the inverted-multiplier trick.

    Adjoins t with t*g = 1 and eliminates t; the result is returned as a
    reduced Groebner basis in the original ring and order.
    """
    ring = ideal.ring
    if g.ring != ring:
        raise ValueError("saturating polynomial lives in a different ring")
    if g.is_zero():
        raise ValueError("cannot saturate by the zero polynomial")
    tname = fresh_name("t", ring.variables)
    big = PolyRing((tname,) + ring.variables, ring.field_, ring.order)

    def lift(p: Polynomial) -> Polynomial:
        return big.from_dict({(0,) + m: c for m, c in p.terms})

    t = big.gen(0)
    gens = [lift(p) for p in ideal.generators]
    gens.append(t * lift(g) - big.one())
    eliminated = eliminate(Ideal.of(big, gens), 1, budget_secs=budget_secs)
    back = Ideal.of(ring, [q.to_ring(ring) for q in eliminated.generators])
    gb = buchberger(back, budget_secs=budget_secs)
    return Ideal.of(ring, gb.basis)


def saturate_by_ideal(
    ideal: Ideal,
    other: Ideal,
    seed: int,
    budget_secs: Optional[float] = None,
) -> Ideal:
    """Saturate ``ideal`` by a whole ideal.

    Saturate by a random linear combination of the generators of ``other``
    for two derived seeds.  A generic combination gives the saturation by
    the whole ideal exactly, so the two answers agree unless a draw was
    unlucky; disagreement raises :class:`Instability` (the observations are
    the two basis sizes).
    """
    from .randomness import Instability, SeedStream, derive_seed

    if not other.generators:
        raise ValueError("cannot saturate by the zero ideal")
    ring = ideal.ring

    def combo(s: int) -> Polynomial:
        stream = SeedStream(s)
        while True:
            acc = ring.zero()
            for g in other.generators:
                acc = acc + g * ring.field_.coerce(stream.integer())
            if not acc.vanishes():
                return acc

    seeds = (derive_seed(seed, 0), derive_seed(seed, 1))
    first, second = (saturate(ideal, combo(s), budget_secs=budget_secs) for s in seeds)
    if first.generators != second.generators:
        if isinstance(ring.field_, ResidueRing):
            # The answers differ modulo some prime; which one, and what the
            # runs before it did, only one prime at a time tells.
            raise SplitModulus("saturations by random combinations differ")
        # Keyed by (seed, characteristic); 0 stands for the rationals.
        p = getattr(ring.field_, "p", 0)
        raise Instability(
            "saturation by random combinations of the generators",
            {(seeds[0], p): len(first.generators), (seeds[1], p): len(second.generators)},
        )
    return first


# ---------------------------------------------------------------------------
# Zero-dimensional machinery
# ---------------------------------------------------------------------------


def quotient_basis(gb: GroebnerBasis) -> QuotientBasis:
    """Monomials outside the leading-term ideal; requires a finite quotient."""
    ring = gb.ring
    n = ring.nvars
    if gb.is_unit():
        return QuotientBasis(ring, ())
    lms = gb.leading_monomials()
    for i in range(n):
        if not any(all(e == 0 for j, e in enumerate(lm) if j != i) and lm[i] > 0 for lm in lms):
            raise NotZeroDimensional(
                f"no pure power of {ring.variables[i]!r} among leading terms"
            )
    seen: set[Mono] = set()
    frontier = [(0,) * n]
    out: list[Mono] = []
    while frontier:
        m = frontier.pop()
        if m in seen:
            continue
        seen.add(m)
        if any(mono_divides(lm, m) for lm in lms):
            continue
        out.append(m)
        for i in range(n):
            child = list(m)
            child[i] += 1
            frontier.append(tuple(child))
    out.sort(key=ring.order.key)
    return QuotientBasis(ring, tuple(out))


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


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return _poly_trim(out)


def _poly_divexact(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) - len(b) + 1)
    a = a[:]
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    while _poly_trim(a) and len(a) - 1 >= db:
        factor = a[-1] * inv % p
        shift = len(a) - 1 - db
        out[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * c) % p
    return _poly_trim(out)


def _poly_deriv(f: list[int], p: int) -> list[int]:
    return _poly_trim([c * i % p for i, c in enumerate(f)][1:])


def _squarefree_degree(f: list[int], p: int) -> int:
    """Number of distinct roots of ``f`` in an algebraic closure."""
    f = _poly_monic(_poly_trim(f[:]), p)
    if len(f) <= 1:
        return 0
    df = _poly_deriv(f, p)
    if not df:
        # Only possible for constants at these degrees (deg f < p).
        return 0
    g = _poly_gcd(f, df, p)
    sqfree = _poly_divexact(f, g, p)
    return len(sqfree) - 1


def _poly_lcm(a: list[int], b: list[int], p: int) -> list[int]:
    if not a:
        return _poly_monic(b[:], p)
    if not b:
        return _poly_monic(a[:], p)
    g = _poly_gcd(a, b, p)
    return _poly_monic(_poly_divexact(_poly_mul(a, b, p), g, p), p)


def _krylov_minimal_polynomial(mat: np.ndarray, v0: np.ndarray, p: int) -> list[int]:
    """Minimal polynomial of ``mat`` relative to the start vector ``v0``."""
    dim = mat.shape[0]
    pivots: list[tuple[int, np.ndarray, list[int]]] = []
    w = v0.copy()
    combo = [1]
    for step in range(dim + 1):
        red = w.copy()
        cred = combo[:]
        for pos, row, rowcombo in pivots:
            factor = int(red[pos])
            if factor:
                red = (red - factor * row) % p
                for i, c in enumerate(rowcombo):
                    if i < len(cred):
                        cred[i] = (cred[i] - factor * c) % p
                    else:
                        cred.append((-factor * c) % p)
        nz = np.nonzero(red)[0]
        if nz.size == 0:
            return _poly_monic(_poly_trim(cred), p)
        pos = int(nz[0])
        inv = pow(int(red[pos]), -1, p)
        red = (red * inv) % p
        cred = [c * inv % p for c in cred]
        pivots.append((pos, red, cred))
        w = _matvec_mod(mat, w, p)
        combo = [0] + combo
    raise RuntimeError("Krylov iteration exceeded the quotient dimension")


def _matvec_mod(mat: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    # Residues times residues fit in int64 for p <= MAX_MATRIX_PRIME; each
    # row sum then adds dim reduced products.
    prod = (mat * v[np.newaxis, :]) % p
    return prod.sum(axis=1) % p


def multiplication_matrix(
    gb: GroebnerBasis,
    qb: QuotientBasis,
    coefficients: Sequence[int],
) -> np.ndarray:
    """Matrix of multiplication by sum(c_i * x_i) on the quotient algebra."""
    ring = gb.ring
    fld = ring.field_
    if not isinstance(fld, PrimeField):
        raise TypeError("multiplication matrices are built over prime fields only")
    p = fld.p
    n = ring.nvars
    pk = _Packing(ring)
    index = {pk.pack(m): i for i, m in enumerate(qb.monomials)}
    dim = len(index)
    mat = np.zeros((dim, dim), dtype=np.int64)
    normalize, _ = _field_ops(ring)
    reducers = _basis_reducers(gb, pk)
    variables = [pk.pack(tuple(int(j == i) for j in range(n))) for i in range(n)]
    nf_cache: dict[int, dict] = {}
    for col, m in enumerate(index):
        for i, x in enumerate(variables):
            ci = coefficients[i] % p
            if ci == 0:
                continue
            sm = m + x
            row = index.get(sm)
            if row is not None:
                mat[row, col] = (mat[row, col] + ci) % p
                continue
            nf = nf_cache.get(sm)
            if nf is None:
                if not any(pk.divides(lm, sm) for lm, _ in reducers):
                    raise RuntimeError("standard-monomial closure violated")
                nf = _reduce_full({sm: 1}, reducers, pk, normalize)
                nf_cache[sm] = nf
            for mm, cc in nf.items():
                row = index[mm]
                mat[row, col] = (mat[row, col] + ci * cc) % p
    return mat

def count_points(
    ideal: Ideal,
    seed: int,
    budget_secs: Optional[float] = None,
) -> dict[int, int]:
    """Number of distinct solutions of a zero-dimensional system over the
    algebraic closure of GF(p), for each prime ``p`` of the ideal's field:
    ``{p: count}``.

    One Buchberger basis is computed over the field, a
    :class:`~lodeg.poly.ResidueRing` of several primes included, and split
    modulo each prime (see "Several primes at once").  Then, per prime, the
    count is the number of distinct eigenvalues of a seeded random linear
    form acting on the quotient algebra: the squarefree part of its minimal
    polynomial (the lcm of two Krylov-vector minimal polynomials) has one
    root per solution once the form separates the points.  Each prime draws
    its form and vectors from a fresh ``SeedStream(seed)``.
    """
    fld = ideal.ring.field_
    if not isinstance(fld, PrimeField):
        raise TypeError("count_points requires a prime-field ideal")
    primes = fld.primes if isinstance(fld, ResidueRing) else (fld.p,)
    for p in primes:
        if p > MAX_MATRIX_PRIME:
            raise ValueError(
                f"characteristic {p} is above {MAX_MATRIX_PRIME}: residue products "
                "would overflow 64-bit integers"
            )
    gb = buchberger(ideal, budget_secs=budget_secs)
    return {p: _count_basis(_split_basis(gb, p), seed) for p in primes}


def _split_basis(gb: GroebnerBasis, p: int) -> GroebnerBasis:
    """The basis modulo the prime ``p`` of its field, dropping the terms
    that vanish there; the reduced basis over GF(p) when ``gb`` is a reduced
    basis over a :class:`~lodeg.poly.ResidueRing` computed without a
    split."""
    if not isinstance(gb.ring.field_, ResidueRing):
        return gb
    ring = gb.ring.with_field(PrimeField(p))
    return GroebnerBasis(
        ring,
        tuple(Polynomial(ring, tuple((m, c % p) for m, c in g.terms if c % p)) for g in gb.basis),
    )


def _count_basis(gb: GroebnerBasis, seed: int) -> int:
    """The point count of :func:`count_points` from a basis over GF(p)."""
    from .randomness import SeedStream

    p = gb.ring.field_.p
    if gb.is_unit():
        return 0
    qb = quotient_basis(gb)
    dim = len(qb)
    if dim == 0:
        return 0
    if dim >= p:
        raise CharacteristicHazard(
            f"quotient dimension {dim} is not far below characteristic {p}"
        )
    stream = SeedStream(seed)
    coeffs = [stream.nonzero_residue(p) for _ in range(gb.ring.nvars)]
    mat = multiplication_matrix(gb, qb, coeffs)
    v1 = np.array([stream.residue(p) for _ in range(dim)], dtype=np.int64)
    v2 = np.array([stream.residue(p) for _ in range(dim)], dtype=np.int64)
    if not v1.any():
        v1[0] = 1
    if not v2.any():
        v2[-1] = 1
    m1 = _krylov_minimal_polynomial(mat, v1, p)
    m2 = _krylov_minimal_polynomial(mat, v2, p)
    minimal = _poly_lcm(m1, m2, p)
    return _squarefree_degree(minimal, p)
