"""Groebner-basis engine and the zero-dimensional point counter.

Buchberger's algorithm with the Gebauer-Moeller pair filters and the
normal (minimal-lcm) selection strategy.  Everything downstream -- Krull
dimension, elimination, saturation, quotient bases, and point counting via
the squarefree part of a minimal polynomial -- is built on top of it.

Polynomials are reduced as dicts from monomials to coefficients, on one
path shared by :func:`buchberger`, :func:`normal_form` and
:func:`multiplication_matrix`:

- each computation keeps a cache of heap keys, one per monomial it meets
  (the order key, flattened and negated), and frees it when it returns;
- a normal form keeps its working set in a heap on those keys, so terms are
  popped in strictly decreasing order, and every term a reduction step adds
  is smaller than the term being reduced;
- a basis element becomes a reducer (leading monomial, tail scaled by minus
  the inverse leading coefficient) once, when it joins the basis;
- an S-pair carries its lcm and the lcm's order key from when it is queued.

Wall-clock budgets are first class: every basis computation takes a budget
in seconds and raises :class:`BudgetExceeded` when it runs out.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import add, le, sub
from typing import Iterable, Optional, Sequence

import numpy as np

from .poly import (
    Mono,
    PolyRing,
    Polynomial,
    PrimeField,
    block_order,
    fresh_name,
    mono_divides,
    mono_lcm,
)

DEFAULT_BUDGET_SECS = 120.0

# Largest characteristic the point counter accepts: the matrix and Krylov
# steps multiply two residues in int64 arrays, so (p - 1)**2 < 2**63.
MAX_MATRIX_PRIME = math.isqrt(2**63 - 1) + 1


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

    def map_ring(self, target: PolyRing) -> "Ideal":
        return Ideal(target, tuple(g.to_ring(target) for g in self.generators))


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
# Reduction core: heap keys, prepared reducers, normal forms
# ---------------------------------------------------------------------------


def _field_ops(ring: PolyRing):
    """Return (normalize, invert) closures for the ring's field."""
    fld = ring.field_
    if isinstance(fld, PrimeField):
        p = fld.p
        return (lambda c: c % p), (lambda c: pow(c, -1, p))
    return (lambda c: c), (lambda c: 1 / c)


class _HeapKeys(dict):
    """Monomial -> heap key under one order, each computed on first use.

    The heap key is the order key flattened, with every entry negated, so
    ascending heap keys are descending monomials.  (Flattening keeps the
    comparison because every nested tuple of an order key has a fixed
    length.)  One instance lives for one computation and is freed with it.
    """

    __slots__ = ("_order_key",)

    def __init__(self, order) -> None:
        super().__init__()
        self._order_key = order.key

    def __missing__(self, m: Mono) -> tuple:
        flat: list[int] = []
        for part in self._order_key(m):
            if isinstance(part, tuple):
                flat.extend(-e for e in part)
            else:
                flat.append(-part)
        key = self[m] = tuple(flat)
        return key


def _reducer(lm: Mono, lc, terms: Iterable[tuple[Mono, object]], normalize, invert):
    """Prepared reducer ``(lm, tail)`` of the polynomial ``lc*lm + terms``.

    Each tail pair is ``(m, -c/lc)``, so reducing a term ``a*u`` by it adds
    ``a*t`` at ``(u/lm)*m`` for every tail pair ``(m, t)``."""
    inv = invert(lc)
    return lm, tuple((m, normalize(-c * inv)) for m, c in terms)


def _basis_reducers(gb: GroebnerBasis) -> list:
    normalize, invert = _field_ops(gb.ring)
    return [
        _reducer(g.terms[0][0], g.terms[0][1], g.terms[1:], normalize, invert)
        for g in gb.basis
    ]


def _reduce_full(
    target: dict,
    reducers: Sequence[tuple[Mono, tuple]],
    keys: _HeapKeys,
    normalize,
    deadline: Optional[_Deadline] = None,
) -> dict:
    """Full normal form of ``target`` modulo prepared ``reducers``.

    The first reducer (in list order) whose leading monomial divides a term
    reduces it.  The working set is a dict of coefficients plus a heap of
    ``(heap key, monomial)`` entries, one per monomial: a monomial is pushed
    when it first enters the dict and stays there, with a coefficient that
    may cancel to zero, until popped; a popped zero is skipped.  Terms are
    popped in strictly decreasing order, and every term a reduction step
    adds is smaller than the term being reduced, so a popped monomial never
    returns and the result comes out in decreasing order.  Coefficients
    are reduced by ``normalize`` once, when their term is popped.
    """
    work = dict(target)
    heap = [(keys[m], m) for m in work]
    heapify(heap)
    out: dict = {}
    steps = 0
    while heap:
        steps += 1
        if deadline is not None and not steps & 63:
            deadline.check()
        m = heappop(heap)[1]
        c = normalize(work.pop(m))
        if not c:
            continue
        for lm, tail in reducers:
            if all(map(le, lm, m)):
                break
        else:
            out[m] = c
            continue
        shift = tuple(map(sub, m, lm))
        for tm, tc in tail:
            mm = tuple(map(add, shift, tm))
            old = work.get(mm)
            if old is None:
                work[mm] = c * tc
                heappush(heap, (keys[mm], mm))
            else:
                work[mm] = old + c * tc
    return out


def _spoly(f: tuple[Mono, tuple], g: tuple[Mono, tuple], lcm: Mono) -> dict:
    """S-polynomial of two prepared reducers, unnormalized."""
    acc: dict = {}
    for (lm, tail), sign in ((f, -1), (g, 1)):
        shift = tuple(map(sub, lcm, lm))
        for m, c in tail:
            mm = tuple(map(add, shift, m))
            acc[mm] = acc.get(mm, 0) + sign * c
    return acc


def _update_pairs(
    G: set[int],
    pairs: dict[tuple[int, int], Mono],
    h: int,
    lms: dict[int, Mono],
) -> tuple[set[int], list[tuple[int, int, Mono]]]:
    """Gebauer-Moeller pair update for a new generator ``h``.

    Drops from ``pairs`` (live pair -> lcm) the pairs ``h`` makes redundant
    and returns the new generator set with the new pairs ``(h, g, lcm)``
    that survive the lcm-divisibility and coprimality criteria."""
    mh = lms[h]
    lcm_with = {g: mono_lcm(mh, lms[g]) for g in G}

    def coprime(g: int) -> bool:
        return all(a == 0 or b == 0 for a, b in zip(mh, lms[g]))

    def strictly_divided(g: int, pool: Iterable[int]) -> bool:
        target = lcm_with[g]
        for g2 in pool:
            cand = lcm_with[g2]
            if cand != target and mono_divides(cand, target):
                return True
        return False

    C = set(G)
    D: set[int] = set()
    while C:
        g = C.pop()
        if coprime(g) or not (strictly_divided(g, C) or strictly_divided(g, D)):
            D.add(g)
    for (i, j), lcm_ij in list(pairs.items()):
        if (
            mono_divides(mh, lcm_ij)
            and mono_lcm(lms[i], mh) != lcm_ij
            and mono_lcm(lms[j], mh) != lcm_ij
        ):
            del pairs[(i, j)]
    new = [(h, g, lcm_with[g]) for g in D if not coprime(g)]
    G_new = {g for g in G if not mono_divides(mh, lms[g])}
    G_new.add(h)
    return G_new, new


def buchberger(
    ideal: Ideal,
    order=None,
    budget_secs: Optional[float] = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of ``ideal`` in the ring's (or given) order.

    The result is canonical: monic generators, fully inter-reduced, sorted by
    decreasing leading monomial.  Each input generator is checked to reduce
    to zero against the finished basis.
    """
    ring = ideal.ring if order is None else ideal.ring.with_order(order)
    deadline = _Deadline(budget_secs, "buchberger")
    keyf = ring.order.key
    keys = _HeapKeys(ring.order)
    normalize, invert = _field_ops(ring)
    one = ring.field_.one

    polys = [g.to_ring(ring).as_dict() for g in ideal.generators if not g.is_zero()]
    if not polys:
        return GroebnerBasis(ring, ())

    store: dict[int, tuple[Mono, tuple]] = {}
    lms: dict[int, Mono] = {}
    G: set[int] = set()
    pairs: dict[tuple[int, int], Mono] = {}
    queue: list[tuple[tuple, int, int]] = []
    reducers: list[tuple[Mono, tuple]] = []

    def by_leading_monomial(ids: Iterable[int]) -> list[int]:
        """Generator ids by increasing leading monomial."""
        return sorted(ids, key=lambda g: keys[lms[g]], reverse=True)

    def add_poly(d: dict) -> None:
        nonlocal G, reducers
        h = len(store)
        lm = next(iter(d))  # reduced remainders come out in decreasing order
        store[h] = _reducer(lm, d[lm], list(d.items())[1:], normalize, invert)
        lms[h] = lm
        G, new = _update_pairs(G, pairs, h, lms)
        for i, j, lcm in new:
            pairs[(i, j)] = lcm
            heappush(queue, (keyf(lcm), i, j))
        reducers = [store[g] for g in by_leading_monomial(G)]

    for d in sorted(polys, key=lambda q: min(keys[m] for m in q), reverse=True):
        r = _reduce_full(d, reducers, keys, normalize, deadline)
        if r:
            add_poly(r)

    while queue:
        _, i, j = heappop(queue)
        lcm = pairs.pop((i, j), None)
        if lcm is None:
            continue  # pruned by a later Gebauer-Moeller update
        deadline.check()
        r = _reduce_full(_spoly(store[i], store[j], lcm), reducers, keys, normalize, deadline)
        if r:
            add_poly(r)

    # Minimalize: drop members whose leading monomial another one divides.
    minimal: list[int] = []
    for g in by_leading_monomial(G):
        if any(mono_divides(lms[h], lms[g]) for h in minimal):
            continue
        minimal.append(g)

    # Inter-reduce tails; stored reducers are monic, and a minimal leading
    # monomial is irreducible by the others, so each result is monic.
    reduced: list[dict] = []
    for g in minimal:
        lm, tail = store[g]
        poly = {lm: one}
        poly.update((m, -c) for m, c in tail)
        others = [store[h] for h in minimal if h != g]
        reduced.append(_reduce_full(poly, others, keys, normalize, deadline))

    reduced.reverse()
    basis = tuple(Polynomial(ring, tuple(d.items())) for d in reduced)
    gb = GroebnerBasis(ring, basis)

    # Self-check: every input generator must reduce to zero.
    final = _basis_reducers(gb)
    for d in polys:
        if _reduce_full(d, final, keys, normalize):
            raise RuntimeError("internal error: input generator does not reduce to zero")
    return gb


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of ``p`` modulo the basis."""
    normalize, _ = _field_ops(gb.ring)
    d = _reduce_full(
        p.to_ring(gb.ring).as_dict(), _basis_reducers(gb), _HeapKeys(gb.ring.order), normalize
    )
    return Polynomial(gb.ring, tuple(d.items()))


def is_unit_ideal(ideal: Ideal, budget_secs: Optional[float] = None) -> bool:
    return buchberger(ideal, budget_secs=budget_secs).is_unit()


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
    keep = list(range(k, n))
    # Under a block order a leading monomial free of the eliminated block
    # forces the whole polynomial to be free of it.
    kept = [g for g in gb.basis if all(e == 0 for e in g.leading_monomial()[:k])]
    projected = [g.project(keep) for g in kept]
    small = PolyRing(tuple(ideal.ring.variables[k:]), ideal.ring.field_, ideal.ring.order)
    return Ideal.of(small, [q.to_ring(small) for q in projected])


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

    Strategy: saturate by a random linear combination of the generators of
    ``other`` for two derived seeds; if the two answers agree, accept.  On
    disagreement fall back to iterated per-generator saturation until the
    basis stabilizes.
    """
    from .randomness import SeedStream, derive_seed

    if not other.generators:
        raise ValueError("cannot saturate by the zero ideal")
    ring = ideal.ring

    def combo(s: int) -> Polynomial:
        stream = SeedStream(s)
        while True:
            acc = ring.zero()
            for g in other.generators:
                acc = acc + g * ring.field_.coerce(stream.integer())
            if not acc.is_zero():
                return acc

    first = saturate(ideal, combo(derive_seed(seed, 0)), budget_secs=budget_secs)
    second = saturate(ideal, combo(derive_seed(seed, 1)), budget_secs=budget_secs)
    if first.generators == second.generators:
        return first

    current = ideal
    for _ in range(20):
        before = buchberger(current, budget_secs=budget_secs).basis
        for g in other.generators:
            current = saturate(current, g, budget_secs=budget_secs)
        after = buchberger(current, budget_secs=budget_secs).basis
        if before == after:
            return Ideal.of(ring, after)
    raise RuntimeError("iterated saturation did not stabilize")


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
    monos = qb.monomials
    index = {m: i for i, m in enumerate(monos)}
    dim = len(monos)
    mat = np.zeros((dim, dim), dtype=np.int64)
    keys = _HeapKeys(ring.order)
    normalize, _ = _field_ops(ring)
    reducers = _basis_reducers(gb)
    lms = gb.leading_monomials()
    nf_cache: dict[Mono, dict] = {}
    for col, m in enumerate(monos):
        for i in range(n):
            ci = coefficients[i] % p
            if ci == 0:
                continue
            shifted = list(m)
            shifted[i] += 1
            sm = tuple(shifted)
            if sm in index:
                row = index[sm]
                mat[row, col] = (mat[row, col] + ci) % p
                continue
            nf = nf_cache.get(sm)
            if nf is None:
                if not any(mono_divides(lm, sm) for lm in lms):
                    raise RuntimeError("standard-monomial closure violated")
                nf = _reduce_full({sm: 1}, reducers, keys, normalize)
                nf_cache[sm] = nf
            for mm, cc in nf.items():
                row = index[mm]
                mat[row, col] = (mat[row, col] + ci * cc) % p
    return mat


def count_points(
    ideal: Ideal,
    seed: int,
    budget_secs: Optional[float] = None,
) -> int:
    """Number of distinct solutions of a zero-dimensional system over the
    algebraic closure of the ideal's prime field.

    Counts distinct eigenvalues of a seeded random linear form acting on the
    quotient algebra: the squarefree part of its minimal polynomial (the lcm
    of two Krylov-vector minimal polynomials) has one root per solution once
    the form separates the points.
    """
    from .randomness import SeedStream

    fld = ideal.ring.field_
    if not isinstance(fld, PrimeField):
        raise TypeError("count_points requires a prime-field ideal")
    p = fld.p
    if p > MAX_MATRIX_PRIME:
        raise ValueError(
            f"characteristic {p} is above {MAX_MATRIX_PRIME}: residue products "
            "would overflow 64-bit integers"
        )
    gb = buchberger(ideal, budget_secs=budget_secs)
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
    coeffs = [stream.nonzero_residue(p) for _ in range(ideal.ring.nvars)]
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
