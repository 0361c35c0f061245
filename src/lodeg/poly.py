"""Sparse multivariate polynomials over the rationals or a large prime field.

A monomial is one Python ``int``: its exponents packed into digits in the
layout of the ring's variable count and monomial order (:class:`_Packing`;
layout in "Packed monomials" in ``groebner``).  The layout is the only
definition of the monomial orders: packed ints compare as the order, and a
product of monomials is the sum of their ints.  A polynomial stores its
terms as a tuple of (packed monomial, coefficient) pairs by strictly
decreasing int, so equal polynomials compare equal and hash equal.
Coefficients are ``Fraction`` values over the rationals and plain ``int``
residues in ``[0, p)`` over a prime field.

Exponent tuples (``Mono``) appear only where a polynomial changes rings
(:meth:`PolyRing.from_terms` of :meth:`Polynomial.as_dict`), where it is
parsed or printed, and in the tuple-valued queries
(:meth:`Polynomial.leading_monomial`, :meth:`Polynomial.coefficient`,
:meth:`Polynomial.as_dict`).

Width guard.  Every monomial of a polynomial keeps each digit below
``PACK_LIMIT``: a sum, product, power, derivative, substitution or parse
whose result has a digit at or above it raises
:class:`DegreeLimitExceeded`.  The sum of two such digits stays below the
guard bit, so a product of two polynomials never wraps a digit before it is
checked.

Internally, a :class:`ResidueRing` stands for several prime fields at once:
the integers modulo the product of distinct primes (see "Several primes at
once" in ``groebner``).
"""

from __future__ import annotations

import functools
import math
import operator
import re
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

Mono = tuple[int, ...]

# Exponents far beyond anything a sane computation produces; additions are
# checked against this cap at the API boundary (parse, pow, homogenize).
MAX_EXPONENT = 1 << 30

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@functools.cache
def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for word-sized integers; kept per ``n``,
    as every grid evaluation builds its fields anew."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class InputError(ValueError):
    """Base of every failure caused by what the user supplied: the input
    file, a flag or explicit data.  Any other ``ValueError`` is a bug."""


class CoefficientError(InputError):
    """A coefficient could not be coerced into the requested field."""


class SplitModulus(ArithmeticError):
    """A computation modulo a product of primes reached a step whose
    outcome may differ from prime to prime: a residue to invert, or a
    polynomial to test for zero, vanishes modulo some of the primes but not
    all; or a check failed, which one prime at a time may fail differently.
    The caller reruns the computation one prime at a time."""


@dataclass(frozen=True)
class Rationals:
    """Exact rational coefficients."""

    def coerce(self, value: Union[int, Fraction, str]) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise CoefficientError(f"cannot coerce {value!r} into the rationals")

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def invert(self, value: Fraction) -> Fraction:
        if value == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / value

    def __str__(self) -> str:
        return "QQ"


@dataclass(frozen=True)
class PrimeField:
    """Integers modulo an odd prime larger than 2**30 and smaller than 2**64.

    Residues are always reduced to ``[0, p)``.  The lower bound keeps
    Schwartz-Zippel failure probabilities negligible for the seeded random
    evaluations performed elsewhere in the package; the upper one lets a
    residue be drawn from one 64-bit word of a ``SeedStream``.
    """

    p: int

    def __post_init__(self) -> None:
        if not 1 << 30 < self.p < 1 << 64 or self.p % 2 == 0 or not is_probable_prime(self.p):
            raise CoefficientError(
                f"characteristic must be an odd prime between 2**30 and 2**64, got {self.p}"
            )

    def coerce(self, value: Union[int, Fraction]) -> int:
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise CoefficientError(
                    f"denominator {value.denominator} vanishes modulo {self.p}"
                )
            return value.numerator * pow(den, -1, self.p) % self.p
        raise CoefficientError(f"cannot coerce {value!r} into GF({self.p})")

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def invert(self, value: int) -> int:
        if value % self.p == 0:
            raise ZeroDivisionError("inverse of zero residue")
        return pow(value, -1, self.p)

    def __str__(self) -> str:
        return f"GF({self.p})"


@dataclass(frozen=True)
class ResidueRing(PrimeField):
    """Integers modulo ``p``, the product of two or more distinct primes
    ``primes``, each a valid :class:`PrimeField` characteristic.

    By the Chinese remainder theorem one computation here is one
    computation modulo each prime, as long as it never inverts a residue
    that is not a unit: :meth:`invert` and :meth:`coerce` raise
    :class:`SplitModulus` for one.  Arithmetic is that of
    :class:`PrimeField` with the product as ``p``.  Internal: built by
    :func:`residue_ring` for the agreement grid.
    """

    primes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for q in self.primes:
            PrimeField(q)
        distinct = len(set(self.primes))
        if distinct < 2 or distinct != len(self.primes) or math.prod(self.primes) != self.p:
            raise ValueError(f"{self.p} is not a product of distinct primes {self.primes}")

    def coerce(self, value: Union[int, Fraction]) -> int:
        # An int is tested first: it is the common case, and cheaper to test.
        if not isinstance(value, int) and isinstance(value, Fraction):
            if math.gcd(value.denominator, self.p) != 1:
                raise SplitModulus(f"denominator {value.denominator} is not a unit modulo {self}")
        return super().coerce(value)

    def invert(self, value: int) -> int:
        try:
            return pow(value, -1, self.p)
        except ValueError:
            if value % self.p == 0:
                raise ZeroDivisionError("inverse of zero residue") from None
            raise SplitModulus(f"{value % self.p} is not a unit modulo {self}") from None

    def __str__(self) -> str:
        return f"Z/({'*'.join(map(str, self.primes))})"


def residue_ring(primes: Sequence[int]) -> PrimeField:
    """GF(p) for one distinct prime, else the :class:`ResidueRing` of the
    distinct primes in their order; every prime is validated as by
    :class:`PrimeField`."""
    distinct = tuple(dict.fromkeys(primes))
    if len(distinct) == 1:
        return PrimeField(distinct[0])
    return ResidueRing(math.prod(distinct), distinct)


FieldT = Union[Rationals, PrimeField]
CoefT = Union[Fraction, int]

QQ = Rationals()


# ---------------------------------------------------------------------------
# Monomial orders
# ---------------------------------------------------------------------------
#
# An order names a packed layout (:class:`_Packing`), which is its only
# definition: packed monomials compare as the order.


@dataclass(frozen=True)
class Grevlex:
    """Graded reverse lexicographic order."""

    name: str = field(default="grevlex", init=False)


@dataclass(frozen=True)
class Lex:
    """Pure lexicographic order, first variable strongest."""

    name: str = field(default="lex", init=False)


@dataclass(frozen=True)
class BlockOrder:
    """Eliminates the first ``k`` variables: lex between the two blocks,
    grevlex inside each block."""

    k: int
    name: str = field(default="block", init=False)


OrderT = Union[Grevlex, Lex, BlockOrder]

GREVLEX = Grevlex()
LEX = Lex()


def block_order(k: int) -> BlockOrder:
    if k < 1:
        raise ValueError("block order needs at least one eliminated variable")
    return BlockOrder(k)


# ---------------------------------------------------------------------------
# Packed monomials
# ---------------------------------------------------------------------------

# Width of one digit of a packed monomial (that of struct's "H"), and the
# bound every digit of a polynomial's monomial stays below (see "Width
# guard" above and in ``groebner``).
PACK_DIGIT_BITS = 16
PACK_LIMIT = 1 << (PACK_DIGIT_BITS - 2)


class DegreeLimitExceeded(InputError):
    """A monomial outgrew packed exponents: an input-size limit (see
    "Width guard" in ``groebner``)."""

    def __init__(self) -> None:
        super().__init__(
            f"a monomial reached degree {PACK_LIMIT}; Groebner computations "
            f"need degrees below {PACK_LIMIT} (under a block order, each block's "
            "degree; under lex, each exponent)"
        )


def _repeat(digit: int, count: int) -> int:
    """``digit`` in each of the low ``count`` digits."""
    return sum(digit << (PACK_DIGIT_BITS * i) for i in range(count))


class _Packing:
    """Packed monomials of ``n`` variables under one order (layout in the
    ``groebner`` docstring); every ring keeps the one of its variable count
    and order as :attr:`PolyRing.packing`."""

    def __init__(self, n: int, order: OrderT) -> None:
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
        # Shift to each block's degree, the top digit of its weight rows.
        self.tops: list[int] = []
        start = 0
        for s in sizes:
            self.spans.append((start, start + s))
            self.blocks.append((start * w, _repeat(digit, s), _repeat(1, s), s * w))
            self.tops.append(w * (2 * n - 1 - start))
            start += s
        self.digit_mask = digit
        self.exp_bits = n * w
        self.low = _repeat(digit, n)
        self.low_guard = _repeat(1 << (w - 1), n)
        self.guard = _repeat(1 << (w - 1), 2 * n)
        self.over = _repeat(3 << (w - 2), 2 * n)
        self.shifts = tuple(w * i for i in range(n))
        self.variables = tuple(self.from_exponents(1 << s) for s in self.shifts)
        self.digits = struct.Struct(f"<{n}H")

    def from_exponents(self, e: int) -> int:
        """Packed monomial of the exponent digits ``e``; its weight rows
        must stay below one digit."""
        rows = 0
        for shift, mask, ones, width in self.blocks:
            rows = (rows << width) | (((e >> shift) & mask) * ones & mask)
        return (rows << self.exp_bits) | e

    def pack(self, m: Mono) -> int:
        if sum(m) >= PACK_LIMIT and max(sum(m[a:b]) for a, b in self.spans) >= PACK_LIMIT:
            raise DegreeLimitExceeded()
        return self.from_exponents(int.from_bytes(self.digits.pack(*m), "little"))

    def unpack(self, p: int) -> Mono:
        return self.digits.unpack((p & self.low).to_bytes(self.digits.size, "little"))

    def degree(self, p: int) -> int:
        """Total degree: the sum of the block degrees."""
        return sum((p >> top) & self.digit_mask for top in self.tops)

    def divides(self, a: int, b: int) -> bool:
        return ((b | self.guard) - a) & self.guard == self.guard

    def lcm(self, a: int, b: int) -> int:
        low, low_guard = self.low, self.low_guard
        ea, eb = a & low, b & low
        ge = ((ea | low_guard) - eb) & low_guard  # guard bit where ea >= eb
        take_a = ge - (ge >> (PACK_DIGIT_BITS - 1))  # those digits' value bits
        return self.from_exponents(eb ^ ((ea ^ eb) & take_a))


# The layout depends on the variable count and the order only, so rings of
# any names and field share it.
_layout = functools.cache(_Packing)


def substitute(
    polys: Sequence["Polynomial"], target: "PolyRing", images: Sequence["Polynomial"]
) -> list["Polynomial"]:
    """``g(images)`` for each ``g`` of ``polys``: the polynomial of
    ``target`` that replaces variable ``i`` by ``images[i]``.  The images
    set the target ring, which may drop variables or add new ones.

    The powers of the images are computed once for all of ``polys``, and
    every power and partial product is checked against the width guard
    before it is multiplied again, so no digit wraps.
    """
    if any(q.ring != target for q in images) or any(
        g.ring.nvars != len(images) or g.ring.field_ != target.field_ for g in polys
    ):
        raise ValueError("substitution needs one image per variable, all in the target ring")
    p = _modulus(target.field_)
    over = target.packing.over
    powers = {(i, 1): dict(q.terms) for i, q in enumerate(images)}

    def power(i: int, e: int) -> dict:
        if (i, e) not in powers:
            square = _dict_product({}, power(i, e // 2), power(i, e - e // 2))
            powers[i, e] = _reduced(square, p, over)
        return powers[i, e]

    one = {0: target.field_.one}
    out = []
    for g in polys:
        unpack = g.ring.packing.unpack
        acc: dict = {}
        for m, c in g.terms:
            factors = [(i, e) for i, e in enumerate(unpack(m)) if e]
            product = {0: c}
            for i, e in factors[:-1]:
                product = _reduced(_dict_product({}, product, power(i, e)), p, over)
            _dict_product(acc, product, power(*factors[-1]) if factors else one)
        out.append(target.from_dict(acc))
    return out


# ---------------------------------------------------------------------------
# Ring and polynomial
# ---------------------------------------------------------------------------


class ParseError(InputError):
    """Raised on malformed polynomial text; carries the character offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class PolyRing:
    """A polynomial ring context: named variables, a field, an active order,
    and the packed layout of its monomials (:attr:`packing`)."""

    variables: tuple[str, ...]
    field_: FieldT = QQ
    order: OrderT = GREVLEX
    packing: _Packing = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.variables:
            raise InputError("a polynomial ring needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise InputError(f"duplicate variable names in {self.variables}")
        object.__setattr__(self, "packing", _layout(len(self.variables), self.order))

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: Union[int, Fraction]) -> "Polynomial":
        cc = self.field_.coerce(c)
        if cc == self.field_.zero:
            return self.zero()
        return Polynomial(self, ((0, cc),))

    def gen(self, i: int) -> "Polynomial":
        return Polynomial(self, ((self.packing.variables[i], self.field_.one),))

    def from_dict(self, d: Mapping[int, CoefT]) -> "Polynomial":
        """The polynomial of a dict keyed by packed monomials of this ring:
        coefficients reduced, zeros dropped, the width guard checked, and
        the terms ordered by one sort of the packed ints."""
        d = _reduced(d, _modulus(self.field_), self.packing.over)
        return Polynomial(self, tuple(sorted(d.items(), reverse=True)))

    def from_terms(self, pairs: Iterable[tuple[Mono, Union[int, Fraction]]]) -> "Polynomial":
        """The polynomial of (exponent tuple, coefficient) pairs, repeated
        monomials summed."""
        pack, coerce = self.packing.pack, self.field_.coerce
        acc: dict[int, CoefT] = {}
        for m, c in pairs:
            if len(m) != self.nvars:
                raise ValueError(f"monomial {m} has wrong arity for {self.variables}")
            k = pack(m)
            acc[k] = acc.get(k, 0) + coerce(c)
        return self.from_dict(acc)

    def parse(self, text: str) -> "Polynomial":
        return _parse_polynomial(text, self)

    def with_order(self, order: OrderT) -> "PolyRing":
        return PolyRing(self.variables, self.field_, order)

    def with_field(self, fld: FieldT) -> "PolyRing":
        return PolyRing(self.variables, fld, self.order)


@dataclass(frozen=True)
class Polynomial:
    """Immutable sparse polynomial; ``terms`` are (packed monomial,
    coefficient) pairs by strictly decreasing monomial, with no zero
    coefficients."""

    ring: PolyRing
    terms: tuple[tuple[int, CoefT], ...]

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def vanishes(self) -> bool:
        """Whether the polynomial is zero, for a caller that branches on it.

        Over a :class:`ResidueRing`, a polynomial that is zero modulo some
        of the primes but not all raises :class:`SplitModulus`: those
        primes, one at a time, would take the other branch.  It is zero
        modulo exactly the primes that divide every coefficient."""
        if not self.terms:
            return True
        fld = self.ring.field_
        if isinstance(fld, ResidueRing) and math.gcd(fld.p, *(c for _, c in self.terms)) != 1:
            raise SplitModulus(f"a polynomial vanishes modulo some factors of {fld}")
        return False

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == 0)

    def total_degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return max(map(self.ring.packing.degree, (m for m, _ in self.terms)), default=-1)

    def is_homogeneous(self) -> bool:
        degree = self.ring.packing.degree
        return len({degree(m) for m, _ in self.terms}) <= 1

    def leading_monomial(self) -> Mono:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.ring.packing.unpack(self.terms[0][0])

    def leading_coefficient(self) -> CoefT:
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def constant_coefficient(self) -> CoefT:
        # The monomial 1 packs to 0, the least of all.
        if self.terms and self.terms[-1][0] == 0:
            return self.terms[-1][1]
        return self.ring.field_.zero

    def coefficient(self, m: Mono) -> CoefT:
        key = self.ring.packing.pack(m)
        return next((c for mm, c in self.terms if mm == key), self.ring.field_.zero)

    def as_dict(self) -> dict[Mono, CoefT]:
        """The terms keyed by exponent tuples, in decreasing order."""
        unpack = self.ring.packing.unpack
        return {unpack(m): c for m, c in self.terms}

    # -- arithmetic ------------------------------------------------------

    def _binary_ring(self, other: "Polynomial") -> PolyRing:
        if self.ring != other.ring:
            raise ValueError("polynomials live in different rings")
        return self.ring

    def __add__(self, other: Union["Polynomial", int, Fraction]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        ring = self._binary_ring(other)
        return ring.from_dict(_dict_sum(dict(self.terms), dict(other.terms)))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        p = _modulus(self.ring.field_)
        return Polynomial(self.ring, tuple((m, -c % p if p else -c) for m, c in self.terms))

    def __sub__(self, other: Union["Polynomial", int, Fraction]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other: Union[int, Fraction]) -> "Polynomial":
        return self.ring.constant(other) - self

    def __mul__(self, other: Union["Polynomial", int, Fraction]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        ring = self._binary_ring(other)
        return ring.from_dict(_dict_product({}, dict(self.terms), dict(other.terms)))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined here")
        ring = self.ring
        one = {0: ring.field_.one}
        return ring.from_dict(
            _dict_power(dict(self.terms), exponent, one, _modulus(ring.field_), ring.packing)
        )

    # -- calculus and ring changes ---------------------------------------

    def partial(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to variable ``i``."""
        pk = self.ring.packing
        x, shift = pk.variables[i], pk.shifts[i]
        acc = {}
        for m, c in self.terms:
            e = (m >> shift) & pk.digit_mask
            if e:
                acc[m - x] = c * e
        return self.ring.from_dict(acc)

    def homogenize(self, name: str) -> "Polynomial":
        """Homogenize with a fresh variable prepended as the new first one."""
        if name in self.ring.variables:
            raise ValueError(f"homogenizing variable {name!r} already in ring")
        new_ring = PolyRing((name,) + self.ring.variables, self.ring.field_, self.ring.order)
        deg = self.total_degree()
        return new_ring.from_terms(((deg - sum(m),) + m, c) for m, c in self.as_dict().items())

    def to_ring(self, target: PolyRing) -> "Polynomial":
        """Recoerce into a ring with the same variable names (field or order
        may differ).  A field change alone keeps the packed monomials and
        their order and coerces the coefficients."""
        if target.variables != self.ring.variables:
            raise ValueError("target ring has different variables")
        if target == self.ring:
            return self
        if target.packing is self.ring.packing:
            coerce = target.field_.coerce
            return Polynomial(target, tuple((m, cc) for m, c in self.terms if (cc := coerce(c))))
        return target.from_terms(self.as_dict().items())

    # -- printing --------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        fld = self.ring.field_
        chunks: list[str] = []
        for idx, (m, c) in enumerate(self.as_dict().items()):
            if isinstance(fld, Rationals) and c < 0:
                sign = "-"
                mag = -c
            else:
                sign = "+"
                mag = c
            body = _format_term(mag, m, self.ring.variables)
            if idx == 0:
                chunks.append(body if sign == "+" else f"-{body}")
            else:
                chunks.append(f" {sign} {body}")
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _modulus(fld: FieldT) -> Optional[int]:
    """The modulus coefficients are reduced by; ``None`` over the rationals."""
    return fld.p if isinstance(fld, PrimeField) else None


# Polynomials as dicts from packed monomials to coefficients.  Sums and
# products leave coefficients unreduced; :func:`_reduced` reduces them mod
# ``p`` (``None`` over the rationals, where exact ints stay ints) and
# checks the width guard.


def _reduced(d: dict, p: Optional[int], over: int) -> dict:
    """``d`` with coefficients reduced and zeros dropped; a monomial left
    with a digit at or above ``PACK_LIMIT`` (a bit of ``over``) raises
    :class:`DegreeLimitExceeded`."""
    if p:
        d = {m: r for m, c in d.items() if (r := c % p)}
    else:
        d = {m: c for m, c in d.items() if c}
    if functools.reduce(operator.or_, d, 0) & over:
        raise DegreeLimitExceeded()
    return d


def _dict_sum(a: dict, b: dict, sign: int = 1) -> dict:
    acc = dict(a)
    for m, c in b.items():
        acc[m] = acc.get(m, 0) + sign * c
    return acc


def _dict_product(acc: dict, a: dict, b: dict) -> dict:
    """``acc += a*b``, returning ``acc``: a product of monomials is the sum
    of their packed ints."""
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            acc[m] = acc.get(m, 0) + ca * cb
    return acc


def _dict_power(a: dict, e: int, one: dict, p: Optional[int], pk: _Packing) -> dict:
    """``a**e`` by repeated squaring, every product reduced and checked;
    ``one`` is the dict of 1."""
    if e * max(map(pk.degree, a), default=0) > MAX_EXPONENT:
        raise OverflowError("exponent overflow in polynomial power")
    result = one
    while e:
        if e & 1:
            result = _reduced(_dict_product({}, result, a), p, pk.over)
        e >>= 1
        if e:
            a = _reduced(_dict_product({}, a, a), p, pk.over)
    return result


def _format_term(coeff: CoefT, m: Mono, names: tuple[str, ...]) -> str:
    factors: list[str] = []
    for name, e in zip(names, m):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    if not factors:
        return str(coeff)
    if coeff == 1:
        return "*".join(factors)
    return "*".join([str(coeff)] + factors)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>\*\*|[-+*^()/]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup is None:  # trailing whitespace
            break
        kind, value = match.lastgroup, match.group(match.lastgroup)
        tokens.append((kind, "^" if value == "**" else value, match.start(kind)))
        pos = match.end()
    return tokens


class _Parser:
    """Recursive descent whose values are reduced dicts keyed by packed
    monomials (:func:`_reduced`), so the width guard holds for every
    intermediate value; a ``Fraction`` only comes from an ``a/b`` literal,
    coerced where it stands over a prime field.  One polynomial is built at
    the end."""

    def __init__(self, tokens: list[tuple[str, str, int]], ring: PolyRing, length: int) -> None:
        self.tokens = tokens
        self.ring = ring
        self.pos = 0
        self.length = length
        self.p = _modulus(ring.field_)
        self.one = {0: 1}

    def reduced(self, d: dict) -> dict:
        return _reduced(d, self.p, self.ring.packing.over)

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.length)
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.advance()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r}", tok[2])

    def parse(self) -> Polynomial:
        value = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        fld = self.ring.field_
        return self.ring.from_dict({m: fld.coerce(c) for m, c in value.items()})

    def at(self, ops: str) -> bool:
        """Whether the next token is one of the operators ``ops``."""
        tok = self.peek()
        return tok is not None and tok[0] == "op" and tok[1] in ops

    def expr(self) -> dict:
        result = self.term()
        while self.at("+-"):
            sign = 1 if self.advance()[1] == "+" else -1
            result = self.reduced(_dict_sum(result, self.term(), sign))
        return result

    def term(self) -> dict:
        result = self.power()
        while self.at("*"):
            self.advance()
            result = self.reduced(_dict_product({}, result, self.power()))
        return result

    def power(self) -> dict:
        """A run of ``+``/``-`` signs, then an atom and its exponent: the
        signs apply to the whole power, so ``x*-y^2`` is ``x*(-(y^2))``."""
        negate = False
        while self.at("+-"):
            negate ^= self.advance()[1] == "-"
        value = self.atom()
        if self.at("^"):
            self.advance()
            if self.at("-"):
                raise ParseError("negative exponents are not allowed", self.peek()[2])
            etok = self.advance()
            if etok[0] != "int":
                raise ParseError("exponent must be a non-negative integer", etok[2])
            exponent = int(etok[1])
            if exponent > MAX_EXPONENT:
                raise ParseError("exponent too large", etok[2])
            value = _dict_power(value, exponent, self.one, self.p, self.ring.packing)
        return self.reduced(_dict_sum({}, value, -1)) if negate else value

    def atom(self) -> dict:
        tok = self.advance()
        kind, value, where = tok
        if kind == "int":
            literal: CoefT = int(value)
            if self.at("/"):
                self.advance()
                dtok = self.advance()
                if dtok[0] != "int":
                    raise ParseError("rational literal needs an integer denominator", dtok[2])
                denominator = int(dtok[1])
                if denominator == 0:
                    raise ParseError("zero denominator", dtok[2])
                literal = Fraction(literal, denominator)
                if self.p:
                    literal = self.ring.field_.coerce(literal)
            return self.reduced({0: literal})
        if kind == "name":
            try:
                index = self.ring.variables.index(value)
            except ValueError:
                raise ParseError(f"unknown identifier {value!r}", where) from None
            return {self.ring.packing.variables[index]: 1}
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {value!r}", where)


def _parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial", 0)
    return _Parser(tokens, ring, len(text)).parse()


def parse_polynomial(text: str, variables: Sequence[str], field_: FieldT = QQ) -> Polynomial:
    """Parse ``text`` over the given variables; grevlex is the active order."""
    return PolyRing(tuple(variables), field_).parse(text)


def fresh_names(prefix: str, count: int, taken: Iterable[str]) -> list[str]:
    """Generate ``count`` names ``prefix0..`` avoiding collisions with ``taken``."""
    avoid = set(taken)
    suffix = ""
    while avoid.intersection(f"{prefix}{suffix}{i}" for i in range(count)):
        suffix += "_"
    return [f"{prefix}{suffix}{i}" for i in range(count)]


def fresh_name(base: str, taken: Iterable[str]) -> str:
    avoid = set(taken)
    name = base
    while name in avoid:
        name += "_"
    return name
