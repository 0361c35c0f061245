"""Sparse multivariate polynomials over the rationals or a large prime field.

Monomials are plain exponent tuples.  A polynomial stores its terms as a
tuple of (monomial, coefficient) pairs kept strictly decreasing in the
ring's active monomial order, so equal polynomials compare equal and hash
equal.  Coefficients are ``Fraction`` values over the rationals and plain
``int`` residues in ``[0, p)`` over a prime field.

Internally, a :class:`ResidueRing` stands for several prime fields at once:
the integers modulo the product of distinct primes (see "Several primes at
once" in ``groebner``).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

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
    """Integers modulo an odd prime larger than 2**30.

    Residues are always reduced to ``[0, p)``.  The size bound keeps
    Schwartz-Zippel failure probabilities negligible for the seeded random
    evaluations performed elsewhere in the package.
    """

    p: int

    def __post_init__(self) -> None:
        if self.p <= (1 << 30) or self.p % 2 == 0 or not is_probable_prime(self.p):
            raise CoefficientError(
                f"characteristic must be an odd prime above 2**30, got {self.p}"
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
        if isinstance(value, Fraction) and math.gcd(value.denominator, self.p) != 1:
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


@dataclass(frozen=True)
class Grevlex:
    """Graded reverse lexicographic order."""

    name: str = field(default="grevlex", init=False)

    def key(self, m: Mono):
        return (sum(m), tuple(-e for e in reversed(m)))


@dataclass(frozen=True)
class Lex:
    """Pure lexicographic order, first variable strongest."""

    name: str = field(default="lex", init=False)

    def key(self, m: Mono):
        return m


@dataclass(frozen=True)
class BlockOrder:
    """Eliminates the first ``k`` variables: lex between the two blocks,
    grevlex inside each block."""

    k: int
    name: str = field(default="block", init=False)

    def key(self, m: Mono):
        head, tail = m[: self.k], m[self.k :]
        return (
            sum(head),
            tuple(-e for e in reversed(head)),
            sum(tail),
            tuple(-e for e in reversed(tail)),
        )


OrderT = Union[Grevlex, Lex, BlockOrder]

GREVLEX = Grevlex()
LEX = Lex()


def block_order(k: int) -> BlockOrder:
    if k < 1:
        raise ValueError("block order needs at least one eliminated variable")
    return BlockOrder(k)


# ---------------------------------------------------------------------------
# Monomial helpers
# ---------------------------------------------------------------------------


def mono_divides(a: Mono, b: Mono) -> bool:
    """True when ``a`` divides ``b``."""
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


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
    """A polynomial ring context: named variables, a field, an active order."""

    variables: tuple[str, ...]
    field_: FieldT = QQ
    order: OrderT = GREVLEX

    def __post_init__(self) -> None:
        if not self.variables:
            raise InputError("a polynomial ring needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise InputError(f"duplicate variable names in {self.variables}")

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
        return Polynomial(self, (((0,) * self.nvars, cc),))

    def gen(self, i: int) -> "Polynomial":
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, ((tuple(e), self.field_.one),))

    def from_dict(self, d: Mapping[Mono, CoefT]) -> "Polynomial":
        zero = self.field_.zero
        items = [(m, c) for m, c in d.items() if c != zero]
        items.sort(key=lambda mc: self.order.key(mc[0]), reverse=True)
        return Polynomial(self, tuple(items))

    def from_terms(self, pairs: Iterable[tuple[Mono, Union[int, Fraction]]]) -> "Polynomial":
        acc: dict[Mono, CoefT] = {}
        fld = self.field_
        for m, c in pairs:
            if len(m) != self.nvars:
                raise ValueError(f"monomial {m} has wrong arity for {self.variables}")
            cc = fld.coerce(c)
            prev = acc.get(m)
            if prev is None:
                acc[m] = cc
            else:
                s = prev + cc
                if isinstance(fld, PrimeField):
                    s %= fld.p
                acc[m] = s
        return self.from_dict(acc)

    def parse(self, text: str) -> "Polynomial":
        return _parse_polynomial(text, self)

    def with_order(self, order: OrderT) -> "PolyRing":
        return PolyRing(self.variables, self.field_, order)

    def with_field(self, fld: FieldT) -> "PolyRing":
        return PolyRing(self.variables, fld, self.order)


@dataclass(frozen=True)
class Polynomial:
    """Immutable sparse polynomial; ``terms`` strictly decreasing in the
    ring's active order with no zero coefficients."""

    ring: PolyRing
    terms: tuple[tuple[Mono, CoefT], ...]

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
        return not self.terms or (len(self.terms) == 1 and sum(self.terms[0][0]) == 0)

    def total_degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {sum(m) for m, _ in self.terms}
        return len(degs) == 1

    def leading_monomial(self) -> Mono:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def leading_coefficient(self) -> CoefT:
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def constant_coefficient(self) -> CoefT:
        return self.coefficient((0,) * self.ring.nvars)

    def coefficient(self, m: Mono) -> CoefT:
        for mm, c in self.terms:
            if mm == m:
                return c
        return self.ring.field_.zero

    def as_dict(self) -> dict[Mono, CoefT]:
        return dict(self.terms)

    # -- arithmetic ------------------------------------------------------

    def _binary_ring(self, other: "Polynomial") -> PolyRing:
        if self.ring != other.ring:
            raise ValueError("polynomials live in different rings")
        return self.ring

    def __add__(self, other: Union["Polynomial", int, Fraction]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        ring = self._binary_ring(other)
        fld = ring.field_
        acc = dict(self.terms)
        if isinstance(fld, PrimeField):
            p = fld.p
            for m, c in other.terms:
                acc[m] = (acc.get(m, 0) + c) % p
        else:
            for m, c in other.terms:
                acc[m] = acc.get(m, fld.zero) + c
        return ring.from_dict(acc)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        fld = self.ring.field_
        if isinstance(fld, PrimeField):
            p = fld.p
            return Polynomial(self.ring, tuple((m, (-c) % p) for m, c in self.terms))
        return Polynomial(self.ring, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: Union["Polynomial", int, Fraction]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other: Union[int, Fraction]) -> "Polynomial":
        return self.ring.constant(other) - self

    def __mul__(self, other: Union["Polynomial", int, Fraction]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            cc = self.ring.field_.coerce(other)
            if cc == self.ring.field_.zero:
                return self.ring.zero()
            fld = self.ring.field_
            if isinstance(fld, PrimeField):
                p = fld.p
                return Polynomial(self.ring, tuple((m, c * cc % p) for m, c in self.terms))
            return Polynomial(self.ring, tuple((m, c * cc) for m, c in self.terms))
        ring = self._binary_ring(other)
        acc: dict[Mono, CoefT] = {}
        _add_products(acc, self.terms, other.terms, ring.field_)
        return ring.from_dict(acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined here")
        if exponent * max(self.total_degree(), 0) > MAX_EXPONENT:
            raise OverflowError("exponent overflow in polynomial power")
        result = None
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            base = base * base if e > 1 else base
            e >>= 1
        return self.ring.one() if result is None else result

    # -- calculus and evaluation ----------------------------------------

    def partial(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to variable ``i``."""
        fld = self.ring.field_
        acc: dict[Mono, CoefT] = {}
        for m, c in self.terms:
            e = m[i]
            if e == 0:
                continue
            dm = list(m)
            dm[i] = e - 1
            cc = c * e
            if isinstance(fld, PrimeField):
                cc %= fld.p
            acc[tuple(dm)] = cc
        return self.ring.from_dict(acc)

    def homogenize(self, name: str) -> "Polynomial":
        """Homogenize with a fresh variable prepended as the new first one."""
        if name in self.ring.variables:
            raise ValueError(f"homogenizing variable {name!r} already in ring")
        new_ring = PolyRing((name,) + self.ring.variables, self.ring.field_, self.ring.order)
        if not self.terms:
            return new_ring.zero()
        deg = self.total_degree()
        if deg > MAX_EXPONENT:
            raise OverflowError("exponent overflow in homogenization")
        pairs = [((deg - sum(m),) + m, c) for m, c in self.terms]
        return new_ring.from_dict(dict(pairs))

    def substitute(self, target: PolyRing, images: Sequence["Polynomial"]) -> "Polynomial":
        """The polynomial of ``target`` that replaces variable ``i`` by
        ``images[i]``; the images set the target ring, which may drop
        variables or add new ones."""
        fld = self.ring.field_
        if (
            len(images) != self.ring.nvars
            or target.field_ != fld
            or any(q.ring != target for q in images)
        ):
            raise ValueError("substitution needs one image per variable, all in the target ring")
        acc: dict[Mono, CoefT] = {}
        powers: dict[tuple[int, int], tuple] = {}
        one = (((0,) * target.nvars, fld.one),)
        for m, c in self.terms:
            factors = []
            for i, e in enumerate(m):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = (images[i] ** e).terms
                    factors.append(powers[i, e])
            product = (((0,) * target.nvars, c),)
            for factor in factors[:-1]:
                step: dict[Mono, CoefT] = {}
                _add_products(step, product, factor, fld)
                product = step.items()
            _add_products(acc, product, factors[-1] if factors else one, fld)
        return target.from_dict(acc)

    def to_ring(self, target: PolyRing) -> "Polynomial":
        """Recoerce into a ring with the same variable names (field or order may differ)."""
        if target.variables != self.ring.variables:
            raise ValueError("target ring has different variables")
        return target.from_terms(self.terms)

    # -- printing --------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        fld = self.ring.field_
        chunks: list[str] = []
        for idx, (m, c) in enumerate(self.terms):
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


def _add_products(acc: dict, a: Iterable, b: Sequence, fld: FieldT) -> None:
    """``acc += a * b`` for polynomials given as (monomial, coefficient) pairs."""
    if isinstance(fld, PrimeField):
        p = fld.p
        for ma, ca in a:
            for mb, cb in b:
                m = tuple(x + y for x, y in zip(ma, mb))
                acc[m] = (acc.get(m, 0) + ca * cb) % p
    else:
        zero = fld.zero
        for ma, ca in a:
            for mb, cb in b:
                m = tuple(x + y for x, y in zip(ma, mb))
                acc[m] = acc.get(m, zero) + ca * cb


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

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()/]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup is None:  # trailing whitespace
            break
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], ring: PolyRing, length: int) -> None:
        self.tokens = tokens
        self.ring = ring
        self.pos = 0
        self.length = length

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
        poly = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return poly

    def expr(self) -> Polynomial:
        result = self.term()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                return result
            self.advance()
            rhs = self.term()
            result = result + rhs if tok[1] == "+" else result - rhs

    def term(self) -> Polynomial:
        negate = False
        while True:
            tok = self.peek()
            if tok is not None and tok[0] == "op" and tok[1] == "-":
                self.advance()
                negate = not negate
            else:
                break
        result = self.power()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] != "*":
                break
            self.advance()
            result = result * self.power()
        return -result if negate else result

    def power(self) -> Polynomial:
        base = self.atom()
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "^":
            self.advance()
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "-":
                raise ParseError("negative exponents are not allowed", nxt[2])
            etok = self.advance()
            if etok[0] != "int":
                raise ParseError("exponent must be a non-negative integer", etok[2])
            exponent = int(etok[1])
            if exponent > MAX_EXPONENT:
                raise ParseError("exponent too large", etok[2])
            return base ** exponent
        return base

    def atom(self) -> Polynomial:
        tok = self.advance()
        kind, value, where = tok
        if kind == "int":
            numerator = int(value)
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "/":
                self.advance()
                dtok = self.advance()
                if dtok[0] != "int":
                    raise ParseError("rational literal needs an integer denominator", dtok[2])
                denominator = int(dtok[1])
                if denominator == 0:
                    raise ParseError("zero denominator", dtok[2])
                return self.ring.constant(Fraction(numerator, denominator))
            return self.ring.constant(numerator)
        if kind == "name":
            try:
                index = self.ring.variables.index(value)
            except ValueError:
                raise ParseError(f"unknown identifier {value!r}", where) from None
            return self.ring.gen(index)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "op" and value == "-":
            return -self.atom()
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
    names: list[str] = []
    suffix = ""
    while True:
        candidate = [f"{prefix}{suffix}{i}" for i in range(count)]
        if not (set(candidate) & avoid):
            names = candidate
            break
        suffix += "_"
    return names


def fresh_name(base: str, taken: Iterable[str]) -> str:
    avoid = set(taken)
    name = base
    while name in avoid:
        name += "_"
    return name
