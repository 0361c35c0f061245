"""Conormal geometry of an affine variety.

Two presentations of the conormal variety are built here.  The explicit one
adjoins a dual variable per point variable, cuts the locus where the dual
row is a combination of Jacobian rows by rank minors, and saturates away
the rank-deficient locus: one builder does this for the affine variety and
for its projective closure, which the irrelevant ideal then saturates too.
Both return a bihomogeneous basis in P^n x P^n, point side first, whose
:func:`~lodeg.groebner.multidegree` holds the bidegrees or polar degrees.
The implicit one keeps Lagrange multipliers as honest variables and
represents each dual coordinate as a polynomial in (point, multiplier)
space, which keeps the variable count low; every count slices it.

Slicing, of the variety or of the base of a multiplier system, is one
affine change of coordinates: :func:`solve_forms` solves all the affine
forms at once, in plain coefficients, each for its nonzero coefficient of
largest index, which gives every variable an affine image in the variables
left; then one :func:`~lodeg.poly.substitute` applies it to every
polynomial.  A multiplier system is built once per (spec, modulus) and
kept on the spec.  Its restrictions and the dual forms cut with them
accumulate on the packed monomials of the system's polynomials, one dict
per result; exponent tuples appear only where a polynomial moves into a
ring of other variables (the lifts into the multiplier and dual rings).

The builders take the :class:`PrimeField` to compute over: one prime, or
the several primes that the agreement grid computes over at once (see
"Several primes at once" in ``groebner``).  Every zero test they branch on
is :meth:`Polynomial.vanishes`, which raises ``SplitModulus`` where the
primes would branch apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence, Union

from .groebner import (
    GroebnerBasis,
    Ideal,
    _is_bihomogeneous,
    buchberger,
    krull_dimension,
    saturate,
    saturate_by_ideal,
)
from .poly import (
    GREVLEX,
    CoefT,
    FieldT,
    InputError,
    PolyRing,
    Polynomial,
    PrimeField,
    QQ,
    SplitModulus,
    fresh_name,
    fresh_names,
    _modulus,
    residue_ring,
    substitute,
)
from .randomness import DEFAULT_PRIMES, Instability, SeedStream, derive_seed


class InvalidVariety(InputError):
    """The input system does not describe a proper affine variety."""


class DimensionMismatch(RuntimeError):
    """A conormal construction produced a locus of unexpected dimension."""


class DegenerateSlice(RuntimeError):
    """Random affine sections failed to cut the dimension as expected."""


@dataclass(frozen=True)
class VarietySpec:
    """An affine variety given by polynomial generators over the rationals.

    The generators are assumed to cut the variety out generically
    transversally; irreducibility is assumed, not checked, and is recorded
    in ``assumed_irreducible`` so reports can warn when it was disclaimed.
    ``primes`` are the primes of every computation on the spec: its
    dimension, every count of ``invariants`` and the explicit conormal
    ideals' default.  :meth:`define` refuses an empty tuple, and a generator
    that vanishes modulo one of them.  A sliced spec keeps them.
    """

    ring: PolyRing
    generators: tuple[Polynomial, ...]
    assumed_irreducible: bool = True
    primes: tuple[int, ...] = DEFAULT_PRIMES

    @staticmethod
    def define(
        variables: Sequence[str],
        polynomials: Sequence[Union[str, Polynomial]],
        assumed_irreducible: bool = True,
        primes: Sequence[int] = DEFAULT_PRIMES,
    ) -> "VarietySpec":
        if not primes:
            raise InvalidVariety("at least one prime is required")
        ring = PolyRing(tuple(variables), QQ, GREVLEX)
        moduli = [PrimeField(p).p for p in dict.fromkeys(primes)]  # each validated
        gens: list[Polynomial] = []
        for item in polynomials:
            poly = ring.parse(item) if isinstance(item, str) else item.to_ring(ring)
            if poly.is_zero():
                raise InvalidVariety("zero generator")
            for p in moduli:
                # A reduced fraction is zero modulo p when its numerator is
                # (its denominator is then a unit).
                if not any(c.numerator % p for _, c in poly.terms):
                    raise InvalidVariety(f"generator {poly} vanishes modulo the prime {p}")
            gens.append(poly)
        if not gens:
            raise InvalidVariety("at least one generator is required")
        spec = VarietySpec(ring, tuple(gens), assumed_irreducible, tuple(primes))
        if spec.dimension < 0:
            raise InvalidVariety("generators have no common zero (unit ideal)")
        return spec

    @property
    def n(self) -> int:
        return self.ring.nvars

    @cached_property
    def dimension(self) -> int:
        """Dimension of the vanishing locus, computed once and then kept.

        One basis modulo the product of ``primes`` has the leading
        monomials of the basis modulo each prime, so it gives the dimension
        at every prime.  After a split, the dimension is computed prime by
        prime, and the primes must agree (:class:`Instability` if not).
        """
        try:
            return krull_dimension(self.reduce_mod(residue_ring(self.primes)))
        except SplitModulus:
            found = {
                p: krull_dimension(self.reduce_mod(PrimeField(p))) for p in dict.fromkeys(self.primes)
            }
            if len(set(found.values())) > 1:
                # Keyed by (seed, prime); no seed is drawn here.
                raise Instability(
                    "dimension of the vanishing locus", {(0, p): d for p, d in found.items()}
                ) from None
            return found[self.primes[0]]

    @property
    def codimension(self) -> int:
        return self.n - self.dimension

    @cached_property
    def _systems(self) -> dict[tuple, MultiplierSystem]:
        return {}

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def reduce_mod(self, fld: PrimeField) -> Ideal:
        """The generator ideal over ``fld``, modulo its primes."""
        target = self.ring.with_field(fld)
        return Ideal.of(target, [g.to_ring(target) for g in self.generators])


# ---------------------------------------------------------------------------
# Solving affine forms
# ---------------------------------------------------------------------------


FormT = tuple[Sequence[CoefT], CoefT]


def solve_forms(
    ring: PolyRing, forms: Sequence[FormT], width: Optional[int] = None
) -> tuple[PolyRing, list[Polynomial]]:
    """Solve affine forms ``(coeffs, constant)``, meaning ``coeffs . x =
    constant``, for one variable each.

    Form k is read on the first ``width - k`` variables left at its turn
    (``width`` defaults to all of ``ring``; a smaller one keeps the trailing
    variables, such as multipliers, out of reach), and is solved for its
    nonzero coefficient of largest index.  A form as wide as ``width`` is
    on the source variables instead, and is first rewritten through the
    forms solved before it.  Returns the ring of the variables left and
    the image there of every variable of ``ring`` (an affine form).  The
    forms are solved in plain coefficients (ints mod p over a prime field).
    """
    fld = ring.field_
    p = _modulus(fld)
    zero = fld.zero
    norm = (lambda c: c % p) if p else (lambda c: c)
    names = list(ring.variables)
    n = len(names)
    source = left = n if width is None else width
    # rows[i] is the image of variable i: coefficients on ``names``, then
    # the constant.
    rows = [[zero] * i + [fld.one] + [zero] * (n - i) for i in range(n)]
    for raw_coeffs, raw_const in forms:
        coeffs = [fld.coerce(c) for c in raw_coeffs]
        const = fld.coerce(raw_const)
        if len(coeffs) != left:
            if len(coeffs) != source:
                raise ValueError("affine form has the wrong number of coefficients")
            pushed = _combine(fld, coeffs, rows)
            coeffs, const = pushed[:left], norm(const - pushed[-1])
        pivot = next((i for i in range(left - 1, -1, -1) if coeffs[i]), None)
        if pivot is None:
            raise DegenerateSlice("affine form with no variable to solve for")
        inv = fld.invert(coeffs[pivot])
        # The pivot's image in the other variables; its own entry is zero.
        image = [norm(-c * inv) if i != pivot else zero for i, c in enumerate(coeffs)]
        image += [zero] * (len(names) - left) + [norm(const * inv)]
        for row in rows:
            a = row[pivot]
            if a:
                row[:] = [norm(x + a * y) for x, y in zip(row, image)]
            del row[pivot]
        del names[pivot]
        left -= 1
    small = PolyRing(tuple(names), fld, ring.order)
    keys = small.packing.variables + (0,)
    return small, [small.from_dict(dict(zip(keys, row))) for row in rows]


def _combine(fld: FieldT, coeffs: Sequence[CoefT], rows: Sequence[Sequence[CoefT]]) -> list[CoefT]:
    """``sum_i coeffs[i] * rows[i]``, entry by entry."""
    return [fld.coerce(sum(c * r[j] for c, r in zip(coeffs, rows))) for j in range(len(rows[0]))]


# ---------------------------------------------------------------------------
# Slicing a variety by generic affine sections
# ---------------------------------------------------------------------------


def _draw_base_forms(stream: SeedStream, width: int, count: int, const: Optional[int]) -> list[FormT]:
    """Seeded affine forms on the first variables at shrinking widths:
    form ``k`` draws ``width - k`` coefficients, then its constant.

    ``const`` fixes every right-hand side (used for chart and hyperplane
    forms); ``None`` draws it from the stream.
    """
    forms: list[FormT] = []
    for k in range(count):
        forms.append((stream.coefficients(width - k), stream.integer() if const is None else const))
    return forms


@dataclass(frozen=True)
class SlicedVariety:
    """A variety cut by affine forms: ``images`` holds the image in the
    sliced ring of every variable of the source ring."""

    spec: VarietySpec
    images: tuple[Polynomial, ...]


def slice_variety(spec: VarietySpec, count: int, seed: int) -> SlicedVariety:
    """Cut ``spec`` by ``count`` seeded random affine forms (all
    coefficients nonzero), as by :func:`_apply_slices`, redrawn up to three
    times if the dimension fails to drop by exactly ``count``."""
    dimension = spec.dimension
    if not 0 <= count <= dimension:
        raise InputError(f"cannot cut dimension {dimension} by {count} sections")
    for attempt in range(4):
        forms = _draw_base_forms(SeedStream(derive_seed(seed, attempt)), spec.n, count, None)
        try:
            return _apply_slices(spec, forms)
        except DegenerateSlice as err:
            last_error = err
    raise DegenerateSlice(
        f"sections kept failing to drop the dimension: {last_error}"
    )


def _apply_slices(spec: VarietySpec, forms: Sequence[FormT]) -> SlicedVariety:
    """Cut ``spec`` by the affine ``forms``, solved as by
    :func:`solve_forms`; no forms leave ``spec`` as it is.

    Raises :class:`DegenerateSlice` when a form has no variable left to
    solve for, when the cut leaves no generator or a constant one, and when
    the dimension does not drop by one per form.
    """
    ring, images = solve_forms(spec.ring, forms)
    if not forms:
        return SlicedVariety(spec, tuple(images))
    survivors = tuple(g for g in substitute(spec.generators, ring, images) if not g.is_zero())
    if not survivors or any(g.is_constant() for g in survivors):
        raise DegenerateSlice("sections made the system inconsistent or empty")
    new_spec = VarietySpec(ring, survivors, spec.assumed_irreducible, spec.primes)
    expected = spec.dimension - len(forms)
    dimension = new_spec.dimension
    if dimension != expected:
        raise DegenerateSlice(
            f"dimension {dimension} after cutting, expected {expected}"
        )
    return SlicedVariety(new_spec, tuple(images))


# ---------------------------------------------------------------------------
# Multiplier presentation (point, multiplier) -> dual coordinates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplierSystem:
    """Conormal directions written with Lagrange multipliers.

    ``covector[k]`` is the polynomial expressing the k-th dual coordinate as
    a multiplier combination of Jacobian entries; the dual coordinates are
    never ring variables, which keeps slice-and-count systems small.
    """

    ring: PolyRing  # base variables first, multiplier variables last
    base_count: int
    equations: tuple[Polynomial, ...]
    covector: tuple[Polynomial, ...]
    excess: int

    @property
    def multiplier_count(self) -> int:
        return self.ring.nvars - self.base_count


def multiplier_system(spec: VarietySpec, fld: PrimeField) -> MultiplierSystem:
    """Multiplier presentation of the conormal directions of ``spec``,
    built once per (spec, field) and kept on the spec."""
    return _kept_system(spec, ("affine", fld), lambda: _assemble_multiplier_system(
        [g.to_ring(spec.ring.with_field(fld)) for g in spec.generators], spec.codimension
    ))


def projective_multiplier_system(spec: VarietySpec, fld: PrimeField) -> MultiplierSystem:
    """Multiplier presentation over the projective closure, built once per
    (spec, field) and kept on the spec.

    A grevlex basis is homogenized generator-by-generator; for a graded
    order this yields the ideal of the closure with no spurious components
    at the hyperplane at infinity.
    """
    return _kept_system(spec, ("projective", fld), lambda: _assemble_multiplier_system(
        _homogenized_basis(spec, fld), spec.codimension
    ))


def _kept_system(spec: VarietySpec, key: tuple, build) -> MultiplierSystem:
    """``build()``, run once per ``key`` (a kind and a field) and kept on the spec."""
    if key not in spec._systems:
        spec._systems[key] = build()
    return spec._systems[key]


def _homogenized_basis(spec: VarietySpec, fld: PrimeField) -> list[Polynomial]:
    """The grevlex basis of ``spec`` over ``fld``, homogenized by a fresh
    first variable: generators of the projective closure."""
    gb = buchberger(spec.reduce_mod(fld))
    hname = fresh_name("p0", spec.ring.variables)
    hom = [g.homogenize(hname) for g in gb.basis]
    if not hom:
        raise InvalidVariety("zero ideal has no projective closure here")
    return hom


def _lift(poly: Polynomial, big: PolyRing) -> Polynomial:
    """``poly`` in ``big``, whose extra variables follow the poly's own."""
    pad = (0,) * (big.nvars - poly.ring.nvars)
    return big.from_terms((m + pad, c) for m, c in poly.as_dict().items())


def _assemble_multiplier_system(gens: list[Polynomial], codim: int) -> MultiplierSystem:
    """The equations ``gens`` and the covector ``sum_j lam_j * grad(g_j)``
    in the ring of ``gens`` with one multiplier per generator appended."""
    base = gens[0].ring
    nb, m = base.nvars, len(gens)
    lams = fresh_names("lam", m, base.variables)
    big = PolyRing(base.variables + tuple(lams), base.field_, base.order)
    equations = [_lift(g, big) for g in gens]
    covector = [
        sum((big.gen(nb + j) * _lift(g.partial(k), big) for j, g in enumerate(gens)), big.zero())
        for k in range(nb)
    ]
    return MultiplierSystem(big, nb, tuple(equations), tuple(covector), m - codim)


def restrict_base(system: MultiplierSystem, forms: Sequence[FormT]) -> MultiplierSystem:
    """Solve affine forms on the base variables (see :func:`solve_forms`)
    and substitute the solution everywhere, multipliers included: one
    :func:`~lodeg.poly.substitute` over the whole system.  No forms leave
    ``system`` as it is."""
    if not forms:
        return system
    ring, images = solve_forms(system.ring, forms, system.base_count)
    count = len(system.equations)
    polys = substitute(system.equations + system.covector, ring, images)
    equations = tuple(g for g in polys[:count] if not g.vanishes())
    base_count = system.base_count - len(forms)
    return MultiplierSystem(ring, base_count, equations, tuple(polys[count:]), system.excess)


def multiplier_slack_forms(system: MultiplierSystem, stream: SeedStream) -> list[Polynomial]:
    """Random affine forms ``sum_k c_k * lam_k - c`` in the multiplier
    variables (``c``, then each ``c_k``, drawn from ``stream``) that cut the
    excess multiplier directions down to points."""
    lams = system.ring.packing.variables[system.base_count:]
    forms = []
    for _ in range(system.excess):
        form = {0: -stream.integer()}
        form.update((x, stream.integer()) for x in lams)
        forms.append(system.ring.from_dict(form))
    return forms


# ---------------------------------------------------------------------------
# Explicit conormal ideals
# ---------------------------------------------------------------------------


def _determinant(rows: list[list[Polynomial]], ring: PolyRing) -> Polynomial:
    size = len(rows)
    if size == 1:
        return rows[0][0]
    if size == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = ring.zero()
    for j in range(size):
        minor = [[row[jj] for jj in range(size) if jj != j] for row in rows[1:]]
        piece = rows[0][j] * _determinant(minor, ring)
        total = total + piece if j % 2 == 0 else total - piece
    return total


def _rank_minors(
    matrix: list[list[Polynomial]], size: int, ring: PolyRing
) -> list[Polynomial]:
    """The nonzero ``size`` by ``size`` minors of ``matrix``."""
    rows, cols = range(len(matrix)), range(len(matrix[0]))
    dets = (
        _determinant([[matrix[r][c] for c in csel] for r in rsel], ring)
        for rsel in combinations(rows, size)
        for csel in combinations(cols, size)
    )
    return [det for det in dets if not det.vanishes()]


def _saturated_minors(
    gens: Sequence[Polynomial], codim: int, prefix: str, seed: int
) -> GroebnerBasis:
    """The conormal ideal of ``gens`` (codimension ``codim``), with one dual
    variable per variable of their ring appended, named from ``prefix``:
    ``gens`` and the rank ``codim + 1`` minors of their Jacobian under the
    dual row, saturated by the rank ``codim`` minors of the Jacobian (the
    rank-deficient locus), as the reduced basis the saturation leaves."""
    base = gens[0].ring
    nb = base.nvars
    duals = fresh_names(prefix, nb, base.variables)
    big = PolyRing(base.variables + tuple(duals), base.field_, base.order)
    jac = [[_lift(g.partial(k), big) for k in range(nb)] for g in gens]
    dual_row = [big.gen(nb + k) for k in range(nb)]
    minors = _rank_minors([dual_row] + jac, codim + 1, big)
    ideal = Ideal.of(big, [_lift(g, big) for g in gens] + minors)
    rank_locus = Ideal.of(big, _rank_minors(jac, codim, big))
    return saturate_by_ideal(ideal, rank_locus, seed=seed)


def _checked(gb: GroebnerBasis, expected: int, locus: str) -> GroebnerBasis:
    """``gb``, once its dimension is ``expected``, its number of point
    variables (:class:`DimensionMismatch` if not).  It is a reduced basis
    already, so no Groebner basis is computed again."""
    dim = krull_dimension(gb)
    if dim != expected:
        raise DimensionMismatch(f"{locus} has dimension {dim}, expected {expected}")
    return gb


def affine_conormal_ideal(
    spec: VarietySpec, prime: Optional[PrimeField] = None, seed: int = 0
) -> GroebnerBasis:
    """Closure in P^n x P^n of the conormal locus over the smooth points, as
    its reduced basis.  The affine locus, with the dual coordinates as
    explicit variables after the point ones, is homogenized by a fresh
    first variable, given a fresh last one for the dual side and saturated
    by their product, so the first n + 1 variables are the point
    coordinates.  It must have dimension n + 2 (:class:`DimensionMismatch`
    if not).  ``prime``, the field, defaults to that of the spec's first
    prime."""
    gens = spec.reduce_mod(prime or PrimeField(spec.primes[0])).generators
    sat = _saturated_minors(gens, spec.codimension, "u", seed)
    # The locus is a cone in the dual coordinates, so each element of its
    # reduced basis is homogeneous in them: homogenizing by the total degree
    # pads the point side only, and the dual side's variable is in none.
    h0, h1 = fresh_names("h", 2, sat.ring.variables)
    hom = [g.homogenize(h0) for g in sat.basis]
    big = PolyRing(hom[0].ring.variables + (h1,), sat.ring.field_, sat.ring.order)
    closure = saturate(Ideal.of(big, [_lift(g, big) for g in hom]), big.parse(f"{h0}*{h1}"))
    return _checked(closure, spec.n + 2, "conormal closure")


def projective_conormal_ideal(
    spec: VarietySpec, prime: Optional[PrimeField] = None, seed: int = 0
) -> GroebnerBasis:
    """Conormal locus of the projective closure, in doubled projective
    coordinates, saturated by the rank-deficient locus and the irrelevant
    ideal of the point factor, as its reduced basis; the first n + 1
    variables are the point coordinates.  It must have dimension n + 1
    (:class:`DimensionMismatch` if not).  ``prime``, the field, defaults to
    that of the spec's first prime."""
    fld = prime or PrimeField(spec.primes[0])
    n = spec.n
    hom = _homogenized_basis(spec, fld)
    sat = _saturated_minors(hom, spec.codimension, "y", seed)
    big = sat.ring
    irrelevant = Ideal.of(big, [big.gen(k) for k in range(n + 1)])
    sat = saturate_by_ideal(sat, irrelevant, seed=derive_seed(seed, 97))
    mixed = sum(not _is_bihomogeneous(g, n + 1) for g in sat.basis)
    if mixed:
        if len(fld.primes) > 1:
            # Terms of different bidegrees may vanish modulo different
            # primes: only one prime at a time tells.
            raise SplitModulus("projective conormal saturation not bihomogeneous")
        # The saturation by the whole ideals is bihomogeneous, and so is
        # its reduced basis: a mixed generator means an unlucky combination.
        raise Instability(
            "bihomogeneity of the projective conormal saturation "
            "(generators not bihomogeneous)",
            {(seed, fld.p): mixed},
        )
    return _checked(sat, n + 1, "projective conormal cone")
