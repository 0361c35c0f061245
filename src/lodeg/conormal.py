"""Conormal geometry of an affine variety.

Two presentations of the conormal variety are built here.  The explicit one
adjoins dual variables and cuts the locus where the objective row is a
combination of Jacobian rows by rank minors, then saturates away the
rank-deficient locus.  The implicit one keeps Lagrange multipliers as
honest variables and represents each dual coordinate as a polynomial in
(point, multiplier) space; the counting routines slice that presentation
directly, which keeps the variable count low.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence, Union

from .groebner import (
    DEFAULT_BUDGET_SECS,
    Ideal,
    buchberger,
    eliminate,
    krull_dimension,
    saturate_by_ideal,
)
from .poly import (
    GREVLEX,
    CoefT,
    FieldT,
    Mono,
    PolyRing,
    Polynomial,
    PrimeField,
    QQ,
    fresh_name,
    fresh_names,
)
from .randomness import DEFAULT_PRIMES, Instability, SeedStream, derive_seed


class InvalidVariety(ValueError):
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
    """

    ring: PolyRing
    generators: tuple[Polynomial, ...]
    assumed_irreducible: bool = True

    @staticmethod
    def define(
        variables: Sequence[str],
        polynomials: Sequence[Union[str, Polynomial]],
        assumed_irreducible: bool = True,
    ) -> "VarietySpec":
        ring = PolyRing(tuple(variables), QQ, GREVLEX)
        gens: list[Polynomial] = []
        for item in polynomials:
            poly = ring.parse(item) if isinstance(item, str) else item.to_ring(ring)
            if poly.is_zero():
                raise InvalidVariety("zero generator")
            gens.append(poly)
        if not gens:
            raise InvalidVariety("at least one generator is required")
        spec = VarietySpec(ring, tuple(gens), assumed_irreducible)
        if spec.dimension < 0:
            raise InvalidVariety("generators have no common zero (unit ideal)")
        return spec

    @property
    def n(self) -> int:
        return self.ring.nvars

    @cached_property
    def dimension(self) -> int:
        """Dimension of the vanishing locus, computed over the first
        configured prime field."""
        ideal = self.reduce_mod(DEFAULT_PRIMES[0])
        return krull_dimension(ideal, budget_secs=DEFAULT_BUDGET_SECS)

    @property
    def codimension(self) -> int:
        return self.n - self.dimension

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def reduce_mod(self, prime: int) -> Ideal:
        """The generator ideal over GF(prime)."""
        target = self.ring.with_field(PrimeField(prime))
        return Ideal.of(target, [g.to_ring(target) for g in self.generators])


# ---------------------------------------------------------------------------
# Affine substitution trails
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubstitutionStep:
    """One pivot substitution: the named variable was solved for and removed."""

    pivot_name: str
    pivot_index: int
    replacement: Polynomial  # lives in the ring after removal


@dataclass(frozen=True)
class SubstitutionTrail:
    """A chain of affine pivot substitutions; applies to arbitrary polynomials."""

    original: PolyRing
    steps: tuple[SubstitutionStep, ...]
    final_ring: PolyRing

    def apply(self, poly: Polynomial) -> Polynomial:
        if poly.ring != self.original:
            raise ValueError("polynomial is not in the trail's source ring")
        current = poly
        for step in self.steps:
            current = _substitute_out(current, step.pivot_index, step.replacement)
        return current

    def push_objective(self, coefficients: Sequence[CoefT]) -> tuple[list[CoefT], CoefT]:
        """Rewrite a linear objective through the trail.

        Returns the induced coefficients on the surviving variables together
        with the constant offset (which never affects criticality).
        """
        ring = self.original
        fld = ring.field_
        acc = ring.zero()
        for i, c in enumerate(coefficients):
            acc = acc + ring.gen(i) * fld.coerce(c)
        pushed = self.apply(acc)
        if pushed.total_degree() > 1:
            raise ValueError("objective did not stay affine through the trail")
        coeffs: list[CoefT] = []
        for i in range(self.final_ring.nvars):
            unit: list[int] = [0] * self.final_ring.nvars
            unit[i] = 1
            coeffs.append(pushed.coefficient(tuple(unit)))
        return coeffs, pushed.constant_coefficient()


def _substitute_out(poly: Polynomial, pivot: int, replacement: Polynomial) -> Polynomial:
    """Substitute ``pivot -> replacement`` and drop the pivot variable."""
    ring = poly.ring
    keep = [i for i in range(ring.nvars) if i != pivot]
    lifted_terms = []
    for m, c in replacement.terms:
        mm = list(m)
        mm.insert(pivot, 0)
        lifted_terms.append((tuple(mm), c))
    lifted = ring.from_dict(dict(lifted_terms))
    return poly.substitute({pivot: lifted}).project(keep)


def _pivot_index(coeffs: Sequence[CoefT], zero: CoefT) -> int:
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i] != zero:
            return i
    raise DegenerateSlice("affine form with no variable to solve for")


def build_trail(
    ring: PolyRing,
    forms: Sequence[tuple[Sequence[CoefT], CoefT]],
    restrict_to: Optional[int] = None,
) -> SubstitutionTrail:
    """Turn affine forms (coeffs, constant) into successive pivot substitutions.

    Each form is interpreted in the ring current at its turn; the pivot is
    the nonzero coefficient of largest variable index.  ``restrict_to``
    limits pivots (and expected coefficient length) to the first variables
    of the ring, which keeps multiplier variables out of reach.
    """
    steps: list[SubstitutionStep] = []
    current = ring
    width = restrict_to if restrict_to is not None else ring.nvars
    fld = ring.field_
    for coeffs, const in forms:
        if len(coeffs) != width:
            raise ValueError("affine form has the wrong number of coefficients")
        pivot = _pivot_index(coeffs, fld.zero)
        small_vars = tuple(v for i, v in enumerate(current.variables) if i != pivot)
        small = PolyRing(small_vars, fld, current.order)
        inv = fld.invert(coeffs[pivot])
        terms: dict[Mono, CoefT] = {}
        zero_m = (0,) * small.nvars
        cc = _normalized(fld, const * inv)
        if cc != fld.zero:
            terms[zero_m] = cc
        for i in range(width):
            if i == pivot:
                continue
            ci = _normalized(fld, -coeffs[i] * inv)
            if ci == fld.zero:
                continue
            e = [0] * small.nvars
            e[i if i < pivot else i - 1] = 1
            terms[tuple(e)] = ci
        replacement = small.from_dict(terms)
        steps.append(
            SubstitutionStep(current.variables[pivot], pivot, replacement)
        )
        current = small
        width -= 1
    return SubstitutionTrail(ring, tuple(steps), current)


def _normalized(fld: FieldT, value: CoefT) -> CoefT:
    if isinstance(fld, PrimeField):
        return value % fld.p
    return value


# ---------------------------------------------------------------------------
# Slicing a variety by generic affine sections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlicedVariety:
    """A variety cut by affine forms, with the substitutions that realized it."""

    spec: VarietySpec
    trail: SubstitutionTrail
    forms: tuple[tuple[tuple[CoefT, ...], CoefT], ...]


def slice_variety(
    spec: VarietySpec,
    count: int,
    seed: int,
    budget_secs: Optional[float] = None,
    forms: Optional[Sequence[tuple[Sequence[CoefT], CoefT]]] = None,
) -> SlicedVariety:
    """Cut ``spec`` by ``count`` affine forms, substituting one pivot per form.

    With no explicit forms, seeded random ones are drawn (all coefficients
    nonzero) and redrawn up to three times if the dimension fails to drop by
    exactly ``count``.
    """
    if not 0 <= count <= spec.dimension:
        raise ValueError(
            f"cannot cut dimension {spec.dimension} by {count} sections"
        )
    if count == 0:
        return SlicedVariety(spec, SubstitutionTrail(spec.ring, (), spec.ring), ())
    explicit = forms is not None
    attempts = 1 if explicit else 4
    last_error: Optional[Exception] = None
    for attempt in range(attempts):
        if explicit:
            chosen = [(tuple(c for c in cs), k) for cs, k in forms]
        else:
            chosen = []
            stream = SeedStream(derive_seed(seed, attempt))
            width = spec.n
            for _ in range(count):
                coeffs = [Fraction(c) for c in stream.coefficients(width)]
                chosen.append((tuple(coeffs), Fraction(stream.integer())))
                width -= 1
        try:
            sliced = _apply_slices(spec, chosen, budget_secs)
            return sliced
        except (DegenerateSlice, InvalidVariety) as err:
            last_error = err
            if explicit:
                raise DegenerateSlice(str(err)) from err
    raise DegenerateSlice(
        f"sections kept failing to drop the dimension: {last_error}"
    )


def _apply_slices(
    spec: VarietySpec,
    forms: Sequence[tuple[Sequence[CoefT], CoefT]],
    budget_secs: Optional[float],
) -> SlicedVariety:
    ring = spec.ring
    steps: list[SubstitutionStep] = []
    current_polys = list(spec.generators)
    current_ring = ring
    norm_forms: list[tuple[tuple[CoefT, ...], CoefT]] = []
    for raw_coeffs, raw_const in forms:
        fld = current_ring.field_
        coeffs = [fld.coerce(c) for c in raw_coeffs]
        const = fld.coerce(raw_const)
        if len(coeffs) > current_ring.nvars:
            # Explicit forms arrive in the source ring; push them through
            # the substitutions already performed.
            partial_trail = SubstitutionTrail(ring, tuple(steps), current_ring)
            pushed_coeffs, pushed_const = partial_trail.push_objective(coeffs)
            coeffs = pushed_coeffs
            const = _normalized(fld, const - pushed_const)
        norm_forms.append((tuple(coeffs), const))
        one_step = build_trail(current_ring, [(coeffs, const)])
        step = one_step.steps[0]
        steps.append(step)
        current_polys = [_substitute_out(g, step.pivot_index, step.replacement) for g in current_polys]
        current_ring = one_step.final_ring
    survivors = tuple(g for g in current_polys if not g.is_zero())
    if not survivors or any(g.is_constant() for g in survivors):
        raise DegenerateSlice("sections made the system inconsistent or empty")
    trail = SubstitutionTrail(ring, tuple(steps), current_ring)
    new_spec = VarietySpec(current_ring, survivors, spec.assumed_irreducible)
    expected = spec.dimension - len(forms)
    if new_spec.dimension != expected:
        raise DegenerateSlice(
            f"dimension {new_spec.dimension} after cutting, expected {expected}"
        )
    return SlicedVariety(new_spec, trail, tuple(norm_forms))


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


def multiplier_system(spec: VarietySpec, prime: int) -> MultiplierSystem:
    """Multiplier presentation of the conormal directions of ``spec``."""
    base = spec.ring.with_field(PrimeField(prime))
    gens = [g.to_ring(base) for g in spec.generators]
    return _assemble_multiplier_system(base, gens, spec.codimension)


def projective_multiplier_system(
    spec: VarietySpec,
    prime: int,
    budget_secs: Optional[float] = None,
) -> MultiplierSystem:
    """Multiplier presentation over the projective closure.

    A grevlex basis is homogenized generator-by-generator; for a graded
    order this yields the ideal of the closure with no spurious components
    at the hyperplane at infinity.
    """
    ideal = spec.reduce_mod(prime)
    gb = buchberger(ideal, budget_secs=budget_secs)
    hname = fresh_name("p0", spec.ring.variables)
    hom = [g.homogenize(hname) for g in gb.basis]
    if not hom:
        raise InvalidVariety("zero ideal has no projective closure here")
    pring = hom[0].ring
    return _assemble_multiplier_system(pring, hom, spec.codimension)


def _lift(poly: Polynomial, big: PolyRing) -> Polynomial:
    """``poly`` in ``big``, whose extra variables follow the poly's own."""
    pad = (0,) * (big.nvars - poly.ring.nvars)
    return big.from_dict({m + pad: c for m, c in poly.terms})


def _assemble_multiplier_system(
    base: PolyRing, gens: list[Polynomial], codim: int
) -> MultiplierSystem:
    nb = base.nvars
    m = len(gens)
    lam_names = fresh_names("lam", m, base.variables)
    big = PolyRing(base.variables + tuple(lam_names), base.field_, base.order)

    lifted = [_lift(g, big) for g in gens]
    grads = [[_lift(g.partial(k), big) for k in range(nb)] for g in gens]
    lams = [big.gen(nb + j) for j in range(m)]
    covector = []
    for k in range(nb):
        acc = big.zero()
        for j in range(m):
            acc = acc + lams[j] * grads[j][k]
        covector.append(acc)
    return MultiplierSystem(big, nb, tuple(lifted), tuple(covector), m - codim)


def restrict_base(
    system: MultiplierSystem,
    forms: Sequence[tuple[Sequence[CoefT], CoefT]],
) -> MultiplierSystem:
    """Substitute affine forms into the base variables of the system."""
    equations = list(system.equations)
    covector = list(system.covector)
    ring = system.ring
    base_left = system.base_count
    for raw_coeffs, raw_const in forms:
        fld = ring.field_
        coeffs = [fld.coerce(c) for c in raw_coeffs]
        if len(coeffs) != base_left:
            raise ValueError("form width does not match remaining base variables")
        const = fld.coerce(raw_const)
        # The affine form equates a base combination with a constant; solve
        # for the pivot and substitute everywhere, multipliers included.
        step = build_trail(ring, [(coeffs, const)], restrict_to=base_left).steps[0]
        equations = [_substitute_out(g, step.pivot_index, step.replacement) for g in equations]
        covector = [_substitute_out(g, step.pivot_index, step.replacement) for g in covector]
        keep = [i for i in range(ring.nvars) if i != step.pivot_index]
        ring = PolyRing(
            tuple(ring.variables[i] for i in keep), ring.field_, ring.order
        )
        base_left -= 1
    return MultiplierSystem(
        ring,
        base_left,
        tuple(g for g in equations if not g.is_zero()),
        tuple(covector),
        system.excess,
    )


def multiplier_slack_forms(
    system: MultiplierSystem, stream: SeedStream
) -> list[Polynomial]:
    """Random affine forms in the multiplier variables that cut the excess
    multiplier directions down to points."""
    out: list[Polynomial] = []
    fld = system.ring.field_
    nb = system.base_count
    m = system.multiplier_count
    for _ in range(system.excess):
        acc = system.ring.zero() - fld.coerce(stream.integer())
        for j in range(m):
            acc = acc + system.ring.gen(nb + j) * fld.coerce(stream.integer())
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# Explicit conormal ideals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConormalIdeal:
    """Reduced basis of a conormal locus with explicit dual variables."""

    kind: str  # "affine" or "projective"
    ring: PolyRing
    generators: tuple[Polynomial, ...]
    base_count: int
    prime: int
    source: VarietySpec


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
    nrows, ncols = len(matrix), len(matrix[0]) if matrix else 0
    out: list[Polynomial] = []
    if size > nrows or size > ncols:
        return out
    for rsel in combinations(range(nrows), size):
        for csel in combinations(range(ncols), size):
            det = _determinant([[matrix[r][c] for c in csel] for r in rsel], ring)
            if not det.is_zero():
                out.append(det)
    return out


def affine_conormal_ideal(
    spec: VarietySpec,
    prime: Optional[int] = None,
    seed: int = 0,
    budget_secs: Optional[float] = None,
    method: str = "minors",
) -> ConormalIdeal:
    """Closure of the conormal locus over the smooth points, with the dual
    coordinates as explicit trailing variables.

    ``method="minors"`` adds all rank minors of the Jacobian stacked under
    the dual row and saturates away the rank-deficient locus;
    ``method="multiplier"`` eliminates Lagrange multipliers instead.  Both
    must describe the same locus of dimension n or :class:`DimensionMismatch`
    is raised.
    """
    p = prime if prime is not None else DEFAULT_PRIMES[0]
    n = spec.n
    c = spec.codimension
    base = spec.ring.with_field(PrimeField(p))
    gens = [g.to_ring(base) for g in spec.generators]
    u_names = fresh_names("u", n, spec.ring.variables)
    big = PolyRing(base.variables + tuple(u_names), base.field_, base.order)

    if method == "minors":
        jac = [[_lift(g.partial(k), big) for k in range(n)] for g in gens]
        dual_row = [big.gen(n + k) for k in range(n)]
        stacked = [dual_row] + jac
        minors = _rank_minors(stacked, c + 1, big)
        ideal = Ideal.of(big, [_lift(g, big) for g in gens] + minors)
        rank_locus = _rank_minors(jac, c, big)
        sat = saturate_by_ideal(
            ideal, Ideal.of(big, rank_locus), seed=seed, budget_secs=budget_secs
        )
    elif method == "multiplier":
        system = multiplier_system(spec, p)
        m = system.multiplier_count
        # Reorder to (multipliers, base, duals) so a block order eliminates
        # the multipliers.
        elim_ring = PolyRing(
            tuple(system.ring.variables[system.base_count:])
            + base.variables
            + tuple(u_names),
            base.field_,
            base.order,
        )

        def reorder(poly: Polynomial) -> Polynomial:
            return elim_ring.from_dict(
                {m_[n:] + m_[:n] + (0,) * n: cc for m_, cc in poly.terms}
            )

        eqs = [reorder(g) for g in system.equations]
        for k in range(n):
            u_k = elim_ring.gen(m + n + k)
            eqs.append(u_k - reorder(system.covector[k]))
        eliminated = eliminate(Ideal.of(elim_ring, eqs), m, budget_secs=budget_secs)
        carried = Ideal.of(big, [g.to_ring(big) for g in eliminated.generators])
        sat = Ideal.of(big, buchberger(carried, budget_secs=budget_secs).basis)
    else:
        raise ValueError(f"unknown conormal method {method!r}")

    dim = krull_dimension(Ideal.of(big, sat.generators), budget_secs=budget_secs)
    if dim != n:
        raise DimensionMismatch(
            f"conormal locus has dimension {dim}, expected {n}"
        )
    return ConormalIdeal("affine", big, tuple(sat.generators), n, p, spec)


def projective_conormal_ideal(
    spec: VarietySpec,
    prime: Optional[int] = None,
    seed: int = 0,
    budget_secs: Optional[float] = None,
) -> ConormalIdeal:
    """Conormal locus of the projective closure, in doubled projective
    coordinates, saturated by the rank-deficient locus and the irrelevant
    ideal of the point factor."""
    p = prime if prime is not None else DEFAULT_PRIMES[0]
    n = spec.n
    c = spec.codimension
    psystem = projective_multiplier_system(spec, p, budget_secs=budget_secs)
    pring = PolyRing(
        psystem.ring.variables[: psystem.base_count],
        psystem.ring.field_,
        psystem.ring.order,
    )
    hom = [g.project(list(range(psystem.base_count))) for g in psystem.equations]
    y_names = fresh_names("y", n + 1, pring.variables)
    big = PolyRing(pring.variables + tuple(y_names), pring.field_, pring.order)

    jac = [[_lift(g.partial(k), big) for k in range(n + 1)] for g in hom]
    dual_row = [big.gen(n + 1 + k) for k in range(n + 1)]
    minors = _rank_minors([dual_row] + jac, c + 1, big)
    ideal = Ideal.of(big, [_lift(g, big) for g in hom] + minors)
    rank_locus = _rank_minors(jac, c, big)
    sat = saturate_by_ideal(
        ideal, Ideal.of(big, rank_locus), seed=seed, budget_secs=budget_secs
    )
    irrelevant = Ideal.of(big, [big.gen(k) for k in range(n + 1)])
    sat = saturate_by_ideal(
        sat, irrelevant, seed=derive_seed(seed, 97), budget_secs=budget_secs
    )
    mixed = sum(not _is_bihomogeneous(g, n + 1) for g in sat.generators)
    if mixed:
        # The saturation by the whole ideals is bihomogeneous, and so is
        # its reduced basis: a mixed generator means an unlucky combination.
        raise Instability(
            "bihomogeneity of the projective conormal saturation "
            "(generators not bihomogeneous)",
            {(seed, p): mixed},
        )
    dim = krull_dimension(Ideal.of(big, sat.generators), budget_secs=budget_secs)
    if dim != n + 1:
        raise DimensionMismatch(
            f"projective conormal cone has dimension {dim}, expected {n + 1}"
        )
    return ConormalIdeal("projective", big, tuple(sat.generators), n + 1, p, spec)


def _is_bihomogeneous(poly: Polynomial, split: int) -> bool:
    degrees = {(sum(m[:split]), sum(m[split:])) for m, _ in poly.terms}
    return len(degrees) <= 1
