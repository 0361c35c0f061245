"""Degree invariants of affine varieties under linear optimization.

The counts here answer the question "how many critical points does a
generic linear objective have on the smooth locus", in several flavors:
plain, after slicing the variety, after slicing the conormal variety, and
for the projective closure.  A binomial transform turns the slice counts
into characteristic-class coefficients, and an alternating sum of them
reads off the local Euler obstruction at the vertex of a cone.

Every randomized count goes through the cross-seed, cross-prime agreement
protocol, at the spec's primes (a sliced spec keeps them); reported
integers are exact.  A grid callable takes a seed and those primes, builds
and counts its system once modulo their product
(:func:`~lodeg.poly.residue_ring`) and returns ``{prime: count}``.

Every conormal count is one :func:`_agreed_slice_count`, counted at
``derive_seed(child, 3)`` for a bidegree or polar entry (agreed at
``derive_seed(seed, 11 + i)`` or ``131 + i``) and ``5`` otherwise.  It ends
in :func:`_slice_count`, which cuts a multiplier system by its forms.  On a
hypersurface (one multiplier ``lam``) it divides ``lam`` out of every dual
equation but the first with a unit constant (:func:`_divided_duals`): the
ideal is the same, so are its reduced basis and every count, and the
generators are one degree lower.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Optional, Sequence, Union

from .conormal import (
    DegenerateSlice,
    FormT,
    MultiplierSystem,
    VarietySpec,
    _apply_slices,
    _draw_base_forms,
    multiplier_slack_forms,
    multiplier_system,
    projective_conormal_ideal,
    projective_multiplier_system,
    restrict_base,
    slice_variety,
)
from .groebner import Ideal, count_points, krull_dimension
from .poly import (
    CoefT,
    FieldT,
    InputError,
    PolyRing,
    Polynomial,
    PrimeField,
    residue_ring,
    substitute,
)
from .randomness import (
    DEFAULT_POLICY,
    AgreementPolicy,
    Instability,
    SeedStream,
    agreed_value,
    derive_seed,
)

class NotACone(InputError):
    """Raised when a cone-point invariant is asked of a non-homogeneous input."""


class DegenerateJacobian(InputError):
    """The generators do not cut out the variety with a Jacobian of full
    rank along it, so the multiplier systems count nothing."""


@dataclass(frozen=True)
class DegreeVector:
    """Integer invariants indexed by slice codimension 0..d.

    ``kind`` is one of ``bidegree``, ``sectional``, ``polar`` or
    ``chern_mather``.  For ``polar`` the entry at index i is the invariant
    of the closure cut by i hyperplanes on the point side, which pairs with
    the affine entry of the same index.
    """

    kind: str
    values: tuple[int, ...]
    dimension: int
    ambient: int

    def __post_init__(self) -> None:
        if self.kind not in ("bidegree", "sectional", "polar", "chern_mather"):
            raise ValueError(f"unknown degree vector kind {self.kind!r}")
        if len(self.values) != self.dimension + 1:
            raise ValueError("degree vector must have one entry per codimension 0..d")

    def alternating_sum(self) -> int:
        d = self.dimension
        return sum((-1) ** (d - i) * v for i, v in enumerate(self.values))


@dataclass(frozen=True)
class CorrespondenceReport:
    """Critical points of one explicit objective versus conormal intersections."""

    i: int
    seed: int
    count_critical: int
    count_conormal: int
    generic: bool
    expected: int


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one identity between independently computed sides."""

    identity: str
    passed: bool
    left: tuple[int, ...]
    right: tuple[int, ...]
    seed: int
    primes: tuple[int, ...]
    notes: tuple[str, ...] = ()


def _counting_vector(kind: str, values: Sequence[int], spec: VarietySpec) -> DegreeVector:
    """Wrap the counts on ``spec``, enforcing the sign facts of genuine counts."""
    vec = DegreeVector(kind, tuple(int(v) for v in values), spec.dimension, spec.n)
    if any(v < 0 for v in vec.values):
        raise RuntimeError(f"{kind} counts came out negative: {vec.values}")
    _require_degree(kind, vec.values[-1])
    return vec


def _require_degree(kind: str, top: int) -> None:
    """Refuse a top count below 1.  The top entry counts the points of a
    generic section of codimension d, which is deg X >= 1; it is 0 when the
    Jacobian of the generators has rank below the codimension along X."""
    if top < 1:
        raise DegenerateJacobian(
            f"{kind} top count is {top}, not deg X >= 1: the generators "
            "must cut X out with a Jacobian of full rank along it (for example, not x^2)"
        )


# ---------------------------------------------------------------------------
# Core counting helpers on multiplier systems
# ---------------------------------------------------------------------------


def _dual_form(system: MultiplierSystem, coeffs: Sequence[CoefT], const: CoefT) -> Polynomial:
    """The equation <coeffs, dual coordinates> = const on a multiplier
    system, accumulated in one dict keyed by packed monomials."""
    fld = system.ring.field_
    acc = {0: -fld.coerce(const)}
    for q, c in zip(system.covector, coeffs):
        c = fld.coerce(c)
        if not c:
            continue
        for m, a in q.terms:
            acc[m] = acc.get(m, 0) + a * c
    return system.ring.from_dict(acc)


def _require_objective(covector: Optional[Sequence[CoefT]]) -> None:
    """Refuse an explicit covector with no nonzero entry."""
    if covector is not None and not any(covector):
        raise InputError("covector has no nonzero entry: every point is critical for it")


def _slice_count(
    system: MultiplierSystem,
    point_forms: Sequence[FormT],
    dual_forms: Sequence[FormT],
    stream: SeedStream,
    count_seed: int,
) -> dict[int, int]:
    """Point counts of a conormal presentation cut by the affine
    ``point_forms`` on its base (:func:`restrict_base`), the
    ``dual_forms`` on its dual coordinates (:func:`_dual_form`) and its
    slack forms, one per prime of the system's ring.

    With one multiplier the dual equations are first rewritten by
    :func:`_divided_duals`: the same ideal, from lower-degree generators."""
    restricted = restrict_base(system, point_forms)
    duals = [_dual_form(restricted, coeffs, const) for coeffs, const in dual_forms]
    if restricted.multiplier_count == 1:
        duals = _divided_duals(restricted, duals)
    eqs = [*restricted.equations, *duals, *multiplier_slack_forms(restricted, stream)]
    return count_points(Ideal.of(restricted.ring, eqs), seed=count_seed)


def _divided_duals(system: MultiplierSystem, duals: Sequence[Polynomial]) -> list[Polynomial]:
    """The dual equations of a one-multiplier system with the multiplier
    divided out of all but one; the ideal they generate with the system's
    equations is unchanged.

    Every dual equation is ``D_k = lam*a_k - b_k``: each covector entry is
    ``lam`` times a partial derivative, and :func:`restrict_base`
    substitutes base variables only.  Let ``D_p`` be the first whose
    constant ``b_p`` is a unit of the field (over a residue ring, nonzero
    modulo every prime).  Then ``lam*(a_p/b_p) = 1`` modulo the ideal, so
    ``lam`` is a unit there (the Rabinowitsch argument; Cox, Little,
    O'Shea, *Ideals, Varieties, and Algorithms*, 4.2).  Each other ``D_k``
    becomes ``Q_k = (b_p*D_k - b_k*D_p)/lam``: the constants cancel and
    every term left is a multiple of ``lam``, so the division shifts the
    packed keys and inverts nothing.  ``lam*Q_k`` lies in the ideal and
    ``lam`` is a unit, so ``Q_k`` does; conversely ``b_p*D_k = lam*Q_k +
    b_k*D_p`` and ``b_p`` is a unit.  With no unit constant the list is
    returned as it is.
    """
    ring = system.ring
    fld = ring.field_
    consts = [-d.constant_coefficient() for d in duals]
    pivot = next((k for k, b in enumerate(consts) if _is_unit(fld, b)), None)
    if pivot is None:
        return list(duals)
    lam = ring.packing.variables[system.base_count]
    b_p, d_p = consts[pivot], duals[pivot]
    out = []
    for k, (d, b_k) in enumerate(zip(duals, consts)):
        if k == pivot:
            out.append(d)
            continue
        acc = {m: b_p * c for m, c in d.terms}
        for m, c in d_p.terms:
            acc[m] = acc.get(m, 0) - b_k * c
        out.append(ring.from_dict({m - lam: c for m, c in acc.items() if m}))
    return out


def _is_unit(fld: FieldT, c: CoefT) -> bool:
    """Whether the field element ``c`` is invertible: nonzero, and over a
    residue ring nonzero modulo every prime."""
    return gcd(c, fld.p) == 1 if isinstance(fld, PrimeField) else c != 0


def _agreed_slice_count(
    build, spec: VarietySpec, draw, count_at: int, seed: int, policy: AgreementPolicy, what: str
) -> int:
    """The agreed count of ``build(spec, ...)`` cut by the forms ``draw`` takes
    from each child seed's stream, counted at ``derive_seed(child, count_at)``."""

    def computation(child: int, primes: tuple[int, ...]) -> dict[int, int]:
        system = build(spec, residue_ring(primes))
        stream = SeedStream(child)
        return _slice_count(system, *draw(stream), stream, derive_seed(child, count_at))

    return agreed_value(computation, seed, spec.primes, policy, what)


# ---------------------------------------------------------------------------
# The invariants
# ---------------------------------------------------------------------------


def lo_degree(
    spec: VarietySpec,
    seed: int = 0,
    covector: Optional[Sequence[CoefT]] = None,
    policy: AgreementPolicy = DEFAULT_POLICY,
) -> int:
    """Number of critical points of a generic linear objective on the smooth
    locus.

    An explicit ``covector`` pins the objective instead of drawing one; the
    count is then for that particular objective (and may be smaller than
    the generic value).  A zero covector is refused: every point is
    critical for it.
    """
    n = spec.n
    _require_objective(covector)

    def draw(stream: SeedStream) -> tuple[list[FormT], list[FormT]]:
        u = list(covector) if covector is not None else stream.coefficients(n)
        return [], [([int(j == k) for j in range(n)], u[k]) for k in range(n)]

    return _agreed_slice_count(
        multiplier_system, spec, draw, 5, seed, policy, "critical point count"
    )


def bidegrees(
    spec: VarietySpec, seed: int = 0, policy: AgreementPolicy = DEFAULT_POLICY
) -> DegreeVector:
    """Slice counts of the affine conormal variety.

    Entry i counts the points cut out by i generic affine forms on the
    point factor and n-i on the dual factor.
    """
    values = _entries(_bidegree_entry, spec, seed, policy)
    lo = lo_degree(spec, derive_seed(seed, 7), policy=policy)
    if values[0] != lo:
        agreed = {derive_seed(seed, 11): values[0], derive_seed(seed, 7): lo}
        raise Instability(
            "slice count at codimension 0 vs critical point count",
            {(s, p): v for s, v in agreed.items() for p in spec.primes},
        )
    return _counting_vector("bidegree", values, spec)


def _bidegree_entry(spec: VarietySpec, i: int, seed: int, policy: AgreementPolicy) -> int:
    """Entry i of ``bidegrees(spec, seed, policy)``, counted alone."""
    n = spec.n

    def draw(stream: SeedStream) -> tuple[list[FormT], list[FormT]]:
        point_forms = _draw_base_forms(stream, n, i, None)
        return point_forms, [(stream.coefficients(n), stream.integer()) for _ in range(n - i)]

    return _agreed_slice_count(
        multiplier_system, spec, draw, 3, derive_seed(seed, 11 + i), policy,
        f"conormal slice count at codimension {i}",
    )


def sectional_lo_degrees(
    spec: VarietySpec, seed: int = 0, policy: AgreementPolicy = DEFAULT_POLICY
) -> DegreeVector:
    """Critical point counts of the variety cut by 0, 1, ..., d generic
    affine hyperplanes."""
    values = []
    for i in range(spec.dimension + 1):
        target = spec if i == 0 else slice_variety(spec, i, derive_seed(seed, 31 + i)).spec
        values.append(lo_degree(target, derive_seed(seed, 61 + i), policy=policy))
    return _counting_vector("sectional", values, spec)


def variety_degree(
    spec: VarietySpec, seed: int = 0, policy: AgreementPolicy = DEFAULT_POLICY
) -> int:
    """Degree of the variety: points left after slicing down to dimension 0."""
    d = spec.dimension
    target = spec if d == 0 else slice_variety(spec, d, derive_seed(seed, 101)).spec

    def computation(child: int, primes: tuple[int, ...]) -> dict[int, int]:
        return count_points(target.reduce_mod(residue_ring(primes)), seed=child)

    return agreed_value(computation, seed, spec.primes, policy, "degree by slicing to points")


def polar_degrees(
    spec: VarietySpec, seed: int = 0, policy: AgreementPolicy = DEFAULT_POLICY
) -> DegreeVector:
    """Slice counts of the conormal variety of the projective closure.

    Entry i is computed in a random affine chart of each projective factor:
    one chart form per factor is set to 1, then i point-side and n-1-i
    dual-side hyperplanes through the origin of the chart are imposed.
    """
    return _counting_vector("polar", _entries(_polar_entry, spec, seed, policy), spec)


def _polar_entry(spec: VarietySpec, i: int, seed: int, policy: AgreementPolicy) -> int:
    """Entry i of ``polar_degrees(spec, seed, policy)``, counted alone."""
    n, nb = spec.n, spec.n + 1

    def draw(stream: SeedStream) -> tuple[list[FormT], list[FormT]]:
        chart = _draw_base_forms(stream, nb, 1, 1)
        # A generic hyperplane of the point factor, written in the chart,
        # is an affine form with a generic nonzero constant; constant zero
        # would force it through the coordinate point the chart eliminated.
        hyperplanes = _draw_base_forms(stream, nb - 1, i, None)
        # On the dual factor: the chart form (= 1), then hyperplanes through its origin.
        return chart + hyperplanes, [(stream.coefficients(nb), int(k == 0)) for k in range(n - i)]

    return _agreed_slice_count(
        projective_multiplier_system, spec, draw, 3, derive_seed(seed, 131 + i), policy,
        f"projective conormal slice count at codimension {i}",
    )


def _entries(entry, spec: VarietySpec, seed: int, policy: AgreementPolicy) -> list[int]:
    """Entries 0..d of the vector whose single entries ``entry`` counts."""
    return [entry(spec, i, seed, policy) for i in range(spec.dimension + 1)]


def dual_contains_hyperplane_at_infinity(spec: VarietySpec, seed: int = 0) -> bool:
    """Whether the hyperplane at infinity is a point of the dual variety,
    decided at the spec's first prime.

    The dual coordinates are aligned so that the hyperplane at infinity is
    the first one; the projective conormal ideal is specialized there and
    the fiber is nonempty iff its affine cone has dimension at least 1.
    """
    cono = projective_conormal_ideal(spec, spec.primes[0], seed=derive_seed(seed, 201))
    ring = cono.ring
    nb = spec.n + 1
    point_ring = PolyRing(ring.variables[:nb], ring.field_, ring.order)
    images = [point_ring.gen(k) for k in range(nb)]
    images += [point_ring.one()] + [point_ring.zero()] * (nb - 1)
    fiber = Ideal.of(point_ring, substitute(cono.basis, point_ring, images))
    return krull_dimension(fiber) >= 1


# ---------------------------------------------------------------------------
# Binomial transform to characteristic-class coefficients
# ---------------------------------------------------------------------------


def _as_values(
    vec: Union[DegreeVector, Sequence[int]], n: Optional[int], expected_kind: str
) -> tuple[tuple[int, ...], int, int]:
    """The values, dimension and ambient dimension of ``vec``.  A plain
    sequence has dimension ``len(vec) - 1``, and ambient dimension ``n``,
    which defaults to its dimension; an empty one, or an ``n`` below the
    dimension, is refused."""
    if isinstance(vec, DegreeVector):
        if vec.kind != expected_kind:
            raise ValueError(f"expected a {expected_kind} vector, got {vec.kind}")
        return vec.values, vec.dimension, vec.ambient
    values = tuple(int(v) for v in vec)
    if not values:
        raise InputError(f"an empty {expected_kind} vector has no dimension")
    dd = len(values) - 1
    if n is not None and n < dd:
        raise InputError(f"ambient dimension {n} is below the dimension {dd}")
    return values, dd, dd if n is None else n


def bidegrees_from_chern_mather(
    a: Union[DegreeVector, Sequence[int]], n: Optional[int] = None
) -> DegreeVector:
    """Forward binomial transform: entry i is sum_j (-1)^(d-j) C(j,i) a_j."""
    values, dd, nn = _as_values(a, n, "chern_mather")
    b = [
        sum((-1) ** (dd - j) * comb(j, i) * values[j] for j in range(i, dd + 1))
        for i in range(dd + 1)
    ]
    return DegreeVector("bidegree", tuple(b), dd, nn)


def chern_mather_from_bidegrees(
    b: Union[DegreeVector, Sequence[int]], n: Optional[int] = None
) -> DegreeVector:
    """Invert the binomial transform by back-substitution, exactly; the
    result must transform back to ``b``."""
    result = _back_substitute(b, n)
    if bidegrees_from_chern_mather(result).values != _as_values(b, n, "bidegree")[0]:
        raise RuntimeError("binomial transform inversion failed to round-trip")
    return result


def _back_substitute(
    b: Union[DegreeVector, Sequence[int]], n: Optional[int] = None
) -> DegreeVector:
    """The back-substitution of :func:`chern_mather_from_bidegrees`, without
    its round-trip check."""
    values, dd, nn = _as_values(b, n, "bidegree")
    a = [0] * (dd + 1)
    for j in range(dd, -1, -1):
        tail = sum((-1) ** (dd - k) * comb(k, j) * a[k] for k in range(j + 1, dd + 1))
        a[j] = (-1) ** (dd - j) * (values[j] - tail)
    return DegreeVector("chern_mather", tuple(a), dd, nn)


def euler_obstruction_with_bidegrees(
    spec: VarietySpec, seed: int = 0, policy: AgreementPolicy = DEFAULT_POLICY
) -> tuple[int, DegreeVector]:
    """The local Euler obstruction at the vertex of an affine cone, the
    alternating sum of the conormal slice counts, and the bidegrees it sums.

    A non-cone is rejected before anything is counted; the alternating sum
    is cross-checked against entry 0 of the Chern-Mather transform.
    """
    if not spec.is_homogeneous():
        raise NotACone("all generators must be homogeneous")
    b = bidegrees(spec, seed, policy=policy)
    value = b.alternating_sum()
    a = chern_mather_from_bidegrees(b)
    if value != a.values[0]:
        raise RuntimeError("alternating sum disagrees with the transform's 0th entry")
    return value, b


# ---------------------------------------------------------------------------
# Critical point correspondence for explicit data
# ---------------------------------------------------------------------------


def critical_correspondence(
    spec: VarietySpec,
    i: int,
    seed: int = 0,
    covector: Optional[Sequence[CoefT]] = None,
    slices: Optional[Sequence[FormT]] = None,
    policy: AgreementPolicy = DEFAULT_POLICY,
) -> CorrespondenceReport:
    """Compare two counts attached to one objective u and one affine slice L.

    ``count_critical`` counts critical points of the objective on the
    sliced variety; ``count_conormal`` counts conormal points over L whose
    dual coordinate lies in the affine space through u orthogonal to L's
    direction (standard dot product).  For generic data both equal the
    conormal slice count at codimension i.
    """
    d, n = spec.dimension, spec.n
    if not 0 <= i <= d:
        raise InputError(f"slice codimension {i} outside 0..{d}")
    if slices is not None and len(slices) != i:
        raise InputError(f"expected {i} slicing forms, got {len(slices)}")
    _require_objective(covector)
    # Drawn data is redrawn when it degenerates; explicit data is not.
    explicit = covector is not None or slices is not None
    for attempt in range(1 if explicit else 4):
        stream = SeedStream(derive_seed(seed, 301 + attempt))
        u = [Fraction(c) for c in (covector if covector is not None else stream.coefficients(n))]
        drawn = slices if slices is not None else [
            (stream.coefficients(n), stream.integer()) for _ in range(i)
        ]
        forms = [([Fraction(c) for c in coeffs], Fraction(const)) for coeffs, const in drawn]
        try:
            return _correspondence_once(spec, i, seed, u, forms, policy)
        except DegenerateSlice as err:
            if explicit:
                raise
            last = err
    raise DegenerateSlice(f"correspondence data kept degenerating: {last}")


def _correspondence_once(
    spec: VarietySpec,
    i: int,
    seed: int,
    u: list[Fraction],
    forms: list[tuple[list[Fraction], Fraction]],
    policy: AgreementPolicy,
) -> CorrespondenceReport:
    sliced = _apply_slices(spec, forms)
    # Column j of the images' linear parts is the direction of L along the
    # j-th variable left; these columns span L's directions, and u pushed
    # onto the slice is <w_j, u> for each column w_j.
    left = sliced.spec.n
    units = [tuple(int(k == j) for k in range(left)) for j in range(left)]
    kernel = [[q.coefficient(unit) for q in sliced.images] for unit in units]
    pushed = [sum(wk * uk for wk, uk in zip(w, u)) for w in kernel]
    if not any(pushed):
        raise DegenerateSlice("the objective is constant on the sliced variety")

    count_critical = lo_degree(sliced.spec, derive_seed(seed, 303), covector=pushed, policy=policy)
    count_conormal = _agreed_slice_count(
        multiplier_system, spec, lambda stream: (forms, list(zip(kernel, pushed))), 5,
        derive_seed(seed, 307), policy, "conormal fiber count",
    )
    # Entry d refuses a degenerate Jacobian, as the top check of bidegrees would.
    d, vector_seed = spec.dimension, derive_seed(seed, 311)
    expected = _bidegree_entry(spec, i, vector_seed, policy)
    top = expected if i == d else _bidegree_entry(spec, d, vector_seed, policy)
    _require_degree("bidegree", top)
    generic = count_critical == expected and count_conormal == expected
    return CorrespondenceReport(i, seed, count_critical, count_conormal, generic, expected)


# ---------------------------------------------------------------------------
# Identity verification
# ---------------------------------------------------------------------------


def verify_identities(
    spec: VarietySpec, seed: int = 0, policy: AgreementPolicy = DEFAULT_POLICY
) -> tuple[list[VerificationReport], list[str]]:
    """Every identity check on one input, and the warnings of checks that do
    not apply.

    The bidegrees are counted once and shared by the checks, in this
    order:

    - slicing the variety and slicing its conormal variety give the same
      counts, componentwise;
    - the affine counts equal the projective ones exactly when the
      hyperplane at infinity is not in the dual variety; when it is, the
      first nonzero projective count strictly exceeds its affine partner;
    - the binomial transform round-trips them;
    - for a cone, their alternating sum equals the transform's 0th entry.
    """
    b = bidegrees(spec, derive_seed(seed, 1), policy=policy)
    a = _back_substitute(b)
    back = bidegrees_from_chern_mather(a).values
    reports = [
        _sectional_check(spec, b, seed, policy),
        _polar_check(spec, b, seed, policy),
        VerificationReport(
            "binomial transform round-trip", back == b.values, b.values, back, seed, spec.primes
        ),
    ]
    if not spec.is_homogeneous():
        return reports, ["generators are not homogeneous; cone-point check skipped"]
    total = b.alternating_sum()
    reports.append(VerificationReport(
        "alternating sum equals transform's 0th entry",
        total == a.values[0], (total,), (a.values[0],), seed, spec.primes,
    ))
    return reports, []


def _sectional_check(
    spec: VarietySpec, b: DegreeVector, seed: int, policy: AgreementPolicy
) -> VerificationReport:
    s = sectional_lo_degrees(spec, derive_seed(seed, 2), policy=policy)
    return VerificationReport(
        "sectional counts match conormal slice counts",
        b.values == s.values,
        b.values,
        s.values,
        seed,
        spec.primes,
    )


def _polar_check(
    spec: VarietySpec, b: DegreeVector, seed: int, policy: AgreementPolicy
) -> VerificationReport:
    delta = polar_degrees(spec, derive_seed(seed, 2), policy=policy)
    contained = dual_contains_hyperplane_at_infinity(spec, seed=derive_seed(seed, 3))
    matched = b.values == delta.values
    passed = matched != contained
    notes = [f"dual contains hyperplane at infinity: {contained}"]
    if contained:
        first = next(idx for idx, v in enumerate(delta.values) if v != 0)
        strict = b.values[first] < delta.values[first]
        notes.append(
            f"strictness at first nonzero projective count: "
            f"{b.values[first]} < {delta.values[first]} is {strict}"
        )
        passed = passed and strict
    return VerificationReport(
        "affine vs projective conormal count dichotomy",
        passed,
        b.values,
        delta.values,
        seed,
        spec.primes,
        tuple(notes),
    )
