"""Exact critical-point counts of linear objectives on affine varieties.

The public surface: build a :class:`VarietySpec` from variable names and
polynomial strings, then ask for its invariants.  All randomized counts
are seeded and cross-checked over the policy's primes before being
reported.  The explicit conormal builders return a :class:`GroebnerBasis`.
"""

from .conormal import (
    DegenerateSlice,
    DimensionMismatch,
    InvalidVariety,
    VarietySpec,
    affine_conormal_ideal,
    projective_conormal_ideal,
    slice_variety,
)
from .groebner import (
    BudgetExceeded,
    GroebnerBasis,
    Ideal,
    NotZeroDimensional,
    buchberger,
    count_points,
    eliminate,
    krull_dimension,
    normal_form,
    saturate,
)
from .invariants import (
    CorrespondenceReport,
    DegenerateJacobian,
    DegreeVector,
    NotACone,
    VerificationReport,
    bidegrees,
    bidegrees_from_chern_mather,
    chern_mather_from_bidegrees,
    critical_correspondence,
    dual_contains_hyperplane_at_infinity,
    euler_obstruction_with_bidegrees,
    lo_degree,
    polar_degrees,
    sectional_lo_degrees,
    variety_degree,
    verify_identities,
)
from .poly import GREVLEX, LEX, PolyRing, Polynomial, PrimeField, QQ, parse_polynomial
from .randomness import AgreementPolicy, Instability, SeedStream, derive_seed

__all__ = [
    "AgreementPolicy",
    "BudgetExceeded",
    "CorrespondenceReport",
    "DegenerateJacobian",
    "DegenerateSlice",
    "DegreeVector",
    "DimensionMismatch",
    "GREVLEX",
    "GroebnerBasis",
    "Ideal",
    "Instability",
    "InvalidVariety",
    "LEX",
    "NotACone",
    "NotZeroDimensional",
    "PolyRing",
    "Polynomial",
    "PrimeField",
    "QQ",
    "SeedStream",
    "VarietySpec",
    "VerificationReport",
    "affine_conormal_ideal",
    "bidegrees",
    "bidegrees_from_chern_mather",
    "buchberger",
    "chern_mather_from_bidegrees",
    "count_points",
    "critical_correspondence",
    "derive_seed",
    "dual_contains_hyperplane_at_infinity",
    "eliminate",
    "euler_obstruction_with_bidegrees",
    "krull_dimension",
    "lo_degree",
    "normal_form",
    "parse_polynomial",
    "polar_degrees",
    "projective_conormal_ideal",
    "saturate",
    "sectional_lo_degrees",
    "slice_variety",
    "variety_degree",
    "verify_identities",
]

__version__ = "0.1.0"
