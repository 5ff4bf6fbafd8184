"""Distance functions of graded ideals, face rings, and evaluation codes.

The package computes a degree/count-indexed minimum-distance function on
standard graded quotients over prime fields, its limit in the degree, the
least degree attaining that limit, and the generalized Hamming weights of
projective evaluation codes, with independent brute-force and structural
routes cross-checking each other.
"""

from .codes import (
    GhwResult,
    LinearCode,
    ProjectivePointSet,
    bridge_rows,
    evaluation_code,
    generalized_hamming_weight,
    projective_points,
)
from .errors import HypothesisError, ParseError
from .gflinalg import FieldMatrix, FieldSpec
from .gmd import (
    CONVENTIONS,
    FIXED_DIM,
    OWN_DIM,
    DeltaResult,
    GmdQuery,
    RegularityResult,
    SRContext,
    StabilizationResult,
    Verdict,
    delta,
    delta_bruteforce,
    delta_fast,
    regularity_index,
    stabilization_value,
    verify_theorems,
)
from .groebner import IdealPresentation, groebner_basis, intersect
from .hilbert import hilbert_data, hilbert_function
from .polyring import Polynomial, RingSpec, parse_polynomial, poly_to_str
from .schemes import RingProfile, build_profile, build_profile_from_primes
from .simplicial import (
    BettiTable,
    SimplicialComplex,
    betti_table,
    depth,
    face_ring_minimal_primes,
    is_shellable,
    proj_connected,
    regularity,
    stanley_reisner_ideal,
)

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "CONVENTIONS",
    "DeltaResult",
    "FIXED_DIM",
    "FieldMatrix",
    "FieldSpec",
    "GhwResult",
    "GmdQuery",
    "HypothesisError",
    "IdealPresentation",
    "LinearCode",
    "OWN_DIM",
    "ParseError",
    "Polynomial",
    "ProjectivePointSet",
    "RegularityResult",
    "RingProfile",
    "RingSpec",
    "SRContext",
    "SimplicialComplex",
    "StabilizationResult",
    "Verdict",
    "betti_table",
    "bridge_rows",
    "build_profile",
    "build_profile_from_primes",
    "delta",
    "delta_bruteforce",
    "delta_fast",
    "depth",
    "evaluation_code",
    "face_ring_minimal_primes",
    "generalized_hamming_weight",
    "groebner_basis",
    "hilbert_data",
    "hilbert_function",
    "intersect",
    "is_shellable",
    "parse_polynomial",
    "poly_to_str",
    "proj_connected",
    "projective_points",
    "regularity",
    "regularity_index",
    "stabilization_value",
    "stanley_reisner_ideal",
    "verify_theorems",
]
