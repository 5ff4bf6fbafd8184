"""Distance functions of graded ideals, face rings, and evaluation codes.

The package computes a degree/count-indexed minimum-distance function on
standard graded quotients over prime fields, its limit in the degree, the
least degree attaining that limit, and the generalized Hamming weights of
projective evaluation codes, with independent brute-force and structural
routes cross-checking each other.

Importing the package loads none of its modules: each public name below is
read from its module when it is asked for (PEP 562), so a process loads
only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "codes": (
        "GhwResult",
        "LinearCode",
        "ProjectivePointSet",
        "bridge_rows",
        "evaluation_code",
        "generalized_hamming_weight",
        "projective_points",
    ),
    "errors": ("HypothesisError", "ParseError"),
    "gflinalg": ("FieldMatrix", "FieldSpec"),
    "gmd": (
        "CONVENTIONS",
        "FIXED_DIM",
        "OWN_DIM",
        "DeltaResult",
        "GmdQuery",
        "RegularityResult",
        "SRContext",
        "StabilizationResult",
        "Verdict",
        "delta",
        "delta_bruteforce",
        "delta_fast",
        "regularity_index",
        "stabilization_value",
        "verify_theorems",
    ),
    "groebner": ("IdealPresentation", "groebner_basis", "intersect"),
    "hilbert": ("hilbert_data", "hilbert_function"),
    "polyring": ("Polynomial", "RingSpec", "parse_polynomial", "poly_to_str"),
    "schemes": ("RingProfile", "build_profile", "build_profile_from_primes"),
    "simplicial": (
        "BettiTable",
        "SimplicialComplex",
        "betti_table",
        "depth",
        "face_ring_minimal_primes",
        "is_shellable",
        "proj_connected",
        "regularity",
        "stanley_reisner_ideal",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)
