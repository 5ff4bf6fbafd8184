"""Built-in reproducible suites: rings, complexes, and point sets.

Everything here is deterministic.  Random members are frozen by per-member
seeds; grids are capped per cell by a subspace-count budget so the full
battery stays affordable while still exercising degrees up to 4 and counts
up to 3 wherever the graded pieces are small enough.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .codes import ProjectivePointSet, projective_points, standard_ring
from .gflinalg import FieldSpec, subspace_count
from .gmd import GmdQuery, SRContext, delta_bruteforce, delta_fast
from .groebner import IdealPresentation
from .hilbert import hilbert_function
from .polyring import RingSpec
from .schemes import RingProfile, build_profile
from .simplicial import (
    SimplicialComplex,
    betti_table,
    face_ring_minimal_primes,
    is_shellable,
    minimal_non_faces,
    proj_connected,
    stanley_reisner_ideal,
)

CELL_BUDGET = 20000
T_CAP = 4
ELL_CAP = 3

F2 = FieldSpec(2)
F3 = FieldSpec(3)


@lru_cache(maxsize=None)
def face_ring_profile(complex_: SimplicialComplex, field: FieldSpec) -> RingProfile:
    ring = standard_ring(field, complex_.n)
    ideal = stanley_reisner_ideal(complex_, ring)
    primes = face_ring_minimal_primes(complex_, ring)
    return build_profile(ideal, primes)


def sr_context(complex_: SimplicialComplex, field: FieldSpec) -> SRContext:
    table = betti_table(complex_, field)
    return SRContext(
        depth=table.depth(),
        regularity=table.regularity(),
        proj_connected=proj_connected(complex_),
        shellable=is_shellable(complex_).status,
    )


def seeded_point_set(field: FieldSpec, ambient: int, size: int, seed: int) -> ProjectivePointSet:
    """Reproducible sample of distinct projective points."""
    universe = projective_points(field, ambient)
    if size > len(universe):
        raise ValueError(f"only {len(universe)} points available, asked for {size}")
    rng = random.Random(seed)
    return ProjectivePointSet(field, ambient, rng.sample(universe, size))


@dataclass(frozen=True)
class RingCase:
    """One suite member; the profile is built lazily and memoized."""

    name: str
    kind: str  # "ideal" | "face-ring" | "points"
    field: FieldSpec
    data: tuple

    @lru_cache(maxsize=None)
    def build(self) -> RingProfile:
        if self.kind == "ideal":
            names, gens, primes = self.data
            ring = RingSpec(self.field, names)
            ideal = IdealPresentation.from_strings(ring, gens)
            prime_ideals = [IdealPresentation.from_strings(ring, g) for g in primes]
            return build_profile(ideal, prime_ideals)
        if self.kind == "face-ring":
            (complex_,) = self.data
            return face_ring_profile(complex_, self.field)
        ambient, size, seed = self.data
        return seeded_point_set(self.field, ambient, size, seed).vanishing_profile()


TRIANGLE_BOUNDARY = SimplicialComplex(3, [(0, 1), (1, 2), (0, 2)])
TWO_DISJOINT_EDGES = SimplicialComplex(4, [(0, 1), (2, 3)])


@lru_cache(maxsize=1)
def ring_suite() -> tuple[RingCase, ...]:
    """Certified reduced members for the brute/fast equivalence battery."""
    cases = [
        RingCase(
            "f2-onedim-three-primes",
            "ideal",
            F2,
            (
                ("x", "y", "z"),
                ("x^3+y^2*z", "x*y+z^2"),
                (
                    ("x", "z"),
                    ("y+z", "x+z"),
                    ("x*y+z^2", "x^2+y^2+x*z+y*z+z^2"),
                ),
            ),
        ),
        RingCase(
            "f3-plane-with-two-lines",
            "ideal",
            F3,
            (
                ("x", "y", "z"),
                ("y^2-y*z", "x^2*y-y*z^2"),
                (("y",), ("y-z", "x-z"), ("y-z", "x+z")),
            ),
        ),
        RingCase(
            "f2-two-lines",
            "ideal",
            F2,
            (("x", "y"), ("x*y",), (("x",), ("y",))),
        ),
        RingCase(
            "f3-two-lines",
            "ideal",
            F3,
            (("x", "y"), ("x*y",), (("x",), ("y",))),
        ),
        RingCase(
            "f2-plane-and-line",
            "ideal",
            F2,
            (("x", "y", "z"), ("x*y", "x*z"), (("x",), ("y", "z"))),
        ),
        RingCase(
            "f2-coordinate-plane",
            "ideal",
            F2,
            (("x", "y", "z"), ("x",), (("x",),)),
        ),
        RingCase(
            "f2-hyperplane-and-plane",
            "ideal",
            F2,
            (("x", "y", "z", "w"), ("x*y", "x*z"), (("x",), ("y", "z"))),
        ),
        RingCase("f2-triangle-boundary", "face-ring", F2, (TRIANGLE_BOUNDARY,)),
        RingCase("f3-triangle-boundary", "face-ring", F3, (TRIANGLE_BOUNDARY,)),
        RingCase("f2-disjoint-edges", "face-ring", F2, (TWO_DISJOINT_EDGES,)),
        RingCase("f2-points5-seed11", "points", F2, (3, 5, 11)),
        RingCase("f2-points6-seed12", "points", F2, (3, 6, 12)),
        RingCase("f3-points4-seed13", "points", F3, (3, 4, 13)),
        RingCase("f3-points5-seed14", "points", F3, (3, 5, 14)),
    ]
    return tuple(cases)


@dataclass(frozen=True)
class EquivalenceCell:
    t: int
    ell: int
    brute_value: int
    fast_value: int
    subspaces_searched: int
    brute_status: str
    fast_status: str

    @property
    def agree(self) -> bool:
        return (self.brute_value, self.brute_status) == (self.fast_value, self.fast_status)


def equivalence_cells(
    profile: RingProfile,
    t_cap: int = T_CAP,
    ell_cap: int = ELL_CAP,
    jobs: int = 1,
) -> list[EquivalenceCell]:
    """Brute versus fast on every affordable cell of the grid.

    Cells whose subspace count exceeds ``CELL_BUDGET`` are skipped; cells with
    l beyond the piece dimension stay (both routes must report the empty
    branch).  Values and statuses must agree cell by cell; a cell where
    they do not is recorded, not raised, so the report lists it.
    """
    p = profile.ring.field
    out = []
    for t in range(1, t_cap + 1):
        m = hilbert_function(profile.ideal, t)
        for ell in range(1, ell_cap + 1):
            count = subspace_count(m, ell, p) if ell <= m else 0
            if count > CELL_BUDGET:
                continue
            brute = delta_bruteforce(GmdQuery(profile, t, ell, method="brute"), jobs=jobs)
            fast = delta_fast(GmdQuery(profile, t, ell, method="fast"))
            out.append(
                EquivalenceCell(t, ell, brute.value, fast.value, count, brute.status, fast.status)
            )
    return out


@dataclass(frozen=True)
class ComplexCase:
    name: str
    complex_: SimplicialComplex


@lru_cache(maxsize=1)
def complex_suite() -> tuple[ComplexCase, ...]:
    c = SimplicialComplex
    return (
        ComplexCase("triangle-boundary", TRIANGLE_BOUNDARY),
        ComplexCase("full-triangle", c(3, [(0, 1, 2)])),
        ComplexCase("square-cycle", c(4, [(0, 1), (1, 2), (2, 3), (0, 3)])),
        ComplexCase("pentagon-cycle", c(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])),
        ComplexCase("path-four", c(4, [(0, 1), (1, 2), (2, 3)])),
        ComplexCase("star-four", c(5, [(0, 1), (0, 2), (0, 3), (0, 4)])),
        ComplexCase("two-triangles-shared-edge", c(4, [(0, 1, 2), (1, 2, 3)])),
        ComplexCase("triangle-with-tail", c(4, [(0, 1, 2), (2, 3)])),
        ComplexCase(
            "octahedron",
            c(
                6,
                [
                    (0, 2, 4),
                    (0, 2, 5),
                    (0, 3, 4),
                    (0, 3, 5),
                    (1, 2, 4),
                    (1, 2, 5),
                    (1, 3, 4),
                    (1, 3, 5),
                ],
            ),
        ),
        ComplexCase("bowtie", c(5, [(0, 1, 2), (2, 3, 4)])),
        ComplexCase("two-disjoint-edges", TWO_DISJOINT_EDGES),
        ComplexCase("two-disjoint-triangles", c(6, [(0, 1, 2), (3, 4, 5)])),
    )


def bound_suite_members() -> list[ComplexCase]:
    """Complexes for the regularity-index bound battery.

    Connected with depth at least 2 and a nonzero face ideal; the zero
    ideal (full simplex) sits outside the bound statements because the
    degree range starts at 1 while its regularity is 0.
    """
    out = []
    for case in complex_suite():
        if not minimal_non_faces(case.complex_):
            continue
        if not proj_connected(case.complex_):
            continue
        if betti_table(case.complex_, F2).depth() < 2:
            continue
        out.append(case)
    return out


@dataclass(frozen=True)
class BridgeCase:
    name: str
    field: FieldSpec
    ambient: int
    size: int
    seed: int

    def point_set(self) -> ProjectivePointSet:
        return seeded_point_set(self.field, self.ambient, self.size, self.seed)


def bridge_suite(seed: int = 2026) -> tuple[BridgeCase, ...]:
    """20 point sets in the projective plane, reproducible from the seed."""
    sizes_f2 = [3, 4, 5, 6, 7, 7, 6, 5, 4, 3]
    sizes_f3 = [3, 4, 5, 6, 7, 8, 8, 7, 6, 5]
    cases = []
    for k, size in enumerate(sizes_f2):
        cases.append(BridgeCase(f"f2-n{size}-k{k}", F2, 3, size, seed * 1000 + k))
    for k, size in enumerate(sizes_f3):
        cases.append(BridgeCase(f"f3-n{size}-k{k}", F3, 3, size, seed * 1000 + 100 + k))
    return tuple(cases)
