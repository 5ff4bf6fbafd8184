"""Simplicial complexes: face ideals, homology, Betti numbers, shellability.

Vertices are 0-based internally.  Homological data is computed over the
prime field attached to the polynomial ring in use: reduced simplicial
homology from boundary matrices, graded Betti numbers of the face ring by
summing reduced homology of induced subcomplexes over all vertex subsets,
and depth/regularity read off the Betti table.  Shellability is decided by
an exhaustive subset search with an explicit budget.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

from .gflinalg import FieldSpec, PackedVectors
from .gmd import SRContext
from .groebner import IdealPresentation
from .polyring import Polynomial, RingSpec, standard_ring
from .records import Record, ValueRecord
from .schemes import RingProfile, build_profile

SHELLING_FACET_BUDGET = 12


class SimplicialComplex:
    """A complex given by its facets on vertex set {0..n-1}.

    Facets must form an antichain and every vertex must lie in some facet
    (isolated vertices appear as singleton facets).
    """

    def __init__(self, n: int, facets):
        if n < 1:
            raise ValueError("need at least one vertex")
        sets = []
        for f in facets:
            fs = frozenset(int(v) for v in f)
            if not fs:
                raise ValueError("empty facet")
            if any(v < 0 or v >= n for v in fs):
                raise ValueError(f"facet {sorted(fs)} out of vertex range")
            sets.append(fs)
        sets = list(dict.fromkeys(sets))
        for a, b in itertools.permutations(sets, 2):
            if a < b:
                raise ValueError(f"facet {sorted(a)} is contained in facet {sorted(b)}")
        covered = set().union(*sets) if sets else set()
        if covered != set(range(n)):
            missing = sorted(set(range(n)) - covered)
            raise ValueError(f"vertices {missing} appear in no facet")
        self.n = n
        self.facets = tuple(sorted(sets, key=lambda s: (len(s), sorted(s))))
        self._betti: dict[int, "BettiTable"] = {}

    @classmethod
    def from_one_based(cls, n: int, facets) -> "SimplicialComplex":
        return cls(n, [[v - 1 for v in f] for f in facets])

    def dim(self) -> int:
        """Dimension of the complex (max facet size minus 1)."""
        return max(len(f) for f in self.facets) - 1

    def is_face(self, s) -> bool:
        fs = frozenset(s)
        return any(fs <= f for f in self.facets)

    def f_vector(self) -> tuple[int, ...]:
        """(f_0, ..., f_dim) with f_i = number of i-dimensional faces."""
        by_dim = _faces_by_dim(self.facets)
        return tuple(len(by_dim[i]) for i in range(self.dim() + 1))

    def induced(self, vertices) -> list[frozenset[int]]:
        """Facets of the subcomplex induced on a vertex subset."""
        w = frozenset(vertices)
        traces = {f & w for f in self.facets}
        traces.discard(frozenset())
        maximal = [t for t in traces if not any(t < u for u in traces)]
        return maximal

    def __repr__(self):
        return f"SimplicialComplex(n={self.n}, facets={[sorted(f) for f in self.facets]})"


def minimal_non_faces(complex_: SimplicialComplex) -> list[tuple[int, ...]]:
    """Inclusion-minimal vertex subsets that are not faces, sorted."""
    out = []
    for size in range(2, complex_.n + 1):
        for cand in itertools.combinations(range(complex_.n), size):
            if complex_.is_face(cand):
                continue
            if all(
                complex_.is_face(cand[:i] + cand[i + 1 :]) for i in range(size)
            ):
                out.append(cand)
    return out


def face_count_hilbert(complex_: SimplicialComplex, t: int) -> int:
    """Degree-t dimension of the face ring, straight from the f-vector.

    Monomials of degree t supported on a fixed i-dimensional face number
    C(t-1, i), summed over the f-vector; independent of the Groebner route.
    """
    if t < 0:
        return 0
    if t == 0:
        return 1
    return sum(f * comb(t - 1, i) for i, f in enumerate(complex_.f_vector()))


def stanley_reisner_ideal(complex_: SimplicialComplex, ring: RingSpec) -> IdealPresentation:
    """Face ideal: squarefree monomials of the minimal non-faces."""
    if ring.n != complex_.n:
        raise ValueError("ring must have one variable per vertex")
    gens = []
    for nonface in minimal_non_faces(complex_):
        e = [0] * ring.n
        for v in nonface:
            e[v] = 1
        gens.append(Polynomial.monomial(ring, tuple(e)))
    return IdealPresentation(ring, gens)


def face_ring_minimal_primes(
    complex_: SimplicialComplex, ring: RingSpec
) -> list[IdealPresentation]:
    """One linear prime per facet: the variables outside the facet."""
    if ring.n != complex_.n:
        raise ValueError("ring must have one variable per vertex")
    primes = []
    for facet in complex_.facets:
        gens = [Polynomial.variable(ring, i) for i in range(ring.n) if i not in facet]
        primes.append(IdealPresentation(ring, gens))
    return primes


def proj_connected(complex_: SimplicialComplex) -> bool:
    """Connectivity of the facet graph (facets adjacent when they meet)."""
    facets = complex_.facets
    if len(facets) <= 1:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(len(facets)):
            if j not in seen and facets[i] & facets[j]:
                seen.add(j)
                frontier.append(j)
    return len(seen) == len(facets)


def _faces_by_dim(facets) -> dict[int, list[tuple[int, ...]]]:
    all_faces: set[tuple[int, ...]] = set()
    for f in facets:
        elems = sorted(f)
        for r in range(len(elems) + 1):
            for sub in itertools.combinations(elems, r):
                all_faces.add(sub)
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for face in all_faces:
        by_dim.setdefault(len(face) - 1, []).append(face)
    for k in by_dim:
        by_dim[k].sort()
    return by_dim


def _boundary_rank(by_dim, k: int, field: FieldSpec) -> int:
    """Rank of the boundary map from k-faces to (k-1)-faces, one packed column per k-face."""
    rows = by_dim.get(k - 1, [])
    cols = by_dim.get(k, [])
    if not rows or not cols:
        return 0
    packed = PackedVectors(field, len(rows))
    shift = {face: packed.width * i for i, face in enumerate(rows)}
    signs = (1, field.p - 1)
    words = [
        sum(signs[drop % 2] << shift[face[:drop] + face[drop + 1 :]] for drop in range(len(face)))
        for face in cols
    ]
    return len(packed.echelon(words))


def _homology_of_facets(facets, field: FieldSpec) -> dict[int, int]:
    """Reduced homology dimensions over F_p, indexed by degree."""
    if not facets:
        return {}
    by_dim = _faces_by_dim(facets)
    out: dict[int, int] = {}
    top = max(by_dim)
    ranks = {k: _boundary_rank(by_dim, k, field) for k in range(0, top + 2)}
    for k in range(-1, top + 1):
        nk = len(by_dim.get(k, []))
        h = nk - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if h:
            out[k] = h
    return out


class BettiTable(Record):
    """Graded Betti numbers beta_{i,j} of the face ring, nonzero entries only."""

    __slots__ = ("nvars", "entries")

    def projective_dimension(self) -> int:
        return max(i for i, _ in self.entries)

    def regularity(self) -> int:
        return max(j - i for i, j in self.entries)

    def depth(self) -> int:
        return self.nvars - self.projective_dimension()


def betti_table(complex_: SimplicialComplex, field: FieldSpec) -> BettiTable:
    """Betti numbers by summing reduced homology of induced subcomplexes.

    beta_{i,j} collects dim of the (j-i-1)-st reduced homology of the
    subcomplex induced on each j-element vertex subset; the empty subset
    contributes beta_{0,0} = 1.
    """
    hit = complex_._betti.get(field.p)
    if hit is not None:
        return hit
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    for j in range(1, complex_.n + 1):
        for w in itertools.combinations(range(complex_.n), j):
            sub_facets = complex_.induced(w)
            for k, h in _homology_of_facets(sub_facets, field).items():
                i = j - k - 1
                if i >= 1:
                    key = (i, j)
                    entries[key] = entries.get(key, 0) + h
    table = BettiTable(complex_.n, entries)
    complex_._betti[field.p] = table
    return table


def regularity(complex_: SimplicialComplex, field: FieldSpec) -> int:
    return betti_table(complex_, field).regularity()


def depth(complex_: SimplicialComplex, field: FieldSpec) -> int:
    """Depth of the face ring over F_p (via the length of its resolution)."""
    return betti_table(complex_, field).depth()


class ShellingResult(ValueRecord):
    """``status`` is "shellable", "not_shellable" or "inconclusive"; ``order``
    holds the facet indices of a shelling when there is one.  Equal results
    compare equal."""

    __slots__ = ("status", "order")

    @property
    def is_shellable(self) -> bool | None:
        if self.status == "inconclusive":
            return None
        return self.status == "shellable"


def _can_extend(facet, used_facets) -> bool:
    # the new facet must meet the union of the used ones in a nonempty pure
    # union of its codimension-one faces
    if len(facet) == 1:
        return True
    ridge_vertices = [
        v
        for v in facet
        if any(facet - {v} <= g for g in used_facets)
    ]
    if not ridge_vertices:
        return False
    for g in used_facets:
        if all(v in g for v in ridge_vertices):
            # facet & g is contained in no admissible codim-one face
            return False
    return True


def is_shellable(complex_: SimplicialComplex) -> ShellingResult:
    """Exhaustive shelling search over facet orders, with a size budget.

    Subset dynamic programming: an order of a facet subset S exists ending
    anywhere iff some facet F in S extends an order of S - {F}.  Complexes
    with more than SHELLING_FACET_BUDGET facets come back inconclusive.
    """
    facets = complex_.facets
    m = len(facets)
    if m > SHELLING_FACET_BUDGET:
        return ShellingResult("inconclusive", None)
    if m == 1:
        return ShellingResult("shellable", (0,))
    order_of: dict[int, tuple[int, ...]] = {1 << i: (i,) for i in range(m)}
    full = (1 << m) - 1
    frontier = {1 << i for i in range(m)}
    while frontier:
        next_frontier = set()
        for mask in frontier:
            if mask == full:
                return ShellingResult("shellable", order_of[mask])
            used = [facets[i] for i in range(m) if mask & (1 << i)]
            for i in range(m):
                bit = 1 << i
                if mask & bit:
                    continue
                new_mask = mask | bit
                if new_mask in order_of:
                    continue
                if _can_extend(facets[i], used):
                    order_of[new_mask] = order_of[mask] + (i,)
                    next_frontier.add(new_mask)
        frontier = next_frontier
    return ShellingResult("not_shellable", None)


@lru_cache(maxsize=None)
def face_ring_profile(complex_: SimplicialComplex, field: FieldSpec) -> RingProfile:
    """The profile of the face ring over F_p, certified by its facet primes."""
    ring = standard_ring(field, complex_.n)
    ideal = stanley_reisner_ideal(complex_, ring)
    primes = face_ring_minimal_primes(complex_, ring)
    return build_profile(ideal, primes)


def sr_context(complex_: SimplicialComplex, field: FieldSpec) -> SRContext:
    """The face-ring facts that the bound laws of ``verify_theorems`` read."""
    table = betti_table(complex_, field)
    return SRContext(
        depth=table.depth(),
        regularity=table.regularity(),
        proj_connected=proj_connected(complex_),
        shellable=is_shellable(complex_).status,
    )
