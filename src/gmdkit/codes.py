"""Projective evaluation codes and generalized Hamming weights.

A finite set of projective points gives a vanishing ideal whose quotient
is one-dimensional with one multiplicity-one minimal prime per point, and
for each degree an evaluation code whose r-th generalized Hamming weight
equals the distance function of the ideal at that degree and count.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .gflinalg import (
    FieldMatrix,
    FieldSpec,
    SubspaceIterator,
    kernel_basis,
    rank,
    rref,
    scan_in_chunks,
    subset_ranks,
    subspace_count,
)
from .groebner import IdealPresentation
from .hilbert import hilbert_function
from .polyring import Polynomial, RingSpec, graded_piece_basis
from .schemes import RingProfile, build_profile_from_primes

ENUMERATE_LIMIT = 20000

_SHORT_NAMES = ("x", "y", "z", "w")


def standard_ring(field: FieldSpec, nvars: int) -> RingSpec:
    if nvars <= len(_SHORT_NAMES):
        return RingSpec(field, _SHORT_NAMES[:nvars])
    return RingSpec(field, tuple(f"x{i + 1}" for i in range(nvars)))


def _normalize_point(field: FieldSpec, coords) -> tuple[int, ...]:
    vec = tuple(c % field.p for c in coords)
    lead = next((j for j, c in enumerate(vec) if c), None)
    if lead is None:
        raise ValueError("the zero vector is not a projective point")
    scale = field.inv(vec[lead])
    return tuple((c * scale) % field.p for c in vec)


def projective_points(field: FieldSpec, ambient: int) -> list[tuple[int, ...]]:
    """All points of the projective space, lexicographically sorted.

    Representatives have their first nonzero coordinate equal to 1.
    """
    if ambient < 2:
        raise ValueError("ambient dimension must be at least 2")
    out = []
    for lead in range(ambient):
        # pivot at position lead, free coordinates after it
        tail = ambient - lead - 1
        for combo in itertools.product(range(field.p), repeat=tail):
            out.append((0,) * lead + (1,) + combo)
    out.sort()
    return out


class ProjectivePointSet:
    """Distinct projective points, each scaled so its first nonzero entry is 1."""

    __slots__ = ("field", "ambient", "points", "_profile")

    def __init__(self, field: FieldSpec, ambient: int, points):
        if ambient < 2:
            raise ValueError("projective points need at least 2 coordinates")
        normalized = []
        seen = set()
        for coords in points:
            if len(coords) != ambient:
                raise ValueError(
                    f"point {tuple(coords)} has {len(coords)} coordinates, expected {ambient}"
                )
            vec = _normalize_point(field, coords)
            if vec in seen:
                raise ValueError(f"duplicate projective point {vec}")
            seen.add(vec)
            normalized.append(vec)
        if not normalized:
            raise ValueError("point set is empty")
        self.field = field
        self.ambient = ambient
        self.points = tuple(normalized)
        self._profile = None

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"ProjectivePointSet(p={self.field.p}, n={self.ambient}, N={len(self)})"

    def ring(self) -> RingSpec:
        return standard_ring(self.field, self.ambient)

    def evaluation_vectors(self, t: int) -> tuple[tuple[int, ...], ...]:
        """Values of the degree-t monomials at each point, one vector per point.

        Monomials are in ``graded_piece_basis`` order; the degree-t
        evaluation matrix is the transpose of this table.
        """
        p = self.field.p
        monos = graded_piece_basis(self.ring(), t)
        return tuple(
            tuple(evaluate_monomial(mono, pt, p) for mono in monos) for pt in self.points
        )

    def point_prime(self, ring: RingSpec, index: int) -> IdealPresentation:
        """Linear forms vanishing at one point: the kernel of evaluation."""
        row = FieldMatrix(self.field, [list(self.points[index])])
        forms = []
        for coeffs in kernel_basis(row).to_lists():
            terms = {}
            for j, c in enumerate(coeffs):
                if c:
                    exp = [0] * self.ambient
                    exp[j] = 1
                    terms[tuple(exp)] = c
            forms.append(Polynomial(ring, terms))
        return IdealPresentation(ring, forms)

    def vanishing_profile(self) -> RingProfile:
        """Certified profile of S/I(X): one multiplicity-one prime per point.

        Degree-piece dimensions of prime-subset families are served by
        evaluation ranks, so the distance machinery on point sets needs no
        per-subset elimination chains.
        """
        if self._profile is not None:
            return self._profile
        ring = self.ring()
        primes = [self.point_prime(ring, i) for i in range(len(self))]
        profile = build_profile_from_primes(primes)
        profile.family_backend = PointFamilyBackend(self, profile)
        self._profile = profile
        return profile


class PointFamilyBackend:
    """Family degree data for vanishing ideals, via evaluation ranks.

    The degree-t piece of S/J for a subset of the points has dimension
    equal to the rank of the monomial-evaluation matrix at those points,
    and it equals the subset size from degree (size - 1) on.  That rank is
    the rank of the subset's evaluation vectors, so one table per degree
    holds it for every subset, indexed by bitmask.  Agreement with the
    Groebner route is covered by the property suite.
    """

    def __init__(self, points: ProjectivePointSet, profile: RingProfile):
        self._points = points
        self._profile = profile
        self._ranks: dict[int, bytes] = {}

    def rank_table(self, t: int) -> bytes:
        """Rank of the degree-t evaluation vectors of every point subset."""
        table = self._ranks.get(t)
        if table is None:
            n = len(self._points)
            if hilbert_function(self._profile.ideal, t) == n:
                # all n vectors are independent: a subset's rank is its size
                table = bytes(map(int.bit_count, range(1 << n)))
            else:
                table = subset_ranks(self._points.field, self._points.evaluation_vectors(t))
            self._ranks[t] = table
        return table

    def piece_dim(self, indices: tuple[int, ...], t: int) -> int:
        full = hilbert_function(self._profile.ideal, t)
        return full - self.rank_table(t)[sum(1 << i for i in indices)]

    def piece_dims(self, t: int) -> bytes:
        """``piece_dim`` of every point subset, indexed by bitmask."""
        full = hilbert_function(self._profile.ideal, t)
        return bytes(map(full.__sub__, self.rank_table(t)))

    def regime(self, indices: tuple[int, ...]) -> int:
        if not indices:
            return 1
        return max(1, len(indices) - 1)


def evaluate_monomial(exponents, point, p: int) -> int:
    value = 1
    for e, c in zip(exponents, point):
        if e:
            value = (value * pow(c, e, p)) % p
    return value


@dataclass(frozen=True)
class LinearCode:
    field: FieldSpec
    generator: FieldMatrix  # full row rank

    def __post_init__(self):
        if self.generator.rows == 0:
            raise ValueError("a code needs at least one generator row")
        if rank(self.generator) != self.generator.rows:
            raise ValueError("generator rows are linearly dependent")

    @property
    def length(self) -> int:
        return self.generator.cols

    @property
    def dimension(self) -> int:
        return self.generator.rows


def evaluation_code(points: ProjectivePointSet, t: int) -> LinearCode:
    """Code spanned by degree-t monomial evaluations at the fixed representatives."""
    if t < 1:
        raise ValueError("degree t must be at least 1")
    rows = tuple(zip(*points.evaluation_vectors(t)))
    reduced, rk, _ = rref(FieldMatrix._raw(points.field, rows, len(points)))
    if rk == 0:
        raise ValueError("all degree-t monomials vanish on the point set")
    basis = FieldMatrix._raw(points.field, reduced.data[:rk], len(points))
    return LinearCode(points.field, basis)


def support_size(matrix: FieldMatrix) -> int:
    return sum(1 for col in zip(*matrix.data) if any(col))


@dataclass(frozen=True)
class GhwResult:
    value: int
    r: int
    strategy: str
    witness: list[list[int]]  # RREF basis of a minimum-support subcode


def _or_each(unions, masks):
    # a function, so each generator keeps its own ``masks``: a generator
    # expression written in the caller's loop would read the last row's
    return (u | m for u in unions for m in masks)


def _enum_scan(generator: FieldMatrix, r: int, start: int, stop: int):
    """Least support size over subcodes [start, stop) and its first index.

    The support of a subcode is the union of the supports of its basis
    codewords.  Within one pivot combination the bases are the product of
    the possible rows, so each row u contributes the bitmask of the nonzero
    coordinates of u*G once, and the product of those bitmasks is ORed as
    it streams.  Only the inner rows' bitmasks are held; the first row's
    stream, the longest, is read once.
    """
    p = generator.field.p
    columns = tuple(zip(*generator.data))

    def support(u) -> int:
        return sum(1 << j for j, col in enumerate(columns) if sum(map(operator.mul, u, col)) % p)

    it = SubspaceIterator(generator.rows, r, generator.field, start, stop)
    best = None
    best_index = None
    for lo, hi, rows in it.pivot_blocks():
        unions = map(support, rows[0])
        for vectors in rows[1:]:
            unions = _or_each(unions, list(map(support, vectors)))
        first = max(start, lo)
        unions = itertools.islice(unions, first - lo, min(stop, hi) - lo)
        # (weight, index) pairs: min takes the least weight at its first index
        weight, index = min(zip(map(int.bit_count, unions), itertools.count(first)))
        if best is None or weight < best:
            best = weight
            best_index = index
    return best, best_index


def _ghw_enumerate(code: LinearCode, r: int, jobs: int) -> GhwResult:
    g = code.generator
    it = SubspaceIterator(code.dimension, r, code.field)
    partials = scan_in_chunks(it, jobs, _enum_scan, (g, r))
    best = None
    best_index = None
    for weight, index in partials:
        if weight is None:
            continue
        if best is None or weight < best or (weight == best and index < best_index):
            best = weight
            best_index = index
    u = SubspaceIterator(code.dimension, r, code.field).matrix_at(best_index)
    witness = rref(u.matmul(g))[0].to_lists()
    return GhwResult(best, r, "enumerate", witness)


def _ghw_shorten(code: LinearCode, r: int) -> GhwResult:
    """Largest column set Z with rank(G_Z) <= k-r gives weight N - |Z|.

    A subcode avoiding the columns in Z is spanned by left-kernel vectors of
    G restricted to Z; maximality of Z makes its support weight exactly N-|Z|.
    """
    g = code.generator
    n = code.length
    k = code.dimension
    for size in range(n, -1, -1):
        for zset in itertools.combinations(range(n), size):
            sub = g.column_submatrix(zset)
            if rank(sub) <= k - r:
                left = kernel_basis(sub.transpose())
                u = FieldMatrix._raw(code.field, left.data[:r], k)
                witness = rref(u.matmul(g))[0].to_lists()
                return GhwResult(n - size, r, "shorten", witness)
    raise AssertionError("unreachable: the empty column set always qualifies")


def generalized_hamming_weight(
    code: LinearCode, r: int, strategy: str = "auto", jobs: int = 1
) -> GhwResult:
    """Minimum support size over r-dimensional subcodes.

    "enumerate" walks every subcode; "shorten" scans column subsets by
    descending size for low-rank restrictions.  "auto" enumerates when the
    subcode count is small and shortens otherwise.  Both are exact.
    """
    if not 1 <= r <= code.dimension:
        raise ValueError(f"r must lie in 1..{code.dimension}")
    if strategy not in ("auto", "enumerate", "shorten"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "auto":
        count = subspace_count(code.dimension, r, code.field)
        strategy = "enumerate" if count <= ENUMERATE_LIMIT else "shorten"
    if strategy == "enumerate":
        return _ghw_enumerate(code, r, jobs)
    return _ghw_shorten(code, r)


@dataclass(frozen=True)
class BridgeReport:
    t: int
    ell: int
    delta_value: int
    ghw_value: int
    code_length: int
    code_dimension: int
    agree: bool


def bridge_check(points: ProjectivePointSet, t: int, ell: int, jobs: int = 1) -> BridgeReport:
    """Compare the ideal-theoretic distance with the code's Hamming weight.

    Both sides are computed by unrelated routes: the distance through the
    minimal primes of the vanishing ideal, the weight straight from the
    generator matrix.  They agree whenever the count does not exceed the
    code dimension.
    """
    from .gmd import GmdQuery, delta_fast

    profile = points.vanishing_profile()
    code = evaluation_code(points, t)
    if not 1 <= ell <= code.dimension:
        raise ValueError(f"count l must lie in 1..{code.dimension} for this degree")
    d = delta_fast(GmdQuery(profile, t, ell, method="fast"))
    w = generalized_hamming_weight(code, ell, jobs=jobs)
    return BridgeReport(
        t=t,
        ell=ell,
        delta_value=d.value,
        ghw_value=w.value,
        code_length=code.length,
        code_dimension=code.dimension,
        agree=d.value == w.value,
    )
