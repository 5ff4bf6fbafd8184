"""Projective evaluation codes and generalized Hamming weights.

A finite set of projective points gives a vanishing ideal whose quotient
is one-dimensional with one multiplicity-one minimal prime per point, and
for each degree an evaluation code whose r-th generalized Hamming weight
equals the distance function of the ideal at that degree and count.
"""

from __future__ import annotations

import itertools
import math

from .errors import InvariantError
from .gflinalg import (
    FieldMatrix,
    FieldSpec,
    PackedVectors,
    SubspaceIterator,
    kernel_basis,
    rank,
    rref,
    scan_in_chunks,
    subspace_count,
)
from .groebner import IdealPresentation
from .hilbert import hilbert_function
from .polyring import Polynomial, RingSpec, graded_piece_basis, standard_ring
from .records import ValueRecord
from .schemes import RankTableBackend, RingProfile, build_profile_from_primes, check_prime_count

# Subcode counts up to which ``generalized_hamming_weight`` always
# enumerates, and past which it never does.  One subcode costs 0.2-1.2 us on
# a 2-core host under Python 3.11, so the cap keeps an enumeration under
# about 25 s.
ENUMERATE_LIMIT = 20000
ENUMERATE_CAP = 20_000_000
# Between the two, enumeration is taken while the column search's worst
# case exceeds this many times the subcode count.  On 236 random and
# evaluation codes over F_2, F_3 and F_5 the faster route switched anywhere
# from about 0.02 to over 100000 times the count, by k and r; 10 lost the
# least time in all.
ENUMERATE_RATIO = 10

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


class PointFamilyBackend(RankTableBackend):
    """Family degree data for vanishing ideals, via evaluation ranks.

    The degree-t piece of S/J for a subset of the points has dimension
    equal to the rank of the monomial-evaluation matrix at those points,
    the rank of the subset's evaluation vectors: the normal-form rule of
    ``RankTableBackend``, with a point's block one evaluation vector.
    From the degree where HF_I reaches the point count every subset is
    independent, and its rank is its size: no vector is built there.
    Points are linear primes, so ``FamilyIntersection.regime`` takes the
    linear rule.  Agreement with the Groebner route is covered by the
    property suite.
    """

    def __init__(self, points: ProjectivePointSet, profile: RingProfile):
        super().__init__(profile)
        self._points = points

    def _make_piece(self, t: int) -> tuple:
        """HF_I(t), the packing and the packed degree-t evaluation vectors, if HF_I(t) < n."""
        full = hilbert_function(self._profile.ideal, t)
        if full == len(self._points):
            return full, None, None
        vectors = self._points.evaluation_vectors(t)
        packed = PackedVectors(self._points.field, len(vectors[0]))
        return full, packed, [packed.pack(v) for v in vectors]

    def block(self, i: int, t: int) -> list[int]:
        return [self._piece(t)[2][i]]

    def degree_table(self, t: int):
        n = len(self._points)
        if t not in self._tables and self.degree(t)[0] == n:
            check_prime_count(n)
            self._tables[t] = bytes(map(int.bit_count, range(1 << n)))
        return super().degree_table(t)

    def piece_dim(self, indices: tuple[int, ...], t: int) -> int:
        full = self.degree(t)[0]
        if full == len(self._points):
            return full - len(indices)
        return super().piece_dim(indices, t)

    def piece_dims(self, t: int) -> bytes:
        """``piece_dim`` of every point subset, indexed by bitmask."""
        full = self.degree(t)[0]
        return bytes(map(full.__sub__, self.degree_table(t)))


def evaluate_monomial(exponents, point, p: int) -> int:
    value = 1
    for e, c in zip(exponents, point):
        if e:
            value = (value * pow(c, e, p)) % p
    return value


class LinearCode:
    """A linear code over F_p given by a generator matrix of full row rank."""

    __slots__ = ("field", "generator")

    def __init__(self, field: FieldSpec, generator: FieldMatrix):
        if generator.rows == 0:
            raise ValueError("a code needs at least one generator row")
        if rank(generator) != generator.rows:
            raise ValueError("generator rows are linearly dependent")
        self.field = field
        self.generator = generator

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


class GhwResult(ValueRecord):
    """The r-th weight, the strategy that found it, and the RREF basis of a
    minimum-support subcode as its witness; equal results compare equal.
    The witness is a list, so a result is not hashable."""

    __slots__ = ("value", "r", "strategy", "witness")
    __hash__ = None


def _or_each(unions, masks):
    # a function, so each generator keeps its own ``masks``: a generator
    # expression written in the caller's loop would read the last row's
    return (u | m for u in unions for m in masks)


def _row_supports(generator: FieldMatrix):
    """A function streaming the codeword supports of one basis row.

    ``supports(pivot, free)`` yields, in the row's counter order, the
    support of row ``pivot`` of G plus each combination of the rows in
    ``free``.  Moving a digit by one, a wrap from p - 1 to 0 included, adds
    its generator row once, so a codeword costs about one packed addition.
    """
    p = generator.field.p
    packed = PackedVectors(generator.field, generator.cols)
    fold = packed.fold
    support = packed.support
    words = [packed.pack(row) for row in generator.data]

    def supports(pivot: int, free: list[int]):
        word = words[pivot]
        yield support(word)
        steps = [words[j] for j in free]
        digits = [0] * len(steps)
        for _ in range(p ** len(steps) - 1):
            i = len(steps) - 1
            while True:
                word = fold(word + steps[i])
                digits[i] += 1
                if digits[i] < p:
                    break
                digits[i] = 0
                i -= 1
            yield support(word)

    return supports


def _enum_scan(generator: FieldMatrix, r: int, start: int, stop: int):
    """Least support size over subcodes [start, stop) and its first index.

    The support of a subcode is the union of the supports of its basis
    codewords.  Within one pivot combination the bases are the product of
    the possible rows, so each row's codeword supports are streamed once
    (``_row_supports``) and the product of them is ORed as it streams.
    Only the inner rows' supports are held; the first row's stream, the
    longest, is read once.
    """
    supports = _row_supports(generator)
    it = SubspaceIterator(generator.rows, r, generator.field)
    minima = []
    for lo, hi, rows in it.pivot_blocks(start, stop):
        unions = supports(*rows[0])
        for row in rows[1:]:
            unions = _or_each(unions, list(supports(*row)))
        first = max(start, lo)
        unions = itertools.islice(unions, first - lo, min(stop, hi) - lo)
        minima.append(min(zip(map(int.bit_count, unions), itertools.count(first))))
    # (weight, index) pairs: min takes the least weight at its first index
    return min(minima, default=(None, None))


def _ghw_enumerate(code: LinearCode, r: int, jobs: int) -> GhwResult:
    g = code.generator
    it = SubspaceIterator(code.dimension, r, code.field)
    best, best_index = scan_in_chunks(it.count, jobs, _enum_scan, (g, r))
    witness = rref(it.matrix_at(best_index).matmul(g))[0].to_lists()
    return GhwResult(best, r, "enumerate", witness)


def _largest_low_rank_columns(g: FieldMatrix, bound: int) -> tuple[int, ...] | None:
    """The first largest column set, in ``combinations`` order, of rank <= bound.

    Branch and bound over the columns in index order.  A column is taken
    before it is left out, so sets of one size are reached in
    lexicographic order, and only a strictly larger set replaces the best.
    The taken columns' echelon rows sit on a stack, so each step reduces
    one column.  A column in their span is always taken and gets no leave
    branch: taking it keeps the rank, so leaving it out never gives a
    larger set.  A column that would lift the rank above ``bound`` is left
    out, and a branch is cut once its taken and remaining columns together
    cannot beat the best set.
    """
    packed = PackedVectors(g.field, g.rows)
    columns = [packed.pack(col) for col in zip(*g.data)]
    n = len(columns)
    # per independent taken column: ``PackedVectors.echelon_row``
    basis: list[tuple[int, list[int]]] = []
    taken: list[int] = []
    best = None

    def walk(j: int):
        nonlocal best
        if best is not None and len(taken) + n - j <= len(best):
            return
        if j == n:
            best = tuple(taken)
            return
        v = packed.reduce(columns[j], basis)
        taken.append(j)
        if not v:
            walk(j + 1)
            taken.pop()
            return
        if len(basis) < bound:
            basis.append(packed.echelon_row(v))
            walk(j + 1)
            basis.pop()
        taken.pop()
        walk(j + 1)

    walk(0)
    return best


def _ghw_shorten(code: LinearCode, r: int) -> GhwResult:
    """Largest column set Z with rank(G_Z) <= k-r gives weight N - |Z|.

    A subcode avoiding the columns in Z is spanned by left-kernel vectors of
    G restricted to Z; maximality of Z makes its support weight exactly N-|Z|.
    """
    g = code.generator
    n = code.length
    zset = _largest_low_rank_columns(g, code.dimension - r)
    if zset is None:
        raise InvariantError("no column set has rank at most k - r, not even the empty one")
    left = kernel_basis(g.column_submatrix(zset).transpose())
    u = FieldMatrix._raw(code.field, left.data[:r], code.dimension)
    witness = rref(u.matmul(g))[0]
    weight = support_size(witness)
    if weight != n - len(zset):
        raise InvariantError(f"shortening witness has weight {weight}, expected {n - len(zset)}")
    return GhwResult(weight, r, "shorten", witness.to_lists())


def generalized_hamming_weight(code: LinearCode, r: int, jobs: int = 1) -> GhwResult:
    """Minimum support size over r-dimensional subcodes.

    Both routes are exact: ``_ghw_enumerate`` walks every subcode and
    ``_ghw_shorten`` searches for the largest column set whose restriction
    has rank at most k - r, among at most sum_{j <= k - r} C(n, j) sets.
    It enumerates up to ``ENUMERATE_LIMIT`` subcodes, and up to
    ``ENUMERATE_CAP`` while that many column sets exceed ``ENUMERATE_RATIO``
    times the subcode count; otherwise it shortens.
    """
    if not 1 <= r <= code.dimension:
        raise ValueError(f"r must lie in 1..{code.dimension}")
    count = subspace_count(code.dimension, r, code.field)
    column_sets = sum(math.comb(code.length, j) for j in range(code.dimension - r + 1))
    if count <= ENUMERATE_LIMIT or (
        count <= ENUMERATE_CAP and ENUMERATE_RATIO * count < column_sets
    ):
        return _ghw_enumerate(code, r, jobs)
    return _ghw_shorten(code, r)


def bridge_rows(points: ProjectivePointSet, t_max: int, ells, jobs: int):
    """Rows comparing the ideal-theoretic distance with the code's Hamming weight.

    One row per degree t <= t_max and count l in ``ells`` up to the
    dimension of the degree-t evaluation code, which is built once per
    degree.  Both sides are computed by unrelated routes: the distance
    through the minimal primes of the vanishing ideal, the weight straight
    from the generator matrix.  They agree whenever the count does not
    exceed the code dimension.
    """
    from .gmd import GmdQuery, delta_fast

    profile = points.vanishing_profile()
    for t in range(1, t_max + 1):
        code = evaluation_code(points, t)
        for ell in ells:
            if ell > code.dimension:
                continue
            d = delta_fast(GmdQuery(profile, t, ell, method="fast")).value
            w = generalized_hamming_weight(code, ell, jobs=jobs).value
            yield {
                "t": t,
                "ell": ell,
                "delta": d,
                "ghw": w,
                "length": code.length,
                "dimension": code.dimension,
                "agree": d == w,
            }
