"""Ring profiles: a graded quotient together with its minimal primes.

A profile bundles S/I with a user-supplied (or constructed) list of minimal
primes, checks the containment I in each prime, certifies reducedness by
testing that the intersection of the primes equals I, classifies the ring
for the stabilization case analysis, and enforces multiplicity additivity
over the top-dimensional primes when the certificate holds.  Primality of
the supplied ideals is trusted, not verified; every certificate that can be
checked cheaply is checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import HypothesisError, InvariantError, PrimeSubsetLimitError
from .gflinalg import PackedVectors, subset_ranks_of_words
from .groebner import (
    IdealPresentation,
    groebner_basis,
    ideal_contains,
    ideals_equal,
    intersect,
    normal_form,
)
from .hilbert import HilbertData, graded_piece_of_quotient, hilbert_data, hilbert_function
from .polyring import Polynomial

CLASSIFICATIONS = (
    "domain",
    "unmixed_dim_ge2",
    "one_dimensional",
    "mixed_low_dim1",
    "mixed_low_dim_ge2",
    "unknown",
)

# Most minimal primes a prime-subset table is built for: it holds an entry
# for each of the 2^a subsets of a primes.
PRIME_SUBSET_LIMIT = 22


def check_prime_count(count: int) -> None:
    """Raise ``PrimeSubsetLimitError`` past ``PRIME_SUBSET_LIMIT`` primes."""
    if count > PRIME_SUBSET_LIMIT:
        raise PrimeSubsetLimitError(count, PRIME_SUBSET_LIMIT)


@dataclass(frozen=True)
class MinimalPrimeData:
    """One minimal prime with its quotient dimension and multiplicity.

    ``mult`` is the multiplicity of S/P at its own dimension; ``is_top``
    marks primes with dim(S/P) equal to dim(S/I).
    """

    ideal: IdealPresentation
    dim: int
    mult: int
    is_top: bool


@dataclass
class FamilyIntersection:
    """Intersection of a subset of the minimal primes, with degree data.

    The intersection ideal is materialized lazily: on a certified profile
    the degree-piece dimensions come from the profile's backend (rank
    tables) without ever running the elimination-order Groebner chain.
    """

    indices: tuple[int, ...]
    is_unit: bool
    _profile: "RingProfile"
    _ideal: IdealPresentation | None = None
    _dims: dict[int, int] = field(default_factory=dict)

    @property
    def ideal(self) -> IdealPresentation:
        if self._ideal is None:
            self._ideal = self._profile._family_ideal(self.indices)
        return self._ideal

    def quotient_dim(self, t: int) -> int:
        """dim_K of the degree-t piece of (J/I) inside S/I."""
        hit = self._dims.get(t)
        if hit is not None:
            return hit
        backend = self._profile.family_backend
        if self.is_unit:
            value = hilbert_function(self._profile.ideal, t)
        else:
            # a backend answers None where the family ideal is the cheaper route
            value = None if backend is None else backend.piece_dim(self.indices, t)
            if value is None:
                value = hilbert_function(self._profile.ideal, t) - hilbert_function(self.ideal, t)
        if value < 0:
            raise InvariantError(
                f"family {self.indices} has a negative degree-{t} dimension {value}"
            )
        self._dims[t] = value
        return value

    def hilbert(self) -> HilbertData:
        return hilbert_data(self.ideal)

    def regime(self) -> int:
        """Degree from which the piece dimensions agree with a polynomial.

        A backend may bound the family's own regime without its ideal;
        otherwise it comes from the family's Hilbert series.
        """
        base = max(1, self._profile.hilbert.hf_poly_from)
        if self.is_unit:
            return base
        backend = self._profile.family_backend
        own = None if backend is None else backend.regime(self.indices)
        if own is None:
            own = self.hilbert().hf_poly_from
        return max(base, own)


class RankTableBackend:
    """Family degree data from the ranks of per-prime blocks of vectors.

    The degree-t piece of the family of a prime subset A has dimension
    HF_I(t) minus the rank of the degree-t blocks of the primes of A, each
    block a list of vectors packed into ints; a subclass gives
    ``_make_piece(t)``, that is HF_I(t), the packing and what its blocks
    are made from, and ``block(i, t)``.
    ``degree_table`` ranks every union of blocks at once, indexed by
    bitmask (``gflinalg.subset_ranks_of_words``), for callers that read
    every family.  It holds 2^a entries, so it is built for at most
    ``PRIME_SUBSET_LIMIT`` primes, and it checks that all blocks together
    have rank HF_I(t).  Without a table a family is ranked from its own
    blocks, so a caller that reads a few families of many primes never
    pays for 2^a entries.
    """

    def __init__(self, profile: "RingProfile"):
        self._profile = profile
        self._pieces: dict[int, tuple] = {}
        self._tables: dict[int, object] = {}
        # per degree: the family last ranked without a table, its echelon
        # rows and the row count after each of its blocks
        self._last: dict[int, tuple] = {}

    def _piece(self, t: int) -> tuple:
        entry = self._pieces.get(t)
        if entry is None:
            entry = self._pieces[t] = self._make_piece(t)
        return entry

    def degree(self, t: int) -> tuple:
        """HF_I(t) and the packing of the degree-t blocks."""
        return self._piece(t)[:2]

    def degree_table(self, t: int):
        """The rank of the degree-t blocks of every prime subset, by bitmask."""
        ranks = self._tables.get(t)
        if ranks is None:
            count = len(self._profile.primes)
            check_prime_count(count)
            full, packed = self.degree(t)
            ranks = subset_ranks_of_words(packed, [self.block(i, t) for i in range(count)])
            if ranks[-1] != full:
                raise InvariantError(
                    f"the minimal primes have rank {ranks[-1]} in degree {t}, but HF_I({t}) = {full}"
                )
            self._tables[t] = ranks
        return ranks

    def piece_dim(self, indices: tuple[int, ...], t: int) -> int:
        full = self.degree(t)[0]
        ranks = self._tables.get(t)
        if ranks is not None:
            return full - ranks[sum(1 << i for i in indices)]
        return full - self._family_rank(indices, t)

    def _family_rank(self, indices: tuple[int, ...], t: int) -> int:
        """Rank of the family's degree-t blocks, eliminated without a table.

        Callers read families in index order (``gmd.regularity_index``
        walks subsets depth-first), so the echelon rows of the longest
        prefix shared with the family last ranked in degree t are kept and
        only the blocks after it are reduced.
        """
        last, rows, ends = self._last.get(t, ((), [], []))
        shared = 0
        for i, j in zip(last, indices):
            if i != j:
                break
            shared += 1
        del rows[ends[shared - 1] if shared else 0 :]
        del ends[shared:]
        packed = self.degree(t)[1]
        for i in indices[shared:]:
            packed.echelon(self.block(i, t), rows)
            ends.append(len(rows))
        self._last[t] = (indices, rows, ends)
        return len(rows)


class PrimeFamilyBackend(RankTableBackend):
    """Family degree data of a certified profile, from normal-form ranks.

    [J_A]_t for the family J_A of a prime subset A is the kernel of
    [S]_t -> (+)_{i in A} [S/P_i]_t, and I_t lies in it, so the family's
    degree-t piece in S/I has dimension HF_I(t) minus the rank of that
    map on the degree-t standard monomials of I.  Prime i's block is the
    normal forms modulo P_i of those monomials, made on first use, so a
    family costs only its own primes' normal forms.  Where
    ``degree_table`` is built, all primes together must give rank HF_I(t),
    which rechecks the certificate in degree t.

    Without a table, a family of monomial primes (a face ring's) is left
    to its ideal: ``groebner.intersect`` forms it from lcms, with no
    elimination, and its Hilbert series then gives every degree, where
    ranks would cost a normal form and a reduction per standard monomial
    in each degree read.

    A family of linear primes is a subspace arrangement, whose ideal has
    Castelnuovo-Mumford regularity at most |A| (Derksen and Sidman, Adv.
    Math. 172, 2002); its quotient has positive depth, so its Hilbert
    function is polynomial from degree |A| - 1 on.  A family holding a
    nonlinear prime gets no bound here and its regime comes from the
    family ideal.
    """

    def __init__(self, profile: "RingProfile"):
        super().__init__(profile)
        self._blocks: dict[tuple[int, int], list[int]] = {}
        self._linear: dict[int, bool] = {}
        self._monomial = tuple(
            all(len(g.terms) == 1 for g in p.ideal.gens) for p in profile.primes
        )

    def piece_dim(self, indices: tuple[int, ...], t: int) -> int | None:
        if t not in self._tables and all(self._monomial[i] for i in indices):
            return None
        return super().piece_dim(indices, t)

    def _make_piece(self, t: int) -> tuple:
        """HF_I(t), the packing and the degree-t standard monomials of I."""
        ideal = self._profile.ideal
        monomials = graded_piece_of_quotient(ideal, t)
        return hilbert_function(ideal, t), PackedVectors(ideal.ring.field, len(monomials)), monomials

    def block(self, i: int, t: int) -> list[int]:
        words = self._blocks.get((i, t))
        if words is None:
            _, packed, monomials = self._piece(t)
            words = _normal_form_block(self._profile.primes[i].ideal, monomials, packed)
            self._blocks[i, t] = words
        return words

    def regime(self, indices: tuple[int, ...]) -> int | None:
        for i in indices:
            if i not in self._linear:
                gb = groebner_basis(self._profile.primes[i].ideal)
                self._linear[i] = all(sum(e) == 1 for e in gb.leading_exponents)
            if not self._linear[i]:
                return None
        return max(1, len(indices) - 1)


def _normal_form_block(prime: IdealPresentation, monomials, packed: PackedVectors) -> list[int]:
    """The map [S]_t -> [S/P]_t on the given monomials, one packed word per column.

    Entry j of the word of column s is the coefficient of the standard
    monomial s of P in the normal form of monomial j; standard monomials
    that occur in no normal form give zero columns and are left out.
    """
    gb = groebner_basis(prime)
    ring = prime.ring
    width = packed.width
    words: dict = {}
    for j, m in enumerate(monomials):
        for s, c in normal_form(Polynomial._raw(ring, {m: 1}), gb).terms.items():
            words[s] = words.get(s, 0) + (c << (width * j))
    return [words[s] for s in sorted(words)]


class RingProfile:
    """S/I with minimal-prime data, certificates and classification."""

    def __init__(
        self,
        ideal: IdealPresentation,
        hilbert: HilbertData,
        primes: tuple[MinimalPrimeData, ...],
        reduced_certified: bool,
        classification: str,
        warnings: tuple[str, ...] = (),
    ):
        self.ideal = ideal
        self.hilbert = hilbert
        self.primes = primes
        self.reduced_certified = reduced_certified
        self.classification = classification
        self.warnings = warnings
        self.family_backend = None
        self._families: dict[tuple[int, ...], FamilyIntersection] = {}
        # per-degree best-value tables of the prime-subset scan (gmd.delta_fast)
        self.subset_tables: dict[int, list] = {}
        # per-degree {RREF row: fixed-dim line value} memo of the brute scan's
        # bound (gmd._brute_scan); bounded by gmd.LINE_MEMO_LIMIT per degree
        self.line_values: dict[int, dict] = {}

    @property
    def ring(self):
        return self.ideal.ring

    @property
    def dim(self) -> int:
        return self.hilbert.dim

    @property
    def multiplicity(self) -> int:
        return self.hilbert.multiplicity

    def top_indices(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.primes) if p.is_top)

    def low_indices(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.primes) if not p.is_top)

    def min_top_multiplicity(self) -> int:
        tops = [self.primes[i].mult for i in self.top_indices()]
        if not tops:
            raise HypothesisError("profile has no top-dimensional primes")
        return min(tops)

    def intersect_family(self, indices) -> FamilyIntersection:
        """Family object for the primes with the given indices, cached.

        An empty index set returns the whole ring flagged as the unit
        family; callers of the distance machinery never request it.
        """
        key = tuple(sorted(set(int(i) for i in indices)))
        for i in key:
            if not (0 <= i < len(self.primes)):
                raise IndexError(f"prime index {i} out of range")
        hit = self._families.get(key)
        if hit is None:
            hit = FamilyIntersection(key, not key, self)
            self._families[key] = hit
        return hit

    def subset_dims(self, t: int):
        """``quotient_dim(t)`` of the family of every prime subset, by bitmask.

        Bit i of the mask selects prime i; mask 0, the empty subset, gives
        the whole degree-t piece of S/I.  A backend that serves the whole
        table at once (point sets) answers directly; otherwise every family
        is read through ``quotient_dim``, which the normal-form backend
        serves from the table built here.
        """
        a = len(self.primes)
        check_prime_count(a)
        backend = self.family_backend
        whole_table = getattr(backend, "piece_dims", None)
        if whole_table is not None:
            return whole_table(t)
        if backend is not None:
            # every family is about to be read: rank them all in one table
            backend.degree_table(t)
        return [hilbert_function(self.ideal, t)] + [
            self.intersect_family([i for i in range(a) if mask >> i & 1]).quotient_dim(t)
            for mask in range(1, 1 << a)
        ]

    def _family_ideal(self, key: tuple[int, ...]) -> IdealPresentation:
        if not key:
            return IdealPresentation(self.ring, [Polynomial.one(self.ring)])
        if len(key) == 1:
            return self.primes[key[0]].ideal
        prefix = self.intersect_family(key[:-1])
        return intersect(prefix.ideal, self.primes[key[-1]].ideal)

    def __getstate__(self):
        # the line-value memo is rebuilt on demand; pickles sent to brute-scan
        # workers leave it out
        return {**self.__dict__, "line_values": {}}

    def __repr__(self):
        return (
            f"RingProfile(dim={self.dim}, e={self.multiplicity}, "
            f"primes={len(self.primes)}, certified={self.reduced_certified}, "
            f"classification={self.classification!r})"
        )


def _classify(
    ideal: IdealPresentation,
    primes: tuple[MinimalPrimeData, ...],
    dim_ring: int,
    certified: bool,
) -> tuple[str, tuple[str, ...]]:
    warnings: list[str] = []
    if not primes or not certified:
        return "unknown", tuple(warnings)
    if len(primes) == 1:
        # the certificate forces the single prime to equal I
        return "domain", tuple(warnings)
    lows = [p for p in primes if not p.is_top]
    if not lows:
        if dim_ring >= 2:
            return "unmixed_dim_ge2", tuple(warnings)
        if dim_ring == 1:
            return "one_dimensional", tuple(warnings)
        warnings.append("unmixed profile of dimension 0 is out of scope")
        return "unknown", tuple(warnings)
    if any(p.dim >= 2 for p in lows):
        return "mixed_low_dim_ge2", tuple(warnings)
    if all(p.dim == 1 for p in lows):
        return "mixed_low_dim1", tuple(warnings)
    warnings.append("mixed profile with a zero-dimensional low prime is out of scope")
    return "unknown", tuple(warnings)


def build_profile(ideal: IdealPresentation, primes=None, _prefix_chain=None) -> RingProfile:
    """Profile of S/I from an optional minimal-prime list.

    Raises when a supplied prime is improper or fails to contain I, and when
    a certified profile violates multiplicity additivity over the top primes
    (which means the supplied list cannot be the minimal primes).  A prime
    list whose intersection differs from I yields an uncertified profile
    with a warning rather than an error.
    """
    hd = hilbert_data(ideal)
    warnings: list[str] = []
    if not primes:
        return RingProfile(ideal, hd, (), False, "unknown", tuple(warnings))
    prime_data = []
    for k, p in enumerate(primes):
        try:
            pd = hilbert_data(p)
        except ValueError as exc:
            raise ValueError(f"prime #{k + 1} is the unit ideal") from exc
        if not ideal_contains(p, ideal):
            raise ValueError(f"prime #{k + 1} does not contain the ideal")
        prime_data.append(
            MinimalPrimeData(ideal=p, dim=pd.dim, mult=pd.multiplicity, is_top=pd.dim == hd.dim)
        )
    prime_data = tuple(prime_data)

    profile = RingProfile(ideal, hd, prime_data, False, "unknown", ())
    if _prefix_chain is not None:
        # the ideal was constructed as this very intersection; seed the
        # family cache with the chain and certify by construction
        if len(_prefix_chain) != len(prime_data):
            raise InvariantError(
                f"prefix chain has {len(_prefix_chain)} ideals for {len(prime_data)} primes"
            )
        for k, meet in enumerate(_prefix_chain):
            key = tuple(range(k + 1))
            profile._families[key] = FamilyIntersection(key, False, profile, meet)
        certified = True
    else:
        meet = profile.intersect_family(range(len(prime_data))).ideal
        certified = ideals_equal(meet, ideal)
    if not certified:
        warnings.append("intersection of the supplied primes differs from the ideal")

    classification, class_warnings = _classify(ideal, prime_data, hd.dim, certified)
    warnings.extend(class_warnings)

    if certified:
        top_sum = sum(p.mult for p in prime_data if p.is_top)
        if top_sum != hd.multiplicity:
            raise ValueError(
                "additivity certificate failed: multiplicity "
                f"{hd.multiplicity} != sum {top_sum} over top primes; "
                "the supplied list cannot be the minimal primes"
            )

    profile.reduced_certified = certified
    profile.classification = classification
    if certified:
        profile.family_backend = PrimeFamilyBackend(profile)
    profile.warnings = tuple(warnings)
    return profile


def build_profile_from_primes(primes) -> RingProfile:
    """Profile whose ideal is defined as the intersection of the primes."""
    pres = list(primes)
    if not pres:
        raise ValueError("at least one prime is required")
    chain = [pres[0]]
    for p in pres[1:]:
        chain.append(intersect(chain[-1], p))
    return build_profile(chain[-1], pres, _prefix_chain=chain)
