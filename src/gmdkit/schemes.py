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

from .errors import HypothesisError, InvariantError
from .groebner import IdealPresentation, ideal_contains, ideals_equal, intersect
from .hilbert import HilbertData, hilbert_data, hilbert_function
from .polyring import Polynomial

CLASSIFICATIONS = (
    "domain",
    "unmixed_dim_ge2",
    "one_dimensional",
    "mixed_low_dim1",
    "mixed_low_dim_ge2",
    "unknown",
)


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

    The intersection ideal is materialized lazily: degree-piece dimensions
    can come from a profile backend (evaluation ranks for point sets)
    without ever running the elimination-order Groebner chain.
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
        if backend is not None:
            value = backend.piece_dim(self.indices, t)
        elif self.is_unit:
            value = hilbert_function(self._profile.ideal, t)
        else:
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
        """Degree from which the piece dimensions agree with a polynomial."""
        backend = self._profile.family_backend
        base = self._profile.hilbert.hf_poly_from
        if backend is not None:
            return max(1, base, backend.regime(self.indices))
        if self.is_unit:
            return max(1, base)
        return max(1, base, self.hilbert().hf_poly_from)


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
        the whole degree-t piece of S/I.
        """
        if self.family_backend is not None:
            return self.family_backend.piece_dims(t)
        a = len(self.primes)
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
