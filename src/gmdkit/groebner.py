"""Buchberger's algorithm, normal forms, intersections and colon ideals.

Every basis an ideal keeps is a grevlex Groebner basis.  The engine keeps
basis records monic, computes each leading term once, keeps pending pairs
in a heap and applies the two classical pair criteria (coprime leading
terms, chain criterion) with normal selection.  A ``GroebnerBasis`` holds
the records that computed it: ``groebner_basis`` keeps those of the unique
reduced basis, ``groebner_basis_extending`` the completion's own.  Its
leading exponents come from the records, and its elements are interreduced
and unpacked only when read.  ``intersect`` eliminates one auxiliary
variable put in front, under a private order of its own.

Inside the engine a monomial is one int (Monagan and Pearce, "Sparse
polynomial division using a heap", 2011).  Its low part packs the
exponents, one 16-bit field per variable whose top bit is a guard bit;
the elimination order adds one field holding the degree of the variables
after the first.  Its high part is the order key, a linear functional of
the exponents with weights in base 2^16:

  grevlex  deg * B^n - sum e_i B^i
  elim     e_0 * (B^(n+1) - B^n) + d * B^(n-1) - sum_{i>=1} e_i B^(i-1)

where B = 2^16 and d is the degree of x_1..x_{n-1}, so comparing the ints
compares the monomials, a product is a sum, ``max`` over a dict of
terms finds the leading term, "a divides b" is
``((b | G) - a) & G == G`` on the low parts (G holds the guard bits) and
an lcm is a field-wise max done with the same subtraction.  Polynomials are
packed on entry and unpacked on exit, so callers keep exponent tuples.

Every exponent and the elimination order's degree d must stay at or below
``EXPONENT_LIMIT`` (2^15 - 1): inputs are checked when packed and each
reduction step checks the guard bits of its largest product, so a
computation that would need more raises ``ExponentOverflowError`` (CLI
exit 2) instead of returning a wrong basis.
"""

from __future__ import annotations

import heapq
import operator
import struct
from functools import cached_property, lru_cache

from .errors import ExponentOverflowError
from .polyring import (
    GREVLEX,
    Polynomial,
    RingSpec,
    minimal_monomial_generators,
    monomial_lcm,
    parse_polynomial,
)

FIELD_BITS = 16
EXPONENT_LIMIT = (1 << (FIELD_BITS - 1)) - 1


def _overflow():
    raise ExponentOverflowError(
        f"a Groebner computation needs an exponent or block degree above {EXPONENT_LIMIT}"
    )


class _Packing:
    """Packed monomials in n variables under grevlex or, with ``eliminate``,
    under the order ``intersect`` uses: the first variable's degree first,
    then grevlex on the others.

    Field i of the low part holds the exponent of variable i; the
    elimination order adds field n, the degree of the other variables,
    whose size its order key relies on.
    """

    __slots__ = ("n", "eliminate", "weights", "low", "guard", "var_low", "var_guard", "fields")

    def __init__(self, n: int, eliminate: bool):
        base = 1 << FIELD_BITS
        places = [base**i for i in range(n)]
        if eliminate:
            keys = [base ** (n + 1) - base**n]
            keys += [base ** (n - 1) - base ** (i - 1) for i in range(1, n)]
            places[1:] = [place + base**n for place in places[1:]]
            fields = n + 1
        else:
            keys = [base**n - base**i for i in range(n)]
            fields = n
        width = FIELD_BITS * fields
        self.n = n
        self.eliminate = eliminate
        self.weights = tuple((key << width) + place for key, place in zip(keys, places))
        self.low = (1 << width) - 1
        self.guard = sum(base // 2 * base**f for f in range(fields))
        self.var_low = base**n - 1
        self.var_guard = self.guard & self.var_low
        self.fields = struct.Struct(f"<{n}H")

    def pack(self, e) -> int:
        if max(e) > EXPONENT_LIMIT:
            _overflow()
        if self.eliminate and sum(e[1:]) > EXPONENT_LIMIT:
            _overflow()
        return sum(map(operator.mul, e, self.weights))

    def unpack(self, m: int) -> tuple[int, ...]:
        return self.fields.unpack((m & self.var_low).to_bytes(2 * self.n, "little"))

    def lcm(self, a: int, b: int) -> int:
        """Packed lcm of two packed monomials."""
        guard = self.var_guard
        t = ((b & self.var_low) | guard) - (a & self.var_low)
        g = t & guard
        # b - a in the fields where b exceeds a, zero in the others
        rise = self.unpack((t ^ g) & (g - (g >> (FIELD_BITS - 1))))
        if self.eliminate:
            block_degree = (a >> (FIELD_BITS * self.n)) % (1 << FIELD_BITS) + sum(rise[1:])
            if block_degree > EXPONENT_LIMIT:
                _overflow()
        return a + sum(map(operator.mul, rise, self.weights))

    def record(self, terms, field) -> tuple:
        """Reducer record of the monic multiple of {exponent tuple: coefficient} terms."""
        return _record({self.pack(e): c for e, c in terms.items()}, field, self.low, self.guard)

    def polynomial(self, rec, ring: RingSpec, start: int = 0) -> Polynomial:
        """The polynomial of a record, on the exponent fields from ``start`` on."""
        unpack = self.unpack
        terms = {unpack(rec[1])[start:]: 1}
        terms.update((unpack(m)[start:], c) for m, c in rec[2])
        return Polynomial._raw(ring, terms)


@lru_cache(maxsize=64)
def _packing(n: int, eliminate: bool = False) -> _Packing:
    return _Packing(n, eliminate)


def _record(packed, field, low, guard) -> tuple:
    """(low part of the leading monomial, leading monomial, tail, hull) of the monic multiple.

    ``packed`` is a nonzero {packed monomial: coefficient} dict (consumed).
    The tail lists the other (monomial, coefficient) terms.  The hull is the
    field-wise max of the low parts of every term, so ``hull + s`` bounds
    the low part of every term times s.
    """
    lt = max(packed)
    lc = packed.pop(lt)
    if lc != 1:
        inv = field.inv(lc)
        p = field.p
        packed = {m: (c * inv) % p for m, c in packed.items()}
    hull = lt & low
    for m in packed:
        t = ((m & low) | guard) - hull
        g = t & guard
        hull += (t ^ g) & (g - (g >> (FIELD_BITS - 1)))
    return (lt & low, lt, tuple(packed.items()), hull)


def _reduce(work, reducers, p, low, guard, quotient=None):
    """Full normal form of packed {monomial: coefficient} terms; consumes ``work``.

    ``reducers`` are monic records (see ``_record``); each term is reduced
    by the first one whose leading monomial divides it.  The result lists
    its terms in descending order.  With a single reducer, a ``quotient``
    dict collects the multiplier of each step, so that ``work`` equals
    quotient * reducer + result.
    """
    out = {}
    while work:
        mu = max(work)
        c = work.pop(mu)
        probe = (mu & low) | guard
        for lt_low, lt, tail, hull in reducers:
            if (probe - lt_low) & guard == guard:
                break
        else:
            out[mu] = c
            continue
        shift = mu - lt
        if (hull + (shift & low)) & guard:
            _overflow()
        if quotient is not None:
            quotient[shift] = c
        for m, a in tail:
            t = m + shift
            v = (work.get(t, 0) - c * a) % p
            if v:
                work[t] = v
            else:
                # the sum cancelled, so t was a term of work
                del work[t]
    return out


class IdealPresentation:
    """A homogeneous ideal given by generators in a fixed ring.

    Zero generators are dropped; inhomogeneous generators are rejected.
    The grevlex Groebner basis and the Hilbert data are cached on the
    instance.
    """

    __slots__ = ("ring", "_gens", "_gb", "_hilbert", "__weakref__")

    def __init__(self, ring: RingSpec, generators):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if g.is_zero():
                continue
            if not g.is_homogeneous():
                raise ValueError(f"generator must be homogeneous: {g!r}")
            gens.append(g)
        self.ring = ring
        self._gens = tuple(gens)
        self._gb = None
        self._hilbert = None

    @property
    def gens(self) -> tuple[Polynomial, ...]:
        gens = self._gens
        if gens is None:
            # an ideal made by from_basis takes its basis's elements on first read
            gens = self._gens = self._gb.elements
        return gens

    @classmethod
    def from_strings(cls, ring: RingSpec, texts) -> "IdealPresentation":
        return cls(ring, [parse_polynomial(t, ring) for t in texts])

    @classmethod
    def from_basis(cls, gb: "GroebnerBasis") -> "IdealPresentation":
        """The ideal a Groebner basis generates, with that basis already cached.

        Its generators are the basis's elements, taken when first read.  The
        elements of a reduced basis of a homogeneous ideal are nonzero,
        homogeneous and in the basis's ring, so they are not checked again.
        """
        ideal = cls.__new__(cls)
        ideal.ring = gb.ring
        ideal._gens = None
        ideal._gb = gb
        ideal._hilbert = None
        return ideal

    def is_zero_ideal(self) -> bool:
        return not self.gens

    def __repr__(self):
        from .polyring import poly_to_str

        body = ", ".join(poly_to_str(g) for g in self.gens) or "0"
        return f"Ideal({body})"


class GroebnerBasis:
    """A grevlex Groebner basis, held as the monic records (see ``_record``)
    that computed it.

    ``groebner_basis`` keeps the records of the reduced basis, an extension
    the completion's own, which are neither minimal nor reduced.  Either
    serves ``normal_form`` as it is, since a remainder modulo a Groebner
    basis does not depend on which basis of the ideal reduces it.  The
    leading exponents are those of the records with minimal leading
    monomials, which the reduced basis shares; the reduced records and the
    ``elements`` are built only when read.  Bases of equal ring and
    elements compare and hash equal.
    """

    def __init__(self, ring: RingSpec, records: list, reduced: bool = False):
        self.ring = ring
        self.pk = _packing(ring.n)
        self.records = records
        if reduced:
            self.reduced_records = records

    def __eq__(self, other):
        return isinstance(other, GroebnerBasis) and self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def _fields(self):
        return (self.ring, self.elements)

    @cached_property
    def _minimal_records(self) -> list:
        return _minimal(self.records, self.pk)

    @cached_property
    def leading_exponents(self) -> tuple[tuple[int, ...], ...]:
        """Minimal generators of the leading ideal, descending."""
        unpack = self.pk.unpack
        return tuple(unpack(rec[1]) for rec in reversed(self._minimal_records))

    @cached_property
    def reduced_records(self) -> list:
        """Records of the reduced basis, descending by leading monomial."""
        return _interreduce(self._minimal_records, self.pk, self.ring.field)

    @cached_property
    def elements(self) -> tuple[Polynomial, ...]:
        """The reduced basis, descending by leading monomial."""
        return tuple(self.pk.polynomial(rec, self.ring) for rec in self.reduced_records)

    @cached_property
    def monomial_normal_forms(self) -> dict:
        """Memo {monomial: terms of its normal form}; its users bound its size."""
        return {}

    @property
    def is_unit_ideal(self) -> bool:
        return any(sum(e) == 0 for e in self.leading_exponents)

    def __reduce__(self):
        # memos are rebuilt on demand; pickles carry only the reduced records
        return (GroebnerBasis, (self.ring, self.reduced_records, True))


def _spoly(f, g, lcm, p, low, guard):
    """Packed terms of the S-polynomial of two monic records with the given lcm."""
    _, lt_f, tail_f, hull_f = f
    _, lt_g, tail_g, hull_g = g
    s, t = lcm - lt_f, lcm - lt_g
    if (hull_f + (s & low)) & guard or (hull_g + (t & low)) & guard:
        _overflow()
    work = {m + s: a for m, a in tail_f}
    for m, a in tail_g:
        u = m + t
        v = (work.get(u, 0) - a) % p
        if v:
            work[u] = v
        else:
            del work[u]
    return work


def buchberger(basis, pk: _Packing, field, groebner_prefix: int = 0) -> list:
    """Monic records of a Groebner basis of the ideal that monic records generate.

    ``basis`` lists records (see ``_record``) packed with ``pk``.  The
    result is a new list: those records, then every nonzero reduced
    S-polynomial in the order found.  It is neither minimal nor reduced;
    ``_minimal`` and ``_interreduce`` make it so.
    Normal selection: the pending pair with the smallest lcm in the order
    goes next.  Pending pairs sit in a heap of (packed lcm, i, j), whose
    order key makes the smallest lcm come first; the chain criterion
    consults the set of pending pairs.
    ``groebner_prefix`` marks the first k records as already a Groebner
    basis, so their mutual pairs are skipped (used when extending a cached
    basis by new elements).
    """
    basis = list(basis)
    p = field.p
    low, guard = pk.low, pk.guard
    lt_lows = [rec[0] for rec in basis]

    pending = set()
    heap = []

    def add_pair(i, j):
        pending.add((i, j))
        heapq.heappush(heap, (pk.lcm(basis[i][1], basis[j][1]), i, j))

    for j in range(groebner_prefix, len(basis)):
        for i in range(j):
            add_pair(i, j)

    while heap:
        lcm, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        # coprime leading terms: S-polynomial reduces to zero
        if lcm == basis[i][1] + basis[j][1]:
            continue
        # chain criterion
        probe = (lcm & low) | guard
        skip = False
        for k, lt_low in enumerate(lt_lows):
            if (probe - lt_low) & guard != guard or k == i or k == j:
                continue
            a = (i, k) if i < k else (k, i)
            b = (j, k) if j < k else (k, j)
            if a not in pending and b not in pending:
                skip = True
                break
        if skip:
            continue
        reduced = _reduce(_spoly(basis[i], basis[j], lcm, p, low, guard), basis, p, low, guard)
        if not reduced:
            continue
        rec = _record(reduced, field, low, guard)
        basis.append(rec)
        lt_lows.append(rec[0])
        new = len(basis) - 1
        for m in range(new):
            add_pair(m, new)
    return basis


def _minimal(basis, pk) -> list:
    """The records whose leading monomials minimally generate the leading
    ideal, smallest leading monomial first; of equal ones the first stays."""
    guard = pk.guard
    kept, lows = [], []
    for _, k in sorted([(rec[1], k) for k, rec in enumerate(basis)]):
        probe = basis[k][0] | guard
        for lt_low in lows:
            if (probe - lt_low) & guard == guard:
                break
        else:
            kept.append(basis[k])
            lows.append(basis[k][0])
    return kept


def _interreduce(minimal, pk, field) -> list:
    """Records of the reduced basis, descending by leading monomial, from
    minimal monic records listed smallest leading monomial first."""
    p, low, guard = field.p, pk.low, pk.guard
    out = []
    for pos, (_, lt, tail, _) in enumerate(minimal):
        # no other leading term divides lt, so only the tail can change
        terms = _reduce(dict(tail), minimal[:pos] + minimal[pos + 1 :], p, low, guard)
        terms[lt] = 1
        out.append(_record(terms, field, low, guard))
    out.reverse()
    return out


def groebner_basis(ideal: IdealPresentation) -> GroebnerBasis:
    """The reduced grevlex Groebner basis of the ideal, cached on it."""
    gb = ideal._gb
    if gb is None:
        ring = ideal.ring
        pk = _packing(ring.n)
        records = buchberger([pk.record(g.terms, ring.field) for g in ideal.gens], pk, ring.field)
        reduced = _interreduce(_minimal(records, pk), pk, ring.field)
        gb = ideal._gb = GroebnerBasis(ring, reduced, reduced=True)
    return gb


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of f modulo the Groebner basis."""
    if f.is_zero() or not gb.records:
        return f
    pk = gb.pk
    pack, unpack = pk.pack, pk.unpack
    work = {pack(e): c for e, c in f.terms.items()}
    reduced = _reduce(work, gb.records, f.ring.field.p, pk.low, pk.guard)
    return Polynomial._raw(f.ring, {unpack(m): c for m, c in reduced.items()})


def ideal_contains(ideal: IdealPresentation, other: IdealPresentation) -> bool:
    """True iff every generator of ``other`` lies in ``ideal``."""
    gb = groebner_basis(ideal)
    return all(normal_form(g, gb).is_zero() for g in other.gens)


def ideals_equal(a: IdealPresentation, b: IdealPresentation) -> bool:
    return ideal_contains(a, b) and ideal_contains(b, a)


def _monomial_generators(ideal: IdealPresentation):
    """Exponent tuples when every generator is a single term, else None."""
    monos = []
    for g in ideal.gens:
        if len(g.terms) != 1:
            return None
        monos.append(next(iter(g.terms)))
    return monos


def intersect(a: IdealPresentation, b: IdealPresentation) -> IdealPresentation:
    """Ideal intersection as (w*a + (1 - w)*b) with the variable w eliminated.

    Two monomial ideals short-circuit to the pairwise lcm generators.
    """
    if a.ring != b.ring:
        raise ValueError("ideals live in different rings")
    ring = a.ring
    if a.is_zero_ideal() or b.is_zero_ideal():
        return IdealPresentation(ring, [])
    am = _monomial_generators(a)
    bm = _monomial_generators(b)
    if am is not None and bm is not None:
        lcms = minimal_monomial_generators([monomial_lcm(e, f) for e in am for f in bm])
        gens = [
            Polynomial.monomial(ring, e)
            for e in sorted(lcms, key=GREVLEX.key, reverse=True)
        ]
        return IdealPresentation(ring, gens)
    field = ring.field
    pk = _packing(ring.n + 1, eliminate=True)
    # w is the first exponent field
    mixed = [{(1,) + e: c for e, c in f.terms.items()} for f in a.gens]
    for g in b.gens:
        terms = {(0,) + e: c for e, c in g.terms.items()}
        terms.update(((1,) + e, field.p - c) for e, c in g.terms.items())
        mixed.append(terms)
    basis = buchberger([pk.record(terms, field) for terms in mixed], pk, field)
    # the order puts w first, so a record whose leading term is free of w has no w at all
    kept = [rec for rec in _interreduce(_minimal(basis, pk), pk, field) if not pk.unpack(rec[1])[0]]
    return IdealPresentation(ring, [pk.polynomial(rec, ring, 1) for rec in kept])


def exact_divide(g: Polynomial, f: Polynomial) -> Polynomial:
    """Quotient g / f; raises if f does not divide g exactly."""
    if f.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    ring = g.ring
    pk = _packing(ring.n)
    monic = pk.record(f.terms, ring.field)
    quotient = {}
    work = {pk.pack(e): c for e, c in g.terms.items()}
    if _reduce(work, [monic], ring.field.p, pk.low, pk.guard, quotient):
        raise ValueError("polynomial is not an exact multiple")
    # quotient holds g divided by the monic multiple of f
    inv = ring.field.inv(f.terms[pk.unpack(monic[1])])
    return Polynomial(ring, {pk.unpack(m): c * inv for m, c in quotient.items()})


def colon_single(ideal: IdealPresentation, f: Polynomial) -> IdealPresentation:
    """(I : f) through (I intersect (f)) with each generator divided by f."""
    if f.is_zero():
        raise ValueError("colon by the zero polynomial")
    ring = ideal.ring
    principal = IdealPresentation(ring, [f])
    meet = intersect(ideal, principal)
    return IdealPresentation(ring, [exact_divide(g, f) for g in meet.gens])


def colon(ideal: IdealPresentation, polys) -> IdealPresentation:
    """(I : (f_1..f_k)) as the intersection of the single colon ideals."""
    polys = list(polys)
    if not polys:
        raise ValueError("colon needs at least one polynomial")
    result = None
    for f in polys:
        single = colon_single(ideal, f)
        result = single if result is None else intersect(result, single)
    return result


def groebner_basis_extending(gb: GroebnerBasis, extra) -> GroebnerBasis:
    """Groebner basis of (gb) + (extra), completed from gb's records and
    skipping the pairs inside them.

    The completion's records are interreduced into ``elements`` only when
    something reads them.
    """
    pk, seed = gb.pk, gb.records
    field = gb.ring.field
    records = seed + [pk.record(g.terms, field) for g in extra if not g.is_zero()]
    return GroebnerBasis(gb.ring, buchberger(records, pk, field, groebner_prefix=len(seed)))
