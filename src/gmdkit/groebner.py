"""Buchberger's algorithm, normal forms, intersections and colon ideals.

The engine keeps basis elements monic, computes each leading term once,
keeps pending pairs in a heap and applies the two classical pair criteria
(coprime leading terms, chain criterion) with normal selection, then
interreduces, so the returned basis is the unique reduced Groebner
basis for the (ideal, order) pair.  Elimination runs in an extended ring
with one auxiliary variable in front under a two-block order.

Inside the engine a monomial is one int (Monagan and Pearce, "Sparse
polynomial division using a heap", 2011).  Its low part packs the
exponents, one 16-bit field per variable whose top bit is a guard bit;
elimination orders add one field holding the degree of the second block.
Its high part is the order key, a linear functional of the exponents with
weights in base 2^16:

  grevlex  deg * B^n - sum e_i B^i
  lex      sum e_i B^(n-1-i)
  elim k   d1 * B^(n+1) - sum_{i<k} e_i B^(n-k+1+i) + d2 * B^(n-k) - sum_{i>=k} e_i B^(i-k)

where B = 2^16 and d1, d2 are the block degrees, so comparing the ints
compares the monomials, a product is a sum, ``max`` over a dict of
terms finds the leading term, "a divides b" is
``((b | G) - a) & G == G`` on the low parts (G holds the guard bits) and
an lcm is a field-wise max done with the same subtraction.  Polynomials are
packed on entry and unpacked on exit, so callers keep exponent tuples.

Every exponent and the second block degree must stay at or below
``EXPONENT_LIMIT`` (2^15 - 1): inputs are checked when packed and each
reduction step checks the guard bits of its largest product, so a
computation that would need more raises ``ExponentOverflowError`` (CLI
exit 2) instead of returning a wrong basis.
"""

from __future__ import annotations

import heapq
import operator
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import ExponentOverflowError
from .polyring import (
    GREVLEX,
    MonomialOrder,
    Polynomial,
    RingSpec,
    elimination_order,
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
    """Packed monomials of one (order, variable count) pair.

    Field i of the low part holds the exponent of variable i; an
    elimination order adds field n, the degree of the variables from
    ``second`` on, whose size the order key relies on.
    """

    __slots__ = ("n", "second", "weights", "low", "guard", "var_low", "var_guard", "fields")

    def __init__(self, order: MonomialOrder, n: int):
        base = 1 << FIELD_BITS
        second = None
        if order.kind == "grevlex":
            keys = [base**n - base**i for i in range(n)]
        elif order.kind == "lex":
            keys = [base ** (n - 1 - i) for i in range(n)]
        elif order.kind == "elim":
            second = k = min(order.block, n)
            keys = [base ** (n + 1) - base ** (n - k + 1 + i) for i in range(k)]
            keys += [base ** (n - k) - base ** (i - k) for i in range(k, n)]
        else:
            raise ValueError(f"unknown order kind {order.kind!r}")
        places = [base**i for i in range(n)]
        fields = n
        if second is not None:
            places[second:] = [place + base**n for place in places[second:]]
            fields += 1
        width = FIELD_BITS * fields
        self.n = n
        self.second = second
        self.weights = tuple((key << width) + place for key, place in zip(keys, places))
        self.low = (1 << width) - 1
        self.guard = sum(base // 2 * base**f for f in range(fields))
        self.var_low = base**n - 1
        self.var_guard = self.guard & self.var_low
        self.fields = struct.Struct(f"<{n}H")

    def pack(self, e) -> int:
        if max(e) > EXPONENT_LIMIT:
            _overflow()
        if self.second is not None and sum(e[self.second :]) > EXPONENT_LIMIT:
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
        second = self.second
        if second is not None:
            block_degree = (a >> (FIELD_BITS * self.n)) % (1 << FIELD_BITS) + sum(rise[second:])
            if block_degree > EXPONENT_LIMIT:
                _overflow()
        return a + sum(map(operator.mul, rise, self.weights))

    def record(self, terms, field) -> tuple:
        """Reducer record of the monic multiple of {exponent tuple: coefficient} terms."""
        return _record({self.pack(e): c for e, c in terms.items()}, field, self.low, self.guard)


@lru_cache(maxsize=64)
def _packing(order: MonomialOrder, n: int) -> _Packing:
    return _Packing(order, n)


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
    Groebner bases and Hilbert data are cached on the instance.
    """

    __slots__ = ("ring", "gens", "_gb_cache", "_hilbert", "__weakref__")

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
        self.gens = tuple(gens)
        self._gb_cache = {}
        self._hilbert = None

    @classmethod
    def from_strings(cls, ring: RingSpec, texts) -> "IdealPresentation":
        return cls(ring, [parse_polynomial(t, ring) for t in texts])

    @classmethod
    def from_basis(cls, gb: "GroebnerBasis") -> "IdealPresentation":
        """The ideal a Groebner basis generates, with that basis already cached.

        The elements of a reduced basis of a homogeneous ideal are nonzero,
        homogeneous and in the basis's ring, so they are not checked again.
        """
        ideal = cls.__new__(cls)
        ideal.ring = gb.ring
        ideal.gens = gb.elements
        ideal._gb_cache = {gb.order.cache_token(): gb}
        ideal._hilbert = None
        return ideal

    def is_zero_ideal(self) -> bool:
        return not self.gens

    def __repr__(self):
        from .polyring import poly_to_str

        body = ", ".join(poly_to_str(g) for g in self.gens) or "0"
        return f"Ideal({body})"


@dataclass(frozen=True)
class GroebnerBasis:
    ring: RingSpec
    order: MonomialOrder
    elements: tuple[Polynomial, ...]

    @cached_property
    def leading_exponents(self) -> tuple[tuple[int, ...], ...]:
        return tuple(g.leading(self.order)[0] for g in self.elements)

    @cached_property
    def packed(self) -> tuple:
        """(packing, monic reducer records of the elements) for ``normal_form``."""
        pk = _packing(self.order, self.ring.n)
        return pk, [pk.record(g.terms, self.ring.field) for g in self.elements]

    @cached_property
    def monomial_normal_forms(self) -> dict:
        """Memo {monomial: terms of its normal form}; its users bound its size."""
        return {}

    @property
    def is_unit_ideal(self) -> bool:
        return any(sum(e) == 0 for e in self.leading_exponents)

    def __getstate__(self):
        # memos are rebuilt on demand; pickles carry only the basis itself
        return {"ring": self.ring, "order": self.order, "elements": self.elements}


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


def buchberger(
    generators, order: MonomialOrder = GREVLEX, groebner_prefix: int = 0
) -> list[Polynomial]:
    """Reduced Groebner basis of the generated ideal.

    Normal selection: the pending pair with the smallest lcm in the order
    goes next.  Pending pairs sit in a heap of (packed lcm, i, j), whose
    order key makes the smallest lcm come first; the chain criterion
    consults the set of pending pairs.
    ``groebner_prefix`` marks the first k generators as already a Groebner
    basis, so their mutual pairs are skipped (used when extending a cached
    basis by new elements).
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    p = ring.field.p
    pk = _packing(order, ring.n)
    low, guard = pk.low, pk.guard
    basis = [pk.record(g.terms, ring.field) for g in gens]
    # an input that was already monic is returned as is if interreduction keeps it
    originals = [g if g.terms[pk.unpack(rec[1])] == 1 else None for g, rec in zip(gens, basis)]
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
        rec = _record(reduced, ring.field, low, guard)
        basis.append(rec)
        originals.append(None)
        lt_lows.append(rec[0])
        new = len(basis) - 1
        for m in range(new):
            add_pair(m, new)
    return _interreduce(basis, originals, pk, ring)


def _interreduce(basis, originals, pk, ring):
    """Reduced basis, descending by leading monomial, from monic reducer records."""
    p = ring.field.p
    low, guard, unpack = pk.low, pk.guard, pk.unpack
    # minimal leading terms, smallest first; duplicates drop
    kept = []
    for idx in sorted(range(len(basis)), key=lambda k: basis[k][1]):
        probe = basis[idx][0] | guard
        if any((probe - basis[k][0]) & guard == guard for k in kept):
            continue
        kept.append(idx)
    out = []
    for pos, idx in enumerate(kept):
        _, lt, tail, _ = basis[idx]
        others = [basis[k] for k in kept[:pos] + kept[pos + 1 :]]
        # no other leading term divides lt, so only the tail can change
        terms = dict(tail)
        reduced = _reduce(dict(terms), others, p, low, guard)
        if reduced == terms and originals[idx] is not None:
            out.append(originals[idx])
            continue
        poly = {unpack(lt): 1}
        poly.update((unpack(m), c) for m, c in reduced.items())
        out.append(Polynomial._raw(ring, poly))
    out.reverse()
    return out


def groebner_basis(ideal: IdealPresentation, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    token = order.cache_token()
    cached = ideal._gb_cache.get(token)
    if cached is not None:
        return cached
    gb = GroebnerBasis(ideal.ring, order, tuple(buchberger(ideal.gens, order)))
    ideal._gb_cache[token] = gb
    return gb


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of f modulo the Groebner basis."""
    if f.is_zero() or not gb.elements:
        return f
    pk, reducers = gb.packed
    pack, unpack = pk.pack, pk.unpack
    work = {pack(e): c for e, c in f.terms.items()}
    reduced = _reduce(work, reducers, f.ring.field.p, pk.low, pk.guard)
    return Polynomial._raw(f.ring, {unpack(m): c for m, c in reduced.items()})


def ideal_contains(ideal: IdealPresentation, other: IdealPresentation) -> bool:
    """True iff every generator of ``other`` lies in ``ideal``."""
    gb = groebner_basis(ideal)
    return all(normal_form(g, gb).is_zero() for g in other.gens)


def ideals_equal(a: IdealPresentation, b: IdealPresentation) -> bool:
    return ideal_contains(a, b) and ideal_contains(b, a)


def _lift(f: Polynomial, ext: RingSpec) -> Polynomial:
    return Polynomial._raw(ext, {(0,) + e: c for e, c in f.terms.items()})


def _monomial_generators(ideal: IdealPresentation):
    """Exponent tuples when every generator is a single term, else None."""
    monos = []
    for g in ideal.gens:
        if len(g.terms) != 1:
            return None
        monos.append(next(iter(g.terms)))
    return monos


def intersect(a: IdealPresentation, b: IdealPresentation) -> IdealPresentation:
    """Ideal intersection via a single auxiliary elimination variable.

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
    ext = ring.prepend_variable("w")
    w = Polynomial.variable(ext, 0)
    one = Polynomial.one(ext)
    mixed = [w * _lift(f, ext) for f in a.gens]
    mixed += [(one - w) * _lift(g, ext) for g in b.gens]
    basis = buchberger(mixed, elimination_order(1))
    kept = []
    for g in basis:
        if all(e[0] == 0 for e in g.terms):
            kept.append(Polynomial._raw(ring, {e[1:]: c for e, c in g.terms.items()}))
    return IdealPresentation(ring, kept)


def exact_divide(g: Polynomial, f: Polynomial) -> Polynomial:
    """Quotient g / f; raises if f does not divide g exactly."""
    if f.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    ring = g.ring
    pk = _packing(GREVLEX, ring.n)
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
    """Groebner basis of (gb) + (extra) in gb's order, skipping pairs inside gb."""
    seed = list(gb.elements)
    basis = buchberger(seed + list(extra), gb.order, groebner_prefix=len(seed))
    return GroebnerBasis(gb.ring, gb.order, tuple(basis))
