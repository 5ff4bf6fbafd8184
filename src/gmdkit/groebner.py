"""Buchberger's algorithm, normal forms, intersections and colon ideals.

The engine keeps basis elements monic, computes each leading term once,
keeps pending pairs in a heap and applies the two classical pair criteria
(coprime leading terms, chain criterion) with normal selection, then
interreduces, so the returned basis is the unique reduced Groebner
basis for the (ideal, order) pair.  Elimination runs in an extended ring
with one auxiliary variable in front under a two-block order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

from .polyring import (
    GREVLEX,
    MonomialOrder,
    Polynomial,
    RingSpec,
    elimination_order,
    minimal_monomial_generators,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    parse_polynomial,
)


class IdealPresentation:
    """A homogeneous ideal given by generators in a fixed ring.

    Zero generators are dropped; inhomogeneous generators are rejected.
    Groebner bases and Hilbert data are cached on the instance.
    """

    __slots__ = ("ring", "gens", "_gb_cache", "_hilbert_cache", "__weakref__")

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
        self._hilbert_cache = {}

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
        ideal._hilbert_cache = {}
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
    def reducers(self) -> list:
        """(leading exponent, inverse leading coefficient, terms) per element."""
        inv = self.ring.field.inv
        return [
            (lt, inv(g.terms[lt]), g.terms)
            for lt, g in zip(self.leading_exponents, self.elements)
        ]

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


def _reduce_terms(terms, reducers, keys, p):
    """Full normal form of a coefficient dict against (lt, lc_inv, terms) reducers.

    ``keys`` maps a monomial to its order key (``MonomialOrder.keys``).
    """
    work = dict(terms)
    out = {}
    key = keys.__getitem__
    while work:
        mu = max(work, key=key)
        c = work.pop(mu)
        hit = None
        for reducer in reducers:
            if monomial_divides(reducer[0], mu):
                hit = reducer
                break
        if hit is None:
            out[mu] = c
            continue
        lt, lc_inv, gterms = hit
        shift = monomial_div(mu, lt)
        factor = (c * lc_inv) % p
        for e, a in gterms.items():
            if e == lt:
                continue
            tgt = monomial_mul(e, shift)
            v = (work.get(tgt, 0) - factor * a) % p
            if v:
                work[tgt] = v
            elif tgt in work:
                del work[tgt]
    return out


def _spoly(f, lt_f, g, lt_g):
    """S-polynomial of two monic polynomials with the given leading exponents."""
    lcm = monomial_lcm(lt_f, lt_g)
    return f.term_mul(monomial_div(lcm, lt_f), 1) - g.term_mul(monomial_div(lcm, lt_g), 1)


def buchberger(
    generators,
    order: MonomialOrder = GREVLEX,
    strategy: str = "normal",
    groebner_prefix: int = 0,
) -> list[Polynomial]:
    """Reduced Groebner basis of the generated ideal.

    strategy "normal" picks the pending pair with the smallest lcm in the
    order; "first" processes pairs in creation order.  Both give the same
    reduced basis.  Pending pairs sit in a heap keyed by (lcm key, i, j)
    for "normal" and by (j, i, j) for "first"; the chain criterion consults
    the set of pending pairs.
    ``groebner_prefix`` marks the first k generators as already a Groebner
    basis, so their mutual pairs are skipped (used when extending a cached
    basis by new elements).
    """
    if strategy not in ("normal", "first"):
        raise ValueError(f"unknown strategy {strategy!r}")
    basis = [g.monic(order) for g in generators if not g.is_zero()]
    if not basis:
        return []
    ring = basis[0].ring
    p = ring.field.p
    keys = order.keys
    normal = strategy == "normal"
    lts = [g.leading(order)[0] for g in basis]
    # every element is monic, so each inverse leading coefficient is 1
    reducers = [(lt, 1, g.terms) for lt, g in zip(lts, basis)]

    pending = set()
    heap = []

    def add_pair(i, j):
        pending.add((i, j))
        rank = keys[monomial_lcm(lts[i], lts[j])] if normal else j
        heapq.heappush(heap, (rank, i, j))

    for j in range(groebner_prefix, len(basis)):
        for i in range(j):
            add_pair(i, j)

    while heap:
        _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        lt_i, lt_j = lts[i], lts[j]
        lcm = monomial_lcm(lt_i, lt_j)
        # coprime leading terms: S-polynomial reduces to zero
        if lcm == monomial_mul(lt_i, lt_j):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not monomial_divides(lts[k], lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                skip = True
                break
        if skip:
            continue
        s = _spoly(basis[i], lt_i, basis[j], lt_j)
        reduced = _reduce_terms(s.terms, reducers, keys, p)
        if not reduced:
            continue
        # the first term of a normal form is its leading term
        lt, lc = next(iter(reduced.items()))
        h = Polynomial._raw(ring, reduced)
        if lc != 1:
            h = h.monic(order)
        basis.append(h)
        lts.append(lt)
        reducers.append((lt, 1, h.terms))
        new = len(basis) - 1
        for m in range(new):
            add_pair(m, new)
    return _interreduce(basis, lts, keys)


def _interreduce(basis, lts, keys):
    """Reduced basis from monic elements with the given leading exponents."""
    if not basis:
        return []
    p = basis[0].ring.field.p
    # minimal leading terms, smallest first; duplicates drop
    ordered = sorted(zip(lts, basis), key=lambda pair: keys[pair[0]])
    kept = []
    for lt, g in ordered:
        if any(monomial_divides(k_lt, lt) for k_lt, _ in kept):
            continue
        kept.append((lt, g))
    reducers = [(lt, 1, g.terms) for lt, g in kept]
    out = []
    for idx, (lt, g) in enumerate(kept):
        others = reducers[:idx] + reducers[idx + 1 :]
        if others:
            # no other leading term divides lt, so the result keeps lt and stays monic
            g = Polynomial._raw(g.ring, _reduce_terms(g.terms, others, keys, p))
        out.append((lt, g))
    out.sort(key=lambda pair: keys[pair[0]], reverse=True)
    return [g for _, g in out]


def groebner_basis(
    ideal: IdealPresentation, order: MonomialOrder = GREVLEX, strategy: str = "normal"
) -> GroebnerBasis:
    token = order.cache_token()
    cached = ideal._gb_cache.get(token)
    if cached is not None:
        return cached
    gb = GroebnerBasis(ideal.ring, order, tuple(buchberger(ideal.gens, order, strategy)))
    ideal._gb_cache[token] = gb
    return gb


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of f modulo the Groebner basis."""
    if f.is_zero() or not gb.elements:
        return f
    reduced = _reduce_terms(f.terms, gb.reducers, gb.order.keys, f.ring.field.p)
    return Polynomial._raw(f.ring, reduced)


def ideal_contains(ideal: IdealPresentation, other: IdealPresentation, order=GREVLEX) -> bool:
    """True iff every generator of ``other`` lies in ``ideal``."""
    gb = groebner_basis(ideal, order)
    return all(normal_form(g, gb).is_zero() for g in other.gens)


def ideals_equal(a: IdealPresentation, b: IdealPresentation, order=GREVLEX) -> bool:
    return ideal_contains(a, b, order) and ideal_contains(b, a, order)


def _lift(f: Polynomial, ext: RingSpec, w_degree: int = 0) -> Polynomial:
    return Polynomial._raw(ext, {(w_degree,) + e: c for e, c in f.terms.items()})


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


def exact_divide(g: Polynomial, f: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
    """Quotient g / f; raises if f does not divide g exactly."""
    if f.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    ring = g.ring
    p = ring.field.p
    lt_f, lc_f = f.leading(order)
    inv = ring.field.inv(lc_f)
    work = dict(g.terms)
    quotient = {}
    key = order.keys.__getitem__
    while work:
        mu = max(work, key=key)
        c = work.pop(mu)
        if not monomial_divides(lt_f, mu):
            raise ValueError("polynomial is not an exact multiple")
        shift = monomial_div(mu, lt_f)
        factor = (c * inv) % p
        quotient[shift] = factor
        for e, a in f.terms.items():
            if e == lt_f:
                continue
            tgt = monomial_mul(e, shift)
            v = (work.get(tgt, 0) - factor * a) % p
            if v:
                work[tgt] = v
            elif tgt in work:
                del work[tgt]
    return Polynomial(ring, quotient)


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


def groebner_basis_extending(
    gb: GroebnerBasis, extra, order: MonomialOrder = GREVLEX
) -> GroebnerBasis:
    """Groebner basis of (gb) + (extra), skipping pairs inside gb."""
    seed = list(gb.elements)
    basis = buchberger(seed + list(extra), order, groebner_prefix=len(seed))
    return GroebnerBasis(gb.ring, order, tuple(basis))
