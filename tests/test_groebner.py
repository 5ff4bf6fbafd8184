"""Groebner engine: bases, normal forms, intersections, colons."""

import gc
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from gmdkit.errors import ExponentOverflowError
from gmdkit import groebner
from gmdkit.gflinalg import FieldSpec
from gmdkit.groebner import (
    EXPONENT_LIMIT,
    GroebnerBasis,
    IdealPresentation,
    colon,
    colon_single,
    exact_divide,
    groebner_basis,
    groebner_basis_extending,
    ideal_contains,
    ideals_equal,
    intersect,
    normal_form,
    _interreduce,
    _minimal,
    _packing,
)
from gmdkit.polyring import (
    Polynomial,
    RingSpec,
    degree_monomials,
    monomial_lcm,
    parse_polynomial,
)

from oracles import (
    EXAMPLE1,
    buchberger_by_tuples,
    elimination_key,
    grevlex_key,
    reduce_by_tuples,
)

R2 = RingSpec(FieldSpec(2), ("x", "y"))
R3 = RingSpec(FieldSpec(2), ("x", "y", "z"))
R3_F5 = RingSpec(FieldSpec(5), ("x", "y", "z"))
R4 = RingSpec(FieldSpec(2), ("x", "y", "z", "w"))


def ideal(ring, *texts):
    return IdealPresentation.from_strings(ring, texts)


def complete(gens, eliminate=False, groebner_prefix=0):
    """Reduced basis of polynomials as the Groebner entry points build it:
    packed under grevlex or under the elimination order ``intersect`` uses,
    completed by ``groebner.buchberger``, interreduced and unpacked."""
    if not gens:
        return []
    ring = gens[0].ring
    pk = _packing(ring.n, eliminate)
    records = [pk.record(g.terms, ring.field) for g in gens]
    basis = groebner.buchberger(records, pk, ring.field, groebner_prefix)
    return [pk.polynomial(rec, ring) for rec in _interreduce(_minimal(basis, pk), pk, ring.field)]


def leading(f, key=grevlex_key):
    e = max(f.terms, key=key)
    return e, f.terms[e]


@st.composite
def homogeneous_ideals(draw):
    ring = draw(st.sampled_from([R2, R3, R3_F5]))
    p = ring.field.p
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        d = draw(st.integers(min_value=1, max_value=3))
        monos = degree_monomials(ring.n, d)
        terms = {}
        for e in monos:
            c = draw(st.integers(min_value=0, max_value=p - 1))
            if c:
                terms[e] = c
        if terms:
            gens.append(Polynomial(ring, terms))
    return IdealPresentation(ring, gens)


def spoly(f, g):
    lcm = monomial_lcm(leading(f)[0], leading(g)[0])

    def shifted(h):
        lt, c = leading(h)
        shift = tuple(a - b for a, b in zip(lcm, lt))
        return Polynomial(h.ring, {shift: h.ring.field.inv(c)}) * h

    return shifted(f) - shifted(g)


@settings(max_examples=60)
@given(homogeneous_ideals())
def test_basis_reduces_generators_and_s_polynomials(ideal_):
    gb = groebner_basis(ideal_)
    for g in ideal_.gens:
        assert normal_form(g, gb).is_zero()
    # Buchberger criterion: a basis is confirmed by its own s-polynomials
    els = gb.elements
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            assert normal_form(spoly(els[i], els[j]), gb).is_zero()


@settings(max_examples=60)
@given(homogeneous_ideals())
def test_normal_form_is_idempotent_and_compatible_with_sums(ideal_):
    gb = groebner_basis(ideal_)
    monos = degree_monomials(ideal_.ring.n, 2)
    f = Polynomial(ideal_.ring, {e: 1 for e in monos[: 1 + len(monos) // 2]})
    g = Polynomial(ideal_.ring, {e: 1 for e in monos[len(monos) // 3 :]})
    nf = normal_form(f, gb)
    assert normal_form(nf, gb) == nf
    assert normal_form(f + g, gb) == normal_form(normal_form(f, gb) + normal_form(g, gb), gb)


@settings(max_examples=60)
@given(homogeneous_ideals(), st.booleans(), st.data())
def test_pair_queue_gives_one_reduced_basis(ideal_, eliminate, data):
    gens = list(ideal_.gens)
    reduced = complete(gens, eliminate)
    assert complete(data.draw(st.permutations(gens)), eliminate) == reduced
    k = data.draw(st.integers(min_value=0, max_value=len(gens)))
    seed = complete(gens[:k], eliminate)
    assert complete(seed + gens[k:], eliminate, groebner_prefix=len(seed)) == reduced
    if not eliminate:
        seed_basis = groebner_basis(IdealPresentation(ideal_.ring, gens[:k]))
        assert list(groebner_basis_extending(seed_basis, gens[k:]).elements) == reduced


R4_F3 = RingSpec(FieldSpec(3), ("x", "y", "z", "w"))


@st.composite
def wider_ideals(draw):
    """Up to four generators, on the rings above plus four variables over F_3."""
    ring = draw(st.sampled_from([R2, R3, R3_F5, R4_F3]))
    p = ring.field.p
    top = 2 if ring.n == 4 else 3
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        monos = degree_monomials(ring.n, draw(st.integers(min_value=1, max_value=top)))
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
        coeffs = draw(st.lists(st.integers(min_value=1, max_value=p - 1), min_size=4, max_size=4))
        gens.append(Polynomial(ring, dict(zip(chosen, coeffs))))
    return gens


@settings(max_examples=150)
@given(wider_ideals(), st.booleans(), st.data())
def test_packed_kernel_matches_the_tuple_oracle(gens, eliminate, data):
    # same elements in the same order, term for term, under grevlex and
    # under the elimination order intersect uses
    key = elimination_key if eliminate else grevlex_key
    assert complete(gens, eliminate) == buchberger_by_tuples(gens, key)
    k = data.draw(st.integers(min_value=0, max_value=len(gens)))
    seed = buchberger_by_tuples(gens[:k], key)
    prefixed = buchberger_by_tuples(seed + gens[k:], key, groebner_prefix=len(seed))
    assert complete(seed + gens[k:], eliminate, groebner_prefix=len(seed)) == prefixed
    if eliminate:
        return
    ring = gens[0].ring
    pk = _packing(ring.n)
    seed_basis = GroebnerBasis(ring, [pk.record(g.terms, ring.field) for g in seed], reduced=True)
    extended = groebner_basis_extending(seed_basis, gens[k:])
    assert list(extended.elements) == prefixed
    # normal forms against the same basis
    inv = ring.field.inv
    reducers = [(leading(g)[0], inv(leading(g)[1]), g.terms) for g in extended.elements]
    monos = degree_monomials(ring.n, data.draw(st.integers(min_value=1, max_value=3)))
    f = Polynomial(ring, {e: data.draw(st.integers(min_value=0, max_value=4)) for e in monos})
    assert normal_form(f, extended).terms == reduce_by_tuples(f.terms, reducers, key, ring.field.p)


@settings(max_examples=150)
@given(wider_ideals(), st.data())
def test_extension_takes_its_leading_exponents_from_the_records(gens, data):
    # the minimal leading monomials of the completion are those of the
    # reduced basis, in the same descending order, before any interreduction
    expected = tuple(leading(g)[0] for g in buchberger_by_tuples(gens, grevlex_key))
    k = data.draw(st.integers(min_value=0, max_value=len(gens)))
    seed = groebner_basis(IdealPresentation(gens[0].ring, gens[:k]))
    extended = groebner_basis_extending(seed, gens[k:])
    assert extended.leading_exponents == expected
    assert not {"reduced_records", "elements"} & set(vars(extended))
    assert tuple(leading(g)[0] for g in extended.elements) == expected


@settings(max_examples=100)
@given(wider_ideals(), st.data())
def test_extension_hilbert_data_matches_the_ideal_built_from_scratch(gens, data):
    from gmdkit.hilbert import HilbertData, hilbert_data

    ring = gens[0].ring
    k = data.draw(st.integers(min_value=0, max_value=len(gens)))
    seed = groebner_basis(IdealPresentation(ring, gens[:k]))
    shell = IdealPresentation.from_basis(groebner_basis_extending(seed, gens[k:]))
    got = hilbert_data(shell)
    want = hilbert_data(IdealPresentation(ring, gens))
    assert [getattr(got, f) for f in HilbertData.__slots__] == [getattr(want, f) for f in HilbertData.__slots__]
    assert "elements" not in vars(groebner_basis(shell))
    assert list(shell.gens) == list(groebner_basis(IdealPresentation(ring, gens)).elements)


@st.composite
def exponent_pairs(draw):
    """Whether to eliminate, and two exponent vectors in range; often equal
    in degree, so that ties break late."""
    n = draw(st.integers(min_value=1, max_value=13))
    eliminate = draw(st.booleans())
    second = 1 if eliminate else n
    head = st.one_of(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=EXPONENT_LIMIT))
    tail = st.one_of(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=EXPONENT_LIMIT // 13))
    a = draw(st.lists(head, min_size=second, max_size=second))
    a += draw(st.lists(tail, min_size=n - second, max_size=n - second))
    if draw(st.booleans()):
        # the same block degrees, the exponents shuffled within each block
        b = draw(st.permutations(a[:second])) + draw(st.permutations(a[second:]))
    else:
        b = draw(st.lists(head, min_size=second, max_size=second))
        b += draw(st.lists(tail, min_size=n - second, max_size=n - second))
    return eliminate, tuple(a), tuple(b)


@settings(max_examples=300)
@given(exponent_pairs())
def test_packed_monomials_follow_the_order(case):
    eliminate, a, b = case
    pk = _packing(len(a), eliminate)
    pa, pb = pk.pack(a), pk.pack(b)
    assert pk.unpack(pa) == a and pk.unpack(pb) == b
    key = elimination_key if eliminate else grevlex_key
    assert (pa > pb) - (pa < pb) == (key(a) > key(b)) - (key(a) < key(b))
    lcm = pk.lcm(pa, pb)
    assert pk.unpack(lcm) == monomial_lcm(a, b) and lcm == pk.pack(monomial_lcm(a, b))
    product = tuple(x + y for x, y in zip(a, b))
    try:
        packed_product = pk.pack(product)
    except ExponentOverflowError:
        return
    assert pa + pb == packed_product


def test_exponents_past_the_limit_raise_instead_of_wrapping():
    at_limit = parse_polynomial(f"x^{EXPONENT_LIMIT}", R3)
    assert complete([at_limit]) == [at_limit]
    with pytest.raises(ExponentOverflowError, match=str(EXPONENT_LIMIT)):
        complete([parse_polynomial("x^40000", R3)])
    # inputs in range whose S-polynomial needs x^34000*z
    gens = [parse_polynomial(t, R3) for t in ("x^17000*y", "x^17000*z+y^17001")]
    with pytest.raises(ExponentOverflowError):
        complete(gens)
    # a reduction step whose product would pass the limit
    gb = groebner_basis(ideal(R3, "x^20000+y^20000"))
    x = parse_polynomial("x", R3)
    assert normal_form(x, gb) == x
    with pytest.raises(ExponentOverflowError):
        normal_form(parse_polynomial("x^20000*y^20000", R3), gb)
    with pytest.raises(ExponentOverflowError):
        exact_divide(parse_polynomial("x^20000*y^20000", R3), parse_polynomial("x^20000+y^20000", R3))
    # the degree after the first variable bounds the elimination order's key
    block = [parse_polynomial("y^20000*z^20000", R3)]
    assert complete(block) == block
    with pytest.raises(ExponentOverflowError):
        complete(block, eliminate=True)
    pair = [parse_polynomial(t, R3) for t in ("x*y^20000", "x*z^20000")]
    with pytest.raises(ExponentOverflowError):
        complete(pair, eliminate=True)


def test_basis_pickles_without_its_memos():
    base = ideal(R3, "x*y+z^2", "y^2")
    gb = groebner_basis(base)
    assert gb.elements and gb.leading_exponents
    gb.monomial_normal_forms[(1, 2, 0)] = {}
    memos = {"_minimal_records", "leading_exponents", "elements", "monomial_normal_forms"}
    assert memos <= set(gb.__dict__)
    clone = pickle.loads(pickle.dumps(gb))
    assert not memos & set(clone.__dict__)
    assert clone.records == gb.records and clone.reduced_records is clone.records
    assert clone == gb
    # only the basis holds its packed reducer table, so the table goes with it
    assert gc.get_referrers(gb.records) == [gb.__dict__]
    # an extension pickles the reduced records it interreduces to
    ext = groebner_basis_extending(gb, [parse_polynomial("x^2", R3)])
    clone = pickle.loads(pickle.dumps(ext))
    assert clone.records == ext.reduced_records != ext.records
    assert clone == ext


def test_known_basis_leading_exponents():
    ring = RingSpec(FieldSpec(EXAMPLE1["char"]), EXAMPLE1["vars"])
    i1 = IdealPresentation.from_strings(ring, EXAMPLE1["gens"])
    gb = groebner_basis(i1)
    assert set(gb.leading_exponents) == {(0, 3, 1), (1, 1, 0), (3, 0, 0)}
    assert not gb.is_unit_ideal


def test_membership_via_normal_form():
    i = ideal(R3, "x*y", "x*z")
    gb = groebner_basis(i)
    assert normal_form(parse_polynomial("x*y*z", R3), gb).is_zero()
    assert normal_form(parse_polynomial("x^2*y+x*z^2", R3), gb).is_zero()
    assert not normal_form(parse_polynomial("x^2", R3), gb).is_zero()
    assert not normal_form(parse_polynomial("y*z", R3), gb).is_zero()


def test_intersect_monomial_fast_path_known_value():
    a = ideal(R4, "z", "w")
    b = ideal(R4, "x", "w")
    meet = intersect(a, b)
    assert ideals_equal(meet, ideal(R4, "w", "x*z"))


def test_intersect_fast_path_matches_elimination_route():
    # gens_b pairs share a degree so the mixed re-presentation stays homogeneous
    pairs = [
        (("x*y", "y^2"), ("x^2", "z^2")),
        (("x",), ("y", "z")),
        (("x^2", "y*z"), ("x*z", "z^2")),
    ]
    for gens_a, gens_b in pairs:
        a = ideal(R3, *gens_a)
        b = ideal(R3, *gens_b)
        fast = intersect(a, b)
        # re-present b with a two-term generator of the same ideal so the
        # monomial short-circuit cannot fire and the elimination path runs
        first = parse_polynomial(gens_b[0], R3)
        second = parse_polynomial(gens_b[1], R3)
        b_mixed = IdealPresentation(R3, [first + second, second])
        assert ideals_equal(b, b_mixed)
        slow = intersect(a, b_mixed)
        assert ideals_equal(fast, slow)


@settings(max_examples=40)
@given(homogeneous_ideals(), homogeneous_ideals())
def test_intersect_membership(a, b):
    if a.ring != b.ring:
        return
    meet = intersect(a, b)
    gb_a = groebner_basis(a)
    gb_b = groebner_basis(b)
    for g in meet.gens:
        assert normal_form(g, gb_a).is_zero()
        assert normal_form(g, gb_b).is_zero()
    # products of generators land in the intersection
    gb_meet = groebner_basis(meet)
    for f in a.gens[:2]:
        for g in b.gens[:2]:
            assert normal_form(f * g, gb_meet).is_zero()


def test_colon_known_values():
    assert ideals_equal(
        colon_single(ideal(R2, "x*y"), parse_polynomial("x", R2)), ideal(R2, "y")
    )
    assert ideals_equal(
        colon(ideal(R3, "x^2", "x*y"), [parse_polynomial("x", R3)]),
        ideal(R3, "x", "y"),
    )
    # saturating past the ideal gives the unit ideal
    unit = colon_single(ideal(R2, "x"), parse_polynomial("x", R2))
    assert groebner_basis(unit).is_unit_ideal


@settings(max_examples=40)
@given(homogeneous_ideals())
def test_colon_contains_and_multiplies_back(ideal_):
    ring = ideal_.ring
    f = Polynomial.variable(ring, 0)
    quot = colon_single(ideal_, f)
    gb = groebner_basis(ideal_)
    for g in quot.gens:
        assert normal_form(g * f, gb).is_zero()
    # I is always inside (I : f)
    assert ideal_contains(quot, ideal_)


def test_ideal_contains_and_equal():
    small = ideal(R3, "x")
    big = ideal(R3, "x", "y")
    assert ideal_contains(big, small)
    assert not ideal_contains(small, big)
    assert ideals_equal(ideal(R3, "x", "y"), ideal(R3, "x+y", "y"))
    assert not ideals_equal(ideal(R3, "x"), ideal(R3, "y"))


def test_unit_and_zero_ideals():
    one = IdealPresentation(R3, [Polynomial.one(R3)])
    assert groebner_basis(one).is_unit_ideal
    zero = IdealPresentation(R3, [Polynomial.zero(R3)])
    assert zero.is_zero_ideal()
    assert not groebner_basis(ideal(R3, "x*y")).is_unit_ideal


def test_inhomogeneous_generators_rejected():
    with pytest.raises(ValueError):
        ideal(R3, "x^2+z")
    with pytest.raises(ValueError):
        IdealPresentation(R3, [parse_polynomial("x+1", R3)])


def test_generator_from_wrong_ring_rejected():
    with pytest.raises(ValueError):
        IdealPresentation(R3, [parse_polynomial("x", R2)])


def test_exact_divide():
    f = parse_polynomial("x^2+y*z", R3_F5)
    g = parse_polynomial("2*x", R3_F5)
    assert exact_divide(f * g, g) == f
    with pytest.raises(ValueError):
        exact_divide(parse_polynomial("x^2", R3_F5), parse_polynomial("y", R3_F5))
    with pytest.raises(ZeroDivisionError):
        exact_divide(f, Polynomial.zero(R3_F5))


def test_groebner_basis_is_cached_on_the_ideal():
    i = ideal(R3, "x*y+z^2", "y^2")
    gb = groebner_basis(i)
    assert gb is groebner_basis(i) is i._gb
    for g in i.gens:
        assert normal_form(g, gb).is_zero()


def test_extending_a_cached_basis():
    base = ideal(R3, "x^2")
    gb = groebner_basis(base)
    ext = groebner_basis_extending(gb, [parse_polynomial("y^2", R3)])
    target = groebner_basis(ideal(R3, "x^2", "y^2"))
    assert set(ext.leading_exponents) == set(target.leading_exponents)
    shell = IdealPresentation.from_basis(ext)
    assert groebner_basis(shell) is ext
    assert ideals_equal(shell, ideal(R3, "x^2", "y^2"))
