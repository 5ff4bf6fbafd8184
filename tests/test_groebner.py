"""Groebner engine: bases, normal forms, intersections, colons."""

import gc
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from gmdkit.errors import ExponentOverflowError
from gmdkit.gflinalg import FieldSpec
from gmdkit.groebner import (
    EXPONENT_LIMIT,
    GroebnerBasis,
    IdealPresentation,
    buchberger,
    colon,
    colon_single,
    exact_divide,
    groebner_basis,
    groebner_basis_extending,
    ideal_contains,
    ideals_equal,
    intersect,
    normal_form,
    _packing,
)
from gmdkit.polyring import (
    GREVLEX,
    LEX,
    Polynomial,
    RingSpec,
    degree_monomials,
    elimination_order,
    monomial_div,
    monomial_lcm,
    parse_polynomial,
)

from oracles import EXAMPLE1, buchberger_by_tuples, reduce_by_tuples

R2 = RingSpec(FieldSpec(2), ("x", "y"))
R3 = RingSpec(FieldSpec(2), ("x", "y", "z"))
R3_F5 = RingSpec(FieldSpec(5), ("x", "y", "z"))
R4 = RingSpec(FieldSpec(2), ("x", "y", "z", "w"))


def ideal(ring, *texts):
    return IdealPresentation.from_strings(ring, texts)


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


def spoly(f, g, order):
    lt_f, _ = f.leading(order)
    lt_g, _ = g.leading(order)
    lcm = monomial_lcm(lt_f, lt_g)
    fm = f.monic(order)
    gm = g.monic(order)
    return fm.term_mul(monomial_div(lcm, lt_f), 1) - gm.term_mul(
        monomial_div(lcm, lt_g), 1
    )


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(homogeneous_ideals(), st.sampled_from([GREVLEX, LEX]))
def test_basis_reduces_generators_and_s_polynomials(ideal_, order):
    gb = groebner_basis(ideal_, order)
    for g in ideal_.gens:
        assert normal_form(g, gb).is_zero()
    # Buchberger criterion: a basis is confirmed by its own s-polynomials
    els = gb.elements
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            assert normal_form(spoly(els[i], els[j], order), gb).is_zero()


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(homogeneous_ideals())
def test_normal_form_is_idempotent_and_compatible_with_sums(ideal_):
    gb = groebner_basis(ideal_)
    monos = degree_monomials(ideal_.ring.n, 2)
    f = Polynomial(ideal_.ring, {e: 1 for e in monos[: 1 + len(monos) // 2]})
    g = Polynomial(ideal_.ring, {e: 1 for e in monos[len(monos) // 3 :]})
    nf = normal_form(f, gb)
    assert normal_form(nf, gb) == nf
    assert normal_form(f + g, gb) == normal_form(normal_form(f, gb) + normal_form(g, gb), gb)


QUEUE_ORDERS = [GREVLEX, LEX, elimination_order(1)]


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(homogeneous_ideals(), st.sampled_from(QUEUE_ORDERS), st.data())
def test_pair_queue_gives_one_reduced_basis(ideal_, order, data):
    gens = list(ideal_.gens)
    reduced = buchberger(gens, order)
    assert buchberger(data.draw(st.permutations(gens)), order) == reduced
    k = data.draw(st.integers(min_value=0, max_value=len(gens)))
    seed = GroebnerBasis(ideal_.ring, order, tuple(buchberger(gens[:k], order)))
    extended = groebner_basis_extending(seed, gens[k:])
    assert extended.order == order
    assert list(extended.elements) == reduced


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


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(wider_ideals(), st.sampled_from(QUEUE_ORDERS), st.data())
def test_packed_kernel_matches_the_tuple_oracle(gens, order, data):
    # same elements in the same order, term for term
    expected = buchberger_by_tuples(gens, order)
    assert buchberger(gens, order) == expected
    k = data.draw(st.integers(min_value=0, max_value=len(gens)))
    seed = GroebnerBasis(gens[0].ring, order, tuple(buchberger_by_tuples(gens[:k], order)))
    extended = groebner_basis_extending(seed, gens[k:])
    prefixed = buchberger_by_tuples(list(seed.elements) + gens[k:], order, groebner_prefix=len(seed.elements))
    assert list(extended.elements) == prefixed
    # normal forms against the same basis
    ring = gens[0].ring
    inv = ring.field.inv
    reducers = [(g.leading(order)[0], inv(g.leading(order)[1]), g.terms) for g in extended.elements]
    monos = degree_monomials(ring.n, data.draw(st.integers(min_value=1, max_value=3)))
    f = Polynomial(ring, {e: data.draw(st.integers(min_value=0, max_value=4)) for e in monos})
    assert normal_form(f, extended).terms == reduce_by_tuples(f.terms, reducers, order, ring.field.p)


@st.composite
def exponent_pairs(draw):
    """An order and two exponent vectors in range; often equal in degree, so that ties break late."""
    n = draw(st.integers(min_value=1, max_value=13))
    order = draw(st.sampled_from([GREVLEX, LEX, elimination_order(1), elimination_order(2)]))
    second = min(order.block, n) if order.kind == "elim" else n
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
    return order, tuple(a), tuple(b)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(exponent_pairs())
def test_packed_monomials_follow_the_order(case):
    order, a, b = case
    pk = _packing(order, len(a))
    pa, pb = pk.pack(a), pk.pack(b)
    assert pk.unpack(pa) == a and pk.unpack(pb) == b
    assert (pa > pb) - (pa < pb) == order.compare(a, b)
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
    assert buchberger([at_limit]) == [at_limit]
    with pytest.raises(ExponentOverflowError, match=str(EXPONENT_LIMIT)):
        buchberger([parse_polynomial("x^40000", R3)])
    # inputs in range whose S-polynomial needs x^34000*z
    gens = [parse_polynomial(t, R3) for t in ("x^17000*y", "x^17000*z+y^17001")]
    with pytest.raises(ExponentOverflowError):
        buchberger(gens)
    # a reduction step whose product would pass the limit
    gb = groebner_basis(ideal(R3, "x^20000+y^20000"))
    x = parse_polynomial("x", R3)
    assert normal_form(x, gb) == x
    with pytest.raises(ExponentOverflowError):
        normal_form(parse_polynomial("x^20000*y^20000", R3), gb)
    with pytest.raises(ExponentOverflowError):
        exact_divide(parse_polynomial("x^20000*y^20000", R3), parse_polynomial("x^20000+y^20000", R3))
    # the second block's degree bounds the elimination order's key
    block = [parse_polynomial("y^20000*z^20000", R3)]
    assert buchberger(block) == block
    with pytest.raises(ExponentOverflowError):
        buchberger(block, elimination_order(1))
    pair = [parse_polynomial(t, R3) for t in ("x*y^20000", "x*z^20000")]
    with pytest.raises(ExponentOverflowError):
        buchberger(pair, elimination_order(1))


def test_basis_pickles_without_its_memos():
    gb = groebner_basis(ideal(R3, "x*y+z^2", "y^2"))
    assert gb.packed and gb.leading_exponents
    gb.monomial_normal_forms[(1, 2, 0)] = {}
    memos = {"packed", "leading_exponents", "monomial_normal_forms"}
    assert memos <= set(gb.__dict__)
    clone = pickle.loads(pickle.dumps(gb))
    assert clone == gb
    assert not memos & set(clone.__dict__)
    assert clone.packed[1] == gb.packed[1]
    # only the basis holds its packed reducer table, so the table goes with it
    assert gc.get_referrers(gb.packed) == [gb.__dict__]


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


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
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


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
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
    assert exact_divide(f * g, g) == f.scale(1)
    with pytest.raises(ValueError):
        exact_divide(parse_polynomial("x^2", R3_F5), parse_polynomial("y", R3_F5))
    with pytest.raises(ZeroDivisionError):
        exact_divide(f, Polynomial.zero(R3_F5))


def test_groebner_cache_and_order_sensitivity():
    i = ideal(R3, "x*y+z^2", "y^2")
    assert groebner_basis(i) is groebner_basis(i)
    lex_gb = groebner_basis(i, LEX)
    assert lex_gb is groebner_basis(i, LEX)
    assert lex_gb is not groebner_basis(i)
    for g in i.gens:
        assert normal_form(g, lex_gb).is_zero()


def test_extending_a_cached_basis():
    base = ideal(R3, "x^2")
    gb = groebner_basis(base)
    ext = groebner_basis_extending(gb, [parse_polynomial("y^2", R3)])
    target = groebner_basis(ideal(R3, "x^2", "y^2"))
    assert set(ext.leading_exponents) == set(target.leading_exponents)
    shell = IdealPresentation.from_basis(ext)
    assert groebner_basis(shell) is ext
    assert ideals_equal(shell, ideal(R3, "x^2", "y^2"))
