"""Polynomial parsing, printing, and monomial order behavior."""

import math
import pickle
import pytest
from hypothesis import given, settings, strategies as st

from gmdkit import polyring
from gmdkit.errors import ParseError
from gmdkit.gflinalg import FieldSpec
from gmdkit.polyring import (
    GREVLEX,
    LEX,
    MonomialOrder,
    Polynomial,
    RingSpec,
    degree_monomials,
    elimination_order,
    graded_piece_basis,
    monomial_to_str,
    parse_polynomial,
    poly_to_str,
)

R3 = RingSpec(FieldSpec(2), ("x", "y", "z"))
R3_F5 = RingSpec(FieldSpec(5), ("x", "y", "z"))


def rings():
    return st.sampled_from(
        [
            RingSpec(FieldSpec(2), ("x", "y")),
            R3,
            R3_F5,
            RingSpec(FieldSpec(3), ("a", "b", "c", "d")),
        ]
    )


@st.composite
def ring_and_poly(draw):
    ring = draw(rings())
    nterms = draw(st.integers(min_value=0, max_value=6))
    terms = {}
    for _ in range(nterms):
        e = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(ring.n))
        c = draw(st.integers(min_value=0, max_value=ring.field.p - 1))
        if c:
            terms[e] = c
    return ring, Polynomial(ring, terms)


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(ring_and_poly())
def test_parse_print_round_trip(rp):
    ring, f = rp
    text = poly_to_str(f)
    assert parse_polynomial(text, ring) == f


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(ring_and_poly())
def test_print_is_canonical_descending(rp):
    ring, f = rp
    text = poly_to_str(f)
    if f.is_zero():
        assert text == "0"
        return
    monos = [e for e, _ in f.sorted_terms()]
    keys = [GREVLEX.key(e) for e in monos]
    assert keys == sorted(keys, reverse=True)
    assert "-" not in text
    assert " " not in text


def test_parse_accepts_messy_spacing_and_signs():
    f = parse_polynomial(" - x^2 + 3*x*y - y ^ 2 ", R3_F5)
    assert f == parse_polynomial("4*x^2+3*x*y+4*y^2", R3_F5)


def test_parse_merges_repeated_variables_and_terms():
    assert parse_polynomial("x*x*y", R3) == parse_polynomial("x^2*y", R3)
    assert parse_polynomial("x+x", R3).is_zero()
    assert parse_polynomial("x+x+x", R3) == parse_polynomial("x", R3)


@pytest.mark.parametrize(
    "text, position",
    [
        ("x + ?", 4),
        ("w", 0),
        ("x^y", 1),
        ("x*", 1),
        ("x*+y", 2),
        ("x y", 2),
        ("x+", 1),
        ("^2", 0),
        ("", 0),
    ],
)
def test_parse_error_positions(text, position):
    with pytest.raises(ParseError) as exc:
        parse_polynomial(text, R3)
    assert exc.value.position == position
    assert f"position {position}" in exc.value.describe()


def test_grevlex_and_lex_disagree_on_known_example():
    deg2 = degree_monomials(3, 2)
    by_grevlex = sorted(deg2, key=GREVLEX.key, reverse=True)
    by_lex = sorted(deg2, key=LEX.key, reverse=True)
    names = lambda seq: [monomial_to_str(R3, e) for e in seq]
    assert names(by_grevlex) == ["x^2", "x*y", "y^2", "x*z", "y*z", "z^2"]
    assert names(by_lex) == ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"]


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    st.sampled_from([GREVLEX, LEX, elimination_order(1), elimination_order(2)]),
    st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3),
    st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3),
    st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3),
)
def test_orders_are_multiplicative_total_orders(order, a, b, c):
    a, b, c = tuple(a), tuple(b), tuple(c)
    cmp = order.compare(a, b)
    assert cmp == -order.compare(b, a)
    assert (cmp == 0) == (a == b)
    # compatibility with multiplication
    ac = tuple(x + y for x, y in zip(a, c))
    bc = tuple(x + y for x, y in zip(b, c))
    assert order.compare(ac, bc) == cmp


def test_graded_orders_refine_total_degree():
    a, b = (0, 3, 0), (1, 0, 1)
    assert GREVLEX.compare(a, b) > 0
    assert LEX.compare(a, b) < 0


def test_elimination_order_prefers_leading_block():
    order = elimination_order(1)
    # any power of the first variable beats anything in the tail block
    assert order.compare((1, 0, 0), (0, 5, 5)) > 0
    assert order.compare((0, 2, 3), (1, 0, 0)) < 0
    # within the tail block it falls back to a graded comparison
    assert order.compare((0, 2, 0), (0, 1, 0)) > 0


@pytest.mark.parametrize("order", [GREVLEX, LEX, elimination_order(1)])
def test_key_memo_matches_key_and_stays_bounded(order, monkeypatch):
    monkeypatch.setattr(polyring, "KEY_MEMO_LIMIT", 8)
    order.keys.clear()
    for t in range(6):
        for e in degree_monomials(3, t):
            assert order.keys[e] == order.key(e)
            assert len(order.keys) <= 8
    # equal orders share one memo, and pickles do not carry it
    assert elimination_order(1).keys is elimination_order(1).keys
    assert "keys" not in pickle.loads(pickle.dumps(order)).__dict__


@pytest.mark.parametrize("n, t", [(1, 0), (1, 5), (2, 3), (3, 4), (4, 3), (3, 0)])
def test_degree_monomials_count_and_degrees(n, t):
    monos = degree_monomials(n, t)
    assert len(monos) == math.comb(t + n - 1, n - 1)
    assert len(set(monos)) == len(monos)
    assert all(sum(e) == t for e in monos)
    assert all(len(e) == n for e in monos)


def test_graded_piece_basis_is_sorted_descending():
    for t in range(5):
        basis = graded_piece_basis(R3, t)
        assert set(basis) == set(degree_monomials(3, t))
        keys = [GREVLEX.key(e) for e in basis]
        assert keys == sorted(keys, reverse=True)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(ring_and_poly(), ring_and_poly())
def test_ring_laws(rp1, rp2):
    ring, f = rp1
    _, g0 = rp2
    # transplant g0's terms into f's ring so the operands are compatible
    g = Polynomial(
        ring,
        {
            tuple((e + (0,) * ring.n)[: ring.n]): c % ring.field.p
            for e, c in g0.terms.items()
            if c % ring.field.p
        },
    )
    assert f + g == g + f
    assert f * g == g * f
    assert (f - f).is_zero()
    assert f * (f + g) == f * f + f * g
    assert f + Polynomial.zero(ring) == f
    assert f * Polynomial.one(ring) == f


def test_coefficients_reduce_mod_p():
    f = parse_polynomial("2*x", R3)
    assert f.is_zero()
    g = parse_polynomial("7*x", R3_F5)
    assert g == parse_polynomial("2*x", R3_F5)


def test_leading_term_and_monic():
    f = parse_polynomial("2*x^2+3*y*z+z", R3_F5)
    e, c = f.leading(GREVLEX)
    assert e == (2, 0, 0) and c == 2
    assert f.monic(GREVLEX).leading(GREVLEX) == ((2, 0, 0), 1)


def test_homogeneity_and_degree():
    assert parse_polynomial("x^2+y*z", R3).is_homogeneous()
    assert not parse_polynomial("x^2+z", R3).is_homogeneous()
    assert parse_polynomial("x^3+x*y*z", R3).degree() == 3
    assert Polynomial.zero(R3).degree() == -1


def test_pickle_round_trips():
    f = parse_polynomial("x^2+3*y*z", R3_F5)
    for obj in (R3_F5, GREVLEX, elimination_order(2), f):
        clone = pickle.loads(pickle.dumps(obj))
        assert clone == obj or clone.__dict__ == getattr(obj, "__dict__", clone.__dict__)
    g = pickle.loads(pickle.dumps(f))
    assert g == f and g.ring.names == f.ring.names


def test_ring_spec_validation():
    with pytest.raises(ValueError):
        RingSpec(FieldSpec(2), ())
    with pytest.raises(ValueError):
        RingSpec(FieldSpec(2), ("x", "x"))
    with pytest.raises(ValueError):
        RingSpec(FieldSpec(2), tuple(f"v{i}" for i in range(13)))


def test_prepend_variable_shifts_names():
    r = R3.prepend_variable("w")
    assert r.names == ("w", "x", "y", "z")
    # a clashing name is uniquified, never silently reused
    r2 = R3.prepend_variable("x")
    assert r2.names[0] not in R3.names
    assert r2.names[1:] == R3.names
