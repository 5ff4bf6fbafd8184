"""Hilbert series, dimension, and multiplicity against span oracles."""

import pytest
from hypothesis import given, settings, strategies as st

from gmdkit import hilbert
from gmdkit.errors import HypothesisError
from gmdkit.gflinalg import FieldSpec
from gmdkit.groebner import IdealPresentation, groebner_basis, normal_form
from gmdkit.hilbert import (
    graded_piece_of_quotient,
    hilbert_data,
    hilbert_function,
    minimal_monomial_generators,
    multiplicity_at_dim,
)
from gmdkit.polyring import GREVLEX, Polynomial, RingSpec, degree_monomials

from oracles import (
    EXAMPLE1,
    EXAMPLE2,
    hilbert_function_by_spans,
    minimal_monomial_generators_by_pairs,
    multiplicity_by_differences,
)


def build(char, names, gens):
    ring = RingSpec(FieldSpec(char), tuple(names))
    return IdealPresentation.from_strings(ring, gens)


def as_maps(ideal):
    return [dict(g.terms) for g in ideal.gens]


NAMED = [
    (2, ("x", "y", "z"), EXAMPLE1["gens"]),
    (3, ("x", "y", "z"), EXAMPLE2["gens"]),
    (2, ("x", "y", "z"), ("x*y", "x*z")),
    (2, ("x", "y"), ("x*y",)),
    (5, ("x", "y", "z"), ("x*z+y^2", "y*z")),
    (2, ("x", "y", "z", "w"), ("x*y", "z*w")),
    (3, ("x", "y", "z", "w"), ("x*w-y*z", "y^2-x*z", "z^2-y*w")),
]


@pytest.mark.parametrize("char, names, gens", NAMED)
def test_hilbert_function_matches_span_oracle(char, names, gens):
    ideal = build(char, names, gens)
    maps = as_maps(ideal)
    for t in range(8):
        assert hilbert_function(ideal, t) == hilbert_function_by_spans(
            maps, len(names), char, t
        )


@pytest.mark.parametrize("char, names, gens", NAMED)
def test_dimension_and_multiplicity_match_difference_oracle(char, names, gens):
    ideal = build(char, names, gens)
    data = hilbert_data(ideal)
    dim, mult = multiplicity_by_differences(as_maps(ideal), len(names), char)
    assert (data.dim, data.multiplicity) == (dim, mult)


@st.composite
def monomial_ideals(draw):
    n = draw(st.integers(min_value=2, max_value=3))
    p = draw(st.sampled_from([2, 3]))
    ring = RingSpec(FieldSpec(p), tuple("xyzw"[:n]))
    k = draw(st.integers(min_value=1, max_value=4))
    gens = []
    for _ in range(k):
        d = draw(st.integers(min_value=1, max_value=3))
        e = draw(st.sampled_from(degree_monomials(n, d)))
        gens.append(Polynomial.monomial(ring, e))
    return IdealPresentation(ring, gens)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(monomial_ideals())
def test_random_monomial_ideals_match_span_oracle(ideal):
    maps = as_maps(ideal)
    n = ideal.ring.n
    p = ideal.ring.field.p
    for t in range(6):
        assert hilbert_function(ideal, t) == hilbert_function_by_spans(maps, n, p, t)


def test_known_hilbert_functions():
    ex1 = build(EXAMPLE1["char"], EXAMPLE1["vars"], EXAMPLE1["gens"])
    assert tuple(hilbert_function(ex1, t) for t in range(5)) == EXAMPLE1["hf"]
    data = hilbert_data(ex1)
    assert data.dim == EXAMPLE1["dim"]
    assert data.multiplicity == EXAMPLE1["multiplicity"]
    ex2 = build(EXAMPLE2["char"], EXAMPLE2["vars"], EXAMPLE2["gens"])
    data2 = hilbert_data(ex2)
    assert data2.dim == EXAMPLE2["dim"]
    assert data2.multiplicity == EXAMPLE2["multiplicity"]


def test_polynomial_ring_itself():
    ring = RingSpec(FieldSpec(2), ("x", "y", "z"))
    free = IdealPresentation(ring, [])
    data = hilbert_data(free)
    assert data.dim == 3 and data.multiplicity == 1
    assert [hilbert_function(free, t) for t in range(4)] == [1, 3, 6, 10]


def test_graded_piece_is_standard_and_complete():
    ideal = build(2, ("x", "y", "z"), ("x*y", "x*z"))
    gb = groebner_basis(ideal)
    for t in range(6):
        basis = graded_piece_of_quotient(ideal, t)
        assert len(basis) == hilbert_function(ideal, t)
        keys = [GREVLEX.key(e) for e in basis]
        assert keys == sorted(keys, reverse=True)
        for e in basis:
            mono = Polynomial.monomial(ideal.ring, e)
            assert normal_form(mono, gb) == mono


def test_negative_degree_and_unit_ideal():
    ideal = build(2, ("x", "y"), ("x*y",))
    assert hilbert_function(ideal, -1) == 0
    ring = RingSpec(FieldSpec(2), ("x", "y"))
    unit = IdealPresentation(ring, [Polynomial.one(ring)])
    with pytest.raises(ValueError):
        hilbert_data(unit)
    with pytest.raises(ValueError):
        graded_piece_of_quotient(unit, 2)


def test_multiplicity_at_dim_contract():
    ideal = build(2, ("x", "y", "z"), ("x*y", "x*z"))
    data = hilbert_data(ideal)
    assert multiplicity_at_dim(ideal, data.dim) == data.multiplicity
    assert multiplicity_at_dim(ideal, data.dim + 1) == 0
    with pytest.raises(HypothesisError):
        multiplicity_at_dim(ideal, data.dim - 1)


def test_minimal_monomial_generators():
    out = minimal_monomial_generators([(2, 0), (2, 1), (0, 3), (1, 2), (2, 0)])
    assert out == ((0, 3), (1, 2), (2, 0))
    assert minimal_monomial_generators([]) == ()


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=12)
    )
)
def test_minimal_monomial_generators_match_the_pairwise_definition(exponents):
    got = minimal_monomial_generators(exponents)
    assert got == minimal_monomial_generators_by_pairs(exponents)


def test_numerator_memo_stays_bounded(monkeypatch):
    ideals = [build(char, names, gens) for char, names, gens in NAMED]
    expected = [hilbert_data(ideal).series_numerator for ideal in ideals]
    monkeypatch.setattr(hilbert, "NUMERATOR_MEMO_LIMIT", 3)
    monkeypatch.setattr(hilbert, "_numerator_memo", {})
    for ideal, numerator in zip(ideals, expected):
        exponents = groebner_basis(ideal).leading_exponents
        assert hilbert.monomial_ideal_numerator(exponents, len(ideal.ring.names)) == numerator
        assert len(hilbert._numerator_memo) <= 3


def test_hf_poly_from_marks_the_polynomial_regime():
    for char, names, gens in NAMED:
        ideal = build(char, names, gens)
        data = hilbert_data(ideal)
        maps = as_maps(ideal)
        start = data.hf_poly_from
        # beyond the marked degree the function takes polynomial values:
        # finite differences of order dim vanish
        vals = [
            hilbert_function_by_spans(maps, len(names), char, t)
            for t in range(start, start + data.dim + 3)
        ]
        for _ in range(max(data.dim, 1)):
            vals = [b - a for a, b in zip(vals, vals[1:])]
        assert all(v == 0 for v in vals)
