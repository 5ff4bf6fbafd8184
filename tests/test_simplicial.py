"""Simplicial complexes, face rings, Betti numbers, shellings."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from gmdkit.gflinalg import FieldSpec
from gmdkit.hilbert import hilbert_function
from gmdkit.polyring import RingSpec
from gmdkit.simplicial import (
    SimplicialComplex,
    _boundary_rank,
    _faces_by_dim,
    _homology_of_facets,
    betti_table,
    depth,
    face_count_hilbert,
    face_ring_minimal_primes,
    is_shellable,
    minimal_non_faces,
    proj_connected,
    regularity,
    stanley_reisner_ideal,
)
from gmdkit.suites import complex_suite

from oracles import PATH_FOUR, TRIANGLE_BOUNDARY, is_valid_shelling, naive_rank

F2 = FieldSpec(2)

TRIANGLE = SimplicialComplex(3, [(0, 1), (1, 2), (0, 2)])
FULL_TRIANGLE = SimplicialComplex(3, [(0, 1, 2)])
SQUARE = SimplicialComplex(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
PATH4 = SimplicialComplex(4, [(0, 1), (1, 2), (2, 3)])
DISJOINT_EDGES = SimplicialComplex(4, [(0, 1), (2, 3)])
BOWTIE = SimplicialComplex(5, [(0, 1, 2), (2, 3, 4)])


def test_constructor_validation():
    with pytest.raises(ValueError, match="contained in"):
        SimplicialComplex(3, [(0, 1, 2), (0, 1)])
    with pytest.raises(ValueError, match="appear in no facet"):
        SimplicialComplex(4, [(0, 1, 2)])
    with pytest.raises(ValueError, match="empty facet"):
        SimplicialComplex(2, [(0, 1), ()])
    with pytest.raises(ValueError, match="out of vertex range"):
        SimplicialComplex(2, [(0, 2)])
    with pytest.raises(ValueError):
        SimplicialComplex(0, [])
    # duplicate facets collapse
    assert SimplicialComplex(2, [(0, 1), (1, 0)]).facets == (frozenset({0, 1}),)


def test_one_based_entry_point():
    c = SimplicialComplex.from_one_based(3, [[1, 2], [2, 3], [1, 3]])
    assert c.facets == TRIANGLE.facets


def test_dim_faces_f_vector():
    assert TRIANGLE.dim() == 1
    assert FULL_TRIANGLE.dim() == 2
    assert TRIANGLE.f_vector() == (3, 3)
    assert FULL_TRIANGLE.f_vector() == (3, 3, 1)
    assert SQUARE.f_vector() == (4, 4)
    assert TRIANGLE.is_face((0, 1))
    assert not TRIANGLE.is_face((0, 1, 2))


def test_induced_subcomplex():
    assert set(BOWTIE.induced((0, 1, 2))) == {frozenset({0, 1, 2})}
    assert set(BOWTIE.induced((0, 3))) == {frozenset({0}), frozenset({3})}


def test_minimal_non_faces():
    assert minimal_non_faces(TRIANGLE) == [(0, 1, 2)]
    assert minimal_non_faces(SQUARE) == [(0, 2), (1, 3)]
    assert minimal_non_faces(FULL_TRIANGLE) == []
    assert minimal_non_faces(DISJOINT_EDGES) == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_face_count_matches_face_ring_hilbert_function():
    ring3 = RingSpec(F2, ("x", "y", "z"))
    ring4 = RingSpec(F2, ("x", "y", "z", "w"))
    ring5 = RingSpec(F2, ("x", "y", "z", "w", "v"))
    for complex_, ring in [
        (TRIANGLE, ring3),
        (FULL_TRIANGLE, ring3),
        (SQUARE, ring4),
        (PATH4, ring4),
        (DISJOINT_EDGES, ring4),
        (BOWTIE, ring5),
    ]:
        ideal = stanley_reisner_ideal(complex_, ring)
        for t in range(7):
            assert face_count_hilbert(complex_, t) == hilbert_function(ideal, t)


def test_face_count_hilbert_known_values():
    assert [face_count_hilbert(TRIANGLE, t) for t in range(5)] == [1, 3, 6, 9, 12]
    assert face_count_hilbert(TRIANGLE, 0) == 1


def test_face_ring_minimal_primes_are_facet_complements():
    ring = RingSpec(F2, ("x", "y", "z"))
    primes = face_ring_minimal_primes(TRIANGLE, ring)
    assert len(primes) == len(TRIANGLE.facets)
    # the prime for facet {0,1} is generated by the complementary variable z
    gens_by_prime = [
        {next(iter(g.terms)) for g in p.gens} for p in primes
    ]
    names_used = [
        {ring.names[e.index(1)] for e in gens} for gens in gens_by_prime
    ]
    expected = [
        {ring.names[v] for v in range(3) if v not in f} for f in TRIANGLE.facets
    ]
    assert names_used == expected


def test_proj_connected():
    assert proj_connected(TRIANGLE)
    assert proj_connected(BOWTIE)
    assert not proj_connected(DISJOINT_EDGES)
    assert proj_connected(SimplicialComplex(1, [(0,)]))


def test_reduced_homology_ranks():
    # degree -> dimension of the reduced homology over F_2, nonzero degrees only
    def homology(complex_, k):
        return _homology_of_facets(complex_.facets, F2).get(k, 0)

    assert homology(TRIANGLE, 1) == 1
    assert homology(TRIANGLE, 0) == 0
    assert homology(FULL_TRIANGLE, 1) == 0
    assert homology(DISJOINT_EDGES, 0) == 1
    octa = SimplicialComplex(
        6,
        [
            (0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5),
            (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
        ],
    )
    assert homology(octa, 2) == 1
    assert homology(octa, 1) == 0


def _dense_boundary(facets, k, p):
    """The boundary map from k-faces to (k-1)-faces as a list of rows."""
    faces = {sub for f in facets for r in range(len(f) + 1) for sub in itertools.combinations(sorted(f), r)}
    rows = sorted(face for face in faces if len(face) == k)
    cols = sorted(face for face in faces if len(face) == k + 1)
    return [
        [
            next(((-1) ** drop % p for drop in range(k + 1) if col[:drop] + col[drop + 1 :] == row), 0)
            for col in cols
        ]
        for row in rows
    ]


def assert_boundary_ranks_match_dense(complex_, p):
    by_dim = _faces_by_dim(complex_.facets)
    for k in range(0, complex_.dim() + 2):
        dense = _dense_boundary(complex_.facets, k, p)
        expected = naive_rank(dense, p) if dense and dense[0] else 0
        assert _boundary_rank(by_dim, k, FieldSpec(p)) == expected, (complex_, k, p)


@pytest.mark.parametrize("p", [2, 3])
def test_boundary_ranks_match_the_dense_matrix_on_the_suite(p):
    for case in complex_suite():
        assert_boundary_ranks_match_dense(case.complex_, p)


@st.composite
def complexes(draw):
    n = draw(st.integers(1, 6))
    drawn = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), max_size=6))
    sets = set(drawn) | {frozenset([v]) for v in range(n)}
    return SimplicialComplex(n, [f for f in sets if not any(f < g for g in sets)])


@settings(max_examples=60)
@given(st.sampled_from([2, 3]), complexes())
def test_boundary_ranks_match_the_dense_matrix_on_random_complexes(p, complex_):
    assert_boundary_ranks_match_dense(complex_, p)


def test_frozen_depth_and_regularity_values():
    expected = {
        "triangle-boundary": (2, 2),
        "full-triangle": (3, 0),
        "square-cycle": (2, 2),
        "pentagon-cycle": (2, 2),
        "path-four": (2, 1),
        "star-four": (2, 1),
        "two-triangles-shared-edge": (3, 1),
        "triangle-with-tail": (2, 1),
        "octahedron": (3, 3),
        "bowtie": (2, 1),
        "two-disjoint-edges": (1, 1),
        "two-disjoint-triangles": (1, 1),
    }
    cases = {c.name: c.complex_ for c in complex_suite()}
    assert set(expected) == set(cases)
    for name, (d, r) in expected.items():
        assert depth(cases[name], F2) == d, name
        assert regularity(cases[name], F2) == r, name
    assert depth(TRIANGLE, F2) == TRIANGLE_BOUNDARY["depth"]
    assert regularity(TRIANGLE, F2) == TRIANGLE_BOUNDARY["regularity"]
    assert depth(PATH4, F2) == PATH_FOUR["depth"]
    assert regularity(PATH4, F2) == PATH_FOUR["regularity"]


def test_betti_table_shape():
    table = betti_table(TRIANGLE, F2)
    assert table.entries[0, 0] == 1
    assert table.entries[1, 3] == 1  # the single non-face relation
    assert table.projective_dimension() == 1
    assert table.depth() == 2
    assert betti_table(TRIANGLE, F2) is table  # cached per field


def test_depth_at_least_two_iff_connected():
    for case in complex_suite():
        c = case.complex_
        if c.n < 2:
            continue
        assert (depth(c, F2) >= 2) == proj_connected(c), case.name


def test_shellings_are_definitionally_valid():
    for case in complex_suite():
        result = is_shellable(case.complex_)
        assert result.status in ("shellable", "not_shellable", "inconclusive")
        if result.status == "shellable":
            facets = [tuple(sorted(f)) for f in case.complex_.facets]
            assert is_valid_shelling(facets, result.order), case.name
        assert result.is_shellable == {
            "shellable": True,
            "not_shellable": False,
            "inconclusive": None,
        }[result.status]


def test_shelling_known_statuses():
    assert is_shellable(TRIANGLE).status == "shellable"
    assert is_shellable(FULL_TRIANGLE).status == "shellable"
    assert is_shellable(BOWTIE).status == "not_shellable"
    assert is_shellable(DISJOINT_EDGES).status == "not_shellable"
    single = SimplicialComplex(2, [(0, 1)])
    assert is_shellable(single) == is_shellable(single)
    assert is_shellable(single).order == (0,)


def test_shelling_budget_gives_inconclusive():
    big = SimplicialComplex(13, [(i,) for i in range(13)])
    assert is_shellable(big).status == "inconclusive"


def test_nonpure_shellable_example():
    # a triangle with a pendant edge is shellable in the nonpure sense
    tail = SimplicialComplex(4, [(0, 1, 2), (2, 3)])
    result = is_shellable(tail)
    assert result.status == "shellable"
    facets = [tuple(sorted(f)) for f in tail.facets]
    assert is_valid_shelling(facets, result.order)
