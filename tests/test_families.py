"""Prime-subset family dimensions and regimes against the intersection route.

Certified profiles read every family's degree pieces from a rank table
(normal-form blocks, or evaluation vectors on point sets).  The oracle is
the route those tables replaced: the family ideal as a chain of
elimination-order intersections, its Hilbert function and its
``hf_poly_from``.
"""

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from gmdkit import suites
from gmdkit.codes import PointFamilyBackend, ProjectivePointSet, projective_points
from gmdkit.errors import InvariantError
from gmdkit.gflinalg import FieldMatrix, FieldSpec, kernel_basis, rank, rref
from gmdkit.groebner import IdealPresentation
from gmdkit.hilbert import hilbert_data, hilbert_function
from gmdkit.polyring import Polynomial, RingSpec
from gmdkit.schemes import PrimeFamilyBackend, build_profile, build_profile_from_primes

from oracles import (
    EXAMPLE1,
    EXAMPLE2,
    LINES5_F2,
    LINES5_F3,
    family_dims_by_intersection,
    family_ideal_by_intersection,
)

T_MAX = 4


def profile_of(spec):
    ring = RingSpec(FieldSpec(spec["char"]), tuple(spec["vars"]))
    ideal = IdealPresentation.from_strings(ring, spec["gens"])
    primes = [IdealPresentation.from_strings(ring, gens) for gens in spec["primes"]]
    return build_profile(ideal, primes)


def assert_families_match_intersections(profile):
    assert profile.reduced_certified
    a = len(profile.primes)
    degrees = range(T_MAX + 1)
    chains = {}
    expected = {0: ({t: hilbert_function(profile.ideal, t) for t in degrees}, 0)}
    for size in range(1, a + 1):
        for indices in itertools.combinations(range(a), size):
            mask = sum(1 << i for i in indices)
            expected[mask] = family_dims_by_intersection(profile, indices, degrees, chains)
    # every family at once, as the distance table reads them, leaving no
    # family object in the profile's cache
    cached = len(profile._families)
    for t in degrees:
        table = profile.subset_dims(t)
        assert len(profile._families) == cached, t
        assert [table[mask] for mask in range(1 << a)] == [
            expected[mask][0][t] for mask in range(1 << a)
        ], t
    # one family at a time: a fresh backend has no table, so each family is
    # ranked from its own blocks, reusing the rows of the prefix it shares
    # with the family read before it.  Mask order shares almost no prefix;
    # index-tuple order is regularity_index's depth-first order and shares
    # long ones.
    backend = profile.family_backend
    subsets = [tuple(i for i in range(a) if mask >> i & 1) for mask in range(1, 1 << a)]
    for order in (subsets, sorted(subsets)):
        if isinstance(backend, PointFamilyBackend):
            single = PointFamilyBackend(backend._points, profile)
        else:
            single = PrimeFamilyBackend(profile)
        for indices in order:
            dims = expected[sum(1 << i for i in indices)][0]
            got = {t: single.piece_dim(indices, t) for t in degrees}
            monomial = all(profile.primes[i].monomial for i in indices)
            if isinstance(single, PrimeFamilyBackend) and monomial:
                # a family of monomial primes is left to its ideal
                assert set(got.values()) == {None}, indices
            else:
                assert got == dims, indices
    for indices in subsets:
        poly_from = expected[sum(1 << i for i in indices)][1]
        regime = profile.intersect_family(indices).regime()
        assert regime >= poly_from, (indices, regime, poly_from)


@pytest.mark.parametrize("name", [case.name for case in suites.ring_suite()])
def test_battery_families_match_intersections(name):
    case = next(case for case in suites.ring_suite() if case.name == name)
    profile = suites.RingCase.build.__wrapped__(case)  # a fresh profile, caches empty
    expected = PointFamilyBackend if case.kind == "points" else PrimeFamilyBackend
    assert type(profile.family_backend) is expected
    assert_families_match_intersections(profile)


@pytest.mark.parametrize("name", [case.name for case in suites.complex_suite()])
def test_face_ring_families_match_intersections(name):
    case = next(case for case in suites.complex_suite() if case.name == name)
    profile = suites.face_ring_profile.__wrapped__(case.complex_, FieldSpec(2))
    assert isinstance(profile.family_backend, PrimeFamilyBackend)
    assert_families_match_intersections(profile)


@pytest.mark.parametrize("spec", [EXAMPLE1, EXAMPLE2, LINES5_F2, LINES5_F3], ids=[
    "example1", "example2", "lines5-f2", "lines5-f3"])
def test_example_and_line_families_match_intersections(spec):
    assert_families_match_intersections(profile_of(spec))


def _prime_of_span(ring, span):
    """Linear forms vanishing on the row space of ``span``."""
    n = ring.n
    forms = []
    for coeffs in kernel_basis(span).to_lists():
        terms = {tuple(int(i == j) for i in range(n)): c for j, c in enumerate(coeffs) if c}
        forms.append(Polynomial(ring, terms))
    return IdealPresentation(ring, forms)


@st.composite
def arrangements(draw):
    """Points, lines and planes of P^3 over F_2 or F_3, none inside another."""
    p = draw(st.sampled_from([2, 3]))
    field = FieldSpec(p)
    vector = st.lists(st.integers(0, p - 1), min_size=4, max_size=4)
    count = draw(st.integers(2, 5))
    spans = []
    for _ in range(count):
        size = draw(st.integers(1, 3))  # a point, a line or a plane
        rows = draw(st.lists(vector, min_size=size, max_size=size))
        reduced, rk, _ = rref(FieldMatrix(field, rows))
        assume(rk == len(rows))
        spans.append(FieldMatrix(field, reduced.data[:rk]))
    for a, b in itertools.permutations(range(count), 2):
        # b inside a (or equal) when stacking b onto a keeps a's rank
        stacked = FieldMatrix(field, spans[a].data + spans[b].data)
        assume(rank(stacked) > spans[a].rows)
    return field, spans


@settings(max_examples=80)
@given(arrangements())
def test_subspace_arrangement_families_match_intersections(arrangement):
    field, spans = arrangement
    ring = RingSpec(field, ("x", "y", "z", "w"))
    profile = build_profile_from_primes([_prime_of_span(ring, s) for s in spans])
    assert isinstance(profile.family_backend, PrimeFamilyBackend)
    assert_families_match_intersections(profile)


def _assert_point_regimes_bound_every_subset(profile, subsets):
    chains = {}
    for indices in subsets:
        ideal = family_ideal_by_intersection(profile, indices, chains)
        poly_from = hilbert_data(ideal).hf_poly_from
        regime = profile.intersect_family(indices).regime()
        assert regime >= poly_from, (indices, regime, poly_from)


def test_point_regime_bounds_every_subset_of_the_plane_over_f3():
    field = FieldSpec(3)
    profile = ProjectivePointSet(field, 3, projective_points(field, 3)).vanishing_profile()
    n = len(profile.primes)
    assert n == 13
    # HF_I reaches 13 in degree 5; points are linear primes, so a family of
    # 7 points takes max(1, hf_poly_from(I), |A| - 1) = max(1, 5, 6)
    assert [hilbert_function(profile.ideal, t) for t in range(7)] == [1, 3, 6, 10, 12, 13, 13]
    assert profile.hilbert.hf_poly_from == 5
    assert all(p.linear for p in profile.primes)
    assert profile.intersect_family(tuple(range(7))).regime() == 6
    subsets = (c for size in range(1, n + 1) for c in itertools.combinations(range(n), size))
    _assert_point_regimes_bound_every_subset(profile, subsets)


def test_point_regime_bounds_sampled_subsets_of_sixteen_points_over_f5():
    # all 65535 subsets take about two minutes on a 2-core host; the sample
    # holds every subset of at most two points and 40 seeded ones per size
    field = FieldSpec(5)
    rng = random.Random(16)
    points = ProjectivePointSet(field, 3, rng.sample(projective_points(field, 3), 16))
    profile = points.vanishing_profile()
    n = len(profile.primes)
    subsets = [c for size in (1, 2) for c in itertools.combinations(range(n), size)]
    for size in range(3, n + 1):
        subsets += sorted({tuple(sorted(rng.sample(range(n), size))) for _ in range(40)})
    _assert_point_regimes_bound_every_subset(profile, subsets)


def test_normal_form_table_rechecks_the_certificate():
    profile = profile_of(LINES5_F2)
    assert len(profile.subset_dims(3)) == 1 << 5
    # drop a prime behind the certificate's back: the remaining ones no
    # longer separate the degree-3 piece of S/I
    profile.primes = profile.primes[:-1]
    profile.family_backend = PrimeFamilyBackend(profile)
    profile._families.clear()
    # a single family is ranked from its own blocks, with no recheck ...
    assert profile.intersect_family((0, 1)).quotient_dim(3) >= 0
    # ... but the table of every family is checked against HF_I
    with pytest.raises(InvariantError, match="rank"):
        profile.subset_dims(3)


def test_family_of_a_nonlinear_prime_takes_its_regime_from_the_ideal():
    profile = profile_of(EXAMPLE1)
    assert [(p.linear, p.monomial) for p in profile.primes] == [
        (True, True), (True, False), (False, False)]
    base = max(1, profile.hilbert.hf_poly_from)
    # the linear family takes the subspace-arrangement bound |A| - 1
    assert profile.intersect_family((0, 1)).regime() == max(base, 1)
    # every family through the nonlinear prime takes its own Hilbert series
    for indices in ((2,), (0, 2), (1, 2), (0, 1, 2)):
        family = profile.intersect_family(indices)
        assert family.regime() == max(base, family.hilbert().hf_poly_from), indices
