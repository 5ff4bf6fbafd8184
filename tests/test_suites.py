"""Built-in verification suites: membership, certification, determinism."""

import pytest

from gmdkit import suites
from gmdkit.gmd import DeltaResult
from gmdkit.suites import (
    bound_suite_members,
    bridge_suite,
    complex_suite,
    equivalence_cells,
    ring_suite,
    seeded_point_set,
)
from gmdkit.gflinalg import FieldSpec

F2 = FieldSpec(2)

EXPECTED_CLASSIFICATIONS = {
    "f2-onedim-three-primes": "one_dimensional",
    "f3-plane-with-two-lines": "mixed_low_dim1",
    "f2-two-lines": "one_dimensional",
    "f3-two-lines": "one_dimensional",
    "f2-plane-and-line": "mixed_low_dim1",
    "f2-coordinate-plane": "domain",
    "f2-hyperplane-and-plane": "mixed_low_dim_ge2",
    "f2-triangle-boundary": "unmixed_dim_ge2",
    "f3-triangle-boundary": "unmixed_dim_ge2",
    "f2-disjoint-edges": "unmixed_dim_ge2",
    "f2-points5-seed11": "one_dimensional",
    "f2-points6-seed12": "one_dimensional",
    "f3-points4-seed13": "one_dimensional",
    "f3-points5-seed14": "one_dimensional",
}


def test_ring_suite_membership_and_certificates(ring_cases):
    assert set(ring_cases) == set(EXPECTED_CLASSIFICATIONS)
    assert len(ring_cases) >= 12
    for name, case in ring_cases.items():
        profile = case.build()
        assert profile.reduced_certified, name
        assert profile.classification == EXPECTED_CLASSIFICATIONS[name], name
        assert case.build() is profile  # built once, reused


def test_seeded_point_sets_are_reproducible():
    a = seeded_point_set(F2, 3, 5, 11)
    b = seeded_point_set(F2, 3, 5, 11)
    c = seeded_point_set(F2, 3, 5, 12)
    assert a.points == b.points
    assert a.points != c.points
    assert len(a) == 5


def test_equivalence_cells_on_small_member(ring_cases, monkeypatch):
    profile = ring_cases["f2-two-lines"].build()
    assert equivalence_cells(profile, 3, 2, 1) == (6, [])
    # a fast route that is off by 10 lists every cell with both values
    real = suites.delta_fast

    def off_by_ten(query):
        r = real(query)
        return DeltaResult(r.value + 10, r.t, r.ell, r.convention, r.method, r.status, r.witness)

    monkeypatch.setattr(suites, "delta_fast", off_by_ten)
    checked, disagreements = equivalence_cells(profile, 1, 2, 1)
    assert checked == 2
    assert disagreements == [
        {"t": 1, "ell": 1, "brute": 1, "fast": 11, "brute_status": "ok", "fast_status": "ok"},
        {"t": 1, "ell": 2, "brute": 2, "fast": 12, "brute_status": "empty", "fast_status": "empty"},
    ]


def test_equivalence_cells_budget_skips(ring_cases, monkeypatch):
    profile = ring_cases["f2-two-lines"].build()
    # at t = 1 the piece is 2-dimensional: 3 lines (l = 1), 1 plane (l = 2)
    for budget, checked in ((0, 0), (1, 1), (2, 1), (3, 2)):
        monkeypatch.setattr(suites, "CELL_BUDGET", budget)
        assert equivalence_cells(profile, 1, 2, 1) == (checked, []), budget
    # cells with l beyond the piece dimension count no subspace and stay
    monkeypatch.setattr(suites, "CELL_BUDGET", 0)
    assert equivalence_cells(profile, 2, 3, 1) == (2, [])


def test_complex_suite_shape(complex_cases):
    assert len(complex_cases) == 12
    for case in complex_cases.values():
        assert case.complex_.n <= 8


def test_bound_suite_members():
    members = bound_suite_members()
    names = {m.name for m in members}
    assert names == {
        "bowtie",
        "octahedron",
        "path-four",
        "pentagon-cycle",
        "square-cycle",
        "star-four",
        "triangle-boundary",
        "triangle-with-tail",
        "two-triangles-shared-edge",
    }
    assert len(members) >= 8
    for m in members:
        assert m.complex_.n <= 6


def test_bridge_suite_is_seeded_and_sized():
    suite = bridge_suite(2026)
    assert len(suite) == 20
    assert suite == bridge_suite(2026)
    assert suite != bridge_suite(2027)
    by_char = {}
    for case in suite:
        by_char.setdefault(case.field.p, []).append(case)
        assert case.ambient == 3
        assert case.size <= 8
    assert set(by_char) == {2, 3}
    assert len(by_char[2]) == 10 and len(by_char[3]) == 10
