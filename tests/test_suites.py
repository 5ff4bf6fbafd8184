"""Built-in verification suites: membership, certification, determinism."""

import pytest

from gmdkit import suites
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


def test_equivalence_cells_on_small_member(ring_cases):
    profile = ring_cases["f2-two-lines"].build()
    cells = equivalence_cells(profile, t_cap=3, ell_cap=2)
    assert len(cells) == 6
    assert all(cell.agree for cell in cells)
    by_key = {(c.t, c.ell): c for c in cells}
    assert by_key[(1, 1)].brute_value == 1
    assert by_key[(1, 2)].brute_value == 2
    assert by_key[(1, 1)].subspaces_searched == 3  # lines in a 2-dim piece
    assert by_key[(1, 2)].subspaces_searched == 1  # the whole piece


def test_equivalence_cells_budget_skips(ring_cases, monkeypatch):
    monkeypatch.setattr(suites, "CELL_BUDGET", 0)
    profile = ring_cases["f2-two-lines"].build()
    cells = equivalence_cells(profile, t_cap=2, ell_cap=2)
    # every cell with a positive subspace count is skipped
    assert all(c.subspaces_searched == 0 for c in cells)


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
