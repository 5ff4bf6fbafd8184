"""End-to-end acceptance battery: eight checks, one per guarantee."""

import json
import time

import pytest

import gmdkit.cli as cli
from gmdkit.codes import ProjectivePointSet, bridge_rows
from gmdkit.gflinalg import FieldSpec
from gmdkit.gmd import GmdQuery, delta_fast, regularity_index, stabilization_value, verify_theorems
from gmdkit.hilbert import hilbert_function, multiplicity_at_dim
from gmdkit.simplicial import (
    betti_table,
    face_count_hilbert,
    is_shellable,
    proj_connected,
    sr_context,
    stanley_reisner_ideal,
)
from gmdkit.suites import (
    bound_suite_members,
    bridge_suite,
    complex_suite,
    equivalence_cells,
    face_ring_profile,
    ring_suite,
    seeded_point_set,
)

from oracles import EXAMPLE1, EXAMPLE2, P1_F2

F2 = FieldSpec(2)

UNMIXED = ("domain", "unmixed_dim_ge2", "one_dimensional")


def test_01_golden_curve_example(ring_cases):
    started = time.monotonic()
    profile = ring_cases["f2-onedim-three-primes"].build()
    assert profile.multiplicity == 6
    assert sorted(p.mult for p in profile.primes) == [1, 1, 4]
    assert [hilbert_function(profile.ideal, t) for t in range(5)] == [1, 3, 5, 6, 6]
    expectations = {1: (1, 4), 5: (5, 4), 6: (6, 5), 7: (6, 5)}
    for ell, (value, case) in expectations.items():
        result = stabilization_value(profile, ell)
        assert (result.value, result.case) == (value, case), ell
    assert time.monotonic() - started < 10.0


def test_02_golden_surface_example(ring_cases):
    started = time.monotonic()
    profile = ring_cases["f3-plane-with-two-lines"].build()
    assert profile.multiplicity == 1
    assert profile.primes[0].dim == 2
    # the two line components vanish at the top dimension
    for index in profile.low_indices():
        line = profile.primes[index].ideal
        assert multiplicity_at_dim(line, profile.dim) == 0
    s1 = stabilization_value(profile, 1)
    s2 = stabilization_value(profile, 2)
    s3 = stabilization_value(profile, 3)
    assert (s1.value, s1.case) == (0, 6)
    assert (s2.value, s2.case) == (0, 6)
    assert (s3.value, s3.case) == (1, 7)
    assert s3.value == profile.primes[0].mult
    assert time.monotonic() - started < 10.0


def test_03_bruteforce_matches_prime_route(ring_cases):
    started = time.monotonic()
    names = set(ring_cases)
    assert len(names) >= 12
    for required in (
        "f2-onedim-three-primes",
        "f3-plane-with-two-lines",
        "f2-two-lines",
        "f2-triangle-boundary",
        "f2-disjoint-edges",
    ):
        assert required in names, required
    assert sum(1 for c in ring_cases.values() if c.kind == "points") == 4
    total_cells = 0
    for name, case in sorted(ring_cases.items()):
        profile = case.build()
        assert profile.reduced_certified, name
        checked, disagreements = equivalence_cells(profile, 4, 3, 1)
        assert checked, name
        assert disagreements == [], name
        total_cells += checked
    assert total_cells >= 140
    assert time.monotonic() - started < 300.0


def test_04_distance_table_laws(ring_cases):
    r_ge_2_seen = 0
    for name, case in sorted(ring_cases.items()):
        profile = case.build()
        verdicts = {v.name: v for v in verify_theorems(profile, 4, 3)}
        assert verdicts["t-monotonicity"].status == "pass", name
        if profile.classification in UNMIXED:
            assert verdicts["l-monotonicity"].status == "pass", name
        assert verdicts["stabilization-consistency"].status == "pass", name
        # the table must still be off its limit one degree before the index
        for ell in range(1, 4):
            r = regularity_index(profile, ell).value
            if r >= 2:
                r_ge_2_seen += 1
                s = stabilization_value(profile, ell).value
                before = delta_fast(GmdQuery(profile, r - 1, ell, method="fast"))
                assert before.value != s, (name, ell)
    assert r_ge_2_seen > 0


def test_05_regularity_bounds_on_face_rings():
    members = bound_suite_members()
    assert len(members) >= 8
    tight = {}
    for member in members:
        complex_ = member.complex_
        assert complex_.n <= 6
        assert proj_connected(complex_)
        profile = face_ring_profile(complex_, F2)
        table = betti_table(complex_, F2)
        assert table.depth() >= 2
        dim_ring = profile.dim
        r = {ell: regularity_index(profile, ell).value for ell in range(1, 5)}
        for ell in range(1, 4):
            assert r[ell + 1] <= r[ell] + 1, (member.name, ell)
        for ell in range(1, 5):
            assert r[ell] <= dim_ring + ell - 1, (member.name, ell)
        if is_shellable(complex_).status == "shellable":
            for ell in range(1, 5):
                assert r[ell] <= table.regularity() + ell - 1, (member.name, ell)
        if member.name == "triangle-boundary":
            tight = dict(r)
            assert dim_ring == 2 and table.regularity() == 2
    # every bound is attained on the triangle boundary
    assert tight == {1: 2, 2: 3, 3: 4, 4: 5}


def test_06_face_ring_consistency(complex_cases):
    assert len(complex_cases) >= 8
    for name, case in sorted(complex_cases.items()):
        complex_ = case.complex_
        profile = face_ring_profile(complex_, F2)
        if profile.dim >= 2:
            sr = sr_context(complex_, F2)
            assert (sr.depth >= 2) == sr.proj_connected, name
        ideal = stanley_reisner_ideal(complex_, profile.ring)
        for t in range(7):
            assert face_count_hilbert(complex_, t) == hilbert_function(ideal, t), (
                name,
                t,
            )


def test_07_code_weight_bridge():
    started = time.monotonic()
    cases = bridge_suite(2026)
    assert len(cases) >= 20
    rows = 0
    for case in cases:
        points = seeded_point_set(case.field, case.ambient, case.size, case.seed)
        assert len(points) <= 8
        # every t <= 3 and l <= min(3, code dimension)
        for row in bridge_rows(points, 3, range(1, 4), 1):
            assert row["agree"], (case.name, row["t"], row["ell"])
            rows += 1
    assert rows >= 20
    hand = ProjectivePointSet(F2, 2, list(P1_F2["points"]))
    hand_rows = list(bridge_rows(hand, 1, list(P1_F2["weights"]), 1))
    assert [(row["ell"], row["ghw"]) for row in hand_rows] == list(P1_F2["weights"].items())
    assert all(row["agree"] for row in hand_rows)
    assert time.monotonic() - started < 300.0


def test_08_deterministic_reports(tmp_path, capsys):
    ex1 = tmp_path / "ex1.json"
    ex1.write_text(
        json.dumps(
            {
                "char": EXAMPLE1["char"],
                "vars": list(EXAMPLE1["vars"]),
                "gens": list(EXAMPLE1["gens"]),
                "minimal_primes": [list(ps) for ps in EXAMPLE1["primes"]],
            }
        )
    )
    pts = tmp_path / "p1f2.json"
    pts.write_text(
        json.dumps({"char": 2, "ambient": 2, "points": [list(p) for p in P1_F2["points"]]})
    )
    runs = [
        ["delta", str(ex1), "--t-max", "4", "--ell-max", "6"],
        ["verify", str(pts), "--t-max", "3", "--ell-max", "3"],
    ]
    for argv in runs:
        outputs = []
        for jobs in ("1", "2", "8"):
            status = cli.main(argv + ["--jobs", jobs])
            captured = capsys.readouterr()
            assert status == 0, (argv, jobs, captured.err)
            outputs.append(captured.out)
        assert outputs[0] == outputs[1] == outputs[2], argv[0]
        assert '"jobs"' not in outputs[0]
