"""Distance values, stabilization case analysis, regularity indices."""

import itertools
import math
import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from gmdkit import gmd
from gmdkit.codes import ProjectivePointSet, projective_points
from gmdkit.errors import HypothesisError, InvariantError
from gmdkit.gflinalg import FieldSpec, SubspaceIterator, subspace_count
from gmdkit.gmd import (
    FIXED_DIM,
    OWN_DIM,
    GmdQuery,
    ann_nonzero,
    delta,
    delta_bruteforce,
    delta_fast,
    regularity_index,
    stabilization_value,
    subspace_to_polys,
    verify_theorems,
)
from gmdkit.groebner import IdealPresentation, groebner_basis
from gmdkit.hilbert import graded_piece_of_quotient
from gmdkit.polyring import Polynomial, RingSpec, parse_polynomial
from gmdkit.hilbert import hilbert_function
from gmdkit.schemes import build_profile, build_profile_from_primes
from gmdkit.suites import (
    RingCase,
    bridge_suite,
    face_ring_profile,
    ring_suite,
    seeded_point_set,
    sr_context,
)

from oracles import (
    EXAMPLE1,
    EXAMPLE2,
    PATH_FOUR,
    TRIANGLE_BOUNDARY,
    TWO_LINES_F2,
    delta_bruteforce_unpruned,
    regularity_by_cases,
)

F2 = FieldSpec(2)


def test_query_validation(ex1_profile):
    with pytest.raises(ValueError, match="degree t"):
        GmdQuery(ex1_profile, 0, 1)
    with pytest.raises(ValueError, match="count l"):
        GmdQuery(ex1_profile, 1, 0)
    with pytest.raises(ValueError, match="convention"):
        GmdQuery(ex1_profile, 1, 1, convention="other")
    with pytest.raises(ValueError, match="method"):
        GmdQuery(ex1_profile, 1, 1, method="psychic")


def test_two_lines_distance_cells(ring_cases):
    profile = ring_cases["f2-two-lines"].build()
    assert profile.multiplicity == TWO_LINES_F2["multiplicity"]
    for (t, ell), expected in TWO_LINES_F2["delta_cells"].items():
        brute = delta_bruteforce(GmdQuery(profile, t, ell, method="brute"))
        fast = delta_fast(GmdQuery(profile, t, ell, method="fast"))
        assert brute.value == expected, (t, ell)
        assert fast.value == expected, (t, ell)


def test_example1_distance_cells_both_methods(ex1_profile):
    for (t, ell), expected in EXAMPLE1["delta_cells"].items():
        result = delta(GmdQuery(ex1_profile, t, ell, method="both"))
        assert result.value == expected, (t, ell)
        if result.status == "ok":
            assert result.witness["brute"]["quotient_multiplicity"] == (
                ex1_profile.multiplicity - expected
            )
            assert "prime_subset" in result.witness["fast"]
        else:
            # no qualifying subspace on either path; the value is the total
            assert expected == ex1_profile.multiplicity
            assert result.witness == {"brute": None, "fast": None}
    # the whole degree-1 piece has zero annihilator, so (1, 3) is empty
    assert delta(GmdQuery(ex1_profile, 1, 3, method="both")).status == "empty"


def test_empty_search_returns_total_multiplicity(ex1_profile):
    # degree-1 piece has dimension 3, so l=4 has no subspaces at all
    result = delta_bruteforce(GmdQuery(ex1_profile, 1, 4, method="brute"))
    assert result.status == "empty"
    assert result.value == ex1_profile.multiplicity
    assert result.witness is None
    fast = delta_fast(GmdQuery(ex1_profile, 1, 4, method="fast"))
    assert fast.status == "empty"
    assert fast.value == ex1_profile.multiplicity


def test_brute_jobs_split_agrees(ex1_profile):
    for jobs in (1, 2, 3):
        r = delta_bruteforce(GmdQuery(ex1_profile, 2, 2, method="brute"), jobs=jobs)
        assert r.value == EXAMPLE1["delta_cells"][(2, 2)]
        assert r.witness["subspace_index"] == delta_bruteforce(
            GmdQuery(ex1_profile, 2, 2, method="brute"), jobs=1
        ).witness["subspace_index"]


# Largest subspace count of a cell compared with the unpruned scan, per
# annihilator mode (the colon test is the slower one).
ORACLE_CELL_CAP = {"prime": 400, "colon": 120}
BATTERY = [case.name for case in ring_suite()]


def _fresh_profile(case: RingCase):
    """The case's profile built anew, with empty memos (``build`` is cached)."""
    return RingCase.build.__wrapped__(case)


def _affordable_cells(profile, cap=ORACLE_CELL_CAP["prime"]):
    for t in (1, 2, 3):
        m = hilbert_function(profile.ideal, t)
        for ell in (1, 2, 3):
            if ell > m or subspace_count(m, ell, profile.ring.field) <= cap:
                yield t, ell


def _assert_matches_unpruned(profile, t, ell, convention, ann_mode, jobs=1):
    query = GmdQuery(profile, t, ell, convention=convention, method="brute")
    got = delta_bruteforce(query, jobs=jobs, ann_mode=ann_mode)
    want = delta_bruteforce_unpruned(query, ann_mode=ann_mode)
    assert got == want, (t, ell, convention, ann_mode, jobs)


@pytest.mark.parametrize("ann_mode", ["prime", "colon"])
@pytest.mark.parametrize("name", BATTERY)
def test_row_bound_matches_unpruned_scan(ring_cases, name, ann_mode):
    # every cell in the order the CLI asks them (l = 1 first at each t), so
    # l >= 2 cells read line values the l = 1 cell left in the memo
    profile = _fresh_profile(ring_cases[name])
    for t, ell in _affordable_cells(profile, ORACLE_CELL_CAP[ann_mode]):
        for convention in (FIXED_DIM, OWN_DIM):
            _assert_matches_unpruned(profile, t, ell, convention, ann_mode)
    assert profile.line_values


def test_own_dim_scan_is_not_pruned(ring_cases):
    # on the plane with two lines, the own-dim maximiser at (2, 2) drops
    # dimension and measures more than a row's line value, so a row bound
    # would skip it; the cell is past the cap of the battery test above
    profile = _fresh_profile(ring_cases["f3-plane-with-two-lines"])
    for convention in (FIXED_DIM, OWN_DIM):
        _assert_matches_unpruned(profile, 2, 1, convention, "prime")
    _assert_matches_unpruned(profile, 2, 2, OWN_DIM, "prime")


@pytest.mark.parametrize(
    "name", ["f2-onedim-three-primes", "f3-plane-with-two-lines", "f2-points6-seed12"]
)
def test_row_bound_matches_unpruned_scan_over_two_workers(ring_cases, name):
    # workers get the profile without its memo and prune against their own best
    profile = _fresh_profile(ring_cases[name])
    for t, ell in _affordable_cells(profile):
        _assert_matches_unpruned(profile, t, ell, FIXED_DIM, "prime", jobs=2)
    assert pickle.loads(pickle.dumps(profile)).line_values == {}


@pytest.mark.parametrize("name", BATTERY)
def test_row_bound_computes_line_values_on_demand(ring_cases, name):
    # an l = 2 cell asked alone, with no l = 1 cell before it on this profile
    profile = _fresh_profile(ring_cases[name])
    cells = [(t, ell) for t, ell in _affordable_cells(profile) if ell == 2]
    assert cells
    t, ell = cells[-1]
    _assert_matches_unpruned(profile, t, ell, FIXED_DIM, "auto")


def test_row_bound_under_a_tiny_line_memo(ring_cases, monkeypatch):
    monkeypatch.setattr(gmd, "LINE_MEMO_LIMIT", 2)
    for name in ("f2-onedim-three-primes", "f3-plane-with-two-lines", "f3-points5-seed14"):
        profile = _fresh_profile(ring_cases[name])
        for t, ell in _affordable_cells(profile):
            _assert_matches_unpruned(profile, t, ell, FIXED_DIM, "auto")
        assert all(0 < len(memo) <= 2 for memo in profile.line_values.values())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fixed_dim_multiplicity_is_bounded_by_each_row(ring_cases, data):
    # the premise of the row bound: I + (F) contains I + (f) for each row f
    profile = ring_cases[data.draw(st.sampled_from(BATTERY), label="case")].build()
    t = data.draw(st.integers(1, 2), label="t")
    basis = tuple(graded_piece_of_quotient(profile.ideal, t))
    ell = data.draw(st.integers(1, min(3, len(basis))), label="l")
    it = SubspaceIterator(len(basis), ell, profile.ring.field)
    matrix = it.matrix_at(data.draw(st.integers(0, it.count - 1), label="index"))
    polys = subspace_to_polys(profile, basis, matrix)
    value = gmd._quotient_multiplicity(profile, polys, FIXED_DIM)
    for f in polys:
        line = gmd._quotient_multiplicity(profile, [f], FIXED_DIM)
        assert value <= line
        if not ann_nonzero(profile, [f], "colon"):
            assert line == 0


def test_annihilator_modes_agree(ex1_profile):
    ring = ex1_profile.ring
    for text in ("x", "x+z", "y", "x^2+y*z", "z^2"):
        polys = [parse_polynomial(text, ring)]
        colon_answer = ann_nonzero(ex1_profile, polys, "colon")
        prime_answer = ann_nonzero(ex1_profile, polys, "prime")
        assert colon_answer == prime_answer, text
    with pytest.raises(ValueError):
        ann_nonzero(ex1_profile, [], "oracle")


# Subspaces checked per (t, l) cell; smaller cells are checked whole.
GRID_CELL_CAP = 75


@pytest.mark.parametrize(
    "name",
    [
        "f2-onedim-three-primes",  # EXAMPLE1
        "f3-plane-with-two-lines",
        "f2-plane-and-line",
        "f2-triangle-boundary",
        "f3-points5-seed14",
    ],
)
def test_annihilator_modes_agree_over_grid(ring_cases, name):
    profile = ring_cases[name].build()
    assert profile.reduced_certified
    answers = set()
    for t in (1, 2):
        basis = tuple(graded_piece_of_quotient(profile.ideal, t))
        for ell in (1, 2):
            if ell > len(basis):
                continue
            count = subspace_count(len(basis), ell, profile.ring.field)
            it = SubspaceIterator(len(basis), ell, profile.ring.field)
            for index in range(0, count, math.ceil(count / GRID_CELL_CAP)):
                polys = subspace_to_polys(profile, basis, it.matrix_at(index))
                prime = ann_nonzero(profile, polys, "prime")
                assert prime == ann_nonzero(profile, polys, "colon"), (t, ell, index)
                answers.add(prime)
    assert answers == {True, False}


def test_monomial_normal_form_memo_stays_bounded(ex1_profile, monkeypatch):
    monkeypatch.setattr(gmd, "NF_MEMO_LIMIT", 4)
    gb = groebner_basis(ex1_profile.primes[0].ideal)
    gb.monomial_normal_forms.clear()
    basis = graded_piece_of_quotient(ex1_profile.ideal, 3)
    polys = [Polynomial(ex1_profile.ring, {e: 1 for e in basis})]
    assert len(basis) > 4
    assert ann_nonzero(ex1_profile, polys, "prime") == ann_nonzero(ex1_profile, polys, "colon")
    assert 0 < len(gb.monomial_normal_forms) <= 4


def test_fast_path_requires_certificate_and_fixed_dim():
    ring = RingSpec(F2, ("x", "y"))
    ideal = IdealPresentation.from_strings(ring, ["x*y"])
    uncertified = build_profile(ideal)
    with pytest.raises(HypothesisError):
        delta_fast(GmdQuery(uncertified, 1, 1, method="fast"))


def test_fast_path_rejects_own_dim(ex1_profile):
    with pytest.raises(HypothesisError):
        delta_fast(GmdQuery(ex1_profile, 1, 1, convention=OWN_DIM, method="fast"))


def test_own_dim_brute_diverges_on_mixed_rings(ring_cases):
    # on the plane-plus-line ring the conventions measure different
    # quotients: cutting with y lands on a curve whose own multiplicity
    # is 2, above the top-dimensional total of 1, so own-dim goes negative
    profile = ring_cases["f2-plane-and-line"].build()
    fixed = delta_bruteforce(GmdQuery(profile, 1, 1, convention=FIXED_DIM, method="brute"))
    own = delta_bruteforce(GmdQuery(profile, 1, 1, convention=OWN_DIM, method="brute"))
    assert fixed.convention == FIXED_DIM
    assert own.convention == OWN_DIM
    assert fixed.value == 0
    assert own.value == -1
    assert own.witness["quotient_multiplicity"] == 2


def test_both_dispatch_cross_checks(ex1_profile):
    result = delta(GmdQuery(ex1_profile, 1, 1, method="both"))
    assert result.method == "both"
    assert result.value == EXAMPLE1["delta_cells"][(1, 1)]


def test_stabilization_example1(ex1_profile):
    for ell, (value, case) in EXAMPLE1["stabilization"].items():
        result = stabilization_value(ex1_profile, ell)
        assert (result.value, result.case) == (value, case), ell


def test_stabilization_example2(ex2_profile):
    for ell, (value, case) in EXAMPLE2["stabilization"].items():
        result = stabilization_value(ex2_profile, ell)
        assert (result.value, result.case) == (value, case), ell


def test_stabilization_hits_every_case(ring_cases, complex_cases):
    from gmdkit.suites import face_ring_profile

    seen = {}

    def record(profile, ell):
        r = stabilization_value(profile, ell)
        seen.setdefault(r.case, (profile.classification, ell, r.value))
        return r

    record(ring_cases["f2-hyperplane-and-plane"].build(), 1)  # case 1
    record(ring_cases["f2-coordinate-plane"].build(), 1)  # case 2
    record(face_ring_profile(complex_cases["triangle-boundary"].complex_, F2), 1)  # 3
    ex1 = ring_cases["f2-onedim-three-primes"].build()
    record(ex1, 1)  # case 4
    record(ex1, 6)  # case 5
    ex2 = ring_cases["f3-plane-with-two-lines"].build()
    record(ex2, 1)  # case 6
    record(ex2, 3)  # case 7
    assert set(seen) == {1, 2, 3, 4, 5, 6, 7}
    assert seen[1][2] == 0  # deep low prime floors the limit at zero
    assert seen[6][2] == 0


def test_stabilization_needs_certificate():
    ring = RingSpec(F2, ("x", "y"))
    ideal = IdealPresentation.from_strings(ring, ["x*y"])
    uncertified = build_profile(ideal)
    with pytest.raises(HypothesisError):
        stabilization_value(uncertified, 1)
    with pytest.raises(ValueError):
        stabilization_value(uncertified, 0)


def test_regularity_example2_by_iteration(ex2_profile):
    # low primes are curves, so the mixed closed form does not apply
    for ell, expected in EXAMPLE2["regularity"].items():
        result = regularity_index(ex2_profile, ell)
        assert result.value == expected, ell
        assert result.method == "iteration"


def test_regularity_closed_form_mixed(ring_cases):
    # hyperplane plus plane in 4-space: the low prime is a plane, and the
    # top family gains one dimension per degree, so r(l) = l exactly
    profile = ring_cases["f2-hyperplane-and-plane"].build()
    assert profile.classification == "mixed_low_dim_ge2"
    for ell in range(1, 4):
        result = regularity_index(profile, ell)
        assert result.value == ell
        assert result.method == "closed-form-mixed"
        assert result.stable_value == 0


def test_regularity_by_iteration(ex1_profile):
    # frozen from the stabilization analysis: r(1)=3, r(5)=3, r(6)=1
    for ell, expected in {1: 3, 5: 3, 6: 1}.items():
        result = regularity_index(ex1_profile, ell)
        assert result.value == expected, ell
        assert result.method == "iteration"
        assert result.stable_value == EXAMPLE1["stabilization"][ell][0]


def test_regularity_domain_is_constant(ring_cases):
    profile = ring_cases["f2-coordinate-plane"].build()
    result = regularity_index(profile, 3)
    assert result.value == 1
    assert result.method == "constant"
    assert result.stable_value == profile.multiplicity


def test_regularity_face_ring_tables(complex_cases):
    from gmdkit.suites import face_ring_profile

    tri = face_ring_profile(complex_cases["triangle-boundary"].complex_, F2)
    assert tri.classification == "unmixed_dim_ge2"
    for ell, expected in TRIANGLE_BOUNDARY["regularity_index"].items():
        result = regularity_index(tri, ell)
        assert result.value == expected, ell
        assert result.method == "closed-form-unmixed"
    path = face_ring_profile(complex_cases["path-four"].complex_, F2)
    for ell, expected in PATH_FOUR["regularity_index"].items():
        assert regularity_index(path, ell).value == expected, ell


def _assert_rule_matches_cases(profile, name):
    for ell in range(1, 7):
        got = regularity_index(profile, ell)
        assert (got.value, got.method, got.stable_value) == regularity_by_cases(
            profile, ell
        ), (name, ell)


def test_regularity_rule_matches_case_analysis(ring_cases, complex_cases):
    profiles = {name: case.build() for name, case in ring_cases.items()}
    profiles.update(
        (f"complex-{name}", face_ring_profile(case.complex_, F2))
        for name, case in complex_cases.items()
    )
    profiles.update(
        (f"bridge-{case.name}", case.point_set().vanishing_profile()) for case in bridge_suite()
    )
    assert {p.classification for p in profiles.values()} == {
        "domain", "mixed_low_dim_ge2", "unmixed_dim_ge2", "one_dimensional", "mixed_low_dim1",
    }
    for name, profile in profiles.items():
        _assert_rule_matches_cases(profile, name)


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(st.sampled_from([2, 3]), st.data())
def test_regularity_rule_matches_case_analysis_on_point_sets(p, data):
    field = FieldSpec(p)
    universe = projective_points(field, 3)
    points = data.draw(
        st.lists(st.sampled_from(universe), min_size=2, max_size=7, unique=True)
    )
    profile = ProjectivePointSet(field, 3, points).vanishing_profile()
    _assert_rule_matches_cases(profile, points)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(1, 4), st.booleans()), min_size=1, max_size=7), st.data())
def test_top_subsets_with_sum_match_every_subset(primes, data):
    profile = SimpleNamespace(
        primes=[SimpleNamespace(mult=m, is_top=top) for m, top in primes]
    )
    target = data.draw(st.integers(1, sum(m for m, _ in primes) + 1))
    tops = [i for i, (_, top) in enumerate(primes) if top]
    expected = [
        combo
        for k in range(len(tops) + 1)
        for combo in itertools.combinations(tops, k)
        if sum(primes[i][0] for i in combo) == target
    ]
    got = list(gmd._top_subsets_with_sum(profile, target))
    assert sorted(got) == sorted(expected)
    assert len(set(got)) == len(got)


def test_first_degree_reaching_matches_a_plain_scan(ex1_profile, ex2_profile, ring_cases):
    profiles = [ex1_profile, ex2_profile, ring_cases["f2-hyperplane-and-plane"].build()]
    for profile in profiles:
        a = len(profile.primes)
        for mask in range(1, 1 << a):
            family = profile.intersect_family([i for i in range(a) if mask >> i & 1])
            dims = [family.quotient_dim(t) for t in range(1, 13)]
            for ell in range(1, 7):
                t = gmd._first_degree_reaching(profile, family, ell)
                reached = [u for u, d in enumerate(dims, 1) if d >= ell]
                if t is None:
                    assert not reached, (profile, mask, ell)
                else:
                    assert t == reached[0], (profile, mask, ell)


def test_first_degree_reaching_cap_raises_invariant_error():
    # below l = 2 forever, yet never constant: only the safety cap stops it
    family = SimpleNamespace(
        indices=(0,), regime=lambda: 1, quotient_dim=lambda t: t % 2
    )
    profile = SimpleNamespace(dim=1, multiplicity=1)
    with pytest.raises(InvariantError, match="safety cap"):
        gmd._first_degree_reaching(profile, family, 2)


def test_regularity_unreachable_limit_raises_invariant_error(ex1_profile, monkeypatch):
    # a limit of 0 asks for the family of all primes, which is I itself
    def wrong_limit(profile, ell):
        return gmd.StabilizationResult(0, 4, "planted")

    monkeypatch.setattr(gmd, "stabilization_value", wrong_limit)
    with pytest.raises(InvariantError, match="ever holds 1 dimensions"):
        regularity_index(ex1_profile, 1)


def test_regularity_of_an_uncertified_profile_names_what_is_missing():
    ring = RingSpec(F2, ("x", "y"))
    ideal = IdealPresentation.from_strings(ring, ["x*y"])
    with pytest.raises(HypothesisError, match="minimal_primes.*no minimal primes were given"):
        regularity_index(build_profile(ideal), 1)
    # primes whose intersection is not I leave the profile uncertified
    x_axis = IdealPresentation.from_strings(ring, ["y"])
    with pytest.raises(HypothesisError, match="intersection of the supplied primes differs"):
        regularity_index(build_profile(ideal, [x_axis]), 1)


def test_verify_theorems_on_example1(ex1_profile):
    verdicts = {v.name: v for v in verify_theorems(ex1_profile, 3, 3)}
    assert verdicts["t-monotonicity"].status == "pass"
    assert verdicts["l-monotonicity"].status == "pass"
    assert verdicts["stabilization-consistency"].status == "pass"
    # no face-ring context supplied
    assert verdicts["r-increment"].status == "skipped"
    assert verdicts["dim-bound"].status == "skipped"
    assert verdicts["reg-bound"].status == "skipped"


def test_verify_theorems_skips_on_uncertified():
    ring = RingSpec(F2, ("x", "y"))
    ideal = IdealPresentation.from_strings(ring, ["x*y"])
    uncertified = build_profile(ideal)
    verdicts = {v.name: v for v in verify_theorems(uncertified, 2, 2)}
    assert verdicts["t-monotonicity"].status == "skipped"
    assert verdicts["l-monotonicity"].status == "skipped"
    assert verdicts["stabilization-consistency"].status == "skipped"


def test_verify_theorems_mixed_skips_l_monotonicity(ex2_profile):
    verdicts = {v.name: v for v in verify_theorems(ex2_profile, 2, 2)}
    assert verdicts["l-monotonicity"].status == "skipped"
    assert verdicts["t-monotonicity"].status == "pass"


def test_verify_theorems_with_face_ring_context(complex_cases):
    from gmdkit.suites import face_ring_profile

    tri_case = complex_cases["triangle-boundary"]
    profile = face_ring_profile(tri_case.complex_, F2)
    sr = sr_context(tri_case.complex_, F2)
    assert sr.depth == 2 and sr.regularity == 2
    assert sr.proj_connected and sr.shellable == "shellable"
    verdicts = {v.name: v for v in verify_theorems(profile, 3, 3, sr=sr)}
    for name in (
        "t-monotonicity",
        "l-monotonicity",
        "stabilization-consistency",
        "r-increment",
        "dim-bound",
        "reg-bound",
    ):
        assert verdicts[name].status == "pass", name


def test_verify_theorems_gates_on_sr_flags(ex1_profile, complex_cases):
    from gmdkit.suites import face_ring_profile

    bowtie = complex_cases["bowtie"]
    profile = face_ring_profile(bowtie.complex_, F2)
    sr = sr_context(bowtie.complex_, F2)
    assert sr.shellable == "not_shellable"
    verdicts = {v.name: v for v in verify_theorems(profile, 2, 2, sr=sr)}
    assert verdicts["reg-bound"].status == "skipped"
    # a fabricated inconclusive flag also skips the bound
    from gmdkit.gmd import SRContext

    fake = SRContext(sr.depth, sr.regularity, sr.proj_connected, "inconclusive")
    verdicts2 = {v.name: v for v in verify_theorems(profile, 2, 2, sr=fake)}
    assert verdicts2["reg-bound"].status == "skipped"
    # depth below two skips the increment law
    shallow = SRContext(1, sr.regularity, sr.proj_connected, sr.shellable)
    verdicts3 = {v.name: v for v in verify_theorems(profile, 2, 2, sr=shallow)}
    assert verdicts3["r-increment"].status == "skipped"


def test_verify_theorems_pins_every_fail_detail(complex_cases, monkeypatch):
    # a planted table and planted regularity indices break every law at once
    profile = face_ring_profile(complex_cases["triangle-boundary"].complex_, F2)
    assert profile.classification == "unmixed_dim_ge2" and profile.dim == 2
    table = {(1, 1): 1, (2, 1): 3, (1, 2): 0, (2, 2): 2}
    planted = {1: (1, 5), 2: (4, 0)}  # l: (r, limit)
    monkeypatch.setattr(gmd, "delta", lambda q: SimpleNamespace(value=table[(q.t, q.ell)]))
    monkeypatch.setattr(
        gmd,
        "regularity_index",
        lambda profile, ell: SimpleNamespace(value=planted[ell][0], stable_value=planted[ell][1]),
    )
    sr = gmd.SRContext(depth=2, regularity=1, proj_connected=True, shellable="shellable")
    got = [(v.name, v.status, v.detail) for v in verify_theorems(profile, 2, 2, sr=sr)]
    assert got == [
        ("t-monotonicity", "fail", "counterexamples [(1, 1), (1, 2)]"),
        ("l-monotonicity", "fail", "counterexamples [(1, 1), (2, 1)]"),
        (
            "stabilization-consistency",
            "fail",
            "l=1: value 1 at t=1 but limit 5; l=1: value 3 at t=2 but limit 5; "
            "l=2: limit reached at t=1 before index 4",
        ),
        ("r-increment", "fail", "violations at l=[1]"),
        ("dim-bound", "fail", "violations at l=[2]"),
        ("reg-bound", "fail", "violations at l=[2]"),
    ]


def test_verify_theorems_pins_every_skip_detail(ex2_profile, complex_cases):
    ring = RingSpec(F2, ("x", "y"))
    uncertified = build_profile(IdealPresentation.from_strings(ring, ["x*y"]))
    tri = face_ring_profile(complex_cases["triangle-boundary"].complex_, F2)
    flat = gmd.SRContext(depth=1, regularity=2, proj_connected=False, shellable="inconclusive")

    def skipped(profile, sr=None):
        return {v.name: v.detail for v in verify_theorems(profile, 2, 2, sr=sr) if v.status == "skipped"}

    assert skipped(uncertified) == {
        "t-monotonicity": "needs a certified reduced profile",
        "l-monotonicity": "asserted for unmixed rings only",
        "stabilization-consistency": "needs certified classification",
        "r-increment": "no face-ring context",
        "dim-bound": "no face-ring context",
        "reg-bound": "no face-ring context",
    }
    assert skipped(uncertified, flat) == {
        "t-monotonicity": "needs a certified reduced profile",
        "l-monotonicity": "asserted for unmixed rings only",
        "stabilization-consistency": "needs certified classification",
        "r-increment": "no regularity indices available",
        "dim-bound": "no regularity indices available",
        "reg-bound": "no regularity indices available",
    }
    assert skipped(ex2_profile) == {
        "l-monotonicity": "asserted for unmixed rings only",
        "r-increment": "no face-ring context",
        "dim-bound": "no face-ring context",
        "reg-bound": "no face-ring context",
    }
    assert skipped(tri, flat) == {
        "r-increment": "needs depth >= 2",
        "dim-bound": "facet graph is disconnected",
        "reg-bound": "shellability search hit its budget",
    }
    not_shellable = gmd.SRContext(depth=2, regularity=2, proj_connected=True, shellable="not_shellable")
    assert skipped(tri, not_shellable) == {"reg-bound": "complex is not shellable"}


def test_delta_table_matches_stabilization(ex1_profile):
    # frozen full table for t=1..4, l=1..3
    expected = {
        (1, 1): 4, (1, 2): 5, (1, 3): 6,
        (2, 1): 2, (2, 2): 4, (2, 3): 4,
        (3, 1): 1, (3, 2): 2, (3, 3): 4,
        (4, 1): 1, (4, 2): 2, (4, 3): 4,
    }
    for (t, ell), value in expected.items():
        assert delta_fast(GmdQuery(ex1_profile, t, ell, method="fast")).value == value


def _delta_fast_by_masks(profile, t, ell):
    """(value, status, witness) of the prime-subset scan, one mask at a time.

    The reference for the per-degree table behind delta_fast: every
    nonempty subset in increasing bitmask order, the first maximizer kept.
    """
    a = len(profile.primes)
    best = best_tau = None
    for mask in range(1, 1 << a):
        indices = tuple(i for i in range(a) if mask & (1 << i))
        if profile.intersect_family(indices).quotient_dim(t) < ell:
            continue
        value = sum(profile.primes[i].mult for i in indices if profile.primes[i].is_top)
        if best is None or value > best:
            best, best_tau = value, indices
    if best is None:
        return profile.multiplicity, "empty", None
    return profile.multiplicity - best, "ok", {"prime_subset": list(best_tau)}


def _line_arrangement():
    # four lines in P^3(F_2): three pairwise skew, the fourth meets the first
    ring = RingSpec(F2, ("x", "y", "z", "w"))
    lines = [["x", "y"], ["z", "w"], ["x+z", "y+w"], ["x", "z"]]
    return build_profile_from_primes(
        [IdealPresentation.from_strings(ring, forms) for forms in lines]
    )


def test_subset_table_matches_mask_loop(ex1_profile, ex2_profile):
    profiles = {
        "example1": ex1_profile,
        "example2": ex2_profile,
        "lines": _line_arrangement(),
        # the seven points of P^2(F_2): many collinear triples, many ties
        "fano": seeded_point_set(F2, 3, 7, 0).vanishing_profile(),
        "f3-points": seeded_point_set(FieldSpec(3), 3, 8, 11).vanishing_profile(),
    }
    for name, profile in profiles.items():
        for t in range(1, 5):
            for ell in range(1, hilbert_function(profile.ideal, t) + 2):
                got = delta_fast(GmdQuery(profile, t, ell, method="fast"))
                expected = _delta_fast_by_masks(profile, t, ell)
                assert (got.value, got.status, got.witness) == expected, (name, t, ell)


def _least_proper_subset_sum_by_masks(mults, ell):
    """Least sum >= ell over nonempty proper subsets, one mask at a time."""
    a = len(mults)
    best = None
    for mask in range(1, (1 << a) - 1):
        s = sum(mults[i] for i in range(a) if mask & (1 << i))
        if s >= ell and (best is None or s < best):
            best = s
    return best


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=8), st.data())
def test_least_proper_subset_sum_matches_mask_loop(mults, data):
    ell = data.draw(st.integers(1, sum(mults) + 1))
    assert gmd._least_proper_subset_sum(mults, ell) == _least_proper_subset_sum_by_masks(
        mults, ell
    )
