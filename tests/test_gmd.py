"""Distance values, stabilization case analysis, regularity indices."""

import itertools
import math
import pickle
import random
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from gmdkit import gmd
from gmdkit.codes import (
    ProjectivePointSet,
    evaluation_code,
    generalized_hamming_weight,
    projective_points,
)
from gmdkit.errors import HypothesisError, InvariantError
from gmdkit.gflinalg import FieldMatrix, FieldSpec, SubspaceIterator, rank, subspace_count
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
from gmdkit.hilbert import graded_piece_of_quotient, hilbert_function, multiplicity_at_dim
from gmdkit.polyring import GREVLEX, Polynomial, RingSpec, degree_monomials, parse_polynomial
from gmdkit.schemes import build_profile, build_profile_from_primes
from gmdkit.simplicial import sr_context
from gmdkit.suites import (
    RingCase,
    bridge_suite,
    face_ring_profile,
    ring_suite,
    seeded_point_set,
)

from oracles import (
    EXAMPLE1,
    EXAMPLE2,
    PATH_FOUR,
    TRIANGLE_BOUNDARY,
    TWO_LINES_F2,
    delta_bruteforce_unpruned,
    naive_rank,
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
# annihilator test (the colon test is the slower one).
ORACLE_CELL_CAP = {"prime": 400, "colon": 120}
BATTERY = [case.name for case in ring_suite()]


def _fresh_profile(case: RingCase):
    """The case's profile built anew, with empty memos (``build`` is cached)."""
    return RingCase.build.__wrapped__(case)


def _colon_twin(profile):
    """The profile's ideal without its primes: ``ann_nonzero`` decides there
    from the definition, the reference the prime test is compared with."""
    twin = build_profile(profile.ideal)
    assert not twin.reduced_certified
    return twin


def _affordable_cells(profile, cap=ORACLE_CELL_CAP["prime"]):
    for t in (1, 2, 3):
        m = hilbert_function(profile.ideal, t)
        for ell in (1, 2, 3):
            if ell > m or subspace_count(m, ell, profile.ring.field) <= cap:
                yield t, ell


def _assert_matches_unpruned(profile, t, ell, convention, jobs=1):
    query = GmdQuery(profile, t, ell, convention=convention, method="brute")
    got = delta_bruteforce(query, jobs=jobs)
    want = delta_bruteforce_unpruned(query)
    assert got == want, (t, ell, convention, jobs)


@pytest.mark.parametrize("route", ["prime", "colon"])
@pytest.mark.parametrize("name", BATTERY)
def test_row_bound_matches_unpruned_scan(ring_cases, name, route):
    # every cell in the order the CLI asks them (l = 1 first at each t), so
    # l >= 2 cells read the line values the l = 1 cell left in the memo and
    # compute the lines its footprint skip left unread
    profile = _fresh_profile(ring_cases[name])
    if route == "colon":
        profile = _colon_twin(profile)
    for t, ell in _affordable_cells(profile, ORACLE_CELL_CAP[route]):
        for convention in (FIXED_DIM, OWN_DIM):
            _assert_matches_unpruned(profile, t, ell, convention)
    assert profile.line_values


def test_own_dim_scan_is_not_pruned(ring_cases):
    # on the plane with two lines, the own-dim maximiser at (2, 2) drops
    # dimension and measures more than a row's line value, so a row bound
    # would skip it; the cell is past the cap of the battery test above
    profile = _fresh_profile(ring_cases["f3-plane-with-two-lines"])
    for convention in (FIXED_DIM, OWN_DIM):
        _assert_matches_unpruned(profile, 2, 1, convention)
    _assert_matches_unpruned(profile, 2, 2, OWN_DIM)


TWO_WORKER_CASES = ["f2-onedim-three-primes", "f3-plane-with-two-lines", "f2-points6-seed12"]


@pytest.mark.parametrize(
    "name, route",
    [pytest.param(name, "prime", id=name) for name in TWO_WORKER_CASES]
    + [pytest.param(name, "colon", id=f"{name}-colon") for name in TWO_WORKER_CASES],
)
def test_row_bound_matches_unpruned_scan_over_two_workers(ring_cases, name, route):
    # workers get the profile without its memos and prune against their own
    # best; some cell's two chunks meet inside a pivot block
    profile = _fresh_profile(ring_cases[name])
    if route == "colon":
        profile = _colon_twin(profile)
    split_blocks = 0
    for t, ell in _affordable_cells(profile, ORACLE_CELL_CAP[route]):
        _assert_matches_unpruned(profile, t, ell, FIXED_DIM, jobs=2)
        it = SubspaceIterator(hilbert_function(profile.ideal, t), ell, profile.ring.field)
        split_blocks += any(lo < it.count // 2 < hi for lo, hi, _ in it.pivot_blocks(0, it.count))
    assert split_blocks
    gmd.delta_bruteforce(GmdQuery(profile, 1, 1, method="brute"))
    assert profile.line_values and profile.footprint_bounds
    sent = pickle.loads(pickle.dumps(profile))
    assert sent.line_values == {} and sent.footprint_bounds == {}


@pytest.mark.parametrize("name", BATTERY)
def test_row_bound_computes_line_values_on_demand(ring_cases, name):
    # an l = 2 cell asked alone, with no l = 1 cell before it on this profile
    profile = _fresh_profile(ring_cases[name])
    cells = [(t, ell) for t, ell in _affordable_cells(profile) if ell == 2]
    assert cells
    t, ell = cells[-1]
    _assert_matches_unpruned(profile, t, ell, FIXED_DIM)


def test_row_bound_under_a_tiny_line_memo(ring_cases, monkeypatch):
    monkeypatch.setattr(gmd, "LINE_MEMO_LIMIT", 2)
    for name in ("f2-onedim-three-primes", "f3-plane-with-two-lines", "f3-points5-seed14"):
        profile = _fresh_profile(ring_cases[name])
        for t, ell in _affordable_cells(profile):
            _assert_matches_unpruned(profile, t, ell, FIXED_DIM)
        assert all(0 < len(memo) <= 2 for memo in profile.line_values.values())
        assert 0 < len(profile.footprint_bounds) <= 2


@pytest.mark.parametrize("route", ["prime", "colon"])
def test_line_memo_keeps_nonzerodivisors_apart_from_multiplicity_zero(
    ring_cases, monkeypatch, route
):
    # degree-1 lines on the plane with two lines over F_3: nonzerodivisors,
    # memoised as None, and zero divisors whose quotient drops dimension,
    # memoised as 0
    profile = _fresh_profile(ring_cases["f3-plane-with-two-lines"])
    if route == "colon":
        profile = _colon_twin(profile)
    t = 1
    basis = tuple(graded_piece_of_quotient(profile.ideal, t))
    # the footprint bound lets the l = 1 cell leave lines unread, so every
    # line is read here
    lines = SubspaceIterator(len(basis), 1, profile.ring.field)
    for index in range(lines.count):
        gmd._line_value(profile, t, basis, lines.matrix_at(index).data[0])
    memo = profile.line_values[t]
    assert len(memo) == lines.count
    for row, value in memo.items():
        polys = [gmd._row_to_poly(profile.ring, basis, row)]
        assert ann_nonzero(profile, polys) is (value is not None), row
    nonzerodivisors = {row for row, value in memo.items() if value is None}
    assert nonzerodivisors and 0 in memo.values()

    def key(polys):
        return tuple(tuple(sorted(f.terms.items())) for f in polys)

    it = SubspaceIterator(len(basis), 2, profile.ring.field)
    index_of = {key(subspace_to_polys(profile, basis, it.matrix_at(i))): i for i in range(it.count)}
    tested = []
    original = gmd.ann_nonzero

    def counted(profile, polys, extension=None):
        answer = original(profile, polys, extension)
        tested.append((index_of[key(polys)], answer))
        return answer

    monkeypatch.setattr(gmd, "ann_nonzero", counted)
    query = GmdQuery(profile, t, 2, method="brute")
    result = delta_bruteforce(query)
    monkeypatch.undo()
    # once the scan has a best, a plane with a nonzerodivisor row is skipped
    first_best = next(index for index, answer in tested if answer)
    after = [
        i for i in range(first_best + 1, it.count)
        if nonzerodivisors & set(it.matrix_at(i).data)
    ]
    assert after and not set(after) & {index for index, _ in tested}
    assert len(tested) == len({index for index, _ in tested}) < it.count
    assert result == delta_bruteforce_unpruned(query)
    assert pickle.loads(pickle.dumps(profile)).line_values == {}


def _uncertified_example1():
    ring = RingSpec(FieldSpec(EXAMPLE1["char"]), EXAMPLE1["vars"])
    return build_profile(IdealPresentation.from_strings(ring, EXAMPLE1["gens"]))


@pytest.mark.parametrize("case", ["plane-with-two-lines", "example1"])
def test_no_colon_ideal_is_built_for_a_subspace_with_a_nonzerodivisor_row(
    ring_cases, monkeypatch, case
):
    # (I : (F)) lies in (I : f) = I for a nonzerodivisor row f, so such an F
    # is skipped before its colon ideal even while the scan has no best
    if case == "example1":
        profile, t = _uncertified_example1(), 2
    else:
        profile, t = _colon_twin(_fresh_profile(ring_cases["f3-plane-with-two-lines"])), 1
    received = []
    original = gmd.colon

    def recording(ideal, polys):
        received.append(list(polys))
        return original(ideal, polys)

    monkeypatch.setattr(gmd, "colon", recording)
    query = GmdQuery(profile, t, 2, method="brute")
    result = delta_bruteforce(query)
    monkeypatch.undo()
    basis = tuple(graded_piece_of_quotient(profile.ideal, t))
    line = {
        gmd._row_to_poly(profile.ring, basis, row): value
        for row, value in profile.line_values[t].items()
    }
    assert None in line.values() and received
    assert all(line[f] is not None for polys in received for f in polys)
    assert result == delta_bruteforce_unpruned(query)


def test_a_certified_line_cell_interreduces_no_extension(ring_cases, monkeypatch):
    # the multiplicity reads only in(I + (f)), which the extension takes
    # from its records; its reduced elements are never built
    from gmdkit import groebner

    profile = _fresh_profile(ring_cases["f2-onedim-three-primes"])
    assert profile.reduced_certified
    for ideal in [profile.ideal] + [prime.ideal for prime in profile.primes]:
        groebner_basis(ideal)
    extensions = []
    interreduced = []
    extending, interreduce = gmd.groebner_basis_extending, groebner._interreduce

    def recording(gb, extra):
        extensions.append(extending(gb, extra))
        return extensions[-1]

    def counted(*args, **kwargs):
        interreduced.append(args)
        return interreduce(*args, **kwargs)

    monkeypatch.setattr(gmd, "groebner_basis_extending", recording)
    monkeypatch.setattr(groebner, "_interreduce", counted)
    result = delta_bruteforce(GmdQuery(profile, 2, 1, method="brute"))
    assert result.status == "ok" and extensions
    assert not interreduced
    assert not any("elements" in vars(gb) for gb in extensions)


@settings(max_examples=40)
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
    twin = _colon_twin(profile)
    for f in polys:
        line = gmd._quotient_multiplicity(profile, [f], FIXED_DIM)
        assert value <= line
        if not ann_nonzero(twin, [f]):
            assert line == 0


def _footprint_from_scratch(profile, pivots):
    """Multiplicity at dim(S/I) of S/(in(I) + (pivots)), the monomial ideal
    built as an ideal of its own and measured through its Groebner basis."""
    ring = profile.ring
    monomials = groebner_basis(profile.ideal).leading_exponents + pivots
    ideal = IdealPresentation(ring, [Polynomial.monomial(ring, e) for e in monomials])
    return multiplicity_at_dim(ideal, profile.dim)


def _assert_footprint_bounds_every_block(profile, cap):
    """The premise of the block skip, on every cell at t, l <= 2 of at most
    cap subspaces: each row's leading monomial is the basis monomial at its
    pivot, and each subspace with a nonzero annihilator measures at most its
    block's footprint bound.  Returns how many subspaces qualified."""
    qualified = 0
    for t, ell in _affordable_cells(profile, cap):
        if t > 2 or ell > 2:
            continue
        basis = tuple(graded_piece_of_quotient(profile.ideal, t))
        it = SubspaceIterator(len(basis), ell, profile.ring.field)
        for lo, hi, rows in it.pivot_blocks(0, it.count):
            pivots = tuple(basis[c] for c, _ in rows)
            bound = gmd._footprint_bound(profile, pivots)
            assert bound == _footprint_from_scratch(profile, pivots), (t, pivots)
            for index in range(lo, hi):
                polys = subspace_to_polys(profile, basis, it.matrix_at(index))
                assert tuple(max(f.terms, key=GREVLEX.key) for f in polys) == pivots
                if ann_nonzero(profile, polys):
                    qualified += 1
                    value = gmd._quotient_multiplicity(profile, polys, FIXED_DIM)
                    assert value <= bound, (t, ell, index, value, bound)
    return qualified


@pytest.mark.parametrize("route", ["prime", "colon"])
@pytest.mark.parametrize("name", BATTERY)
def test_footprint_bound_holds_over_the_battery(ring_cases, name, route):
    profile = _fresh_profile(ring_cases[name])
    if route == "colon":
        profile = _colon_twin(profile)
    qualified = _assert_footprint_bounds_every_block(profile, ORACLE_CELL_CAP[route])
    # in a domain every annihilator is zero
    assert qualified or name == "f2-coordinate-plane"


def test_annihilator_modes_agree(ex1_profile):
    ring = ex1_profile.ring
    twin = _colon_twin(ex1_profile)
    for text in ("x", "x+z", "y", "x^2+y*z", "z^2"):
        polys = [parse_polynomial(text, ring)]
        colon_answer = ann_nonzero(twin, polys)
        prime_answer = ann_nonzero(ex1_profile, polys)
        assert colon_answer == prime_answer, text


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
    twin = _colon_twin(profile)
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
                prime = ann_nonzero(profile, polys)
                assert prime == ann_nonzero(twin, polys), (t, ell, index)
                answers.add(prime)
    assert answers == {True, False}


# Lines checked per degree; smaller pieces are checked whole.
LINE_CELL_CAP = 120

# Non-reduced and Artinian quotients, where no prime route exists to compare with.
COLON_ONLY_IDEALS = [
    (2, ("x", "y"), ("x^2",)),
    (3, ("x", "y"), ("x^2*y", "x*y^2")),
    (2, ("x", "y", "z"), ("x^3", "y^3", "x*y*z")),
    (3, ("x", "y", "z"), ("x^2", "x*y")),
]


def _colon_only_profile(char, names, gens):
    ring = RingSpec(FieldSpec(char), names)
    return build_profile(IdealPresentation.from_strings(ring, gens))


@pytest.mark.parametrize(
    "profile_of",
    [pytest.param(lambda cases, n=name: build_profile(cases[n].build().ideal), id=name)
     for name in BATTERY]
    + [pytest.param(lambda cases, d=doc: _colon_only_profile(*d), id="-".join(doc[2]))
       for doc in COLON_ONLY_IDEALS],
)
def test_colon_mode_on_lines_matches_the_definition(ring_cases, profile_of):
    # the profile carries no primes, so the test reads none; lines go
    # through the Hilbert series of I + (f), the oracle through (I : f)
    from oracles import ann_nonzero_by_colon

    profile = profile_of(ring_cases)
    assert not profile.reduced_certified
    checked = 0
    for t in (1, 2):
        basis = tuple(graded_piece_of_quotient(profile.ideal, t))
        if not basis:
            continue
        it = SubspaceIterator(len(basis), 1, profile.ring.field)
        for index in range(0, it.count, math.ceil(it.count / LINE_CELL_CAP)):
            polys = subspace_to_polys(profile, basis, it.matrix_at(index))
            answer = ann_nonzero(profile, polys)
            assert answer == ann_nonzero_by_colon(profile, polys), (t, index)
            checked += 1
    assert checked


def test_colon_line_test_falls_back_to_the_colon_ideal_off_its_hypotheses(ex1_profile):
    # a constant is a nonzerodivisor; zero and inhomogeneous polynomials are
    # rejected by the colon ideal, as before the Hilbert-series test
    from oracles import ann_nonzero_by_colon

    ring = ex1_profile.ring
    twin = _colon_twin(ex1_profile)
    one = [parse_polynomial("1", ring)]
    assert ann_nonzero(twin, one) is ann_nonzero_by_colon(twin, one) is False
    with pytest.raises(ValueError, match="zero polynomial"):
        ann_nonzero(twin, [Polynomial.zero(ring)])
    with pytest.raises(ValueError, match="homogeneous"):
        ann_nonzero(twin, [parse_polynomial("x+y^2", ring)])


def test_monomial_normal_form_memo_stays_bounded(ex1_profile, monkeypatch):
    monkeypatch.setattr(gmd, "NF_MEMO_LIMIT", 4)
    gb = groebner_basis(ex1_profile.primes[0].ideal)
    gb.monomial_normal_forms.clear()
    basis = graded_piece_of_quotient(ex1_profile.ideal, 3)
    polys = [Polynomial(ex1_profile.ring, {e: 1 for e in basis})]
    assert len(basis) > 4
    assert ann_nonzero(ex1_profile, polys) == ann_nonzero(_colon_twin(ex1_profile), polys)
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
        (f"bridge-{case.name}", case.point_set().vanishing_profile()) for case in bridge_suite(2026)
    )
    assert {p.classification for p in profiles.values()} == {
        "domain", "mixed_low_dim_ge2", "unmixed_dim_ge2", "one_dimensional", "mixed_low_dim1",
    }
    for name, profile in profiles.items():
        _assert_rule_matches_cases(profile, name)


@settings(max_examples=20)
@given(st.sampled_from([2, 3]), st.data())
def test_regularity_rule_matches_case_analysis_on_point_sets(p, data):
    field = FieldSpec(p)
    universe = projective_points(field, 3)
    points = data.draw(
        st.lists(st.sampled_from(universe), min_size=2, max_size=7, unique=True)
    )
    profile = ProjectivePointSet(field, 3, points).vanishing_profile()
    _assert_rule_matches_cases(profile, points)


def _regularity_by_definition(profile, ell):
    """Least t < 40 with delta_fast(t, l) equal to the limit; reads no regime."""
    s = stabilization_value(profile, ell).value
    return next(
        (t for t in range(1, 40) if delta_fast(GmdQuery(profile, t, ell, method="fast")).value == s),
        None,
    )


@st.composite
def _point_sets_and_line_arrangements(draw):
    """Points of P^2(F_2) or P^2(F_3), or distinct lines of P^3 over F_2 or F_3."""
    field = FieldSpec(draw(st.sampled_from([2, 3]), label="p"))
    if draw(st.booleans(), label="lines"):
        ring = RingSpec(field, ("x", "y", "z", "w"))
        units = [tuple(int(i == j) for i in range(4)) for j in range(4)]
        form = st.lists(st.integers(0, field.p - 1), min_size=4, max_size=4)
        lines = []
        for _ in range(draw(st.integers(2, 5), label="count")):
            rows = draw(st.lists(form, min_size=2, max_size=2), label="line")
            assume(rank(FieldMatrix(field, rows)) == 2)
            assume(all(rank(FieldMatrix(field, rows + other)) > 2 for other in lines))
            lines.append(rows)
        primes = [
            IdealPresentation(ring, [Polynomial(ring, dict(zip(units, row))) for row in rows])
            for rows in lines
        ]
        return build_profile_from_primes(primes)
    universe = projective_points(field, 3)
    points = draw(st.lists(st.sampled_from(universe), min_size=2, max_size=8, unique=True))
    return ProjectivePointSet(field, 3, points).vanishing_profile()


@settings(max_examples=60)
@given(_point_sets_and_line_arrangements())
def test_regularity_index_is_the_first_degree_at_the_limit(profile):
    for ell in (1, 2, 3):
        assert regularity_index(profile, ell).value == _regularity_by_definition(profile, ell), ell


@st.composite
def _homogeneous_ideal_profiles(draw):
    """Uncertified profiles of up to three random forms of degree 1 or 2."""
    field = FieldSpec(draw(st.sampled_from([2, 3]), label="p"))
    ring = RingSpec(field, ("x", "y", "z")[: draw(st.integers(2, 3), label="n")])
    gens = []
    for _ in range(draw(st.integers(1, 3), label="count")):
        monos = degree_monomials(ring.n, draw(st.integers(1, 2), label="degree"))
        coeffs = draw(st.lists(st.integers(0, field.p - 1), min_size=len(monos), max_size=len(monos)))
        assume(any(coeffs))
        gens.append(Polynomial(ring, dict(zip(monos, coeffs))))
    return build_profile(IdealPresentation(ring, gens))


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.tuples(_point_sets_and_line_arrangements(), st.sampled_from(["prime", "colon"])),
        st.tuples(_homogeneous_ideal_profiles(), st.just("colon")),
    )
)
def test_footprint_bound_holds_on_random_ideals(case):
    profile, route = case
    if route == "colon" and profile.reduced_certified:
        profile = _colon_twin(profile)
    assert profile.reduced_certified is (route == "prime")
    _assert_footprint_bounds_every_block(profile, ORACLE_CELL_CAP[route])


@settings(max_examples=60)
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


@settings(max_examples=80)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=8), st.data())
def test_least_proper_subset_sum_matches_mask_loop(mults, data):
    ell = data.draw(st.integers(1, sum(mults) + 1))
    assert gmd._least_proper_subset_sum(mults, ell) == _least_proper_subset_sum_by_masks(
        mults, ell
    )


# ---------------------------------------------------------------------------
# metamorphic: the order of the minimal primes is not part of the input


def _profile_with_primes_in_order(example, order):
    ring = RingSpec(FieldSpec(example["char"]), example["vars"])
    ideal = IdealPresentation.from_strings(ring, example["gens"])
    return build_profile(
        ideal, [IdealPresentation.from_strings(ring, example["primes"][i]) for i in order]
    )


def _order_free_facts(profile, t_max, ell_max, method, sr=None):
    """Distance values and statuses, stabilize rows and verdicts; no witnesses,
    which name primes by their position."""
    cells = {}
    for t in range(1, t_max + 1):
        for ell in range(1, ell_max + 1):
            result = delta(GmdQuery(profile, t, ell, method=method))
            cells[(t, ell)] = (result.value, result.status)
    rows = []
    for ell in range(1, ell_max + 1):
        s, r = stabilization_value(profile, ell), regularity_index(profile, ell)
        rows.append((s.value, s.case, s.detail, r.value, r.method))
    verdicts = verify_theorems(profile, t_max, ell_max, sr=sr)
    return cells, rows, [(v.name, v.status, v.detail) for v in verdicts]


@pytest.mark.parametrize("example", [EXAMPLE1, EXAMPLE2], ids=["example1", "example2"])
def test_prime_order_leaves_the_fast_route_unchanged(example):
    identity = _order_free_facts(_profile_with_primes_in_order(example, (0, 1, 2)), 4, 7, "fast")
    for order in itertools.permutations(range(3)):
        profile = _profile_with_primes_in_order(example, order)
        assert _order_free_facts(profile, 4, 7, "fast") == identity, order


def test_prime_order_leaves_the_brute_route_unchanged():
    base = _profile_with_primes_in_order(EXAMPLE1, (0, 1, 2))
    rotated = _profile_with_primes_in_order(EXAMPLE1, (2, 0, 1))
    assert _order_free_facts(rotated, 2, 3, "brute") == _order_free_facts(base, 2, 3, "brute")


def test_reversed_face_ring_primes_leave_every_fact_unchanged(complex_cases):
    from gmdkit.codes import standard_ring
    from gmdkit.simplicial import face_ring_minimal_primes, stanley_reisner_ideal

    complex_ = complex_cases["square-cycle"].complex_
    ring = standard_ring(F2, complex_.n)
    primes = face_ring_minimal_primes(complex_, ring)
    assert len(primes) == 4
    reversed_profile = build_profile(stanley_reisner_ideal(complex_, ring), primes[::-1])
    sr = sr_context(complex_, F2)
    expected = _order_free_facts(face_ring_profile(complex_, F2), 3, 4, "fast", sr=sr)
    assert _order_free_facts(reversed_profile, 3, 4, "fast", sr=sr) == expected


# ---------------------------------------------------------------------------
# metamorphic: a linear change of coordinates g in GL_n(F_p) is not part of
# the input either


def _invertible_matrix(p, n, seed):
    rng = random.Random(seed)
    while True:
        g = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if naive_rank(g, p) == n:
            return g


def _substitute(f, g):
    """f(gx): x_i goes to the sum over j of g[i][j] x_j."""
    ring = f.ring
    images = [
        Polynomial(ring, {tuple(int(k == j) for k in range(ring.n)): c for j, c in enumerate(row)})
        for row in g
    ]
    out = Polynomial.zero(ring)
    for e, c in f.terms.items():
        term = Polynomial(ring, {(0,) * ring.n: c})
        for image, power in zip(images, e):
            for _ in range(power):
                term = term * image
        out = out + term
    return out


def _transformed(ideal, g):
    return IdealPresentation(ideal.ring, [_substitute(f, g) for f in ideal.gens])


@pytest.mark.parametrize(
    "name",
    ["f2-onedim-three-primes", "f3-plane-with-two-lines", "f2-triangle-boundary", "f3-points5-seed14"],
)
def test_a_change_of_coordinates_leaves_every_value_unchanged(name, ring_cases):
    case = ring_cases[name]
    profile = case.build()
    p, n = case.field.p, profile.ring.n
    g = _invertible_matrix(p, n, seed=sum(map(ord, name)))
    moved = build_profile(
        _transformed(profile.ideal, g), [_transformed(prime.ideal, g) for prime in profile.primes]
    )
    assert moved.reduced_certified and moved.classification == profile.classification
    for t in (1, 2):
        for ell in (1, 2):
            # the default method cross-checks brute against fast
            before = delta(GmdQuery(profile, t, ell))
            after = delta(GmdQuery(moved, t, ell))
            assert (after.value, after.status) == (before.value, before.status), (t, ell)
    for ell in (1, 2, 3):
        assert stabilization_value(moved, ell) == stabilization_value(profile, ell), ell
        assert regularity_index(moved, ell) == regularity_index(profile, ell), ell
    if case.kind == "points":
        ambient, size, seed = case.data
        points = seeded_point_set(case.field, ambient, size, seed)
        image = ProjectivePointSet(
            case.field, ambient, [[sum(a * x for a, x in zip(row, pt)) for row in g] for pt in points.points]
        )
        for t in (1, 2):
            code, moved_code = evaluation_code(points, t), evaluation_code(image, t)
            for r in range(1, code.dimension + 1):
                assert (
                    generalized_hamming_weight(moved_code, r).value
                    == generalized_hamming_weight(code, r).value
                ), (t, r)

