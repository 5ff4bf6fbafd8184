"""Evaluation codes, generalized weights, and the distance bridge."""

import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import gmdkit.codes as codes_mod
from gmdkit.codes import (
    ENUMERATE_LIMIT,
    _enum_scan,
    _ghw_enumerate,
    _ghw_shorten,
    LinearCode,
    ProjectivePointSet,
    bridge_rows,
    evaluate_monomial,
    evaluation_code,
    generalized_hamming_weight,
    projective_points,
    support_size,
)
from gmdkit.errors import InvariantError
from gmdkit.gflinalg import FieldMatrix, FieldSpec, SubspaceIterator, rank, rref, subspace_count
from gmdkit.gmd import GmdQuery, delta_fast, regularity_index
from gmdkit.groebner import groebner_basis, normal_form
from gmdkit.hilbert import hilbert_function
from gmdkit.polyring import graded_piece_basis

from oracles import P1_F2, ghw_by_descending_column_sets, ghw_by_span_enumeration

F2 = FieldSpec(2)
F3 = FieldSpec(3)


def test_point_normalization():
    ps = ProjectivePointSet(F3, 3, [(0, 2, 1)])
    # scaled so the first nonzero coordinate is 1
    assert ps.points == ((0, 1, 2),)
    with pytest.raises(ValueError, match="zero vector"):
        ProjectivePointSet(F2, 2, [(0, 0)])
    with pytest.raises(ValueError, match="duplicate"):
        ProjectivePointSet(F3, 2, [(1, 2), (2, 4)])
    with pytest.raises(ValueError, match="coordinates"):
        ProjectivePointSet(F2, 3, [(1, 0)])
    with pytest.raises(ValueError, match="empty"):
        ProjectivePointSet(F2, 2, [])
    with pytest.raises(ValueError):
        ProjectivePointSet(F2, 1, [(1,)])


def test_projective_point_counts():
    line2 = projective_points(F2, 2)
    plane2 = projective_points(F2, 3)
    plane3 = projective_points(F3, 3)
    assert len(line2) == 3
    assert len(plane2) == 7
    assert len(plane3) == 13
    for pts in (line2, plane2, plane3):
        assert len(set(pts)) == len(pts)
        assert pts == sorted(pts)
        for pt in pts:
            first = next(c for c in pt if c)
            assert first == 1


def test_point_primes_vanish_exactly_at_their_point():
    ps = ProjectivePointSet(F3, 3, [(1, 0, 0), (0, 1, 2), (1, 1, 1)])
    ring = ps.ring()
    for i in range(len(ps)):
        prime = ps.point_prime(ring, i)
        assert len(prime.gens) == 2  # a point in the plane needs two forms
        for g in prime.gens:
            for j, pt in enumerate(ps.points):
                val = 0
                for e, c in g.terms.items():
                    val = (val + c * evaluate_monomial(e, pt, 3)) % 3
                if i == j:
                    assert val == 0
        # some generator must be nonzero at every other point
        for j, pt in enumerate(ps.points):
            if i == j:
                continue
            values = []
            for g in prime.gens:
                val = 0
                for e, c in g.terms.items():
                    val = (val + c * evaluate_monomial(e, pt, 3)) % 3
                values.append(val)
            assert any(values), (i, j)


def test_vanishing_profile_shape_and_memoization():
    ps = ProjectivePointSet(F2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    profile = ps.vanishing_profile()
    assert profile.reduced_certified
    assert profile.dim == 1
    assert profile.multiplicity == 4
    assert all(p.mult == 1 and p.is_top for p in profile.primes)
    assert profile.family_backend is not None
    assert ps.vanishing_profile() is profile


def test_backend_piece_dims_match_groebner_route():
    # five points of P^2(F_3), no four on a line
    ps = ProjectivePointSet(
        F3, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 0)]
    )
    # six points on the line pair yz = 0, so HF(2) = 5, one below the count
    on_two_lines = ProjectivePointSet(
        F3, 3, [(0, 1, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1), (1, 0, 1), (1, 0, 2)]
    )
    assert hilbert_function(on_two_lines.vanishing_profile().ideal, 2) == 5
    for points in (ps, on_two_lines):
        profile = points.vanishing_profile()
        assert profile.family_backend is not None
        n = len(points)
        for size in range(1, n + 1):
            for indices in itertools.combinations(range(n), size):
                fam = profile.intersect_family(indices)
                for t in range(0, 5):
                    got = fam.quotient_dim(t)
                    # the Groebner route: difference of Hilbert functions
                    expected = hilbert_function(profile.ideal, t) - hilbert_function(
                        fam.ideal, t
                    )
                    assert got == expected, (points, indices, t)
    # functions vanishing on j of the 5 points stabilize at 5 - j dimensions
    profile = ps.vanishing_profile()
    for j in range(1, 6):
        fam = profile.intersect_family(tuple(range(j)))
        t = fam.regime() + 1
        assert fam.quotient_dim(t) == 5 - j, j


def test_point_families_read_hf_before_building_evaluation_vectors(monkeypatch):
    # from the degree where HF_I reaches the point count every family has
    # dimension n - |A|, so no degree-t evaluation vector is built there
    built = []
    original = ProjectivePointSet.evaluation_vectors

    def recording(self, t):
        built.append(t)
        return original(self, t)

    monkeypatch.setattr(ProjectivePointSet, "evaluation_vectors", recording)
    ps = ProjectivePointSet(F3, 3, projective_points(F3, 3))
    profile = ps.vanishing_profile()
    n = len(ps)
    spanning = next(t for t in range(n) if hilbert_function(profile.ideal, t) == n)
    assert spanning == 5
    for t in range(1, 40):
        delta_fast(GmdQuery(profile, t, 1, method="fast"))
        assert profile.intersect_family(tuple(range(7))).quotient_dim(t) >= 0
    for ell in (1, 2, 3):
        regularity_index(profile, ell)
    assert built and max(built) < spanning


def test_evaluation_code_shape():
    ps = ProjectivePointSet(F2, 2, list(P1_F2["points"]))
    code = evaluation_code(ps, 1)
    assert code.length == P1_F2["code"]["length"]
    assert code.dimension == P1_F2["code"]["dimension"]
    assert rank(code.generator) == code.dimension
    with pytest.raises(ValueError):
        evaluation_code(ps, 0)


def test_evaluation_code_rows_are_monomial_evaluations():
    ps = ProjectivePointSet(F3, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    code = evaluation_code(ps, 2)
    # every codeword is a combination of monomial evaluation rows
    monos = graded_piece_basis(ps.ring(), 2)
    eval_rows = [
        [evaluate_monomial(m, pt, 3) for pt in ps.points] for m in monos
    ]
    eval_matrix = FieldMatrix(F3, eval_rows)
    stacked = FieldMatrix(
        F3, eval_matrix.to_lists() + code.generator.to_lists()
    )
    assert rank(stacked) == rank(eval_matrix) == code.dimension


def test_linear_code_validation():
    with pytest.raises(ValueError, match="dependent"):
        LinearCode(F2, FieldMatrix(F2, [[1, 0, 1], [1, 0, 1]]))
    with pytest.raises(ValueError):
        LinearCode(F2, FieldMatrix(F2, [list() for _ in range(0)]))


def test_support_size():
    m = FieldMatrix(F2, [[1, 0, 1, 0], [0, 0, 1, 0]])
    assert support_size(m) == 2
    assert support_size(FieldMatrix(F2, [[0, 0]])) == 0


HAND_CODES = [
    (2, [[1, 0, 1], [0, 1, 1]]),
    (2, [[1, 1, 1, 1]]),
    (2, [[1, 0, 0, 1, 1], [0, 1, 0, 1, 0], [0, 0, 1, 0, 1]]),
    (3, [[1, 0, 1, 2], [0, 1, 1, 1]]),
    (3, [[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 1]]),
]


@pytest.mark.parametrize("p, rows", HAND_CODES)
def test_ghw_strategies_agree_with_span_oracle(p, rows):
    field = FieldSpec(p)
    code = LinearCode(field, FieldMatrix(field, rows))
    for r in range(1, code.dimension + 1):
        oracle = ghw_by_span_enumeration(rows, p, r)
        enum = _ghw_enumerate(code, r, 1)
        short = _ghw_shorten(code, r)
        assert enum.value == oracle, (p, rows, r)
        assert short.value == oracle, (p, rows, r)
        # witnesses really span r-dimensional subcodes of that weight
        for result in (enum, short):
            w = FieldMatrix(field, result.witness)
            assert rank(w) == r
            assert support_size(w) == oracle
            stacked = FieldMatrix(field, rows + result.witness)
            assert rank(stacked) == code.dimension


@pytest.mark.parametrize("p, rows", HAND_CODES)
def test_weights_strictly_increase(p, rows):
    field = FieldSpec(p)
    code = LinearCode(field, FieldMatrix(field, rows))
    weights = [
        generalized_hamming_weight(code, r).value
        for r in range(1, code.dimension + 1)
    ]
    assert all(a < b for a, b in zip(weights, weights[1:]))
    assert weights[-1] == support_size(code.generator)


def _per_index_scan(generator, r, start, stop):
    """(best, best_index) from the support of u*G for every basis u."""
    it = SubspaceIterator(generator.rows, r, generator.field)
    best = best_index = None
    for index in range(start, stop):
        weight = support_size(it.matrix_at(index).matmul(generator))
        if best is None or weight < best:
            best, best_index = weight, index
    return best, best_index


def generator_codes(max_k=4, max_n=6):
    def build(p):
        return st.integers(1, max_k).flatmap(
            lambda k: st.integers(k, max_n).flatmap(
                lambda n: st.lists(
                    st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                    min_size=k,
                    max_size=k,
                ).map(lambda rows: FieldMatrix(FieldSpec(p), rows))
            )
        )

    return st.sampled_from([2, 3, 5]).flatmap(build)


@settings(max_examples=60)
@given(generator_codes(), st.data())
def test_support_union_scan_matches_per_index_weights(g, data):
    r = data.draw(st.integers(1, g.rows))
    it = SubspaceIterator(g.rows, r, g.field)
    assert _enum_scan(g, r, 0, it.count) == _per_index_scan(g, r, 0, it.count)
    # the chunks a two-worker scan would get, and a range drawn at random
    start = data.draw(st.integers(0, it.count - 1))
    stop = data.draw(st.integers(start + 1, it.count))
    half = it.count // 2
    for lo, hi in ((0, half), (half, it.count), (start, stop)):
        assert _enum_scan(g, r, lo, hi) == _per_index_scan(g, r, lo, hi)
    if rank(g) == g.rows:
        code = LinearCode(g.field, g)
        best, index = _per_index_scan(g, r, 0, it.count)
        witness = it.matrix_at(index).matmul(g)
        result = _ghw_enumerate(code, r, jobs=1)
        assert result.value == best == support_size(witness)
        assert FieldMatrix(g.field, result.witness) == rref(witness)[0]


def test_support_union_scan_with_two_workers():
    for p, rows in HAND_CODES:
        field = FieldSpec(p)
        code = LinearCode(field, FieldMatrix(field, rows))
        for r in range(1, code.dimension + 1):
            count = SubspaceIterator(code.dimension, r, field).count
            oracle = _per_index_scan(code.generator, r, 0, count)
            single = _ghw_enumerate(code, r, jobs=1)
            double = _ghw_enumerate(code, r, jobs=2)
            assert single == double
            assert single.value == oracle[0]


def test_support_union_scan_on_ranges_that_cut_pivot_combinations():
    # every [start, stop), so every cut through a pivot combination is covered
    for p, rows in HAND_CODES:
        g = FieldMatrix(FieldSpec(p), rows)
        for r in range(1, g.rows + 1):
            count = SubspaceIterator(g.rows, r, g.field).count
            for start in range(count):
                for stop in range(start + 1, count + 1):
                    assert _enum_scan(g, r, start, stop) == _per_index_scan(
                        g, r, start, stop
                    ), (p, rows, r, start, stop)


@st.composite
def codes_with_zero_and_repeated_columns(draw):
    """Full-rank generators over p in {2, 3, 5} with at most 9 columns.

    Up to one zero column and up to two repeated columns, plain or scaled,
    are mixed in at drawn positions; row reduction keeps both kinds.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    k = draw(st.integers(1, 4))
    columns = draw(
        st.lists(st.lists(st.integers(0, p - 1), min_size=k, max_size=k), min_size=1, max_size=6)
    )
    columns += [[0] * k] * draw(st.integers(0, 1))
    for index, scale in draw(st.lists(st.tuples(st.integers(0, 8), st.integers(1, p - 1)), max_size=2)):
        columns.append([scale * x % p for x in columns[index % len(columns)]])
    columns = draw(st.permutations(columns))
    field = FieldSpec(p)
    reduced, rk, _ = rref(FieldMatrix(field, list(zip(*columns))))
    assume(rk > 0)
    return LinearCode(field, FieldMatrix._raw(field, reduced.data[:rk], len(columns)))


@settings(max_examples=400)
@given(codes_with_zero_and_repeated_columns())
def test_shortening_matches_the_descending_column_set_scan(code):
    for r in range(1, code.dimension + 1):
        result = _ghw_shorten(code, r)
        assert (result.value, result.witness) == ghw_by_descending_column_sets(code, r), r
        assert result.strategy == "shorten"


def test_shortening_over_large_fields_matches_the_descending_column_set_scan():
    # the echelon rows' clearing multiples are made on first use; large p
    # leave most of them unmade
    rng = random.Random(37)
    for p in (11, 37, 251):
        field = FieldSpec(p)
        for _ in range(15):
            k = rng.randint(1, 3)
            columns = [[rng.randrange(p) for _ in range(k)] for _ in range(rng.randint(1, 6))]
            columns.append([rng.randrange(1, p) * x % p for x in columns[0]])
            reduced, rk, _ = rref(FieldMatrix(field, list(zip(*columns))))
            if rk == 0:
                continue
            code = LinearCode(field, FieldMatrix._raw(field, reduced.data[:rk], len(columns)))
            for r in range(1, rk + 1):
                result = _ghw_shorten(code, r)
                assert (result.value, result.witness) == ghw_by_descending_column_sets(code, r)


def test_shortening_raises_invariant_errors(monkeypatch):
    code = LinearCode(F2, FieldMatrix(F2, [[1, 0, 1], [0, 1, 1]]))
    monkeypatch.setattr(codes_mod, "_largest_low_rank_columns", lambda g, bound: None)
    with pytest.raises(InvariantError, match="empty"):
        _ghw_shorten(code, 1)
    # the empty set is not the largest one here: its witness, the first
    # generator row, has weight 2, not 3
    monkeypatch.setattr(codes_mod, "_largest_low_rank_columns", lambda g, bound: ())
    with pytest.raises(InvariantError, match="weight 2, expected 3"):
        _ghw_shorten(code, 1)


SORENSEN = [(3, 2, [9, 6, 3, 2]), (2, 3, [8, 4, 2]), (5, 2, [25, 20]), (3, 3, [27, 18])]


@pytest.mark.parametrize("p, n, expected", SORENSEN)
def test_ghw_route_gives_sorensen_minimum_distance(p, n, expected):
    """d_1 of the degree-t code on all of P^n(F_p), 1 <= t <= n(p - 1).

    Writing t - 1 = q(p - 1) + s with 0 <= s < p - 1, Sorensen (1991) gives
    d_1 = (p - s) * p^(n - q - 1).
    """
    field = FieldSpec(p)
    points = ProjectivePointSet(field, n + 1, projective_points(field, n + 1))
    for t, want in enumerate(expected, 1):
        q, s = divmod(t - 1, p - 1)
        assert (p - s) * p ** (n - q - 1) == want
        code = evaluation_code(points, t)
        assert generalized_hamming_weight(code, 1).value == want, t
        if subspace_count(code.dimension, 1, field) <= ENUMERATE_LIMIT:
            # both routes are quick here, and each checks the other
            assert _ghw_enumerate(code, 1, 1).value == _ghw_shorten(code, 1).value == want, t


def test_ghw_argument_validation():
    code = LinearCode(F2, FieldMatrix(F2, [[1, 0, 1], [0, 1, 1]]))
    with pytest.raises(ValueError):
        generalized_hamming_weight(code, 0)
    with pytest.raises(ValueError):
        generalized_hamming_weight(code, 3)


def test_ghw_picks_its_route_from_the_code(monkeypatch):
    # every cell of the golden inputs and of a 12-point set over F_3 keeps
    # the subcode-count rule's route: enumerate up to ENUMERATE_LIMIT,
    # shorten above; wide codes enumerate up to the cap
    monkeypatch.setattr(codes_mod, "_ghw_enumerate", lambda code, r, jobs: "enumerate")
    monkeypatch.setattr(codes_mod, "_ghw_shorten", lambda code, r: "shorten")
    golden = Path(__file__).parent / "golden"
    points = json.loads((golden / "points.json").read_text())
    generator = json.loads((golden / "generator.json").read_text())
    field = FieldSpec(generator["char"])
    cells = [(LinearCode(field, FieldMatrix(field, generator["generator"])), None)]
    for pts, t_max, r_max in (
        (ProjectivePointSet(F3, 3, points["points"]), 4, None),
        (ProjectivePointSet(F3, 3, projective_points(F3, 3)[:12]), 3, 3),
    ):
        cells += [(evaluation_code(pts, t), r_max) for t in range(1, t_max + 1)]
    labels = set()
    for code, r_max in cells:
        for r in range(1, min(code.dimension, r_max or code.dimension) + 1):
            count = subspace_count(code.dimension, r, code.field)
            label = "enumerate" if count <= ENUMERATE_LIMIT else "shorten"
            assert generalized_hamming_weight(code, r) == label, (code.length, code.dimension, r)
            labels.add(label)
    assert labels == {"enumerate", "shorten"}
    # the [40, 10] code of P^3(F_3): 29,524 lines, but C(40, <= 9) column sets;
    # its 72,636,421 planes are past the cap
    p3 = ProjectivePointSet(F3, 4, projective_points(F3, 4))
    wide = evaluation_code(p3, 2)
    assert (wide.length, wide.dimension) == (40, 10)
    assert generalized_hamming_weight(wide, 1) == "enumerate"
    assert subspace_count(10, 2, F3) > codes_mod.ENUMERATE_CAP
    assert generalized_hamming_weight(wide, 2) == "shorten"


def test_ghw_jobs_split_agrees():
    field = FieldSpec(2)
    rows = [[1, 0, 0, 1, 1], [0, 1, 0, 1, 0], [0, 0, 1, 0, 1]]
    code = LinearCode(field, FieldMatrix(field, rows))
    for r in (1, 2):
        single = _ghw_enumerate(code, r, 1)
        multi = _ghw_enumerate(code, r, 3)
        assert single.value == multi.value
        assert single.witness == multi.witness


def test_bridge_hand_case():
    ps = ProjectivePointSet(F2, 2, list(P1_F2["points"]))
    # l = 3 exceeds the dimension of the degree-1 code, so it gets no row
    rows = list(bridge_rows(ps, 1, [1, 2, 3], 1))
    assert rows == [
        {"t": 1, "ell": ell, "delta": w, "ghw": w, "length": 3, "dimension": 2, "agree": True}
        for ell, w in P1_F2["weights"].items()
    ]


def test_bridge_degree_two_on_the_line():
    ps = ProjectivePointSet(F2, 2, list(P1_F2["points"]))
    code = evaluation_code(ps, 2)
    assert (code.length, code.dimension) == (3, 3)
    rows = [row for row in bridge_rows(ps, 2, [1, 2, 3], 1) if row["t"] == 2]
    assert [(row["ell"], row["ghw"]) for row in rows] == [(1, 1), (2, 2), (3, 3)]
    assert all(row["agree"] and row["dimension"] == 3 for row in rows)


def test_bridge_rows_build_each_degree_code_once(monkeypatch):
    built = []
    real = codes_mod.evaluation_code

    def counted(points, t):
        built.append(t)
        return real(points, t)

    monkeypatch.setattr(codes_mod, "evaluation_code", counted)
    ps = ProjectivePointSet(F2, 2, list(P1_F2["points"]))
    rows = list(bridge_rows(ps, 3, [1, 2, 3], 1))
    assert built == [1, 2, 3]
    assert [(row["t"], row["ell"]) for row in rows] == [
        (1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)
    ]


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_plane_point_sets_bridge(seed):
    import random

    rng = random.Random(seed)
    p = rng.choice([2, 3])
    field = FieldSpec(p)
    universe = projective_points(field, 3)
    size = rng.randint(3, 6)
    pts = ProjectivePointSet(field, 3, rng.sample(universe, size))
    t = rng.randint(1, 2)
    code = evaluation_code(pts, t)
    ell = rng.randint(1, min(2, code.dimension))
    (row,) = [row for row in bridge_rows(pts, t, [ell], 1) if row["t"] == t]
    assert row["agree"], (p, pts.points, t, ell)


@pytest.mark.parametrize("name", ["f2-n7-k4", "f3-n8-k5"])
def test_ghw_is_invariant_under_column_permutation_and_scaling(name):
    from gmdkit.suites import bridge_suite

    (case,) = [case for case in bridge_suite(2026) if case.name == name]
    points = case.point_set()
    field = points.field
    rng = random.Random(name)
    for t in (1, 2):
        code = evaluation_code(points, t)
        order = rng.sample(range(code.length), code.length)
        scale = [rng.randrange(1, field.p) for _ in order]
        rows = [[row[j] * c % field.p for j, c in zip(order, scale)] for row in code.generator.data]
        twin = LinearCode(field, FieldMatrix(field, rows))
        for r in range(1, code.dimension + 1):
            expected = generalized_hamming_weight(code, r, jobs=1).value
            assert generalized_hamming_weight(twin, r, jobs=1).value == expected, (t, r)

