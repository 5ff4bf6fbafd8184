import itertools
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gmdkit.gflinalg import (
    FieldMatrix,
    FieldSpec,
    PackedVectors,
    SubspaceIterator,
    gaussian_binomial,
    kernel_basis,
    rank,
    rref,
    subset_ranks_of_words,
    subspace_count,
)

from oracles import naive_rank, naive_rref

SMALL_PRIMES = st.sampled_from([2, 3, 5])


def identity(field, n):
    return FieldMatrix(field, [[int(i == j) for j in range(n)] for i in range(n)])


def matrices(max_rows=4, max_cols=5):
    return SMALL_PRIMES.flatmap(
        lambda p: st.integers(1, max_rows).flatmap(
            lambda r: st.integers(1, max_cols).flatmap(
                lambda c: st.lists(
                    st.lists(st.integers(0, p - 1), min_size=c, max_size=c),
                    min_size=r,
                    max_size=r,
                ).map(lambda rows: FieldMatrix(FieldSpec(p), rows))
            )
        )
    )


def test_field_spec_rejects_non_primes():
    for bad in (0, 1, 4, 6, 9, 253):
        with pytest.raises(ValueError):
            FieldSpec(bad)


def test_field_inverses():
    f = FieldSpec(7)
    for a in range(1, 7):
        assert (a * f.inv(a)) % 7 == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(matrices())
def test_rref_matches_naive(m):
    ours, rk, pivots = rref(m)
    theirs, naive_rk = naive_rref(m.to_lists(), m.field.p)
    assert rk == naive_rk == rank(m)
    assert len(pivots) == rk
    # the reduced echelon form of a matrix is unique; compare nonzero rows
    assert ours.to_lists()[:rk] == [row for row in theirs if any(row)]


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(matrices())
def test_rref_idempotent(m):
    once, rk, _ = rref(m)
    twice, rk2, _ = rref(once)
    assert rk == rk2
    assert once == twice


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(matrices())
def test_kernel_orthogonality_and_nullity(m):
    k = kernel_basis(m)
    assert k.rows == m.cols - rank(m)
    if k.rows:
        prod = m.matmul(k.transpose())
        assert all(all(x == 0 for x in row) for row in prod.to_lists())
        assert rank(k) == k.rows


def test_matrix_shapes_and_immutability():
    f = FieldSpec(3)
    m = FieldMatrix(f, [[1, 2], [0, 1]])
    assert (m.rows, m.cols) == (2, 2)
    with pytest.raises(AttributeError):
        m.data = None
    with pytest.raises(AttributeError):
        m.cols = 5
    with pytest.raises(TypeError):
        m.data[0][0] = 2
    assert m.data == ((1, 2), (0, 1))
    empty = FieldMatrix(f, [])
    assert (empty.rows, empty.cols) == (0, 0)
    assert empty.to_lists() == []
    # entries are reduced mod p, negative ones included
    assert FieldMatrix(f, [[4, -1, 3]]).to_lists() == [[1, 2, 0]]


def test_ragged_rows_and_inner_dimension_mismatch_raise():
    f = FieldSpec(2)
    with pytest.raises(ValueError):
        FieldMatrix(f, [[1, 0], [1]])
    with pytest.raises(ValueError):
        FieldMatrix(f, [[], [1]])
    a = FieldMatrix(f, [[1, 0, 1]])
    with pytest.raises(ValueError):
        a.matmul(FieldMatrix(f, [[1, 0], [0, 1]]))
    with pytest.raises(ValueError):
        a.matmul(FieldMatrix(FieldSpec(3), [[1], [0], [1]]))
    assert a.matmul(FieldMatrix(f, [[1], [1], [1]])).to_lists() == [[0]]


def test_matrix_pickle_round_trip():
    f = FieldSpec(5)
    m = FieldMatrix(f, [[1, 2, 3], [4, 0, 1]])
    again = pickle.loads(pickle.dumps(m))
    assert again == m
    assert hash(again) == hash(m)
    assert again.field.p == 5
    assert (again.rows, again.cols) == (2, 3)
    # a matrix without rows keeps its width through a pickle
    kernel = kernel_basis(identity(f, 3))
    assert (kernel.rows, kernel.cols) == (0, 3)
    again = pickle.loads(pickle.dumps(kernel))
    assert (again.rows, again.cols) == (0, 3)
    with pytest.raises(AttributeError):
        again.data = None


def test_matrix_equality_and_hash():
    f3 = FieldSpec(3)
    m = FieldMatrix(f3, [[1, 2], [0, 1]])
    same = FieldMatrix(f3, [[4, -1], [3, 1]])
    assert m == same and hash(m) == hash(same)
    assert len({m, same}) == 1
    assert m != FieldMatrix(FieldSpec(5), [[1, 2], [0, 1]])
    assert m != FieldMatrix(f3, [[1, 2], [0, 2]])
    assert m != [[1, 2], [0, 1]]
    # equal row data but different widths are different matrices
    assert kernel_basis(identity(f3, 2)) != kernel_basis(identity(f3, 3))
    assert identity(f3, 2).matmul(m) == m
    assert m.transpose().transpose() == m
    assert m.column_submatrix([1]) == FieldMatrix(f3, [[2], [1]])


def _loaded_by_cli_import(module: str) -> bool:
    src = Path(__file__).resolve().parent.parent / "src"
    code = f"import sys, gmdkit.cli; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=src,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip() == "True"


def test_import_keeps_numpy_out():
    assert not _loaded_by_cli_import("numpy")


def test_import_keeps_multiprocessing_out():
    # the process pool is imported only when a scan uses more than one worker
    assert not _loaded_by_cli_import("multiprocessing")


@pytest.mark.parametrize(
    "m,l,p,expected",
    [
        (3, 1, 2, 7),
        (3, 2, 2, 7),
        (4, 2, 2, 35),
        (3, 1, 3, 13),
        (2, 1, 5, 6),
        (3, 3, 2, 1),
        (3, 4, 2, 0),
    ],
)
def test_gaussian_binomial_known_values(m, l, p, expected):
    assert gaussian_binomial(m, l, p) == expected


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(
    st.sampled_from([2, 3]),
    st.integers(1, 4),
    st.integers(1, 3),
)
def test_subspace_enumeration_is_complete_and_canonical(p, m, l):
    f = FieldSpec(p)
    it = SubspaceIterator(m, l, f)
    seen = set()
    for index in range(it.count):
        mat = it.matrix_at(index)
        assert (mat.rows, mat.cols) == (l, m)
        reduced, rk, _ = rref(mat)
        assert rk == l
        assert reduced == mat  # emitted in reduced echelon form
        seen.add(mat)
    assert len(seen) == gaussian_binomial(m, l, p) == subspace_count(m, l, f)


def test_subspace_iterator_indexing_and_split():
    f = FieldSpec(2)
    it = SubspaceIterator(4, 2, f)
    assert it.count == 35
    # pivot combinations in lex order, free entries as base-p counters
    expected = {
        0: [[1, 0, 0, 0], [0, 1, 0, 0]],
        1: [[1, 0, 0, 0], [0, 1, 0, 1]],
        17: [[1, 0, 0, 0], [0, 0, 1, 1]],
        34: [[0, 0, 1, 0], [0, 0, 0, 1]],
    }
    for i, rows in expected.items():
        assert it.matrix_at(i) == FieldMatrix(f, rows)
    for bad in (-1, 35):
        with pytest.raises(IndexError):
            it.matrix_at(bad)
    parts = it.split(4)
    covered = []
    for part in parts:
        covered.extend(range(part.start, part.stop))
        for i in range(part.start, part.stop):
            assert part.matrix_at(i) == it.matrix_at(i)
    assert covered == list(range(35))


def _counter_rows(m, p, pivot, free):
    """Every row with a 1 at pivot and any digits at the free columns, last fastest."""
    out = []
    for digits in itertools.product(range(p), repeat=len(free)):
        row = [0] * m
        row[pivot] = 1
        for j, d in zip(free, digits):
            row[j] = d
        out.append(tuple(row))
    return out


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    st.sampled_from([2, 3]),
    st.integers(0, 4),
    st.integers(0, 3),
    st.data(),
)
def test_pivot_blocks_list_the_range_in_index_order(p, m, l, data):
    f = FieldSpec(p)
    count = SubspaceIterator(m, l, f).count
    start = data.draw(st.integers(0, count))
    stop = data.draw(st.integers(start, count))
    it = SubspaceIterator(m, l, f, start, stop)
    covered = []
    for lo, hi, rows in it.pivot_blocks():
        assert lo < stop and hi > start  # only combinations that overlap
        bases = list(itertools.product(*(_counter_rows(m, p, *row) for row in rows)))
        assert len(bases) == hi - lo
        for index, basis in enumerate(bases, lo):
            assert basis == it.matrix_at(index).data
        covered.extend(range(max(lo, start), min(hi, stop)))
    assert covered == list(range(start, stop))


def vector_families():
    """Vectors over p in {2, 3, 5}, with a zero vector and a repeat mixed in."""

    def build(p):
        return st.integers(0, 4).flatmap(
            lambda width: st.tuples(
                st.just(p),
                st.lists(
                    st.lists(st.integers(0, p - 1), min_size=width, max_size=width),
                    max_size=6,
                ),
                st.booleans(),
                st.booleans(),
            )
        )

    def mix(args):
        p, vectors, zero, repeat = args
        vectors = list(vectors)
        width = len(vectors[0]) if vectors else 0
        if zero:
            vectors.insert(len(vectors) // 2, [0] * width)
        if repeat and vectors:
            vectors.append(list(vectors[0]))
        return p, vectors

    return SMALL_PRIMES.flatmap(build).map(mix)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(vector_families())
def test_subset_ranks_match_rank_of_every_subset(family):
    p, vectors = family
    f = FieldSpec(p)
    packed = PackedVectors(f, len(vectors[0]) if vectors else 0)
    ranks = subset_ranks_of_words(packed, [[packed.pack(v)] for v in vectors])
    assert len(ranks) == 1 << len(vectors)
    for mask in range(len(ranks)):
        rows = [v for i, v in enumerate(vectors) if mask >> i & 1]
        assert ranks[mask] == rank(FieldMatrix(f, rows)), (mask, rows)


def vector_groups(primes=(2, 3, 5, 7)):
    """Groups of vectors of one width, empty groups, zero vectors and repeats mixed in."""

    def build(p):
        return st.integers(0, 5).flatmap(
            lambda width: st.tuples(
                st.just(p),
                st.lists(
                    st.lists(
                        st.lists(st.integers(0, p - 1), min_size=width, max_size=width),
                        max_size=3,
                    ),
                    max_size=5,
                ),
                st.integers(0, 3),
            )
        )

    def mix(args):
        p, groups, extra = args
        groups = [list(g) for g in groups]
        width = next((len(v) for g in groups for v in g), 0)
        flat = [v for g in groups for v in g]
        if extra & 1 and groups:
            groups[-1].append([0] * width)
        if extra & 2 and flat:
            # a repeat of an earlier vector, and a multiple of it in its own group
            groups[0].append(list(flat[-1]))
            groups.append([[(2 * x) % p for x in flat[0]]])
        if extra == 3:
            groups.insert(len(groups) // 2, [])
        return p, groups

    return st.sampled_from(primes).flatmap(build).map(mix)


def grouped_ranks(p, groups):
    width = next((len(v) for g in groups for v in g), 0)
    packed = PackedVectors(FieldSpec(p), width)
    return subset_ranks_of_words(packed, [[packed.pack(v) for v in g] for g in groups])


def assert_grouped_ranks(p, groups):
    f = FieldSpec(p)
    ranks = grouped_ranks(p, groups)
    assert len(ranks) == 1 << len(groups)
    for mask in range(len(ranks)):
        rows = [v for i, g in enumerate(groups) if mask >> i & 1 for v in g]
        width = len(rows[0]) if rows else 0
        assert ranks[mask] == (rank(FieldMatrix(f, rows)) if width else 0), (mask, rows)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(vector_groups())
def test_grouped_subset_ranks_match_rank_of_every_subset(family):
    assert_grouped_ranks(*family)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(vector_groups(primes=(11, 37, 251)))
def test_grouped_subset_ranks_over_large_fields(family):
    assert_grouped_ranks(*family)


def test_grouped_subset_ranks_hold_ranks_past_255():
    p = 2
    width = 300
    identity = [[int(i == j) for j in range(width)] for i in range(width)]
    groups = [identity[:150], identity[150:], identity[100:200]]
    ranks = grouped_ranks(p, groups)
    assert list(ranks) == [0, 150, 150, 300, 100, 200, 200, 300]


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(
    st.sampled_from([2, 3, 5, 7, 37, 251]).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.lists(st.integers(0, p - 1), min_size=1, max_size=6),
            st.integers(0, p - 1),
        )
    )
)
def test_packed_vectors_scale_and_clear(case):
    p, vector, c = case
    packed = PackedVectors(FieldSpec(p), len(vector))
    word = packed.pack(vector)
    scaled = packed.scale(word, c)
    entries = [(scaled >> (packed.width * j)) & packed.mask for j in range(len(vector))]
    assert entries == [c * x % p for x in vector]
    if word:
        offset, clear = packed.echelon_row(word)
        pivot = next(j for j, x in enumerate(vector) if x)
        assert offset == pivot * packed.width
        for f in range(1, p):
            # adding clear[f] to a vector with f at the pivot zeroes it there
            assert (packed.fold(packed.pack([f] * len(vector)) + clear[f]) >> offset) & packed.mask == 0

