"""Exact linear algebra over prime fields F_p.

Matrices are dense numpy int64 arrays with entries reduced mod p.  Everything
here is exact integer arithmetic; no floating point is ever involved.  The
subspace enumerator emits each l-dimensional subspace of F_p^m exactly once,
as the unique reduced row echelon basis matrix, in a fixed global order that
can be partitioned by index range for parallel scans.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvariantError


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A prime field F_p with 2 <= p <= 251."""

    p: int

    def __post_init__(self):
        if not (2 <= self.p <= 251) or not _is_prime(self.p):
            raise ValueError(f"characteristic must be a prime in [2, 251], got {self.p}")

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        # inverses[a] for a in 1..p-1; index 0 unused
        return tuple(pow(a, self.p - 2, self.p) if a else 0 for a in range(self.p))

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.inverses[a]

    def neg(self, a: int) -> int:
        return (-a) % self.p


class FieldMatrix:
    """Immutable matrix over a prime field."""

    __slots__ = ("field", "data")

    def __init__(self, field: FieldSpec, data):
        arr = np.array(data, dtype=np.int64)
        if arr.ndim != 2:
            arr = arr.reshape(1, -1) if arr.size else arr.reshape(0, 0)
        arr %= field.p
        arr.flags.writeable = False
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("FieldMatrix is immutable")

    def __getstate__(self):
        return (self.field, self.data.shape, self.data.flatten().tolist())

    def __setstate__(self, state):
        field, shape, flat = state
        arr = np.array(flat, dtype=np.int64).reshape(shape)
        arr.flags.writeable = False
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "data", arr)

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "FieldMatrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "FieldMatrix":
        return cls(field, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self.data[i])

    def to_lists(self) -> list[list[int]]:
        return [[int(x) for x in row] for row in self.data]

    def matmul(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.field.p != other.field.p:
            raise ValueError("field mismatch")
        return FieldMatrix(self.field, (self.data @ other.data) % self.field.p)

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(self.field, self.data.T)

    def column_submatrix(self, cols) -> "FieldMatrix":
        return FieldMatrix(self.field, self.data[:, list(cols)])

    def __eq__(self, other):
        return (
            isinstance(other, FieldMatrix)
            and self.field.p == other.field.p
            and self.data.shape == other.data.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self):
        return hash((self.field.p, self.data.shape, self.data.tobytes()))

    def __repr__(self):
        return f"FieldMatrix(p={self.field.p}, {self.data.tolist()})"


def rref(matrix: FieldMatrix) -> tuple[FieldMatrix, int, tuple[int, ...]]:
    """Reduced row echelon form.

    Returns (R, rank, pivot_columns).  Pivot entries are 1, pivot columns are
    cleared above and below, and the pivot columns are strictly increasing.
    """
    p = matrix.field.p
    a = matrix.data.copy()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hit = None
        for i in range(r, rows):
            if a[i, c] % p:
                hit = i
                break
        if hit is None:
            continue
        if hit != r:
            a[[r, hit]] = a[[hit, r]]
        a[r] = (a[r] * matrix.field.inv(int(a[r, c]))) % p
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        pivots.append(c)
        r += 1
    return FieldMatrix(matrix.field, a), r, tuple(pivots)


def rank(matrix: FieldMatrix) -> int:
    return rref(matrix)[1]


def kernel_basis(matrix: FieldMatrix) -> FieldMatrix:
    """Basis of the right null space {v : M v = 0}, one vector per row.

    The rows are indexed by the free columns of the RREF in increasing order,
    so the result is deterministic.  A full-rank square matrix yields a
    0-row matrix.
    """
    p = matrix.field.p
    reduced, rk, pivots = rref(matrix)
    cols = matrix.cols
    free = [c for c in range(cols) if c not in set(pivots)]
    out = np.zeros((len(free), cols), dtype=np.int64)
    for k, f in enumerate(free):
        out[k, f] = 1
        for i, c in enumerate(pivots):
            out[k, c] = (-int(reduced.data[i, f])) % p
    return FieldMatrix(matrix.field, out)


def gaussian_binomial(m: int, l: int, p: int) -> int:
    """Number of l-dimensional subspaces of F_p^m, exact."""
    if l < 0 or l > m:
        return 0
    num = 1
    den = 1
    for i in range(l):
        num *= p ** (m - i) - 1
        den *= p ** (l - i) - 1
    if num % den:
        raise InvariantError(f"Gaussian binomial [{m} choose {l}]_{p} is not an integer")
    return num // den


class SubspaceIterator:
    """Canonical enumeration of l-dimensional subspaces of F_p^m.

    Subspaces are emitted as l x m RREF matrices without zero rows.  The
    global order is: pivot-column combinations in lexicographic order, and
    within a combination the free entries run through base-p counters over
    the free positions in row-major order.  ``split`` partitions the index
    range into contiguous chunks so scans parallelize without changing the
    overall order.
    """

    def __init__(self, m: int, l: int, field: FieldSpec, start: int = 0, stop: int | None = None):
        if m < 0 or l < 0:
            raise ValueError("dimensions must be non-negative")
        self.m = m
        self.l = l
        self.field = field
        self._combos = list(itertools.combinations(range(m), l)) if l <= m else []
        self._free_counts = []
        self._cum = [0]
        p = field.p
        for combo in self._combos:
            pivot_set = set(combo)
            nf = sum(
                1
                for i in range(l)
                for j in range(m)
                if j > combo[i] and j not in pivot_set
            )
            self._free_counts.append(nf)
            self._cum.append(self._cum[-1] + p**nf)
        self.count = self._cum[-1]
        self.start = start
        self.stop = self.count if stop is None else stop
        if not (0 <= self.start <= self.stop <= self.count):
            raise ValueError("invalid index range")

    def matrix_at(self, index: int) -> FieldMatrix:
        if not (0 <= index < self.count):
            raise IndexError(index)
        b = bisect_right(self._cum, index) - 1
        combo = self._combos[b]
        offset = index - self._cum[b]
        p = self.field.p
        pivot_set = set(combo)
        free_positions = [
            (i, j)
            for i in range(self.l)
            for j in range(self.m)
            if j > combo[i] and j not in pivot_set
        ]
        nf = len(free_positions)
        mat = np.zeros((self.l, self.m), dtype=np.int64)
        for i, c in enumerate(combo):
            mat[i, c] = 1
        for idx, (i, j) in enumerate(free_positions):
            mat[i, j] = (offset // p ** (nf - 1 - idx)) % p
        return FieldMatrix(self.field, mat)

    def split(self, parts: int) -> list["SubspaceIterator"]:
        if parts < 1:
            raise ValueError("parts must be positive")
        total = self.stop - self.start
        out = []
        base = total // parts
        extra = total % parts
        pos = self.start
        for k in range(parts):
            size = base + (1 if k < extra else 0)
            out.append(SubspaceIterator(self.m, self.l, self.field, pos, pos + size))
            pos += size
        return out

    def __iter__(self):
        for index in range(self.start, self.stop):
            yield self.matrix_at(index)

    def __len__(self):
        return self.stop - self.start


def _run_task(task):
    return task[0](*task[1:])


def scan_in_chunks(it: SubspaceIterator, jobs: int, scan, args: tuple) -> list:
    """Results of ``scan(*args, start, stop)`` over contiguous chunks of ``it``.

    The worker count is clamped to min(jobs, cpu count, subspace count)
    before the range is split or any process starts, so every chunk is
    nonempty.  Results come back in index order; with one worker the
    chunk runs in this process.
    """
    workers = max(1, min(jobs, os.cpu_count() or 1, len(it)))
    tasks = [(scan, *args, c.start, c.stop) for c in it.split(workers)]
    if workers == 1:
        return [_run_task(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_task, tasks))


def enumerate_subspaces(m: int, l: int, field: FieldSpec) -> SubspaceIterator:
    """All l-dimensional subspaces of F_p^m; empty stream when l > m."""
    return SubspaceIterator(m, l, field)


def subspace_count(m: int, l: int, field: FieldSpec) -> int:
    return gaussian_binomial(m, l, field.p)
