"""Exact linear algebra over prime fields F_p.

Matrices are tuples of row tuples of Python ints reduced mod p.  Everything
here is exact integer arithmetic; no floating point is ever involved.  The
subspace enumerator emits each l-dimensional subspace of F_p^m exactly once,
as the unique reduced row echelon basis matrix, in a fixed global order that
can be partitioned by index range for parallel scans.
"""

from __future__ import annotations

import itertools
import operator
import os
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

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


class FieldMatrix:
    """Immutable matrix over a prime field, stored as a tuple of row tuples.

    Entries are reduced mod p on construction.  ``data`` holds the rows;
    ``cols`` is kept separately so 0 x n matrices keep their width.
    """

    __slots__ = ("field", "data", "cols")

    def __init__(self, field: FieldSpec, data):
        p = field.p
        rows = tuple(tuple(x % p for x in row) for row in data)
        widths = {len(row) for row in rows}
        if len(widths) > 1:
            raise ValueError(f"ragged rows: lengths {sorted(widths)}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "data", rows)
        object.__setattr__(self, "cols", widths.pop() if widths else 0)

    @classmethod
    def _raw(cls, field: FieldSpec, rows: tuple, cols: int) -> "FieldMatrix":
        """Wrap rows that are already reduced tuples of one width ``cols``."""
        out = object.__new__(cls)
        object.__setattr__(out, "field", field)
        object.__setattr__(out, "data", rows)
        object.__setattr__(out, "cols", cols)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("FieldMatrix is immutable")

    def __getstate__(self):
        return (self.field, self.data, self.cols)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    @property
    def rows(self) -> int:
        return len(self.data)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.data]

    def matmul(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.field.p != other.field.p:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}"
            )
        p = self.field.p
        columns = other.transpose().data
        rows = tuple(
            tuple(sum(map(operator.mul, row, col)) % p for col in columns)
            for row in self.data
        )
        return FieldMatrix._raw(self.field, rows, other.cols)

    def transpose(self) -> "FieldMatrix":
        rows = tuple(zip(*self.data)) or ((),) * self.cols
        return FieldMatrix._raw(self.field, rows, self.rows)

    def column_submatrix(self, cols) -> "FieldMatrix":
        cols = tuple(cols)
        rows = tuple(tuple(row[j] for j in cols) for row in self.data)
        return FieldMatrix._raw(self.field, rows, len(cols))

    def __eq__(self, other):
        return (
            isinstance(other, FieldMatrix)
            and self.field.p == other.field.p
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field.p, self.cols, self.data))

    def __repr__(self):
        return f"FieldMatrix(p={self.field.p}, {self.to_lists()})"


def rref(matrix: FieldMatrix) -> tuple[FieldMatrix, int, tuple[int, ...]]:
    """Reduced row echelon form.

    Returns (R, rank, pivot_columns).  Pivot entries are 1, pivot columns are
    cleared above and below, and the pivot columns are strictly increasing.
    """
    field = matrix.field
    p = field.p
    inverses = field.inverses
    a = [list(row) for row in matrix.data]
    nrows = len(a)
    pivots = []
    r = 0
    for c in range(matrix.cols):
        if r == nrows:
            break
        hit = next((i for i in range(r, nrows) if a[i][c]), None)
        if hit is None:
            continue
        if hit != r:
            a[r], a[hit] = a[hit], a[r]
        top = a[r]
        lead = top[c]
        if lead != 1:
            inv = inverses[lead]
            top = a[r] = [x * inv % p for x in top]
        # the pivot row is zero left of c, so only the tails change
        tail = top[c:]
        for i, row in enumerate(a):
            factor = row[c]
            if factor and i != r:
                row[c:] = [(x - factor * y) % p for x, y in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
    return FieldMatrix._raw(field, tuple(map(tuple, a)), matrix.cols), r, tuple(pivots)


def rank(matrix: FieldMatrix) -> int:
    return rref(matrix)[1]


class PackedVectors:
    """Vectors over F_p of one length packed into ints, for cheap sums.

    Entry j takes bits [b*j, b*j + b) with b = bit_length(p) + 1, so the sum
    of two packed vectors is one integer addition: its entries stay below
    2p - 1, which fits in b bits.  Adding 2^(b-1) - p to every entry sets
    the top bit of exactly the entries that reached p, and ``fold``
    subtracts p there.  Adding 2^(b-1) - 1 to every entry sets the top bit
    of exactly the nonzero entries, and ``support`` keeps those bits: an OR
    of supports is the support of a span, its bit count the weight.  The
    zero vector packs to 0.
    """

    __slots__ = ("field", "p", "shift", "width", "mask", "tops", "reach_p", "nonzero")

    def __init__(self, field: FieldSpec, length: int):
        p = field.p
        self.field = field
        self.p = p
        self.shift = p.bit_length()
        self.width = self.shift + 1
        self.mask = (1 << self.width) - 1
        ones = sum(1 << (self.width * j) for j in range(length))
        self.tops = ones << self.shift
        self.reach_p = ((1 << self.shift) - p) * ones
        self.nonzero = ((1 << self.shift) - 1) * ones

    def pack(self, vector) -> int:
        p = self.p
        return sum((x % p) << (self.width * j) for j, x in enumerate(vector))

    def fold(self, word: int) -> int:
        """The sum of two packed vectors, reduced mod p."""
        return word - (((word + self.reach_p) & self.tops) >> self.shift) * self.p

    def support(self, word: int) -> int:
        return (word + self.nonzero) & self.tops

    def scale(self, word: int, c: int) -> int:
        """c times a packed vector, by doubling and adding."""
        out = 0
        while c:
            if c & 1:
                out = self.fold(out + word)
            c >>= 1
            if c:
                word = self.fold(word + word)
        return out

    def echelon_row(self, word: int) -> tuple[int, object]:
        """(offset, clear) for a nonzero packed vector.

        ``offset`` is the bit offset of its first nonzero entry, the pivot.
        ``clear[f]`` is the multiple of the vector whose addition turns a
        pivot entry f into 0, so a reduction step is
        ``fold(v + clear[(v >> offset) & mask])`` for a nonzero entry.
        Each multiple is made on first use, so a row costs no p - 2
        additions up front.
        """
        low = self.support(word)
        offset = (low & -low).bit_length() - 1 - self.shift
        inv = self.field.inverses[(word >> offset) & self.mask]
        return offset, _Clearing(self, word, inv)

    def reduce(self, word: int, rows) -> int:
        """The word with the pivot entry of each echelon row cleared, in order."""
        mask = self.mask
        fold = self.fold
        for offset, clear in rows:
            f = (word >> offset) & mask
            if f:
                word = fold(word + clear[f])
        return word

    def echelon(self, words, rows=None) -> list:
        """Echelon rows (``echelon_row``) spanning the packed vectors.

        Given ``rows``, the rows of the words it does not span are appended
        to it.
        """
        if rows is None:
            rows = []
        for word in words:
            word = self.reduce(word, rows)
            if word:
                rows.append(self.echelon_row(word))
        return rows


class _Clearing(dict):
    """``echelon_row``'s clearing multiples, each made on first use."""

    __slots__ = ("packed", "word", "inv")

    def __init__(self, packed: PackedVectors, word: int, inv: int):
        super().__init__()
        self.packed = packed
        self.word = word
        self.inv = inv

    def __missing__(self, f: int) -> int:
        p = self.packed.p
        out = self[f] = self.packed.scale(self.word, (p - f) * self.inv % p)
        return out


def subset_ranks_of_words(packed: PackedVectors, groups):
    """Rank of the union of every subset of groups of packed vectors, by bitmask.

    Entry ``mask`` is the rank of the vectors of the groups whose index
    bit is set in ``mask``; a group may be empty.  The table is an
    ``array`` of unsigned ints.

    Subsets are walked depth-first, each one adding a group of higher
    index than its parent's, so only that group is reduced, against the
    parent's echelon rows (``PackedVectors.echelon_row``); the stack holds
    the rows of every level.  A subset that adds the last group has no
    children: its last vector only needs a zero test, not an echelon row.
    Once the rows span all the vectors do, every extension keeps that rank
    and its subtree is filled without elimination.
    """
    reduce = packed.reduce
    echelon_row = packed.echelon_row
    words = [[w for w in group if w] for group in groups]
    a = len(words)
    top = len(packed.echelon(w for group in words for w in group))
    ranks = array("B" if top < 256 else "I", [0]) * (1 << a)
    basis: list = []

    def walk(mask: int, first: int):
        r = len(basis)
        if r == top:
            ranks[mask :: 1 << first] = array(ranks.typecode, [r]) * (1 << (a - first))
            return
        for i in range(first, a):
            group = words[i]
            # a leaf's last vector is only tested for zero
            last = len(group) - 1 if i == a - 1 else -1
            added = 0
            for k, v in enumerate(group):
                v = reduce(v, basis)
                if v:
                    added += 1
                    if k != last:
                        basis.append(echelon_row(v))
            child = mask | 1 << i
            ranks[child] = r + added
            if i < a - 1:
                walk(child, i + 1)
            del basis[r:]

    walk(0, 0)
    return ranks


def kernel_basis(matrix: FieldMatrix) -> FieldMatrix:
    """Basis of the right null space {v : M v = 0}, one vector per row.

    The rows are indexed by the free columns of the RREF in increasing order,
    so the result is deterministic.  A full-rank square matrix yields a
    0-row matrix.
    """
    p = matrix.field.p
    reduced, rk, pivots = rref(matrix)
    cols = matrix.cols
    pivot_set = set(pivots)
    out = []
    for f in range(cols):
        if f in pivot_set:
            continue
        vec = [0] * cols
        vec[f] = 1
        for i, c in enumerate(pivots):
            vec[c] = -reduced.data[i][f] % p
        out.append(tuple(vec))
    return FieldMatrix._raw(matrix.field, tuple(out), cols)


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
        # free (row, column) positions of each pivot combination, row-major
        self._free = []
        self._cum = [0]
        for combo in self._combos:
            pivot_set = set(combo)
            free = [
                (i, j)
                for i in range(l)
                for j in range(combo[i] + 1, m)
                if j not in pivot_set
            ]
            self._free.append(free)
            self._cum.append(self._cum[-1] + field.p ** len(free))
        self.count = self._cum[-1]
        self.start = start
        self.stop = self.count if stop is None else stop
        if not (0 <= self.start <= self.stop <= self.count):
            raise ValueError("invalid index range")

    def matrix_at(self, index: int) -> FieldMatrix:
        if not (0 <= index < self.count):
            raise IndexError(index)
        b = bisect_right(self._cum, index) - 1
        offset = index - self._cum[b]
        p = self.field.p
        rows = [[0] * self.m for _ in range(self.l)]
        for i, c in enumerate(self._combos[b]):
            rows[i][c] = 1
        # base-p digits of the offset, most significant at the first free position
        for i, j in reversed(self._free[b]):
            offset, rows[i][j] = divmod(offset, p)
        return FieldMatrix._raw(self.field, tuple(map(tuple, rows)), self.m)

    def pivot_blocks(self):
        """The pivot combinations overlapping [start, stop), in index order.

        Yields ``(lo, hi, rows)`` per combination: its subspaces have the
        indices lo..hi-1.  ``rows[i]`` is ``(pivot, free)``: basis row i has
        a 1 at column ``pivot`` and runs through a base-p counter over its
        ``free`` columns, the last one fastest.  The product of the rows'
        counters, row 0 outermost, lists the bases in index order.
        """
        if self.start >= self.stop:
            return
        b = bisect_right(self._cum, self.start) - 1
        while b < len(self._combos) and self._cum[b] < self.stop:
            rows = [
                (c, [j for k, j in self._free[b] if k == i])
                for i, c in enumerate(self._combos[b])
            ]
            yield self._cum[b], self._cum[b + 1], rows
            b += 1

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
    # imported here so that a single-worker run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_task, tasks))


def subspace_count(m: int, l: int, field: FieldSpec) -> int:
    return gaussian_binomial(m, l, field.p)
