"""Independent oracles and frozen expected values.

Everything here recomputes quantities along routes that share no code with
the package internals: textbook row reduction on Python lists, Hilbert
functions by spanning monomial multiples, weights by enumerating full
subcode spans, shellings validated step by step against the definition.
Two oracles are exceptions.  The regularity-index oracle is the case
analysis the package used before its single top-prime rule, kept as the
reference that rule is compared with; it reads the package's distance
table and degree scan.  The descending column-set scan is the package's
shortening before its branch and bound, on the package's matrices.  The
unpruned brute scan is the package's subspace scan before its row bound,
on the package's annihilator test and quotient multiplicity.  The tuple
Buchberger is the package's Groebner engine before packed monomials, on
exponent tuples and the package's order keys.  The family route is the
package's prime-family dimensions before its rank tables, on the package's
intersection and Hilbert series.
"""

from __future__ import annotations

import itertools

# ---------------------------------------------------------------------------
# naive exact linear algebra on plain lists


def naive_rref(rows, p):
    """Row reduce a list-of-lists matrix over F_p; returns (rref, rank)."""
    mat = [[x % p for x in row] for row in rows]
    if not mat:
        return [], 0
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        pivot = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        inv = pow(mat[pivot_row][col], p - 2, p)
        mat[pivot_row] = [(x * inv) % p for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] % p:
                c = mat[r][col]
                mat[r] = [(a - c * b) % p for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return mat, pivot_row


def naive_rank(rows, p):
    return naive_rref(rows, p)[1]


# ---------------------------------------------------------------------------
# Hilbert function by spanning multiples (no Groebner bases anywhere)


def monomials_of_degree(n, t):
    if t < 0:
        return []
    out = []
    for bars in itertools.combinations(range(t + n - 1), n - 1):
        prev = -1
        e = []
        for b in bars:
            e.append(b - prev - 1)
            prev = b
        e.append(t + n - 2 - prev)
        out.append(tuple(e))
    return out


def minimal_monomial_generators_by_pairs(exponents):
    """Sorted minimal generators of a monomial ideal: every exponent is
    tested against every other one, with no order assumed."""
    unique = sorted(set(exponents))

    def divides(f, e):
        return all(a <= b for a, b in zip(f, e))

    return tuple(e for e in unique if not any(divides(f, e) for f in unique if f != e))


def hilbert_function_by_spans(generators, n, p, t):
    """dim of degree-t piece of S/I from generator multiples.

    ``generators`` is a list of {exponent tuple: coefficient} maps of
    homogeneous polynomials.
    """
    cols = monomials_of_degree(n, t)
    col_index = {m: j for j, m in enumerate(cols)}
    rows = []
    for g in generators:
        if not g:
            continue
        d = sum(next(iter(g)))
        if d > t:
            continue
        for m in monomials_of_degree(n, t - d):
            row = [0] * len(cols)
            for e, c in g.items():
                prod = tuple(a + b for a, b in zip(m, e))
                row[col_index[prod]] = c % p
            rows.append(row)
    return len(cols) - naive_rank(rows, p)


def multiplicity_by_differences(generators, n, p, probe_from=8, width=4):
    """(dim, multiplicity) from finite differences of the Hilbert function.

    For t large the function is a polynomial of degree dim-1 with leading
    coefficient multiplicity/(dim-1)!; repeated differencing reads both off.
    """
    values = [
        hilbert_function_by_spans(generators, n, p, t)
        for t in range(probe_from, probe_from + width + n + 1)
    ]
    level = 0
    while len(set(values)) > 1:
        values = [b - a for a, b in zip(values, values[1:])]
        level += 1
        if not values:
            raise AssertionError("difference table exhausted; raise probe_from")
    constant = values[0]
    if constant == 0:
        raise AssertionError("Hilbert polynomial is zero at the probe; raise probe_from")
    return level + 1, constant


# ---------------------------------------------------------------------------
# generalized Hamming weights by full span enumeration


def all_codewords(generator, p):
    k = len(generator)
    n = len(generator[0])
    words = []
    for combo in itertools.product(range(p), repeat=k):
        word = [0] * n
        for c, row in zip(combo, generator):
            if c:
                for j, x in enumerate(row):
                    word[j] = (word[j] + c * x) % p
        words.append(tuple(word))
    return words


def ghw_by_span_enumeration(generator, p, r):
    """Minimum support over r-dimensional subcodes, from scratch.

    Scans r-subsets of nonzero codewords, keeps the independent ones, and
    takes the union of supports (the support of a span is the union of the
    supports of any basis).
    """
    nonzero = [w for w in all_codewords(generator, p) if any(w)]
    best = None
    for subset in itertools.combinations(nonzero, r):
        if naive_rank([list(w) for w in subset], p) != r:
            continue
        support = set()
        for w in subset:
            support.update(j for j, x in enumerate(w) if x)
        if best is None or len(support) < best:
            best = len(support)
    return best


def ghw_by_descending_column_sets(code, r):
    """(value, witness) of the r-th weight by the descending column-set scan.

    The package's shortening before its branch and bound, kept as the
    reference that search is compared with: the first column set Z, by
    descending size and then in ``combinations`` order, whose restriction
    has rank at most k - r gives the weight N - |Z|, and r left-kernel
    vectors of that restriction give the witness.
    """
    from gmdkit.gflinalg import FieldMatrix, kernel_basis, rank, rref

    g = code.generator
    n = code.length
    k = code.dimension
    for size in range(n, -1, -1):
        for zset in itertools.combinations(range(n), size):
            sub = g.column_submatrix(zset)
            if rank(sub) <= k - r:
                left = kernel_basis(sub.transpose())
                u = FieldMatrix._raw(code.field, left.data[:r], k)
                return n - size, rref(u.matmul(g))[0].to_lists()
    raise AssertionError("the empty column set always qualifies")


# ---------------------------------------------------------------------------
# brute-force distance without the row bound


def _unpruned_scan(profile, t, ell, convention, ann_mode, basis_monomials, start, stop):
    from gmdkit.gflinalg import SubspaceIterator
    from gmdkit.gmd import _quotient_multiplicity, ann_nonzero, subspace_to_polys

    it = SubspaceIterator(len(basis_monomials), ell, profile.ring.field, start, stop)
    best = None
    best_index = None
    for index in range(start, stop):
        polys = subspace_to_polys(profile, basis_monomials, it.matrix_at(index))
        if not ann_nonzero(profile, polys, ann_mode):
            continue
        value = _quotient_multiplicity(profile, polys, convention)
        if best is None or value > best:
            best = value
            best_index = index
    return best, best_index


def delta_bruteforce_unpruned(query, jobs=1, ann_mode="auto"):
    """``delta_bruteforce`` as it was before the row bound: every subspace
    of every chunk gets its annihilator test and, when it qualifies, its
    Groebner extension.  The reference the branch and bound is compared
    with, value, status and witness alike.
    """
    from gmdkit.gflinalg import SubspaceIterator, scan_in_chunks, subspace_count
    from gmdkit.gmd import DeltaResult
    from gmdkit.hilbert import graded_piece_of_quotient
    from gmdkit.polyring import monomial_to_str

    profile = query.profile
    e_total = profile.multiplicity
    basis_monomials = tuple(graded_piece_of_quotient(profile.ideal, query.t))
    m = len(basis_monomials)
    field = profile.ring.field
    empty = DeltaResult(e_total, query.t, query.ell, query.convention, "brute", "empty", None)
    if query.ell > m:
        return empty
    partials = scan_in_chunks(
        SubspaceIterator(m, query.ell, field),
        jobs,
        _unpruned_scan,
        (profile, query.t, query.ell, query.convention, ann_mode, basis_monomials),
    )
    best = None
    best_index = None
    for value, index in partials:
        if value is None:
            continue
        if best is None or value > best or (value == best and index < best_index):
            best = value
            best_index = index
    if best is None:
        return empty
    witness = {
        "subspace_index": best_index,
        "matrix": SubspaceIterator(m, query.ell, field).matrix_at(best_index).to_lists(),
        "basis_monomials": [monomial_to_str(profile.ring, mo) for mo in basis_monomials],
        "quotient_multiplicity": best,
        "searched": subspace_count(m, query.ell, field),
    }
    return DeltaResult(
        e_total - best, query.t, query.ell, query.convention, "brute", "ok", witness
    )


# ---------------------------------------------------------------------------
# prime-subset families by elimination-order intersection


def family_ideal_by_intersection(profile, indices, chains):
    """The family ideal of the primes in ``indices``, as a chain of
    ``groebner.intersect`` over them in index order.  ``chains`` memoises
    every prefix, so a depth-first caller intersects once per subset.
    """
    from gmdkit.groebner import intersect

    key = tuple(indices)
    hit = chains.get(key)
    if hit is None:
        prime = profile.primes[key[-1]].ideal
        hit = prime if len(key) == 1 else intersect(
            family_ideal_by_intersection(profile, key[:-1], chains), prime
        )
        chains[key] = hit
    return hit


def family_dims_by_intersection(profile, indices, degrees, chains=None):
    """The family route before rank tables: ({t: HF_I(t) - HF_J(t)}, the
    ``hf_poly_from`` of S/J) for the family J of a nonempty prime subset.
    """
    from gmdkit.hilbert import hilbert_data, hilbert_function

    ideal = family_ideal_by_intersection(profile, indices, {} if chains is None else chains)
    dims = {t: hilbert_function(profile.ideal, t) - hilbert_function(ideal, t) for t in degrees}
    return dims, hilbert_data(ideal).hf_poly_from


# ---------------------------------------------------------------------------
# Buchberger on exponent tuples


def reduce_by_tuples(terms, reducers, order, p):
    """Full normal form of {exponent tuple: coefficient} against
    (leading exponent, inverse leading coefficient, terms) reducers, each
    term reduced by the first reducer whose leading exponent divides it."""
    from gmdkit.polyring import monomial_div, monomial_divides, monomial_mul

    work = dict(terms)
    out = {}
    key = order.keys.__getitem__
    while work:
        mu = max(work, key=key)
        c = work.pop(mu)
        hit = None
        for reducer in reducers:
            if monomial_divides(reducer[0], mu):
                hit = reducer
                break
        if hit is None:
            out[mu] = c
            continue
        lt, lc_inv, gterms = hit
        shift = monomial_div(mu, lt)
        factor = (c * lc_inv) % p
        for e, a in gterms.items():
            if e == lt:
                continue
            tgt = monomial_mul(e, shift)
            v = (work.get(tgt, 0) - factor * a) % p
            if v:
                work[tgt] = v
            elif tgt in work:
                del work[tgt]
    return out


def buchberger_by_tuples(generators, order, groebner_prefix=0):
    """``groebner.buchberger`` as it was before packed monomials: the same
    pair heap, criteria, first-divisor reduction and interreduction on
    exponent tuples compared through ``order.keys``."""
    import heapq

    from gmdkit.polyring import (
        Polynomial,
        monomial_div,
        monomial_divides,
        monomial_lcm,
        monomial_mul,
    )

    basis = [g.monic(order) for g in generators if not g.is_zero()]
    if not basis:
        return []
    ring = basis[0].ring
    p = ring.field.p
    keys = order.keys
    lts = [g.leading(order)[0] for g in basis]
    reducers = [(lt, 1, g.terms) for lt, g in zip(lts, basis)]
    pending = set()
    heap = []

    def add_pair(i, j):
        pending.add((i, j))
        heapq.heappush(heap, (keys[monomial_lcm(lts[i], lts[j])], i, j))

    for j in range(groebner_prefix, len(basis)):
        for i in range(j):
            add_pair(i, j)
    while heap:
        _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        lt_i, lt_j = lts[i], lts[j]
        lcm = monomial_lcm(lt_i, lt_j)
        # coprime leading terms: S-polynomial reduces to zero
        if lcm == monomial_mul(lt_i, lt_j):
            continue
        # chain criterion
        if any(
            monomial_divides(lts[k], lcm)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k in range(len(basis))
            if k not in (i, j)
        ):
            continue
        s = basis[i].term_mul(monomial_div(lcm, lt_i), 1) - basis[j].term_mul(
            monomial_div(lcm, lt_j), 1
        )
        reduced = reduce_by_tuples(s.terms, reducers, order, p)
        if not reduced:
            continue
        h = Polynomial._raw(ring, reduced).monic(order)
        lt = h.leading(order)[0]
        basis.append(h)
        lts.append(lt)
        reducers.append((lt, 1, h.terms))
        for m in range(len(basis) - 1):
            add_pair(m, len(basis) - 1)
    # interreduce: minimal leading terms, each element reduced by the others
    ordered = sorted(zip(lts, basis), key=lambda pair: keys[pair[0]])
    kept = []
    for lt, g in ordered:
        if not any(monomial_divides(k_lt, lt) for k_lt, _ in kept):
            kept.append((lt, g))
    out = []
    for idx, (lt, g) in enumerate(kept):
        others = [(k_lt, 1, k_g.terms) for k_lt, k_g in kept[:idx] + kept[idx + 1 :]]
        if others:
            g = Polynomial._raw(ring, reduce_by_tuples(g.terms, others, order, p))
        out.append((lt, g))
    out.sort(key=lambda pair: keys[pair[0]], reverse=True)
    return [g for _, g in out]


# ---------------------------------------------------------------------------
# shelling order verification straight from the definition


def is_valid_shelling(facets, order):
    """Check that the given facet order is a shelling.

    Each facet after the first must meet the union of the earlier ones in a
    nonempty union of its codimension-one faces.
    """
    facets = [frozenset(f) for f in facets]
    if sorted(order) != list(range(len(facets))):
        return False
    for k in range(1, len(order)):
        fk = facets[order[k]]
        earlier = [facets[order[j]] for j in range(k)]
        if len(fk) == 1:
            continue
        covered = [
            fk - {v}
            for v in fk
            if any(fk - {v} <= g for g in earlier)
        ]
        if not covered:
            return False
        for g in earlier:
            meet = fk & g
            if not any(meet <= c for c in covered):
                return False
    return True


# ---------------------------------------------------------------------------
# regularity index by the four-branch case analysis


def regularity_by_cases(profile, ell):
    """(value, method, stable value) of the regularity index, by cases.

    Domains are constant.  With a low prime of dimension >= 2 the index is
    the first degree at which the intersection of the top primes holds l
    dimensions; on unmixed rings of dimension >= 2 it is the least such
    degree over the complements of one prime of least multiplicity.
    Otherwise the fast distance table is walked up to the limit, capped by
    the largest degree at which any prime-subset family first holds l
    dimensions.  Certified profiles only.
    """
    from gmdkit.gmd import GmdQuery, _first_degree_reaching, delta_fast, stabilization_value

    cls = profile.classification
    if cls == "domain":
        return 1, "constant", profile.multiplicity
    s = stabilization_value(profile, ell).value

    def first(indices):
        t = _first_degree_reaching(profile, profile.intersect_family(indices), ell)
        if t is None:
            raise AssertionError(f"family {indices} never reaches l={ell}")
        return t

    a = len(profile.primes)
    if cls == "mixed_low_dim_ge2":
        return first(profile.top_indices()), "closed-form-mixed", s
    if cls == "unmixed_dim_ge2":
        e_min = min(p.mult for p in profile.primes)
        best = min(
            first([j for j in range(a) if j != i])
            for i in range(a)
            if profile.primes[i].mult == e_min
        )
        return best, "closed-form-unmixed", s
    cap = 1
    for mask in range(1, 1 << a):
        indices = tuple(i for i in range(a) if mask & (1 << i))
        t = _first_degree_reaching(profile, profile.intersect_family(indices), ell)
        if t is not None:
            cap = max(cap, t)
    for t in range(1, cap + 1):
        if delta_fast(GmdQuery(profile, t, ell, method="fast")).value == s:
            return t, "iteration", s
    raise AssertionError("the distance never met its limit within the reach certificate")


# ---------------------------------------------------------------------------
# frozen expected values, worked out by hand before implementation

# F_2[x,y,z] / (x^3 + y^2 z, x y + z^2) with three certified minimal primes
EXAMPLE1 = {
    "char": 2,
    "vars": ("x", "y", "z"),
    "gens": ("x^3+y^2*z", "x*y+z^2"),
    "primes": (
        ("x", "z"),
        ("y+z", "x+z"),
        ("x*y+z^2", "x^2+y^2+x*z+y*z+z^2"),
    ),
    "hf": (1, 3, 5, 6, 6),
    "dim": 1,
    "multiplicity": 6,
    "prime_mults": (1, 1, 4),
    "classification": "one_dimensional",
    # count: (limit value, case label)
    "stabilization": {1: (1, 4), 5: (5, 4), 6: (6, 5), 7: (6, 5)},
    # hand-derived distance cells {(t, l): value}
    "delta_cells": {(1, 1): 4, (1, 2): 5, (1, 3): 6, (2, 1): 2, (2, 2): 4},
}

# F_3[x,y,z] / (y^2 - y z, x^2 y - y z^2): a plane and two lines
EXAMPLE2 = {
    "char": 3,
    "vars": ("x", "y", "z"),
    "gens": ("y^2-y*z", "x^2*y-y*z^2"),
    "primes": (("y",), ("y-z", "x-z"), ("y-z", "x+z")),
    "dim": 2,
    "multiplicity": 1,
    "top_prime_dim": 2,
    "fixed_dim_line_mults": (0, 0),
    "classification": "mixed_low_dim1",
    "stabilization": {1: (0, 6), 2: (0, 6), 3: (1, 7)},
    "regularity": {1: 1, 2: 2},
}

# boundary of the triangle: three vertices, three edges
TRIANGLE_BOUNDARY = {
    "depth": 2,
    "regularity": 2,
    "multiplicity": 3,
    "dim_ring": 2,
    "regularity_index": {1: 2, 2: 3, 3: 4, 4: 5},  # r(l) = l + 1, every bound tight
}

# path on four vertices: primes (z,w), (x,w), (x,y); r(l) = l beats reg + l - 1
PATH_FOUR = {
    "depth": 2,
    "regularity": 1,
    "regularity_index": {1: 1, 2: 2, 3: 3, 4: 4},
}

# all of P^1(F_2), degree 1 evaluations
P1_F2 = {
    "points": ((1, 0), (0, 1), (1, 1)),
    "code": {"length": 3, "dimension": 2},
    "weights": {1: 2, 2: 3},
}

# F_2[x,y]/(xy): two lines through the origin
TWO_LINES_F2 = {
    "multiplicity": 2,
    "delta_cells": {(1, 1): 1, (2, 1): 1, (1, 2): 2, (2, 2): 2},
}

# five pairwise skew lines of P^3, each as the ideal of two linear forms,
# with the Hilbert function 4, 10, 18 of five lines on two cubics
LINES5_F2 = {
    "char": 2,
    "vars": ("x", "y", "z", "w"),
    "gens": (
        "x^2*y+x^2*z+x*y^2+x*z^2+y^2*w+y*w^2",
        "x^2*y+x*y^2+y^2*z+y*z^2+z^2*w+z*w^2",
        "x^3*z+x^2*y*w+x^2*z^2+x*y^2*z+x*y^2*w+x*y*z^2",
        "x^3*y+x^3*z+x^2*y^2+x^2*y*z+x^2*z*w+x*y^2*z+x*z^3+x*z^2*w",
        "x^4*y+x^3*y*z+x^2*y^3+x^2*y^2*z+x^2*y^2*w+x*y^3*w",
        "x^3*y*w+x^2*y^2*w+x^2*y*z*w+x*y^2*z*w",
    ),
    "primes": (("y", "z"), ("x+z", "x+w"), ("x", "y+w"), ("x+y+z", "w"), ("x+y", "x+z+w")),
}

LINES5_F3 = {
    "char": 3,
    "vars": ("x", "y", "z", "w"),
    "gens": (
        "x^3+2*x^2*y+x^2*z+2*x^2*w+x*y*z+x*y*w+x*z^2+2*x*z*w+2*y^3+y*z^2+y*z*w+y*w^2+z^2*w+z*w^2",
        "x^3+x^2*y+2*x^2*z+x^2*w+2*x*y*z+2*x*z*w+2*y^2*w+2*y*z*w+2*z^2*w+w^3",
        "2*x^3*z+2*x^3*w+x^2*y^2+x^2*y*z+x^2*y*w+x^2*z^2+x^2*w^2+x*y^3+2*x*y^2*z+2*x*y^2*w"
        "+x*y*z^2+x*y*w^2",
        "x^4+x^3*y+2*x^3*w+2*x^2*y^2+x^2*y*z+2*x^2*y*w+2*x^2*z^2+2*x*y^3+x*y^2*z+2*x*y^2*w"
        "+2*x*y*z^2+x*z^2*w",
        "2*x^5+2*x^4*z+x^4*w+x^3*y*w+2*x^3*z^2+2*x^3*z*w+2*x^2*y^3+2*x^2*y^2*z+2*x^2*y*z*w"
        "+x*y^3*z+x*y^2*z^2",
        "2*x^5+x^4*y+x^4*w+x^3*y^2+x^3*y*w+x^3*z^2+2*x^3*z*w+x^2*y^2*z+x^2*y^2*w+x^2*y*z^2"
        "+x*y^4+x*y^3*z+x*y^3*w+x*y^2*z*w",
    ),
    "primes": (
        ("x", "2*y+z+w"),
        ("2*x+z", "2*x+y+w"),
        ("y+z", "2*x+w"),
        ("x+y", "w"),
        ("2*x+y+z", "2*y+w"),
    ),
}
