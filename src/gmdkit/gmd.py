"""Generalized minimum distance function of a graded quotient.

For degree t and count l, the function measures e(S/I) minus the largest
multiplicity e(S/(I + (F))) over sets F of l linearly independent degree-t
elements of S/I whose annihilator is nonzero; when no such F exists the
value is e(S/I) itself.

Two routes are implemented and kept independent:

* ``delta_bruteforce`` enumerates l-dimensional subspaces of the degree-t
  piece, tests the annihilator, and computes each multiplicity from a fresh
  Groebner/Hilbert computation of I + (F).  Without certified primes a
  line's annihilator test reads the Hilbert series of that same
  computation; larger subspaces compute the colon ideal (I : (F)).
* ``delta_fast`` (certified reduced profiles, fixed-dimension convention)
  maximizes the sum of top-prime multiplicities over subsets of the minimal
  primes whose intersection is large enough in degree t, which is what
  multiplicity additivity over the primes predicts.

Multiplicity conventions: "fixed-dim" always measures e at dim(S/I), so a
quotient whose dimension drops contributes 0; "own-dim" measures each
quotient at its own dimension.  The default everywhere is fixed-dim.
"""

from __future__ import annotations

from .errors import BruteLimitError, HypothesisError, InvariantError
from .gflinalg import FieldMatrix, SubspaceIterator, scan_in_chunks, subspace_count
from .groebner import (
    IdealPresentation,
    colon,
    groebner_basis,
    groebner_basis_extending,
    ideal_contains,
    normal_form,
)
from .hilbert import (
    dim_and_multiplicity,
    graded_piece_of_quotient,
    hilbert_data,
    monomial_ideal_numerator,
    multiplicity_at_dim,
)
from .polyring import Polynomial, monomial_to_str
from .records import Record, ValueRecord
from .schemes import RingProfile

FIXED_DIM = "fixed-dim"
OWN_DIM = "own-dim"
CONVENTIONS = (FIXED_DIM, OWN_DIM)


class GmdQuery:
    """One distance evaluation request."""

    __slots__ = ("profile", "t", "ell", "convention", "method")

    def __init__(
        self,
        profile: RingProfile,
        t: int,
        ell: int,
        convention: str = FIXED_DIM,
        method: str = "both",
    ):
        if t < 1:
            raise ValueError("degree t must be at least 1")
        if ell < 1:
            raise ValueError("count l must be at least 1")
        if convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {convention!r}")
        if method not in ("brute", "fast", "both"):
            raise ValueError(f"unknown method {method!r}")
        self.profile = profile
        self.t = t
        self.ell = ell
        self.convention = convention
        self.method = method


class DeltaResult(ValueRecord):
    """One distance value; results with equal fields compare equal.

    ``status`` is "ok", or "empty" when no qualifying F exists.
    """

    __slots__ = ("value", "t", "ell", "convention", "method", "status", "witness")


def subspace_to_polys(profile: RingProfile, basis_monomials, matrix: FieldMatrix):
    """Lift the rows of an RREF coefficient matrix to polynomials in S."""
    return [_row_to_poly(profile.ring, basis_monomials, row) for row in matrix.data]


def _row_to_poly(ring, basis_monomials, row) -> Polynomial:
    return Polynomial(ring, {mono: c for c, mono in zip(row, basis_monomials) if c})


def ann_nonzero(profile: RingProfile, polys, extension=None) -> bool:
    """Whether the annihilator of (the images of) the polynomials is nonzero.

    That is (I : (F)) != I.  On a certified reduced profile it checks
    containment in some minimal prime.  Otherwise it decides from the
    definition: for one homogeneous f of positive degree it compares Hilbert
    series (``_colon_grows``), for several polynomials it computes the colon
    ideal.  Both routes agree on certified reduced profiles.  ``extension``
    is I + (f) as ``_extension`` builds it; a caller passes it to reuse it
    afterwards for the multiplicity, and the Hilbert-series test builds it
    when it is not given.
    """
    if profile.reduced_certified:
        for prime in profile.primes:
            gb = groebner_basis(prime.ideal)
            if all(_in_ideal(f, gb) for f in polys):
                return True
        return False
    if len(polys) == 1 and polys[0].is_homogeneous() and polys[0].degree() >= 1:
        return _colon_grows(profile, polys[0], extension or _extension(profile, polys))
    quotient = colon(profile.ideal, polys)
    return not ideal_contains(profile.ideal, quotient)


def _colon_grows(profile: RingProfile, f: Polynomial, extension: IdealPresentation) -> bool:
    """Whether (I : f) != I, for f homogeneous of degree t >= 1, from Hilbert series.

    0 -> ((I : f)/I)(-t) -> (S/I)(-t) -> S/I -> S/(I + (f)) -> 0 is exact, the
    middle map being multiplication by f.  So the series of S/(I + (f)) is
    (1 - z^t) HS(S/I) plus z^t HS((I : f)/I), and equals (1 - z^t) HS(S/I)
    exactly when (I : f) = I.  Both series have the denominator (1 - z)^n,
    so their numerators decide; this holds for any homogeneous I.
    """
    t = f.degree()
    base = hilbert_data(profile.ideal).series_numerator
    # base is trimmed and nonzero, so its top term survives the shift
    expected = list(base) + [0] * t
    for i, c in enumerate(base):
        expected[i + t] -= c
    return hilbert_data(extension).series_numerator != tuple(expected)


# Largest number of monomial normal forms memoised on one basis.  The brute
# scan only asks about the degree-t standard monomials of S/I, far fewer.
NF_MEMO_LIMIT = 1 << 12


def _in_ideal(f: Polynomial, gb) -> bool:
    """Whether f lies in the ideal of gb.

    Normal forms are linear, so NF(f) is the sum of c_m * NF(x^m) over the
    terms of f; the monomial normal forms are memoised on the basis.
    """
    ring = f.ring
    p = ring.field.p
    memo = gb.monomial_normal_forms
    acc: dict = {}
    for m, c in f.terms.items():
        nf = memo.get(m)
        if nf is None:
            if len(memo) >= NF_MEMO_LIMIT:
                memo.clear()
            nf = memo[m] = normal_form(Polynomial._raw(ring, {m: 1}), gb).terms
        for e, a in nf.items():
            acc[e] = (acc.get(e, 0) + c * a) % p
    return not any(acc.values())


def _extension(profile: RingProfile, polys) -> IdealPresentation:
    """I + (F), with its grevlex basis extended from the cached basis of I.

    The scan reads only its Hilbert series, so only in(I + (F)): the basis
    is completed from I's packed records and never interreduced here.
    """
    gb = groebner_basis(profile.ideal)
    return IdealPresentation.from_basis(groebner_basis_extending(gb, polys))


def _quotient_multiplicity(profile: RingProfile, polys, convention: str, extension=None) -> int:
    shell = extension or _extension(profile, polys)
    if convention == FIXED_DIM:
        return multiplicity_at_dim(shell, profile.dim)
    data = hilbert_data(shell)
    return data.multiplicity


def _subspace_multiplicity(profile: RingProfile, polys, convention: str):
    """Quotient multiplicity of F's span, or None when its annihilator is zero.

    Without certified primes a line builds I + (f) first: its Hilbert
    series decides the annihilator test and then gives the multiplicity, so
    each line costs one extension and no colon ideal.  l >= 2 subspaces and
    certified profiles extend only once the test has passed.
    """
    extension = None
    if len(polys) == 1 and not profile.reduced_certified:
        extension = _extension(profile, polys)
    if not ann_nonzero(profile, polys, extension):
        return None
    return _quotient_multiplicity(profile, polys, convention, extension)


# Largest number of line values memoised per degree on one profile, and of
# footprint bounds.  A degree-t piece of dimension m over F_p has
# (p^m - 1)/(p - 1) lines; the brute scan only stays affordable on pieces
# far below this.
LINE_MEMO_LIMIT = 1 << 14


def _line_value(profile: RingProfile, t: int, basis_monomials, row: tuple):
    """Fixed-dim quotient multiplicity of the line spanned by one RREF row.

    None when the row has zero annihilator: a nonzerodivisor, whose
    quotient drops dimension and measures 0, and which no qualifying
    subspace contains.  This is the only writer of ``profile.line_values``.
    """
    memo = profile.line_values.setdefault(t, {})
    if row in memo:
        return memo[row]
    if len(memo) >= LINE_MEMO_LIMIT:
        memo.clear()
    polys = [_row_to_poly(profile.ring, basis_monomials, row)]
    value = memo[row] = _subspace_multiplicity(profile, polys, FIXED_DIM)
    return value


def _footprint_bound(profile: RingProfile, pivots: tuple) -> int:
    """Multiplicity at dim(S/I) of S/(in(I) + (pivots)), memoised on the profile.

    ``pivots`` are the basis monomials at a pivot block's pivot columns.
    This is the only writer of ``profile.footprint_bounds``.
    """
    memo = profile.footprint_bounds
    bound = memo.get(pivots)
    if bound is None:
        if len(memo) >= LINE_MEMO_LIMIT:
            memo.clear()
        n = profile.ring.n
        exponents = groebner_basis(profile.ideal).leading_exponents + pivots
        d, e, _ = dim_and_multiplicity(monomial_ideal_numerator(exponents, n), n)
        bound = memo[pivots] = e if d == profile.dim else 0
    return bound


def _brute_scan(profile, t, ell, convention, basis_monomials, it, start, stop):
    """Scan a contiguous index range of subspaces for the least distance value.

    Returns (e(S/I) minus the best multiplicity, first index reaching it),
    or (None, None) when no subspace in the range has a nonzero
    annihilator.  Under fixed-dim the scan is a branch and bound on the
    multiplicity at dim(S/I): it skips only subspaces that cannot strictly
    beat the range's best, and ties keep the earlier index anyway.

    Footprint: the basis monomials descend in grevlex, so in the pivot
    block with pivot columns c_1 < ... < c_l each RREF row i leads with
    m_{c_i}, and in(I + (F)) contains in(I) + (m_{c_1}, ..., m_{c_l}).
    Once the range has a best, a block, or the rest of one, whose
    footprint bound is at most that best is left unread.  Rows:
    S/(I + (F)) is a quotient of S/(I + (f)) for every row f, so each
    row's line value bounds F.  An l >= 2 subspace with a nonzerodivisor
    row f has (I : (F)) inside (I : f) = I and is skipped even before the
    range has a best; once it has one, so is a subspace with a row whose
    line value is at most that best.  Own-dim is never pruned: its
    multiplicity is not monotone once the dimension drops.
    """
    bounded = convention == FIXED_DIM
    best = None
    best_index = None
    for lo, hi, rows in it.pivot_blocks(start, stop):
        pivots = tuple(basis_monomials[c] for c, _ in rows)
        for index in range(max(start, lo), min(stop, hi)):
            if bounded and best is not None and _footprint_bound(profile, pivots) <= best:
                break
            matrix = it.matrix_at(index)
            if bounded and ell == 1:
                value = _line_value(profile, t, basis_monomials, matrix.data[0])
            elif bounded and any(
                line is None or (best is not None and line <= best)
                for line in (_line_value(profile, t, basis_monomials, row) for row in matrix.data)
            ):
                continue
            else:
                polys = subspace_to_polys(profile, basis_monomials, matrix)
                value = _subspace_multiplicity(profile, polys, convention)
            if value is not None and (best is None or value > best):
                best = value
                best_index = index
    if best is None:
        return None, None
    return profile.multiplicity - best, best_index


# Largest number of subspaces one brute-force cell may scan.  Under
# fixed-dim the footprint bound can leave whole pivot blocks unread at next
# to no cost, but it need not.  On a certified l >= 2 cell a subspace the
# scan reads costs about 8-17 us, so a cell at the limit whose blocks are
# all read takes one and a half to three minutes.  A subspace tested in
# full (lines, own-dim, colon ideals) costs 23 us to 2.2 ms.
BRUTE_SUBSPACE_LIMIT = 10_000_000


def brute_count(m: int, ell: int, field) -> int:
    """Subspaces a brute-force cell scans: the l-dimensional subspaces of F_p^m.

    Raises ``BruteLimitError`` past ``BRUTE_SUBSPACE_LIMIT``, so a caller can
    refuse a whole grid before its first scan.
    """
    count = subspace_count(m, ell, field)
    if count > BRUTE_SUBSPACE_LIMIT:
        raise BruteLimitError(count, BRUTE_SUBSPACE_LIMIT)
    return count


def delta_bruteforce(query: GmdQuery, jobs: int = 1) -> DeltaResult:
    """Distance value by direct subspace enumeration.

    Walks every l-dimensional subspace of the degree-t piece of S/I (the
    value only depends on the span), keeps those with nonzero annihilator,
    and takes the least e(S/I) minus quotient multiplicity.  A cell of more
    than ``BRUTE_SUBSPACE_LIMIT`` subspaces raises ``BruteLimitError``
    before the scan.  ``jobs`` partitions the index range; results are
    identical for any worker count.
    """
    profile = query.profile
    e_total = profile.multiplicity
    basis_monomials = tuple(graded_piece_of_quotient(profile.ideal, query.t))
    m = len(basis_monomials)
    empty = DeltaResult(e_total, query.t, query.ell, query.convention, "brute", "empty", None)
    if query.ell > m:
        return empty
    count = brute_count(m, query.ell, profile.ring.field)
    it = SubspaceIterator(m, query.ell, profile.ring.field)
    best, best_index = scan_in_chunks(
        count,
        jobs,
        _brute_scan,
        (profile, query.t, query.ell, query.convention, basis_monomials, it),
    )
    if best is None:
        return empty
    witness = {
        "subspace_index": best_index,
        "matrix": it.matrix_at(best_index).to_lists(),
        "basis_monomials": [monomial_to_str(profile.ring, mo) for mo in basis_monomials],
        "quotient_multiplicity": e_total - best,
        "searched": count,
    }
    return DeltaResult(best, query.t, query.ell, query.convention, "brute", "ok", witness)


def _subset_table(profile: RingProfile, t: int) -> list:
    """Best prime subset at degree t for every count l, cached on the profile.

    Entry l is (largest top-multiplicity sum, first mask reaching it in
    increasing mask order) over the nonempty subsets whose family holds at
    least l degree-t dimensions, or None when no subset does.  One pass
    keeps the best subset per dimension; a suffix maximum over dimensions,
    with ties going to the smaller mask, then answers every l.
    """
    table = profile.subset_tables.get(t)
    if table is not None:
        return table
    dims = profile.subset_dims(t)
    tops = [p.mult if p.is_top else 0 for p in profile.primes]
    values = [0] * len(dims)
    best_value = [-1] * (max(dims) + 1)
    best_mask = [0] * len(best_value)
    for mask in range(1, len(dims)):
        low = mask & -mask
        value = values[mask] = values[mask ^ low] + tops[low.bit_length() - 1]
        d = dims[mask]
        if value > best_value[d]:
            best_value[d] = value
            best_mask[d] = mask
    table = [None] * len(best_value)
    run = None
    for d in range(len(best_value) - 1, -1, -1):
        value = best_value[d]
        if value >= 0 and (
            run is None or value > run[0] or (value == run[0] and best_mask[d] < run[1])
        ):
            run = (value, best_mask[d])
        table[d] = run
    profile.subset_tables[t] = table
    return table


def delta_fast(query: GmdQuery) -> DeltaResult:
    """Distance value through the minimal primes (fixed-dim, certified only).

    Maximizes the top-prime multiplicity sum of a subset of minimal primes
    whose intersection still has at least l independent degree-t elements
    modulo I.  The witness is the first maximizer in bitmask order; one
    table per degree answers every l.
    """
    profile = query.profile
    if not profile.reduced_certified:
        raise HypothesisError("fast path needs a certified reduced profile")
    if query.convention != FIXED_DIM:
        raise HypothesisError("fast path is defined for the fixed-dim convention")
    e_total = profile.multiplicity
    table = _subset_table(profile, query.t)
    best = table[query.ell] if query.ell < len(table) else None
    if best is None:
        return DeltaResult(
            e_total, query.t, query.ell, query.convention, "fast", "empty", None
        )
    value, mask = best
    witness = {"prime_subset": [i for i in range(len(profile.primes)) if mask >> i & 1]}
    return DeltaResult(
        e_total - value, query.t, query.ell, query.convention, "fast", "ok", witness
    )


def delta(query: GmdQuery, jobs: int = 1) -> DeltaResult:
    """Dispatch on the query method; "both" cross-checks brute against fast."""
    if query.method == "brute":
        return delta_bruteforce(query, jobs=jobs)
    if query.method == "fast":
        return delta_fast(query)
    brute = delta_bruteforce(query, jobs=jobs)
    fast = delta_fast(GmdQuery(query.profile, query.t, query.ell, query.convention, "fast"))
    if brute.value != fast.value or brute.status != fast.status:
        raise RuntimeError(
            f"brute/fast disagreement at t={query.t}, l={query.ell}: "
            f"{brute.value}/{brute.status} vs {fast.value}/{fast.status}"
        )
    witness = {"brute": brute.witness, "fast": fast.witness}
    return DeltaResult(
        brute.value, query.t, query.ell, query.convention, "both", brute.status, witness
    )


class StabilizationResult(ValueRecord):
    """A limit value, its case (1..7) in the case analysis, and the reason;
    equal results compare equal."""

    __slots__ = ("value", "case", "detail")


def _require_certified(profile: RingProfile):
    if profile.classification == "unknown":
        reason = "; ".join(profile.warnings) or "no minimal primes were given"
        raise HypothesisError(
            "the limit and the regularity index need certified minimal primes "
            f"(the \"minimal_primes\" input key): {reason}"
        )


def _least_proper_subset_sum(mults, ell: int) -> int | None:
    """Least sum >= ell over nonempty proper subsets of the multiplicities.

    Every multiplicity is at least 1, so the proper subsets are exactly
    the subsets whose sum is below the total: the answer is the least
    reachable subset sum s with ell <= s < total.
    """
    total = sum(mults)
    sums = {0}
    for m in mults:
        sums |= {s + m for s in sums}
    return min((s for s in sums if ell <= s < total), default=None)


def stabilization_value(profile: RingProfile, ell: int) -> StabilizationResult:
    """Limit of the distance function in t for fixed l, by case analysis."""
    if ell < 1:
        raise ValueError("count l must be at least 1")
    cls = profile.classification
    if cls == "domain":
        return StabilizationResult(profile.multiplicity, 2, "domain: annihilators vanish")
    _require_certified(profile)
    e_total = profile.multiplicity
    if cls == "mixed_low_dim_ge2":
        return StabilizationResult(0, 1, "a low-dimensional prime of dimension >= 2 exists")
    if cls == "unmixed_dim_ge2":
        return StabilizationResult(
            profile.min_top_multiplicity(), 3, "unmixed of dimension >= 2"
        )
    if cls == "one_dimensional":
        mults = [p.mult for p in profile.primes]
        e_min = min(mults)
        if ell <= e_total - e_min:
            best = _least_proper_subset_sum(mults, ell)
            if best is None:
                raise InvariantError(f"no proper prime subset has multiplicity sum >= {ell}")
            return StabilizationResult(
                best, 4, "one-dimensional, minimal prime-subset multiplicity sum"
            )
        return StabilizationResult(e_total, 5, "one-dimensional, l too large for proper subsets")
    if cls == "mixed_low_dim1":
        lows = profile.low_indices()
        low_family = profile.intersect_family(lows)
        low_data = low_family.hilbert()
        e_low = low_data.multiplicity
        if ell <= e_low:
            return StabilizationResult(0, 6, "l fits inside the one-dimensional locus")
        return StabilizationResult(
            profile.min_top_multiplicity(), 7, "l exceeds the one-dimensional locus"
        )
    raise HypothesisError(f"no stabilization rule for classification {cls!r}")


class RegularityResult(ValueRecord):
    """A regularity index, its method label and the limit it reaches; equal
    results compare equal."""

    __slots__ = ("value", "method", "stable_value")


def _first_degree_reaching(profile: RingProfile, family, ell: int) -> int | None:
    """Least t >= 1 with dim_K[J/I]_t >= l, or None when that never happens.

    Past the polynomial regime the dimension follows a polynomial of degree
    below dim(R): enough consecutive equal values certify constancy, and a
    non-constant one is unbounded, so a forward scan terminates.
    """
    regime = family.regime()
    settled = regime + profile.dim + 1
    cap = settled + 10 * ell + 10 * profile.multiplicity + 1000
    for t in range(1, cap + 1):
        if family.quotient_dim(t) >= ell:
            return t
        if t == settled and len({family.quotient_dim(u) for u in range(regime, t + 1)}) == 1:
            return None  # constant forever, below l
    raise InvariantError(f"degree scan of family {family.indices} hit its safety cap {cap}")


def _top_subsets_with_sum(profile: RingProfile, target: int):
    """Index tuples of the sets of top primes whose multiplicities sum to target.

    Depth-first over the top primes in index order; a branch ends once its
    sum reaches the target or the primes left cannot make the target up.
    """
    tops = [(i, p.mult) for i, p in enumerate(profile.primes) if p.is_top]
    left = [sum(m for _, m in tops[k:]) for k in range(len(tops) + 1)]

    def walk(k, chosen, total):
        if total == target:
            yield chosen
        elif total < target <= total + left[k]:
            i, m = tops[k]
            yield from walk(k + 1, chosen + (i,), total + m)
            yield from walk(k + 1, chosen, total)

    return walk(0, (), 0)


def regularity_index(profile: RingProfile, ell: int) -> RegularityResult:
    """Least degree where the distance function reaches its limit.

    On a certified profile let s be the limit (``stabilization_value``) and
    target = e(R) - s.  delta(t, l) is e(R) minus the largest top-multiplicity
    sum of a prime subset whose family holds l dimensions in degree t, and
    delta(t, l) >= s for every t, so delta(t, l) = s exactly when a subset of
    top-multiplicity sum target holds l dimensions in degree t.  Removing a
    low prime from it keeps the sum and enlarges the family, so subsets of
    top primes are enough: r(l) is 1 when target is 0, else the least degree
    at which such a family first holds l dimensions.  The closed forms are
    special cases: s = 0 leaves the family of all top primes, s = e_min the
    complements of one prime of least multiplicity.  The method label names
    the classification in the reports' vocabulary.

    The index is only defined through the limit, so an uncertified profile
    raises ``HypothesisError`` from ``stabilization_value``.
    """
    s = stabilization_value(profile, ell).value
    # report vocabulary only: every certified classification takes one rule
    label = {
        "domain": "constant",
        "mixed_low_dim_ge2": "closed-form-mixed",
        "unmixed_dim_ge2": "closed-form-unmixed",
    }.get(profile.classification, "iteration")
    target = profile.multiplicity - s
    degrees = [1] if target == 0 else [
        _first_degree_reaching(profile, profile.intersect_family(indices), ell)
        for indices in _top_subsets_with_sum(profile, target)
    ]
    degrees = [t for t in degrees if t is not None]
    if not degrees:
        raise InvariantError(
            f"no family of top primes with multiplicity sum {target} ever holds {ell} dimensions"
        )
    return RegularityResult(min(degrees), label, s)


class SRContext(Record):
    """Face-ring facts used by the bound verifiers.

    ``shellable`` is "shellable", "not_shellable" or "inconclusive".
    """

    __slots__ = ("depth", "regularity", "proj_connected", "shellable")


class Verdict(Record):
    """One law's outcome: ``status`` is "pass", "fail" or "skipped"."""

    __slots__ = ("name", "status", "detail")


def _law(name: str, bad, passed: str, failed: str) -> Verdict:
    """The verdict of a law: fail with ``failed`` when ``bad`` lists violations."""
    return Verdict(name, "fail" if bad else "pass", failed if bad else passed)


def verify_theorems(
    profile: RingProfile,
    t_max: int,
    ell_max: int,
    sr: SRContext | None = None,
) -> list[Verdict]:
    """Check the distance-function laws on a degree/count grid.

    Monotonicity in t needs a certified reduced profile; monotonicity in l
    is only asserted on unmixed rings.  Stabilization consistency compares
    the table against the limit value and least degree.  With face-ring
    context, the increment law needs depth >= 2, the dimension bound needs
    a connected facet graph, and the regularity bound needs shellability.
    The table comes from the prime route on certified reduced profiles and
    from brute force otherwise.
    """
    out: list[Verdict] = []
    method = "fast" if profile.reduced_certified else "brute"
    table = {
        (t, ell): delta(GmdQuery(profile, t, ell, method=method)).value
        for t in range(1, t_max + 1)
        for ell in range(1, ell_max + 1)
    }

    if profile.reduced_certified:
        bad = [
            (t, ell)
            for (t, ell), v in table.items()
            if t < t_max and v < table[(t + 1, ell)]
        ]
        passed = f"non-increasing in t on t<={t_max}, l<={ell_max}"
        out.append(_law("t-monotonicity", bad, passed, f"counterexamples {bad}"))
    else:
        out.append(Verdict("t-monotonicity", "skipped", "needs a certified reduced profile"))

    if profile.classification in ("domain", "unmixed_dim_ge2", "one_dimensional"):
        bad = [
            (t, ell)
            for (t, ell), v in table.items()
            if ell < ell_max and v > table[(t, ell + 1)]
        ]
        passed = "non-decreasing in l on the grid"
        out.append(_law("l-monotonicity", bad, passed, f"counterexamples {bad}"))
    else:
        out.append(
            Verdict("l-monotonicity", "skipped", "asserted for unmixed rings only")
        )

    r_values: dict[int, int] = {}
    if profile.classification != "unknown":
        details = []
        for ell in range(1, ell_max + 1):
            result = regularity_index(profile, ell)
            r = r_values[ell] = result.value
            s = result.stable_value
            for t in range(1, t_max + 1):
                v = table[(t, ell)]
                if t >= r and v != s:
                    details.append(f"l={ell}: value {v} at t={t} but limit {s}")
                if t < r and v == s:
                    details.append(f"l={ell}: limit reached at t={t} before index {r}")
        passed = "table matches limits and least degrees"
        out.append(_law("stabilization-consistency", details, passed, "; ".join(details)))
    else:
        out.append(
            Verdict("stabilization-consistency", "skipped", "needs certified classification")
        )

    if sr is None or not r_values:
        reason = "no face-ring context" if sr is None else "no regularity indices available"
        names = ("r-increment", "dim-bound", "reg-bound")
        return out + [Verdict(name, "skipped", reason) for name in names]

    if sr.depth >= 2:
        bad = [
            ell
            for ell in range(1, ell_max)
            if r_values[ell + 1] > r_values[ell] + 1
        ]
        passed = "r(l+1) <= r(l)+1 across the grid"
        out.append(_law("r-increment", bad, passed, f"violations at l={bad}"))
    else:
        out.append(Verdict("r-increment", "skipped", "needs depth >= 2"))

    if sr.proj_connected:
        dim_r = profile.dim
        bad = [ell for ell, r in r_values.items() if r > dim_r + ell - 1]
        passed = f"r(l) <= dim+l-1 with dim={dim_r}"
        out.append(_law("dim-bound", bad, passed, f"violations at l={bad}"))
    else:
        out.append(Verdict("dim-bound", "skipped", "facet graph is disconnected"))

    if profile.ideal.is_zero_ideal():
        out.append(Verdict("reg-bound", "skipped", "zero face ideal: reg = 0 but degrees start at 1"))
    elif sr.shellable == "shellable":
        bad = [ell for ell, r in r_values.items() if r > sr.regularity + ell - 1]
        passed = f"r(l) <= reg+l-1 with reg={sr.regularity}"
        out.append(_law("reg-bound", bad, passed, f"violations at l={bad}"))
    elif sr.shellable == "inconclusive":
        out.append(Verdict("reg-bound", "skipped", "shellability search hit its budget"))
    else:
        out.append(Verdict("reg-bound", "skipped", "complex is not shellable"))
    return out
