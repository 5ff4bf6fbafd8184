"""Generalized minimum distance function of a graded quotient.

For degree t and count l, the function measures e(S/I) minus the largest
multiplicity e(S/(I + (F))) over sets F of l linearly independent degree-t
elements of S/I whose annihilator is nonzero; when no such F exists the
value is e(S/I) itself.

Two routes are implemented and kept independent:

* ``delta_bruteforce`` enumerates l-dimensional subspaces of the degree-t
  piece, tests the annihilator, and computes each multiplicity from a fresh
  Groebner/Hilbert computation of I + (F).
* ``delta_fast`` (certified reduced profiles, fixed-dimension convention)
  maximizes the sum of top-prime multiplicities over subsets of the minimal
  primes whose intersection is large enough in degree t, which is what
  multiplicity additivity over the primes predicts.

Multiplicity conventions: "fixed-dim" always measures e at dim(S/I), so a
quotient whose dimension drops contributes 0; "own-dim" measures each
quotient at its own dimension.  The default everywhere is fixed-dim.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import HypothesisError, InvariantError
from .gflinalg import FieldMatrix, SubspaceIterator, scan_in_chunks, subspace_count
from .groebner import (
    IdealPresentation,
    colon,
    groebner_basis,
    groebner_basis_extending,
    ideal_contains,
    normal_form,
)
from .hilbert import graded_piece_of_quotient, hilbert_data, multiplicity_at_dim
from .polyring import Polynomial, monomial_to_str
from .schemes import RingProfile

FIXED_DIM = "fixed-dim"
OWN_DIM = "own-dim"
CONVENTIONS = (FIXED_DIM, OWN_DIM)


@dataclass(frozen=True)
class GmdQuery:
    """One distance evaluation request."""

    profile: RingProfile
    t: int
    ell: int
    convention: str = FIXED_DIM
    method: str = "both"

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("degree t must be at least 1")
        if self.ell < 1:
            raise ValueError("count l must be at least 1")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}")
        if self.method not in ("brute", "fast", "both"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class DeltaResult:
    value: int
    t: int
    ell: int
    convention: str
    method: str
    status: str  # "ok" | "empty"  (empty: no qualifying F exists)
    witness: dict | None


def subspace_to_polys(profile: RingProfile, basis_monomials, matrix: FieldMatrix):
    """Lift the rows of an RREF coefficient matrix to polynomials in S."""
    return [_row_to_poly(profile.ring, basis_monomials, row) for row in matrix.data]


def _row_to_poly(ring, basis_monomials, row) -> Polynomial:
    return Polynomial(ring, {mono: c for c, mono in zip(row, basis_monomials) if c})


def ann_nonzero(profile: RingProfile, polys, mode: str = "auto") -> bool:
    """Whether the annihilator of (the images of) the polynomials is nonzero.

    "colon" decides via (I : (F)) != I from the definition; "prime" checks
    containment in some minimal prime and needs a certified profile.  "auto"
    uses the prime route when available.  Both routes agree on certified
    reduced profiles.
    """
    if mode not in ("auto", "colon", "prime"):
        raise ValueError(f"unknown annihilator mode {mode!r}")
    if mode == "auto":
        mode = "prime" if profile.reduced_certified else "colon"
    if mode == "prime":
        if not profile.reduced_certified:
            raise HypothesisError("prime-based annihilator test needs a certified profile")
        for prime in profile.primes:
            gb = groebner_basis(prime.ideal)
            if all(_in_ideal(f, gb) for f in polys):
                return True
        return False
    quotient = colon(profile.ideal, polys)
    return not ideal_contains(profile.ideal, quotient)


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


def _quotient_multiplicity(profile: RingProfile, polys, convention: str) -> int:
    gb = groebner_basis(profile.ideal)
    shell = IdealPresentation.from_basis(groebner_basis_extending(gb, polys))
    if convention == FIXED_DIM:
        return multiplicity_at_dim(shell, profile.dim)
    data = hilbert_data(shell)
    return data.multiplicity


# Largest number of line values memoised per degree on one profile.  A
# degree-t piece of dimension m over F_p has (p^m - 1)/(p - 1) lines; the
# brute scan only stays affordable on pieces far below this.
LINE_MEMO_LIMIT = 1 << 14


def _remember_line(profile: RingProfile, t: int, row: tuple, value: int) -> int:
    memo = profile.line_values.setdefault(t, {})
    if len(memo) >= LINE_MEMO_LIMIT:
        memo.clear()
    memo[row] = value
    return value


def _line_value(profile: RingProfile, t: int, basis_monomials, row: tuple, ann_mode: str) -> int:
    """Fixed-dim quotient multiplicity of the line spanned by one RREF row.

    A row with zero annihilator is a nonzerodivisor: its quotient drops
    dimension and measures 0, so the extension is skipped.  The value does
    not depend on the annihilator mode, which only decides how fast that
    case is recognised, so one memo per (profile, t) serves every mode.
    """
    value = profile.line_values.get(t, {}).get(row)
    if value is not None:
        return value
    polys = [_row_to_poly(profile.ring, basis_monomials, row)]
    if ann_nonzero(profile, polys, ann_mode):
        value = _quotient_multiplicity(profile, polys, FIXED_DIM)
    else:
        value = 0
    return _remember_line(profile, t, row, value)


def _brute_scan(profile, t, ell, convention, ann_mode, basis_monomials, start, stop):
    """Scan a contiguous index range of subspaces; return (best, first index reaching it).

    Under fixed-dim the scan is a branch and bound.  S/(I + (F)) is a
    quotient of S/(I + (f)) for every row f of F's RREF, so its multiplicity
    at dim(S/I) is at most each row's line value.  Once the range has a
    best, an l >= 2 subspace with a row whose line value is at most that
    best cannot replace it (ties keep the earlier index) and is skipped
    before its annihilator test and extension.  l = 1 subspaces are lines:
    they are scanned in full and leave their values in the line memo.
    Own-dim is never pruned: its multiplicity is not monotone once the
    dimension drops.
    """
    it = SubspaceIterator(len(basis_monomials), ell, profile.ring.field, start, stop)
    bounded = convention == FIXED_DIM
    best = None
    best_index = None
    for index in range(start, stop):
        matrix = it.matrix_at(index)
        if bounded and ell > 1 and best is not None and any(
            _line_value(profile, t, basis_monomials, row, ann_mode) <= best
            for row in matrix.data
        ):
            continue
        polys = subspace_to_polys(profile, basis_monomials, matrix)
        if ann_nonzero(profile, polys, ann_mode):
            value = _quotient_multiplicity(profile, polys, convention)
        else:
            value = None
        if bounded and ell == 1:
            _remember_line(profile, t, matrix.data[0], value or 0)
        if value is not None and (best is None or value > best):
            best = value
            best_index = index
    return best, best_index


def delta_bruteforce(query: GmdQuery, jobs: int = 1, ann_mode: str = "auto") -> DeltaResult:
    """Distance value by direct subspace enumeration.

    Walks every l-dimensional subspace of the degree-t piece of S/I (the
    value only depends on the span), keeps those with nonzero annihilator,
    and takes the maximum quotient multiplicity.  ``jobs`` partitions the
    index range; results are identical for any worker count.
    """
    profile = query.profile
    e_total = profile.multiplicity
    basis_monomials = tuple(graded_piece_of_quotient(profile.ideal, query.t))
    m = len(basis_monomials)
    if query.ell > m:
        return DeltaResult(
            e_total, query.t, query.ell, query.convention, "brute", "empty", None
        )
    total = subspace_count(m, query.ell, profile.ring.field)
    partials = scan_in_chunks(
        SubspaceIterator(m, query.ell, profile.ring.field),
        jobs,
        _brute_scan,
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
        return DeltaResult(
            e_total, query.t, query.ell, query.convention, "brute", "empty", None
        )
    matrix = SubspaceIterator(m, query.ell, profile.ring.field).matrix_at(best_index)
    witness = {
        "subspace_index": best_index,
        "matrix": matrix.to_lists(),
        "basis_monomials": [monomial_to_str(profile.ring, mo) for mo in basis_monomials],
        "quotient_multiplicity": best,
        "searched": total,
    }
    return DeltaResult(
        e_total - best, query.t, query.ell, query.convention, "brute", "ok", witness
    )


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
    fast = delta_fast(replace(query, method="fast"))
    if brute.value != fast.value or brute.status != fast.status:
        raise RuntimeError(
            f"brute/fast disagreement at t={query.t}, l={query.ell}: "
            f"{brute.value}/{brute.status} vs {fast.value}/{fast.status}"
        )
    witness = {"brute": brute.witness, "fast": fast.witness}
    return DeltaResult(
        brute.value, query.t, query.ell, query.convention, "both", brute.status, witness
    )


@dataclass(frozen=True)
class StabilizationResult:
    value: int
    case: int  # 1..7 in the case analysis of the limit value
    detail: str


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


@dataclass(frozen=True)
class RegularityResult:
    value: int
    method: str
    stable_value: int


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


@dataclass(frozen=True)
class SRContext:
    """Face-ring facts used by the bound verifiers."""

    depth: int
    regularity: int
    proj_connected: bool
    shellable: str  # "shellable" | "not_shellable" | "inconclusive"


@dataclass(frozen=True)
class Verdict:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str


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

    if sr.shellable == "shellable":
        bad = [ell for ell, r in r_values.items() if r > sr.regularity + ell - 1]
        passed = f"r(l) <= reg+l-1 with reg={sr.regularity}"
        out.append(_law("reg-bound", bad, passed, f"violations at l={bad}"))
    elif sr.shellable == "inconclusive":
        out.append(Verdict("reg-bound", "skipped", "shellability search hit its budget"))
    else:
        out.append(Verdict("reg-bound", "skipped", "complex is not shellable"))
    return out
