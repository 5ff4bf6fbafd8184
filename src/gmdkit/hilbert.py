"""Hilbert series, Hilbert functions and multiplicities of graded quotients.

The Hilbert series of S/I is N(t)/(1-t)^n with N the numerator of the
leading-term ideal, computed by the pivot-variable recursion
N(I) = N(I + (x)) + t * N(I : x) with memoization on the minimal generator
multiset.  Cancelling (1-t) factors gives Q(t)/(1-t)^d with Q(1) != 0;
d is the Krull dimension and e = Q(1) the multiplicity.
"""

from __future__ import annotations

import math

from .errors import HypothesisError, InvariantError
from .groebner import IdealPresentation, groebner_basis
from .polyring import (
    Monomial,
    graded_piece_basis,
    minimal_monomial_generators,
    monomial_divides,
)
from .records import Record

IntPoly = tuple[int, ...]  # coefficient tuple, index = degree, trimmed

_ZERO: IntPoly = ()


def _trim(coeffs) -> IntPoly:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_add(a: IntPoly, b: IntPoly) -> IntPoly:
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _poly_shift(a: IntPoly, k: int) -> IntPoly:
    if not a:
        return a
    return (0,) * k + a


def _poly_eval1(a: IntPoly) -> int:
    return sum(a)


def _divide_by_one_minus_t(a: IntPoly) -> IntPoly:
    """Exact quotient a / (1 - t); requires a(1) = 0."""
    if not a:
        return a
    out = []
    acc = 0
    for c in a[:-1]:
        acc += c
        out.append(acc)
    if acc + a[-1] != 0:
        raise InvariantError(f"{a} is not divisible by (1 - t)")
    return _trim(out)


# Largest number of numerators kept.  The memo is process-wide: the same
# monomial ideals recur across the Hilbert computations of one command.
NUMERATOR_MEMO_LIMIT = 1 << 12
_numerator_memo: dict[tuple, IntPoly] = {}


def monomial_ideal_numerator(exponents, n: int) -> IntPoly:
    """Numerator N(t) of the Hilbert series of S/(monomial ideal) over (1-t)^n."""
    gens = minimal_monomial_generators(exponents)
    return _numerator(gens, n)


def _numerator(gens: tuple[Monomial, ...], n: int) -> IntPoly:
    if not gens:
        return (1,)
    if any(sum(e) == 0 for e in gens):
        return _ZERO  # unit ideal, zero ring
    key = (n, gens)
    hit = _numerator_memo.get(key)
    if hit is not None:
        return hit
    supports = [tuple(i for i, x in enumerate(e) if x) for e in gens]
    pairwise_coprime = True
    seen = set()
    for sup in supports:
        if any(i in seen for i in sup):
            pairwise_coprime = False
            break
        seen.update(sup)
    if pairwise_coprime:
        result: IntPoly = (1,)
        for e in gens:
            d = sum(e)
            factor = _trim([1] + [0] * (d - 1) + [-1])
            result = _poly_mul(result, factor)
    else:
        counts = [0] * n
        for sup in supports:
            if len(sup) > 1:
                for i in sup:
                    counts[i] += 1
        pivot = max(range(n), key=lambda i: counts[i])
        unit = tuple(1 if i == pivot else 0 for i in range(n))
        plus = minimal_monomial_generators([e for e in gens if e[pivot] == 0] + [unit])
        quot = minimal_monomial_generators(
            [tuple(max(x - 1, 0) if i == pivot else x for i, x in enumerate(e)) for e in gens]
        )
        result = _poly_add(_numerator(plus, n), _poly_shift(_numerator(quot, n), 1))
    if len(_numerator_memo) >= NUMERATOR_MEMO_LIMIT:
        _numerator_memo.clear()
    _numerator_memo[key] = result
    return result


def _poly_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    if not a or not b:
        return _ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


class HilbertData(Record):
    """Series data of a graded quotient S/I.

    ``series_numerator`` is N with series N/(1-t)^nvars; ``numerator`` is Q
    after cancelling, so the series is Q/(1-t)^dim and multiplicity = Q(1).
    ``hf_poly_from`` is a degree from which the Hilbert function agrees with
    its Hilbert polynomial.
    """

    __slots__ = ("nvars", "series_numerator", "numerator", "dim", "multiplicity", "hf_poly_from")


def dim_and_multiplicity(series_numerator: IntPoly, n: int) -> tuple[int, int, IntPoly]:
    """(d, e, Q) of a nonzero quotient with series N/(1-t)^n, N = series_numerator.

    Cancelling the (1-t) factors of N gives Q/(1-t)^d with Q(1) != 0: d is
    the Krull dimension and e = Q(1) the multiplicity.
    """
    q = series_numerator
    d = n
    while q and _poly_eval1(q) == 0:
        q = _divide_by_one_minus_t(q)
        d -= 1
    e = _poly_eval1(q)
    if e <= 0:
        raise InvariantError(f"multiplicity {e} of a nonzero quotient is not positive")
    return d, e, q


def hilbert_data(ideal: IdealPresentation) -> HilbertData:
    """Series data of S/I from the grevlex leading exponents, cached on the ideal.

    By Macaulay's theorem the series depends only on the leading ideal, so
    no basis element is read.
    """
    if ideal._hilbert is not None:
        return ideal._hilbert
    gb = groebner_basis(ideal)
    if gb.is_unit_ideal:
        raise ValueError("unit ideal: the quotient is the zero ring")
    n = ideal.ring.n
    # a reduced basis's leading exponents minimally generate the leading ideal
    series_num = _numerator(tuple(sorted(gb.leading_exponents)), n)
    d, e, q = dim_and_multiplicity(series_num, n)
    data = HilbertData(
        nvars=n,
        series_numerator=series_num,
        numerator=q,
        dim=d,
        multiplicity=e,
        hf_poly_from=max(len(q) - 1 - d + 1, 0),
    )
    ideal._hilbert = data
    return data


def hilbert_function(ideal: IdealPresentation, t: int) -> int:
    """dim_K of the degree-t piece of S/I."""
    if t < 0:
        return 0
    data = hilbert_data(ideal)
    return hilbert_series_coefficient(data, t)


def hilbert_series_coefficient(data: HilbertData, t: int) -> int:
    if t < 0:
        return 0
    n = data.nvars
    total = 0
    for j, c in enumerate(data.series_numerator):
        if j > t:
            break
        if c:
            total += c * math.comb(t - j + n - 1, n - 1)
    return total


def graded_piece_of_quotient(ideal: IdealPresentation, t: int) -> list[Monomial]:
    """Standard monomial basis of degree t of S/I, descending in grevlex."""
    gb = groebner_basis(ideal)
    if gb.is_unit_ideal:
        raise ValueError("unit ideal: the quotient is the zero ring")
    lts = gb.leading_exponents
    basis = []
    for e in graded_piece_basis(ideal.ring, t):
        if not any(monomial_divides(lt, e) for lt in lts):
            basis.append(e)
    return basis


def multiplicity_at_dim(ideal: IdealPresentation, theta: int) -> int:
    """Hilbert-Samuel multiplicity of S/I measured at dimension theta.

    Returns the multiplicity when theta equals the Krull dimension, 0 when
    theta exceeds it (the module is too small to register), and raises when
    theta is below it.
    """
    data = hilbert_data(ideal)
    if theta < data.dim:
        raise HypothesisError(
            f"dimension too small: quotient has dimension {data.dim}, asked for {theta}"
        )
    if theta > data.dim:
        return 0
    return data.multiplicity
