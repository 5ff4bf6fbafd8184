"""Ring profiles: certification, classification, prime families."""

import pytest

from gmdkit.gflinalg import FieldSpec
from gmdkit.groebner import IdealPresentation, ideals_equal
from gmdkit.hilbert import hilbert_function
from gmdkit.schemes import build_profile, build_profile_from_primes
from gmdkit.polyring import RingSpec

from oracles import EXAMPLE1, EXAMPLE2


def str_ideal(char, names, gens):
    ring = RingSpec(FieldSpec(char), tuple(names))
    return IdealPresentation.from_strings(ring, gens)


def example1_parts():
    ideal = str_ideal(EXAMPLE1["char"], EXAMPLE1["vars"], EXAMPLE1["gens"])
    ring = ideal.ring
    primes = [IdealPresentation.from_strings(ring, ps) for ps in EXAMPLE1["primes"]]
    return ideal, primes


def test_example1_profile_is_certified():
    ideal, primes = example1_parts()
    profile = build_profile(ideal, primes)
    assert profile.reduced_certified
    assert profile.warnings == ()
    assert profile.classification == EXAMPLE1["classification"]
    assert profile.dim == EXAMPLE1["dim"]
    assert profile.multiplicity == EXAMPLE1["multiplicity"]
    assert tuple(p.mult for p in profile.primes) == EXAMPLE1["prime_mults"]
    assert profile.top_indices() == (0, 1, 2)
    assert profile.min_top_multiplicity() == 1


def test_example2_profile_shape():
    ideal = str_ideal(EXAMPLE2["char"], EXAMPLE2["vars"], EXAMPLE2["gens"])
    primes = [
        IdealPresentation.from_strings(ideal.ring, ps) for ps in EXAMPLE2["primes"]
    ]
    profile = build_profile(ideal, primes)
    assert profile.reduced_certified
    assert profile.classification == EXAMPLE2["classification"]
    assert profile.dim == EXAMPLE2["dim"]
    assert profile.multiplicity == EXAMPLE2["multiplicity"]
    assert profile.top_indices() == (0,)
    assert profile.low_indices() == (1, 2)
    assert profile.primes[0].dim == EXAMPLE2["top_prime_dim"]


def test_dropped_prime_loses_certification():
    ideal, primes = example1_parts()
    profile = build_profile(ideal, primes[:2])
    assert not profile.reduced_certified
    assert any("differs from the ideal" in w for w in profile.warnings)
    assert profile.classification == "unknown"


def test_no_primes_gives_unknown_profile():
    ideal, _ = example1_parts()
    profile = build_profile(ideal)
    assert not profile.reduced_certified
    assert profile.classification == "unknown"
    assert profile.primes == ()


def test_unit_prime_rejected():
    ideal, primes = example1_parts()
    ring = ideal.ring
    from gmdkit.polyring import Polynomial

    unit = IdealPresentation(ring, [Polynomial.one(ring)])
    with pytest.raises(ValueError, match="prime #2 is the unit ideal"):
        build_profile(ideal, [primes[0], unit])


def test_prime_containing_another_rejected():
    # (x, y) contains (x): the list still intersects to I = (xy, xz) and
    # passes additivity over the top primes, but (x, y) is not minimal
    ring = RingSpec(FieldSpec(2), ("x", "y", "z"))
    ideal = IdealPresentation.from_strings(ring, ["x*y", "x*z"])
    px, pyz, pxy = (IdealPresentation.from_strings(ring, g) for g in (["x"], ["y", "z"], ["x", "y"]))
    with pytest.raises(ValueError, match=r"prime #3 contains prime #1;"):
        build_profile(ideal, [px, pyz, pxy])
    with pytest.raises(ValueError, match=r"prime #1 contains prime #3;"):
        build_profile(ideal, [pxy, pyz, px])
    # a duplicate, under other generators, of a prime of the same dimension
    twin = IdealPresentation.from_strings(ring, ["z", "y+z"])
    with pytest.raises(ValueError, match=r"prime #3 contains prime #2;"):
        build_profile(ideal, [px, pyz, twin])
    with pytest.raises(ValueError, match=r"prime #2 contains prime #1;"):
        build_profile(ideal, [px, px, pyz])
    profile = build_profile(ideal, [px, pyz])
    assert profile.reduced_certified


def test_noncontaining_prime_rejected():
    ideal, primes = example1_parts()
    stranger = IdealPresentation.from_strings(ideal.ring, ["x+y"])
    with pytest.raises(ValueError, match="prime #1 does not contain the ideal"):
        build_profile(ideal, [stranger] + primes[1:])


def test_additivity_certificate_rejects_wrong_multiplicities():
    # x^2*y = lcm(x^2, x*y): the "primes" intersect to the ideal, but their
    # multiplicities sum to 4 against a quotient of multiplicity 3
    ring = RingSpec(FieldSpec(2), ("x", "y"))
    ideal = IdealPresentation.from_strings(ring, ["x^2*y"])
    px2 = IdealPresentation.from_strings(ring, ["x^2"])
    pxy = IdealPresentation.from_strings(ring, ["x*y"])
    with pytest.raises(ValueError, match="additivity certificate failed"):
        build_profile(ideal, [px2, pxy])


def test_build_profile_from_primes_certifies_by_construction():
    _, primes = example1_parts()
    profile = build_profile_from_primes(primes)
    assert profile.reduced_certified
    assert profile.classification == EXAMPLE1["classification"]
    direct = str_ideal(EXAMPLE1["char"], EXAMPLE1["vars"], EXAMPLE1["gens"])
    assert ideals_equal(profile.ideal, direct)
    with pytest.raises(ValueError):
        build_profile_from_primes([])


def test_family_intersection_is_lazy_and_cached():
    ideal, primes = example1_parts()
    profile = build_profile(ideal, primes)
    fam = profile.intersect_family((0, 2))
    assert fam._ideal is None
    fam.quotient_dim(2)
    # a certified profile's backend serves dimensions from its rank table
    assert fam._ideal is None
    ideal_02 = fam.ideal
    assert fam._ideal is ideal_02
    assert fam.ideal is ideal_02
    assert profile.intersect_family((2, 0)) is fam
    assert profile.intersect_family([0, 0, 2]) is fam


def test_family_quotient_dims_match_hilbert_differences():
    ideal, primes = example1_parts()
    profile = build_profile(ideal, primes)
    for indices in [(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)]:
        fam = profile.intersect_family(indices)
        for t in range(5):
            expected = hilbert_function(ideal, t) - hilbert_function(fam.ideal, t)
            assert fam.quotient_dim(t) == expected
            assert fam.quotient_dim(t) >= 0


def test_family_index_out_of_range():
    ideal, primes = example1_parts()
    profile = build_profile(ideal, primes)
    with pytest.raises(IndexError):
        profile.intersect_family((0, 3))
    with pytest.raises(ValueError, match="at least one prime"):
        profile.intersect_family(())


def test_classifications_across_shapes():
    # a domain: coordinate hyperplane
    plane = str_ideal(2, ("x", "y", "z"), ("x",))
    prime = str_ideal(2, ("x", "y", "z"), ("x",))
    assert build_profile(plane, [prime]).classification == "domain"

    # two lines through the origin in the plane: unmixed of dimension 1
    lines = str_ideal(2, ("x", "y"), ("x*y",))
    ps = [str_ideal(2, ("x", "y"), ("x",)), str_ideal(2, ("x", "y"), ("y",))]
    assert build_profile(lines, ps).classification == "one_dimensional"

    # two planes in 4-space meeting at a point: unmixed of dimension >= 2
    planes = str_ideal(2, ("x", "y", "z", "w"), ("x*z", "x*w", "y*z", "y*w"))
    qs = [
        str_ideal(2, ("x", "y", "z", "w"), ("x", "y")),
        str_ideal(2, ("x", "y", "z", "w"), ("z", "w")),
    ]
    assert build_profile(planes, qs).classification == "unmixed_dim_ge2"

    # plane plus line: mixed with a one-dimensional low prime
    mixed = str_ideal(2, ("x", "y", "z"), ("x*y", "x*z"))
    ms = [
        str_ideal(2, ("x", "y", "z"), ("x",)),
        str_ideal(2, ("x", "y", "z"), ("y", "z")),
    ]
    assert build_profile(mixed, ms).classification == "mixed_low_dim1"

    # hyperplane plus plane in 4-space: mixed, low prime of dimension >= 2
    hp = str_ideal(2, ("x", "y", "z", "w"), ("x*y", "x*z"))
    hs = [
        str_ideal(2, ("x", "y", "z", "w"), ("x",)),
        str_ideal(2, ("x", "y", "z", "w"), ("y", "z")),
    ]
    assert build_profile(hp, hs).classification == "mixed_low_dim_ge2"


def test_single_point_is_still_a_domain():
    # one certified prime means the quotient is a domain, even in dimension 0
    ring = RingSpec(FieldSpec(2), ("x", "y"))
    point = IdealPresentation.from_strings(ring, ["x", "y"])
    profile = build_profile(point, [point])
    assert profile.classification == "domain"
    assert profile.dim == 0


def test_zero_dimensional_low_prime_is_out_of_scope():
    ring = RingSpec(FieldSpec(2), ("x", "y"))
    ideal = IdealPresentation.from_strings(ring, ["x^2", "x*y"])
    line = IdealPresentation.from_strings(ring, ["x"])
    fat_origin = IdealPresentation.from_strings(ring, ["x^2", "y"])
    profile = build_profile(ideal, [line, fat_origin])
    assert profile.classification == "unknown"
    assert any("out of scope" in w for w in profile.warnings)


def test_unmixed_dimension_zero_branch_of_classifier():
    from gmdkit.schemes import MinimalPrimeData, _classify

    ring = RingSpec(FieldSpec(2), ("x", "y"))
    point = IdealPresentation.from_strings(ring, ["x", "y"])
    fake = MinimalPrimeData(ideal=point, dim=0, mult=1, is_top=True, linear=True, monomial=True)
    label, warns = _classify(point, (fake, fake), 0, True)
    assert label == "unknown"
    assert any("dimension 0" in w for w in warns)


def test_family_regime_reaches_polynomial_values():
    ideal, primes = example1_parts()
    profile = build_profile(ideal, primes)
    fam = profile.intersect_family((0, 1, 2))
    r = fam.regime()
    vals = [fam.quotient_dim(t) for t in range(r, r + 4)]
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    # dimension-1 data: the piece dimensions are eventually constant
    assert all(d == 0 for d in diffs)
