"""Record classes: equality, hashing, constructor checks and pickling."""

import importlib
import pickle
import pkgutil
from pathlib import Path

import pytest

import gmdkit
import gmdkit.cli as cli
from gmdkit.codes import GhwResult, LinearCode
from gmdkit.gflinalg import FieldMatrix, FieldSpec
from gmdkit.gmd import (
    DeltaResult,
    GmdQuery,
    RegularityResult,
    SRContext,
    StabilizationResult,
    Verdict,
)
from gmdkit.groebner import GroebnerBasis, IdealPresentation, groebner_basis
from gmdkit.hilbert import hilbert_data
from gmdkit.polyring import RingSpec
from gmdkit.records import Record, ValueRecord
from gmdkit.schemes import build_profile
from gmdkit.simplicial import (
    ShellingResult,
    SimplicialComplex,
    betti_table,
    face_ring_profile,
)
from gmdkit.suites import BridgeCase, ComplexCase, RingCase

GOLDEN = Path(__file__).resolve().parent / "golden"

F2 = FieldSpec(2)
F3 = FieldSpec(3)
R2 = RingSpec(F2, ("x", "y"))
PATH3 = SimplicialComplex(3, [(0, 1), (1, 2)])


def two_lines():
    """x*y over F_2 with its minimal primes (x) and (y)."""
    ideal = IdealPresentation.from_strings(R2, ["x*y"])
    primes = [IdealPresentation.from_strings(R2, [g]) for g in ("x", "y")]
    return build_profile(ideal, primes)


# (make one record, make one that differs in one field), for the records
# that something compares or uses as a key
VALUE_RECORDS = {
    "FieldSpec": (lambda: FieldSpec(3), lambda: FieldSpec(5)),
    "RingSpec": (lambda: RingSpec(F2, ("x", "y")), lambda: RingSpec(F2, ("y", "x"))),
    "GroebnerBasis": (
        lambda: groebner_basis(IdealPresentation.from_strings(R2, ["x*y", "y^2"])),
        lambda: groebner_basis(IdealPresentation.from_strings(R2, ["x*y", "x^2"])),
    ),
    "DeltaResult": (
        lambda: DeltaResult(3, 1, 2, "fixed-dim", "brute", "empty", None),
        lambda: DeltaResult(3, 1, 2, "fixed-dim", "fast", "empty", None),
    ),
    "StabilizationResult": (
        lambda: StabilizationResult(1, 4, "one-dimensional"),
        lambda: StabilizationResult(1, 5, "one-dimensional"),
    ),
    "RegularityResult": (
        lambda: RegularityResult(2, "iteration", 1),
        lambda: RegularityResult(2, "iteration", 0),
    ),
    "GhwResult": (
        lambda: GhwResult(2, 1, "enumerate", [[1, 0, 1]]),
        lambda: GhwResult(2, 1, "enumerate", [[0, 1, 1]]),
    ),
    "ShellingResult": (
        lambda: ShellingResult("shellable", (0, 1)),
        lambda: ShellingResult("shellable", (1, 0)),
    ),
    "BridgeCase": (
        lambda: BridgeCase("f2-n4-k0", F2, 3, 4, 2026000),
        lambda: BridgeCase("f2-n4-k0", F2, 3, 4, 2026001),
    ),
}

# a GhwResult holds its witness as a list, so it was never hashable
UNHASHABLE = {"GhwResult"}


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_value_records_compare_and_hash_by_their_fields(name):
    make, make_other = VALUE_RECORDS[name]
    a, b, other = make(), make(), make_other()
    assert a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != object() and a != None  # noqa: E711
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a: name}[b] == name


def test_keys_hit_the_caches_they_key():
    # bases of rings with the same variable count share one packing
    assert GroebnerBasis(R2, []).pk is GroebnerBasis(RingSpec(F3, ("a", "b")), []).pk
    assert face_ring_profile(PATH3, FieldSpec(2)) is face_ring_profile(PATH3, FieldSpec(2))


@pytest.mark.parametrize("p", [0, 1, 4, 9, 253, 257])
def test_field_spec_takes_only_primes_up_to_251(p):
    with pytest.raises(ValueError, match="characteristic must be a prime"):
        FieldSpec(p)


@pytest.mark.parametrize(
    "names, message",
    [
        ((), "at least one variable"),
        (("x", "x"), "distinct"),
        (("1x",), "invalid variable name"),
        (("x-y",), "invalid variable name"),
        (("",), "invalid variable name"),
    ],
)
def test_ring_spec_rejects_bad_names(names, message):
    with pytest.raises(ValueError, match=message):
        RingSpec(F2, names)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((0, 1), {}, "degree t must be at least 1"),
        ((1, 0), {}, "count l must be at least 1"),
        ((1, 1), {"convention": "own"}, "unknown convention 'own'"),
        ((1, 1), {"method": "slow"}, "unknown method 'slow'"),
    ],
)
def test_query_checks_its_fields(args, kwargs, message):
    with pytest.raises(ValueError, match=message):
        GmdQuery(two_lines(), *args, **kwargs)
    query = GmdQuery(two_lines(), 2, 1)
    assert (query.t, query.ell, query.convention, query.method) == (2, 1, "fixed-dim", "both")


def test_linear_code_needs_independent_rows():
    with pytest.raises(ValueError, match="at least one generator row"):
        LinearCode(F2, FieldMatrix(F2, []))
    with pytest.raises(ValueError, match="linearly dependent"):
        LinearCode(F2, FieldMatrix(F2, [[1, 0, 1], [1, 0, 1]]))
    code = LinearCode(F2, FieldMatrix(F2, [[1, 0, 1], [0, 1, 1]]))
    assert (code.length, code.dimension) == (3, 2)


def _profile_view(profile):
    return (profile.ring, tuple(profile.ideal.gens), profile.multiplicity, profile.classification)


# every former dataclass, with what a pickle round trip must keep of it
PICKLED = {
    "FieldSpec": (lambda: FieldSpec(7), lambda r: r),
    "RingSpec": (lambda: R2, lambda r: r),
    "GroebnerBasis": (VALUE_RECORDS["GroebnerBasis"][0], lambda r: r),
    "DeltaResult": (
        lambda: DeltaResult(1, 2, 1, "fixed-dim", "both", "ok", {"fast": {"prime_subset": [0]}}),
        lambda r: r,
    ),
    "StabilizationResult": (VALUE_RECORDS["StabilizationResult"][0], lambda r: r),
    "RegularityResult": (VALUE_RECORDS["RegularityResult"][0], lambda r: r),
    "GhwResult": (VALUE_RECORDS["GhwResult"][0], lambda r: r),
    "ShellingResult": (VALUE_RECORDS["ShellingResult"][0], lambda r: r),
    "BridgeCase": (VALUE_RECORDS["BridgeCase"][0], lambda r: r),
    "GmdQuery": (
        lambda: GmdQuery(two_lines(), 2, 1, "own-dim", "brute"),
        lambda r: (_profile_view(r.profile), r.t, r.ell, r.convention, r.method),
    ),
    "HilbertData": (
        lambda: hilbert_data(two_lines().ideal),
        lambda r: (
            r.nvars, r.series_numerator, r.numerator, r.dim, r.multiplicity, r.hf_poly_from
        ),
    ),
    "MinimalPrimeData": (
        lambda: two_lines().primes[1],
        lambda r: (tuple(r.ideal.gens), r.dim, r.mult, r.is_top, r.linear, r.monomial),
    ),
    "FamilyIntersection": (
        lambda: two_lines().intersect_family((0,)),
        lambda r: (r.indices, _profile_view(r._profile), [r.quotient_dim(t) for t in (1, 2, 3)]),
    ),
    "SRContext": (
        lambda: SRContext(2, 1, True, "shellable"),
        lambda r: (r.depth, r.regularity, r.proj_connected, r.shellable),
    ),
    "Verdict": (
        lambda: Verdict("dim-bound", "skipped", "facet graph is disconnected"),
        lambda r: (r.name, r.status, r.detail),
    ),
    "LinearCode": (
        lambda: LinearCode(F3, FieldMatrix(F3, [[1, 0, 2], [0, 1, 1]])),
        lambda r: (r.field, r.generator, r.length, r.dimension),
    ),
    "BettiTable": (
        lambda: betti_table(PATH3, F2),
        lambda r: (r.nvars, r.entries, r.depth(), r.regularity()),
    ),
    "RingCase": (
        lambda: RingCase("f2-two-lines", "ideal", F2, (("x", "y"), ("x*y",), (("x",), ("y",)))),
        lambda r: (r.name, r.kind, r.field, r.data, _profile_view(r.build())),
    ),
    "ComplexCase": (
        lambda: ComplexCase("path-three", PATH3),
        lambda r: (r.name, r.complex_.n, r.complex_.facets),
    ),
}


def test_every_former_dataclass_is_pickled():
    # every one but MonomialOrder, which holds no field now that grevlex is the only order
    assert len(PICKLED) == 19


@pytest.mark.parametrize("name", sorted(PICKLED))
def test_records_survive_a_pickle_round_trip(name):
    make, view = PICKLED[name]
    record = make()
    clone = pickle.loads(pickle.dumps(record))
    assert type(clone) is type(record)
    assert view(clone) == view(record)


def _record_classes():
    """Every subclass of ``Record`` that a gmdkit module defines."""
    for module in pkgutil.iter_modules(gmdkit.__path__):
        importlib.import_module(f"gmdkit.{module.name}")
    found, todo = [], [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("gmdkit.") and cls is not ValueRecord:
                found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


RECORD_CLASSES = _record_classes()


def test_records_cover_the_plain_field_classes():
    assert len(RECORD_CLASSES) == 13


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_every_record_is_pickled_and_has_no_dict(cls):
    assert cls.__name__ in PICKLED
    if issubclass(cls, ValueRecord):
        assert cls.__name__ in VALUE_RECORDS
    record = PICKLED[cls.__name__][0]()
    assert type(record) is cls
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_records_refuse_a_missing_an_extra_and_an_unknown_field(cls):
    n = len(cls.__slots__)
    with pytest.raises(TypeError, match=f"{cls.__name__} is missing fields {cls.__slots__[-1]}"):
        cls(*range(n - 1))
    with pytest.raises(TypeError, match=f"{cls.__name__} takes {n} fields, got {n + 1}"):
        cls(*range(n + 1))
    with pytest.raises(TypeError, match=f"{cls.__name__} got 'no_such_field' as an unknown"):
        cls(*range(n), no_such_field=0)
    with pytest.raises(TypeError, match=f"{cls.__name__} got '{cls.__slots__[0]}' twice"):
        cls(*range(n), **{cls.__slots__[0]: 0})


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_records_take_fields_by_position_or_keyword(cls):
    by_position = cls(*range(len(cls.__slots__)))
    by_keyword = cls(**{name: i for i, name in reversed(list(enumerate(cls.__slots__)))})
    for i, name in enumerate(cls.__slots__):
        assert getattr(by_position, name) == getattr(by_keyword, name) == i
    assert (by_position == by_keyword) is issubclass(cls, ValueRecord)


def test_value_records_equal_only_records_of_their_own_type():
    class Pair(ValueRecord):
        __slots__ = ("a", "b")

    class OtherPair(ValueRecord):
        __slots__ = ("a", "b")

    assert Pair(1, 2) == Pair(1, 2) and hash(Pair(1, 2)) == hash(Pair(1, 2))
    assert Pair(1, 2) != Pair(2, 1)
    assert Pair(1, 2) != OtherPair(1, 2)


@pytest.mark.parametrize(
    "argv",
    [
        ["delta", "example1.json", "--witnesses"],
        ["ghw", "points.json"],
    ],
)
def test_reports_are_the_same_bytes_for_one_and_two_jobs(capsys, monkeypatch, argv):
    monkeypatch.chdir(GOLDEN)
    outputs = []
    for jobs in ("1", "2"):
        assert cli.main(argv + ["--jobs", jobs]) == 0
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1]
    assert b'"witness"' in outputs[0] or argv[0] == "ghw"
