"""What the benchmark's tracer expects of gmdkit's layout.

``perfbench/tracing.py`` wraps gmdkit functions by name from outside, so a
rename or a changed signature would silently turn a traced run's layer
metrics to zero.  These checks read its target table and fail instead.
"""

import importlib
import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_trace_target_resolves(tracing):
    assert tracing.TARGETS
    for target in tracing.TARGETS:
        module = importlib.import_module(f"gmdkit.{target.module}")
        owner_name, _, attr = target.attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        if owner_name:
            # methods are wrapped on the class that defines them
            assert attr in vars(owner), target
        assert callable(getattr(owner, attr)), target


def test_brute_scan_passes_its_range_at_positions_six_and_seven():
    from gmdkit import gmd

    params = list(inspect.signature(gmd._brute_scan).parameters)
    assert params[6:8] == ["start", "stop"]


def _count_calls(monkeypatch, targets):
    """Count the calls to each (module, attribute), keyed by the attribute name."""
    calls = Counter()
    for module, name in targets:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_a_certified_line_cell_reaches_every_brute_layer(ring_cases, monkeypatch):
    # run.py's EXPECTED needs these counts nonzero on both brute workloads;
    # the row bound skips only l >= 2 subspaces, so an l = 1 cell runs them all
    from gmdkit import gmd, groebner
    from gmdkit.suites import RingCase

    calls = _count_calls(monkeypatch, [
        (gmd, "ann_nonzero"), (gmd, "groebner_basis_extending"),
        (groebner, "buchberger"), (gmd, "multiplicity_at_dim"),
    ])
    profile = RingCase.build.__wrapped__(ring_cases["f2-onedim-three-primes"])
    assert profile.reduced_certified
    result = gmd.delta_bruteforce(gmd.GmdQuery(profile, 2, 1, method="brute"))
    assert result.status == "ok"
    names = ("ann_nonzero", "groebner_basis_extending", "buchberger", "multiplicity_at_dim")
    assert all(calls[name] > 0 for name in names), calls


def _uncertified_example1():
    from gmdkit.gflinalg import FieldSpec
    from gmdkit.groebner import IdealPresentation
    from gmdkit.polyring import RingSpec
    from gmdkit.schemes import build_profile

    from oracles import EXAMPLE1

    ring = RingSpec(FieldSpec(EXAMPLE1["char"]), EXAMPLE1["vars"])
    return build_profile(IdealPresentation.from_strings(ring, EXAMPLE1["gens"]))


def _lines_read_past_the_footprint_bound(profile, t):
    """Lines of the degree-t piece that the fixed-dim scan reads: those whose
    pivot block's footprint bound exceeds every line value before them.
    The values come from the unpruned oracle, one line at a time."""
    from gmdkit import gmd
    from gmdkit.gflinalg import SubspaceIterator
    from gmdkit.hilbert import graded_piece_of_quotient

    from oracles import _unpruned_scan

    basis = tuple(graded_piece_of_quotient(profile.ideal, t))
    it = SubspaceIterator(len(basis), 1, profile.ring.field)
    values, bounds = [], []
    for lo, hi, rows in it.pivot_blocks(0, it.count):
        bound = gmd._footprint_bound(profile, tuple(basis[c] for c, _ in rows))
        for index in range(lo, hi):
            delta, _ = _unpruned_scan(profile, t, 1, gmd.FIXED_DIM, basis, it, index, index + 1)
            values.append(-1 if delta is None else profile.multiplicity - delta)
            bounds.append(bound)
    return sum(1 for k, bound in enumerate(bounds) if max(values[:k], default=-1) < bound)


def test_an_uncertified_line_cell_extends_once_per_line_and_builds_no_colon(monkeypatch):
    # the colon-mode line test reads the Hilbert series of the extension the
    # multiplicity needs anyway, so no colon ideal and no intersection; the
    # lines the footprint bound skips are not read at all
    from gmdkit import gmd, groebner

    read = _lines_read_past_the_footprint_bound(_uncertified_example1(), 2)
    calls = _count_calls(monkeypatch, [
        (gmd, "colon"), (groebner, "colon"), (groebner, "intersect"),
        (gmd, "groebner_basis_extending"), (gmd, "ann_nonzero"),
    ])
    profile = _uncertified_example1()
    assert not profile.reduced_certified
    result = gmd.delta_bruteforce(gmd.GmdQuery(profile, 2, 1, method="brute"))
    assert result.status == "ok"
    assert result.witness["searched"] == 31
    assert 0 < read < 31
    assert calls == Counter(groebner_basis_extending=read, ann_nonzero=read), calls


def test_an_uncertified_plane_cell_still_reaches_colon_and_intersect(monkeypatch):
    # run.py's EXPECTED needs groebner.colon.calls and groebner.intersect.calls
    # nonzero on brute-colon, whose lines no longer build colon ideals
    from gmdkit import gmd, groebner

    calls = _count_calls(monkeypatch, [(gmd, "colon"), (groebner, "intersect")])
    profile = _uncertified_example1()
    result = gmd.delta_bruteforce(gmd.GmdQuery(profile, 2, 2, method="brute"))
    assert result.status == "ok"
    assert calls["colon"] > 0 and calls["intersect"] > 0, calls


def test_groebner_entry_points_reach_the_kernel_through_module_attributes(monkeypatch):
    # tracing.py wraps groebner.buchberger, groebner.normal_form and the
    # normal_form name gmd imported; a kernel reached any other way would
    # drop out of groebner.buchberger.calls and groebner.normal_form.calls
    from gmdkit import gmd, groebner
    from gmdkit.gflinalg import FieldSpec
    from gmdkit.polyring import RingSpec

    calls = Counter()
    results = []

    def counting(module, name, keep=False):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[f"{module.__name__}.{name}"] += 1
            result = fn(*args, **kwargs)
            if keep:
                results.append(result)
            return result

        monkeypatch.setattr(module, name, counted)

    counting(groebner, "buchberger", keep=True)
    counting(groebner, "normal_form")
    counting(gmd, "normal_form")
    ring = RingSpec(FieldSpec(3), ("x", "y", "z"))
    a = groebner.IdealPresentation.from_strings(ring, ["x*y+z^2", "y^2"])
    b = groebner.IdealPresentation.from_strings(ring, ["x^2+y*z"])
    gb = groebner.groebner_basis(a)
    groebner.groebner_basis_extending(gb, b.gens)
    groebner.intersect(a, b)
    assert calls["gmdkit.groebner.buchberger"] == 3
    # _buchberger_hook counts out_len with len(result)
    assert results and all(type(result) is list for result in results)
    assert groebner.ideal_contains(a, a)
    assert calls["gmdkit.groebner.normal_form"] == len(a.gens)
    assert not gmd._in_ideal(b.gens[0], gb)
    assert calls["gmdkit.gmd.normal_form"] > 0


def test_every_workload_kind_still_reaches_the_order_key(monkeypatch, tmp_path, capsys):
    # run.py's EXPECTED needs polyring.order_key.calls nonzero on every
    # workload.  The Groebner engine compares packed ints, so these calls
    # come from leading terms, sorted terms and graded bases around it.
    import json

    from gmdkit import cli, polyring

    from oracles import EXAMPLE1

    calls = Counter()
    key = polyring.MonomialOrder.key

    def counted(self, e):
        calls["key"] += 1
        return key(self, e)

    monkeypatch.setattr(polyring.MonomialOrder, "key", counted)
    ideal = {"char": EXAMPLE1["char"], "vars": list(EXAMPLE1["vars"]), "gens": list(EXAMPLE1["gens"])}
    certified = dict(ideal, minimal_primes=[list(ps) for ps in EXAMPLE1["primes"]])
    points = {"char": 3, "ambient": 3, "points": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 0]]}
    grid = ("--t-max", "2", "--ell-max", "2")
    runs = {
        "brute-certified": (certified, ("delta", "--method", "both") + grid),
        "brute-colon": (ideal, ("delta",) + grid),
        "prime-scan delta": (points, ("delta", "--method", "fast") + grid),
        "prime-scan stabilize": (points, ("stabilize", "--ell-max", "2")),
        "prime-scan ghw": (points, ("ghw",) + grid),
    }
    for name, (doc, (command, *args)) in runs.items():
        calls.clear()
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        assert cli.main([command, str(path), *args]) == 0, name
        capsys.readouterr()
        assert calls["key"] > 0, name


def _traced_metrics(tracing, tmp_path, capsys, runs):
    """Per-layer metrics, as one benchmark pass, of CLI runs made in this
    process under the benchmark's own tracer."""
    import json

    from gmdkit import cli

    totals = tracing.Totals()
    for index, (doc, argv) in enumerate(runs):
        path = tmp_path / f"input{index}.json"
        path.write_text(json.dumps(doc))
        tracer = tracing.Tracer(index)
        tracer.install()
        try:
            status = cli.main([argv[0], str(path), *argv[1:]])
        finally:
            tracer.uninstall()
        capsys.readouterr()
        assert status == 0, argv
        spans = tmp_path / f"spans{index}.json"
        tracer.dump(str(spans))
        totals.add(json.loads(spans.read_text()))
    return tracing.layer_metrics(totals, 1)


def _lines_doc():
    from oracles import LINES5_F2

    return {
        "char": LINES5_F2["char"],
        "vars": list(LINES5_F2["vars"]),
        "gens": list(LINES5_F2["gens"]),
        "minimal_primes": [list(ps) for ps in LINES5_F2["primes"]],
    }


POINTS_DOC = {"char": 3, "ambient": 3, "points": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 0]]}
PLANE_F3_DOC = {
    "char": 3,
    "ambient": 3,
    "points": [[0, 0, 1]]
    + [[0, 1, a] for a in range(3)]
    + [[1, a, b] for a in range(3) for b in range(3)],
}


def test_fast_delta_on_lines_reads_every_family_under_delta_fast(tracing, tmp_path, capsys):
    # gmd.delta_fast.masks counts quotient_dim spans directly under
    # delta_fast: subset_dims reads each of the 31 nonempty families of the
    # five lines once per degree through FamilyIntersection.quotient_dim,
    # which the normal-form backend serves from its table.  The only
    # intersections left are build_profile's certification chain.
    grid = ("--t-max", "2", "--ell-max", "2")
    metrics = _traced_metrics(
        tracing, tmp_path, capsys, [(_lines_doc(), ("delta", "--method", "fast") + grid)]
    )
    assert metrics["gmd.delta_fast.masks"] == 2 * 31
    assert metrics["schemes.build_profile.calls"] == 1
    assert metrics["groebner.intersect.calls"] == 4


def test_points_stabilize_still_calls_the_point_backend_piece_dim(tracing, tmp_path, capsys):
    from gmdkit import codes

    assert "piece_dim" in vars(codes.PointFamilyBackend)
    metrics = _traced_metrics(
        tracing, tmp_path, capsys, [(POINTS_DOC, ("stabilize", "--ell-max", "2"))]
    )
    assert metrics["codes.piece_dim.calls"] > 0


@pytest.fixture
def run(monkeypatch):
    """perfbench/run.py, loaded as a module for its EXPECTED table."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_a_prime_scan_pass_reads_every_metric_the_benchmark_expects(tracing, run, tmp_path, capsys):
    # run.py exits 1 when a metric EXPECTED assigns to prime-scan reads 0;
    # one op of each prime-scan kind, in the benchmark's argument shapes
    grid = ("--t-max", "3", "--ell-max", "3")
    runs = [
        (POINTS_DOC, ("delta", "--method", "fast") + grid),
        (POINTS_DOC, ("stabilize", "--ell-max", "3")),
        # all 13 points of P^2(F_3): at t = 3 the code is too large to enumerate
        (PLANE_F3_DOC, ("ghw",) + grid),
        (_lines_doc(), ("delta", "--method", "fast") + grid),
        (_lines_doc(), ("stabilize", "--ell-max", "3")),
    ]
    metrics = _traced_metrics(tracing, tmp_path, capsys, runs)
    missing = [name for name in run.EXPECTED["prime-scan"] if not metrics.get(name)]
    assert not missing, missing


def test_a_brute_pass_reads_every_metric_the_benchmark_expects(tracing, run, tmp_path, capsys):
    # the same for the two brute workloads: one op of each, in the
    # benchmark's argument shapes, on a certified ideal and its uncertified twin
    from oracles import EXAMPLE1

    twin = {"char": EXAMPLE1["char"], "vars": list(EXAMPLE1["vars"]), "gens": list(EXAMPLE1["gens"])}
    certified = dict(twin, minimal_primes=[list(ps) for ps in EXAMPLE1["primes"]])
    tail = ("--t-max", "2", "--ell-max", "2", "--jobs", "1", "--format", "json")
    runs = {
        "brute-certified": (certified, ("delta", "--method", "both") + tail),
        "brute-colon": (twin, ("delta",) + tail),
    }
    for workload, (doc, argv) in runs.items():
        metrics = _traced_metrics(tracing, tmp_path, capsys, [(doc, argv)])
        missing = [name for name in run.EXPECTED[workload] if not metrics.get(name)]
        assert not missing, (workload, missing)
