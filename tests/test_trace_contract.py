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


def test_a_certified_line_cell_reaches_every_brute_layer(ring_cases, monkeypatch):
    # run.py's EXPECTED needs these counts nonzero on both brute workloads;
    # the row bound skips only l >= 2 subspaces, so an l = 1 cell runs them all
    from gmdkit import gmd, groebner
    from gmdkit.suites import RingCase

    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(gmd, "ann_nonzero")
    count(gmd, "groebner_basis_extending")
    count(groebner, "buchberger")
    count(gmd, "multiplicity_at_dim")
    profile = RingCase.build.__wrapped__(ring_cases["f2-onedim-three-primes"])
    assert profile.reduced_certified
    result = gmd.delta_bruteforce(gmd.GmdQuery(profile, 2, 1, method="brute"))
    assert result.status == "ok"
    names = ("ann_nonzero", "groebner_basis_extending", "buchberger", "multiplicity_at_dim")
    assert all(calls[name] > 0 for name in names), calls


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
        "prime-scan stabilize": (points, ("stabilize",) + grid),
        "prime-scan ghw": (points, ("ghw",) + grid),
    }
    for name, (doc, (command, *args)) in runs.items():
        for memo in polyring._key_memos.values():
            memo.clear()
        calls.clear()
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        assert cli.main([command, str(path), *args]) == 0, name
        capsys.readouterr()
        assert calls["key"] > 0, name
