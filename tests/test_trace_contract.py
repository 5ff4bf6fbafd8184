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
