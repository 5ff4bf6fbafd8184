"""Internal invariant checks: typed errors that survive ``python -O``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gmdkit
import gmdkit.cli as cli
from gmdkit import hilbert
from gmdkit.errors import InvariantError
from gmdkit.schemes import build_profile

SRC = str(Path(gmdkit.__file__).resolve().parent.parent)


def test_division_by_one_minus_t_needs_a_root_at_one():
    assert hilbert._divide_by_one_minus_t((1, -1)) == (1,)
    with pytest.raises(InvariantError, match="not divisible"):
        hilbert._divide_by_one_minus_t((1, 1))


def test_prefix_chain_must_match_the_primes(ex1_profile):
    primes = [p.ideal for p in ex1_profile.primes]
    with pytest.raises(InvariantError, match="prefix chain"):
        build_profile(ex1_profile.ideal, primes, _prefix_chain=[ex1_profile.ideal])


def test_invariant_checks_survive_optimized_mode():
    code = "from gmdkit.hilbert import _divide_by_one_minus_t; _divide_by_one_minus_t((1, 1))"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 1
    assert "InvariantError" in proc.stderr


def test_cli_reports_a_broken_invariant_in_one_line(capsys, monkeypatch, tmp_path):
    real = hilbert._divide_by_one_minus_t
    monkeypatch.setattr(hilbert, "_divide_by_one_minus_t", lambda a: real((1, 1)))
    doc = tmp_path / "ideal.json"
    doc.write_text('{"char": 2, "vars": ["x", "y", "z"], "gens": ["x*y"]}')
    status = cli.main(["delta", str(doc), "--t-max", "1", "--ell-max", "1"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_every_property_test_runs_under_the_tier1_profile():
    # conftest.py loads one Hypothesis profile; a test's @settings only sets
    # max_examples, so no property test can run randomized or with a deadline
    import importlib

    found = 0
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for name, test in vars(importlib.import_module(path.stem)).items():
            if getattr(test, "is_hypothesis_test", False):
                chosen = test._hypothesis_internal_use_settings
                assert (chosen.deadline, chosen.database, chosen.derandomize) == (None, None, True), name
                found += 1
    assert found >= 31
