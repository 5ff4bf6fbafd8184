"""Start-up: a gmdkit process loads only the modules its command runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gmdkit

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# Imports gmdkit.cli, runs the command given as a JSON argv (if any) and
# prints the modules that the import and the command loaded.
PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
import gmdkit.cli
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        status = gmdkit.cli.main(argv)
    if status != 0:
        sys.exit(f"exit status {status}")
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def loaded_by(*argv) -> set:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(list(argv))],
        cwd=GOLDEN, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def test_cli_import_loads_no_dataclass_machinery():
    loaded = loaded_by()
    assert "gmdkit.cli" in loaded
    assert not {"dataclasses", "inspect"} & loaded


def test_delta_on_an_ideal_loads_no_code_complex_or_suite_module():
    loaded = loaded_by("delta", "example1.json", "--t-max", "1", "--ell-max", "1")
    assert "gmdkit.gmd" in loaded
    assert not {"gmdkit.codes", "gmdkit.simplicial", "gmdkit.suites"} & loaded


def test_only_text_and_csv_reports_load_the_text_renderer():
    assert "gmdkit.formats" not in loaded_by("delta", "example1.json", "--t-max", "1", "--ell-max", "1")
    for fmt in ("text", "csv"):
        loaded = loaded_by("delta", "example1.json", "--t-max", "1", "--ell-max", "1", "--format", fmt)
        assert "gmdkit.formats" in loaded, fmt


def test_delta_on_a_complex_loads_no_suite_module():
    loaded = loaded_by("delta", "complex.json", "--t-max", "1", "--ell-max", "1")
    assert "gmdkit.simplicial" in loaded
    assert "gmdkit.suites" not in loaded


def test_ghw_on_points_loads_no_complex_or_suite_module():
    loaded = loaded_by("ghw", "points.json", "--t-max", "1", "--ell-max", "1")
    assert "gmdkit.codes" in loaded
    assert not {"gmdkit.simplicial", "gmdkit.suites"} & loaded


def test_every_public_name_resolves_from_its_module():
    import importlib

    for name in gmdkit.__all__:
        module = importlib.import_module(f"gmdkit.{gmdkit._MODULE_OF[name]}")
        assert getattr(gmdkit, name) is getattr(module, name), name
    assert gmdkit.__version__ == "0.1.0"


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        gmdkit.no_such_name
    assert not hasattr(gmdkit, "dataclass")
