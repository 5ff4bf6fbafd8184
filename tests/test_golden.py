"""Whole reports replayed against recorded stdout and exit codes.

Every case runs ``gmdkit.cli.main`` in-process from inside ``tests/golden``
with relative input names, because reports echo the input path, and
compares stdout byte for byte and the exit code.  The recorded files were
written by the code before the report layer was folded into one path, and
the four ``*-stabilize`` cases (one per regularity method label) by the code
before the regularity index became one rule, and ``builtin-bridge-caps``
and ``points-verify-one-count`` by the code before each report piece got
one builder, so this test pins that every report stayed the same.

    PYTHONPATH=src python tests/test_golden.py

rewrites the recorded files from the code at hand; do that only for an
intended change of a report.
"""

import json
from pathlib import Path

import pytest

import gmdkit.cli as cli

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

COMMANDS = {
    "ex1-delta-witnesses": [
        "delta", "example1.json", "--t-max", "3", "--ell-max", "3", "--witnesses",
    ],
    "ex1-delta-brute-own-dim": [
        "delta", "example1.json", "--method", "brute", "--convention", "own-dim",
        "--t-max", "2", "--ell-max", "2",
    ],
    "ex1-stabilize": ["stabilize", "example1.json"],
    "ex1-verify": ["verify", "example1.json", "--t-max", "3"],
    "points-delta-fast": ["delta", "points.json", "--method", "fast"],
    "points-stabilize": ["stabilize", "points.json"],
    "points-ghw-witnesses": ["ghw", "points.json", "--witnesses"],
    "points-verify": ["verify", "points.json"],
    "complex-sr-info": ["sr-info", "complex.json"],
    "complex-verify": ["verify", "complex.json"],
    "complex-delta": ["delta", "complex.json", "--t-max", "2", "--ell-max", "2"],
    "generator-ghw-witnesses": ["ghw", "generator.json", "--witnesses"],
    "builtin-verify": ["verify", "--t-max", "2", "--ell-max", "2"],
    "complex-stabilize": ["stabilize", "complex.json", "--ell-max", "6"],
    "plane-two-lines-stabilize": ["stabilize", "plane_two_lines.json", "--ell-max", "6"],
    "hyperplane-plane-stabilize": ["stabilize", "hyperplane_plane.json", "--ell-max", "6"],
    "p2f3-stabilize": ["stabilize", "p2f3.json", "--ell-max", "6"],
    "builtin-bridge-caps": ["verify", "--suite", "bridge", "--t-max", "4", "--ell-max", "4"],
    "points-verify-one-count": ["verify", "points.json", "--ell", "2"],
}
FORMATS = ("json", "csv", "text")
CASES = [(name, fmt) for name in COMMANDS for fmt in FORMATS]


@pytest.mark.parametrize("name,fmt", CASES, ids=[f"{n}-{f}" for n, f in CASES])
def test_report_matches_recording(name, fmt, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    status = cli.main(COMMANDS[name] + ["--format", fmt])
    out = capsys.readouterr().out
    expected = (GOLDEN / "expected" / f"{name}.{fmt}").read_bytes().decode("utf-8")
    assert out == expected
    assert status == json.loads(EXIT_CODES.read_text())[f"{name}.{fmt}"]


def _record():
    import contextlib
    import io
    import os

    os.chdir(GOLDEN)
    (GOLDEN / "expected").mkdir(exist_ok=True)
    codes = {}
    for name, fmt in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes[f"{name}.{fmt}"] = cli.main(COMMANDS[name] + ["--format", fmt])
        (GOLDEN / "expected" / f"{name}.{fmt}").write_bytes(buf.getvalue().encode("utf-8"))
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _record()
