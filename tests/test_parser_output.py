"""The command-line parser's own output, replayed against a recording.

Help texts, usage lines and argument errors come from argparse, not from
the report layer, so ``test_golden.py`` does not see them.  Each case runs
``gmdkit.cli.main`` in-process at a fixed terminal width and compares
stdout, stderr and the exit code with ``golden/parser.json``.

    PYTHONPATH=src python tests/test_parser_output.py

rewrites the recording from the code at hand; do that only for an
intended change of the command line.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

import gmdkit.cli as cli

RECORDING = Path(__file__).parent / "golden" / "parser.json"
COLUMNS = "80"

ARGVS = {
    "help": ["--help"],
    "delta-help": ["delta", "--help"],
    "stabilize-help": ["stabilize", "--help"],
    "ghw-help": ["ghw", "--help"],
    "sr-info-help": ["sr-info", "--help"],
    "verify-help": ["verify", "--help"],
    "no-command": [],
    "unknown-command": ["frobnicate", "example1.json"],
    "bad-flag": ["delta", "example1.json", "--bogus"],
    "bad-choice": ["delta", "example1.json", "--method", "slow"],
    "flag-of-another-command": ["stabilize", "example1.json", "--t-max", "2"],
}


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(list(argv))
        except SystemExit as exc:
            status = exc.code
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": status}


@pytest.mark.parametrize("name", list(ARGVS))
def test_parser_output_matches_recording(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert _run(ARGVS[name]) == json.loads(RECORDING.read_text())[name]


def _record():
    os.environ["COLUMNS"] = COLUMNS
    runs = {name: _run(argv) for name, argv in ARGVS.items()}
    RECORDING.write_text(json.dumps(runs, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _record()
