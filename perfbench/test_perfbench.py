"""Tests of the benchmark itself: inputs, failure accounting, tracing, --jobs.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _oracles():
    spec = importlib.util.spec_from_file_location("bench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.generate(workload, 11)
    again = workloads.generate(workload, 11)
    assert [workloads.doc_bytes(op.doc) for op in first] == [workloads.doc_bytes(op.doc) for op in again]
    assert [op.args for op in first] == [op.args for op in again]
    assert workloads.inputs_digest(first) == workloads.inputs_digest(again)
    assert workloads.inputs_digest(workloads.generate(workload, 12)) != workloads.inputs_digest(first)
    other = workloads.generate(workload, 11, variant=1)
    assert [op.name for op in other] == [op.name for op in first]
    assert [op.args for op in other] == [op.args for op in first]
    assert workloads.inputs_digest(other) != workloads.inputs_digest(first)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_no_op_runs_with_more_than_one_job(workload, seed):
    for op in workloads.generate(workload, seed):
        argv = op.argv("input.json")
        assert argv.count("--jobs") == 1
        assert argv[argv.index("--jobs") + 1] == "1"
        assert "--t-max" in argv or op.command == "stabilize"


def test_runner_passes_jobs_one_to_every_process(monkeypatch, tmp_path):
    seen = []

    def fake(cmd, cwd, out_path, err_path, limit):
        seen.append(cmd)
        out_path.write_text("{}")
        return 0.1, 0, 1000, False

    monkeypatch.setattr(run, "run_process", fake)
    ops = workloads.generate("prime-scan", 3)
    runner = run.Runner(lambda op, report: None, tmp_path, float("inf"))
    runner.run_pass(ops)
    for i, op in enumerate(ops):
        runner.run_op(i, op, traced=True)
    assert len(seen) == 2 * len(ops)
    for cmd in seen:
        assert cmd[cmd.index("--jobs") + 1] == "1" and cmd.count("--jobs") == 1


def test_examples_match_the_oracles_and_readme():
    oracles = _oracles()
    for ours, theirs in ((workloads.EXAMPLE1, oracles.EXAMPLE1), (workloads.EXAMPLE2, oracles.EXAMPLE2)):
        assert ours["char"] == theirs["char"]
        assert tuple(ours["vars"]) == theirs["vars"]
        assert tuple(ours["gens"]) == theirs["gens"]
        assert [tuple(p) for p in ours["minimal_primes"]] == list(theirs["primes"])
    assert workloads.EXAMPLE1_HILBERT == oracles.EXAMPLE1["hf"][:4]
    for cell, value in oracles.EXAMPLE1["delta_cells"].items():
        assert reference.EXAMPLE1_TABLE[cell] == value
    readme = (ROOT / "README.md").read_text()
    rows = re.findall(r"^t=(\d)\s+(\d+)\*?\s+(\d+)\*?\s+(\d+)\*?\s*$", readme, re.M)
    assert len(rows) == 3
    for t, *values in rows:
        for ell, value in enumerate(values, start=1):
            assert reference.EXAMPLE1_TABLE[(int(t), ell)] == int(value)


def test_slot_hilbert_functions_match_gmdkit():
    """Grids are sized from these Hilbert functions, so they must be the real ones."""
    from gmdkit.hilbert import hilbert_function

    examples = {"ex1": workloads.EXAMPLE1_HILBERT, "ex2": workloads.EXAMPLE2_HILBERT}
    for op in workloads.generate("brute-certified", 4):
        if op.family == "points":
            want = workloads.points_hilbert(len(op.doc["points"]))
        elif op.family == "complex":
            want = workloads.path_hilbert(op.doc["vertices"])
        else:
            want = examples[op.family]
        ideal = reference._profile(op.twin).ideal
        assert tuple(hilbert_function(ideal, t) for t in range(4)) == want, op.name


def test_generated_ideals_are_certified_by_gmdkit():
    from gmdkit.gflinalg import FieldSpec
    from gmdkit.groebner import IdealPresentation, ideals_equal
    from gmdkit.polyring import RingSpec

    for op in workloads.generate("prime-scan", 5):
        if op.family == "lines":
            assert reference._profile(op.doc).reduced_certified, op.name
    for op in workloads.generate("brute-colon", 5):
        if op.family != "points":
            continue
        ring = RingSpec(FieldSpec(op.doc["char"]), tuple(op.doc["vars"]))
        ours = IdealPresentation.from_strings(ring, op.doc["gens"])
        assert ideals_equal(ours, reference._profile(op.twin).ideal), op.name


def _ex1_op():
    args = ("--method", "both", "--t-max", "1", "--ell-max", "2")
    return workloads.Op("ex1.delta", "ex1", "delta", workloads.EXAMPLE1, workloads.EXAMPLE1, args)


def _write_inputs(ops, workdir):
    for op in ops:
        (workdir / op.file_name()).write_bytes(workloads.doc_bytes(op.doc))


def test_wrong_value_and_nonzero_exit_count_as_failures(monkeypatch, tmp_path):
    good = _ex1_op()
    broken = workloads.Op("bad.delta", "ex1", "delta", {"char": 2, "vars": ["x"], "gens": ["x^"]},
                          workloads.EXAMPLE1, ("--t-max", "1", "--ell-max", "1"))
    ops = [good, broken]
    _write_inputs(ops, tmp_path)
    refs = reference.References()
    runner = run.Runner(refs.check, tmp_path, float("inf"))
    results = runner.run_pass(ops)
    assert results[0].error is None and results[0].entries == 2
    assert results[1].error.startswith("exit 2")
    assert run.failures(results) == (2, 1)

    wrong = dict(reference.EXAMPLE1_TABLE)
    wrong[(1, 2)] += 1
    monkeypatch.setattr(reference, "EXAMPLE1_TABLE", wrong)
    results = runner.run_pass(ops)
    assert "reference" in results[0].error
    assert run.failures(results) == (2, 2)


def test_time_limit_kills_and_reports(tmp_path):
    cmd = [sys.executable, "-c", "import time; time.sleep(30)"]
    wall, code, _, timed_out = run.run_process(cmd, tmp_path, tmp_path / "o", tmp_path / "e", 0.5)
    assert timed_out and code != 0 and wall < 10


def _cli_output(argv):
    import gmdkit.cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = gmdkit.cli.main(argv)
    return status, buffer.getvalue()


def test_wrapped_calls_return_identical_results(tmp_path):
    import gmdkit.gmd
    import gmdkit.groebner

    points = {"char": 3, "ambient": 3, "points": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 0]]}
    path = tmp_path / "pts.json"
    path.write_bytes(workloads.doc_bytes(points))
    ex1 = tmp_path / "ex1.json"
    ex1.write_bytes(workloads.doc_bytes({k: v for k, v in workloads.EXAMPLE1.items() if k != "minimal_primes"}))
    commands = [
        ["delta", str(path), "--method", "both", "--t-max", "2", "--ell-max", "2", "--witnesses"],
        ["stabilize", str(path), "--ell-max", "2"],
        ["ghw", str(path), "--t-max", "2", "--witnesses"],
        ["delta", str(ex1), "--t-max", "1", "--ell-max", "2"],
    ]
    plain = [_cli_output(argv) for argv in commands]
    original = gmdkit.groebner.normal_form
    tracer = tracing.Tracer(0)
    tracer.install()
    try:
        assert gmdkit.gmd.normal_form is not original
        assert gmdkit.groebner.normal_form is gmdkit.gmd.normal_form
        traced = [_cli_output(argv) for argv in commands]
    finally:
        tracer.uninstall()
    assert gmdkit.gmd.normal_form is original and gmdkit.groebner.normal_form is original
    assert traced == plain
    assert tracer.spans and all(span is not None for span in tracer.spans)
    tracer.dump(str(tmp_path / "spans.json"))
    totals = tracing.Totals()
    totals.add(json.loads((tmp_path / "spans.json").read_text()))
    for name in ("gmd.delta_bruteforce", "gmd.delta_fast", "codes.ghw", "groebner.colon"):
        assert totals.calls[name] > 0, name
    assert totals.counters["polyring.order_key.calls"] > 0


def test_traced_process_prints_the_same_report(tmp_path):
    op = _ex1_op()
    _write_inputs([op], tmp_path)
    refs = reference.References()
    runner = run.Runner(refs.check, tmp_path, float("inf"))
    runner.run_op(0, op, traced=False)
    plain = (tmp_path / "out.json").read_bytes()
    result = runner.run_op(0, op, traced=True)
    assert result.error is None
    assert (tmp_path / "out.json").read_bytes() == plain
    assert len(runner.span_files) == 1


def test_self_time_subtracts_direct_children():
    record = {
        "names": [
            "groebner.groebner_basis", "groebner.buchberger", "gmd.ann_nonzero",
            "gmd.delta_fast", "schemes.quotient_dim",
        ],
        "spans": [
            [0, 2, 0.0, 10.0, -1],
            [0, 0, 1.0, 5.0, 0],
            [0, 1, 2.0, 4.0, 1],
            [0, 0, 6.0, 7.0, 0],
            [0, 3, 11.0, 20.0, -1],
            [0, 4, 12.0, 13.0, 4],
            [0, 4, 14.0, 15.0, 4],
            [0, 4, 16.0, 17.0, -1],
        ],
        "counters": {"gmd.ann_nonzero.true": 1},
    }
    totals = tracing.Totals()
    totals.add(record)
    assert totals.self_s["gmd.ann_nonzero"] == pytest.approx(5.0)
    assert totals.self_s["groebner.groebner_basis"] == pytest.approx(2.0 + 1.0)
    assert totals.self_s["groebner.buchberger"] == pytest.approx(2.0)
    metrics = tracing.layer_metrics(totals, 1)
    assert metrics["groebner.groebner_basis.hit_ratio"] == pytest.approx(0.5)
    assert metrics["gmd.ann_nonzero.true_ratio"] == pytest.approx(1.0)
    # Only quotient_dim calls made directly by delta_fast count as masks.
    assert metrics["gmd.delta_fast.masks"] == 2


def test_brute_grid_respects_the_cap():
    for hilbert, p in (((1, 3, 5, 6), 2), ((1, 3, 6, 10), 3), ((1, 4, 7, 10), 2)):
        for cap in (30, 110, 800):
            t_max, ell_max = workloads.brute_grid(hilbert, p, cap)
            total = sum(
                workloads.gaussian_binomial(hilbert[t], ell, p)
                for t in range(1, t_max + 1)
                for ell in range(1, ell_max + 1)
            )
            assert total <= cap
