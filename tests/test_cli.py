"""Command-line interface: subcommands, formats, exit codes."""

import json

import pytest

import gmdkit.cli as cli

from oracles import EXAMPLE1, P1_F2, TRIANGLE_BOUNDARY


@pytest.fixture
def ex1_file(tmp_path):
    doc = {
        "char": EXAMPLE1["char"],
        "vars": list(EXAMPLE1["vars"]),
        "gens": list(EXAMPLE1["gens"]),
        "minimal_primes": [list(ps) for ps in EXAMPLE1["primes"]],
    }
    path = tmp_path / "ex1.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def points_file(tmp_path):
    doc = {"char": 2, "ambient": 2, "points": [list(p) for p in P1_F2["points"]]}
    path = tmp_path / "p1f2.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    doc = {"vertices": 3, "facets": [[1, 2], [1, 3], [2, 3]]}
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def code_file(tmp_path):
    doc = {"char": 2, "generator": [[1, 0, 1], [0, 1, 1]]}
    path = tmp_path / "code.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_json(capsys, *argv):
    status, out, err = run(capsys, *argv)
    assert err == ""
    return status, json.loads(out)


def test_delta_on_example1(capsys, ex1_file):
    status, report = run_json(
        capsys, "delta", ex1_file, "--t-max", "2", "--ell-max", "2"
    )
    assert status == 0
    assert report["command"] == "delta"
    assert report["method"] == "both"  # certified + fixed-dim default
    assert report["ring"]["certified"] is True
    assert report["ring"]["classification"] == EXAMPLE1["classification"]
    assert report["hilbert"] == [1, 3, 5]
    values = {(c["t"], c["ell"]): c["value"] for c in report["cells"]}
    for key in values:
        assert values[key] == EXAMPLE1["delta_cells"][key]
    assert all("witness" not in c for c in report["cells"])


def test_delta_witnesses_embedded(capsys, ex1_file):
    status, report = run_json(
        capsys, "delta", ex1_file, "--t-max", "1", "--ell", "1", "--witnesses"
    )
    assert status == 0
    (cell,) = report["cells"]
    assert cell["witness"]["brute"]["quotient_multiplicity"] == 2
    assert cell["witness"]["fast"]["prime_subset"] == [0, 1]


def test_delta_single_ell_flag(capsys, ex1_file):
    status, report = run_json(capsys, "delta", ex1_file, "--t-max", "2", "--ell", "2")
    assert status == 0
    assert [c["ell"] for c in report["cells"]] == [2, 2]
    assert [c["t"] for c in report["cells"]] == [1, 2]


def test_delta_brute_method_flag(capsys, ex1_file):
    status, report = run_json(
        capsys, "delta", ex1_file, "--t-max", "1", "--ell", "1", "--method", "brute"
    )
    assert status == 0
    assert report["cells"][0]["method"] == "brute"
    assert report["cells"][0]["value"] == EXAMPLE1["delta_cells"][(1, 1)]


def test_stabilize_on_example1(capsys, ex1_file):
    status, report = run_json(capsys, "stabilize", ex1_file, "--ell-max", "7")
    assert status == 0
    rows = {r["ell"]: r for r in report["rows"]}
    assert [rows[l]["value"] for l in range(1, 8)] == [1, 2, 4, 4, 5, 6, 6]
    assert [rows[l]["case"] for l in range(1, 8)] == [4, 4, 4, 4, 4, 5, 5]
    assert [rows[l]["regularity_index"] for l in range(1, 8)] == [3, 3, 2, 3, 3, 1, 1]
    assert all(r["regularity_exact"] for r in report["rows"])


def test_ghw_on_points(capsys, points_file):
    status, report = run_json(capsys, "ghw", points_file, "--t-max", "2")
    assert status == 0
    assert report["char"] == 2
    first, second = report["codes"]
    assert (first["t"], first["length"], first["dimension"]) == (1, 3, 2)
    assert [w["value"] for w in first["weights"]] == [2, 3]
    assert (second["t"], second["length"], second["dimension"]) == (2, 3, 3)
    assert [w["value"] for w in second["weights"]] == [1, 2, 3]
    assert first["strictly_increasing"] and second["strictly_increasing"]


def test_ghw_on_generator_matrix(capsys, code_file):
    status, report = run_json(capsys, "ghw", code_file)
    assert status == 0
    (entry,) = report["codes"]
    assert entry["t"] is None
    assert [w["value"] for w in entry["weights"]] == [2, 3]
    assert all(w["strategy"] == "enumerate" for w in entry["weights"])


def test_sr_info_on_triangle(capsys, triangle_file):
    status, report = run_json(capsys, "sr-info", triangle_file, "--t-max", "4")
    assert status == 0
    assert report["vertices"] == 3
    assert report["complex_dim"] == 1
    assert report["ring_dim"] == TRIANGLE_BOUNDARY["dim_ring"]
    assert report["multiplicity"] == TRIANGLE_BOUNDARY["multiplicity"]
    assert report["f_vector"] == [3, 3]
    assert report["depth"] == TRIANGLE_BOUNDARY["depth"]
    assert report["regularity"] == TRIANGLE_BOUNDARY["regularity"]
    assert report["proj_connected"] is True
    assert report["shellable"] == "shellable"
    assert sorted(map(tuple, report["facets"])) == [(1, 2), (1, 3), (2, 3)]
    assert len(report["shelling_order"]) == 3
    assert report["hilbert"] == [1, 3, 6, 9, 12]


def test_verify_points_input(capsys, points_file):
    status, report = run_json(
        capsys, "verify", points_file, "--t-max", "2", "--ell-max", "2"
    )
    assert status == 0
    assert report["pass"] is True
    names = {v["name"]: v["status"] for v in report["verdicts"]}
    assert names["t-monotonicity"] == "pass"
    assert all(r["agree"] for r in report["bridge"])
    assert {(r["t"], r["ell"]) for r in report["bridge"]} == {
        (1, 1), (1, 2), (2, 1), (2, 2),
    }


@pytest.mark.parametrize("vertices", [1, 3])
def test_verify_skips_the_regularity_bound_on_a_full_simplex(capsys, tmp_path, vertices):
    # the face ideal is zero, so reg = 0 while r(1) = 1 (degrees start at 1)
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps({"vertices": vertices, "facets": [list(range(1, vertices + 1))]}))
    status, report = run_json(capsys, "verify", str(path))
    assert status == 0 and report["pass"] is True
    verdicts = {v["name"]: v for v in report["verdicts"]}
    assert verdicts["reg-bound"] == {
        "name": "reg-bound",
        "status": "skipped",
        "detail": "zero face ideal: reg = 0 but degrees start at 1",
    }
    assert all(v["status"] != "fail" for v in report["verdicts"])


def test_verify_failure_exit_code(capsys, ex1_file, monkeypatch):
    from gmdkit.gmd import Verdict

    def fake_verify(profile, t_max, ell_max, sr=None, use_fast=None):
        return [Verdict("t-monotonicity", "fail", "planted failure")]

    monkeypatch.setattr(cli, "verify_theorems", fake_verify)
    status, report = run_json(capsys, "verify", ex1_file, "--t-max", "1")
    assert status == 1
    assert report["pass"] is False


def test_status_mismatch_is_listed_in_the_rings_report(capsys, monkeypatch):
    from gmdkit import suites
    from gmdkit.gmd import DeltaResult

    real = suites.delta_fast

    def flipped_status(query):
        result = real(query)
        flipped = "ok" if result.status == "empty" else "empty"
        if query.t != 1:
            return result
        r = result
        return DeltaResult(r.value, r.t, r.ell, r.convention, r.method, flipped, r.witness)

    monkeypatch.setattr(suites, "delta_fast", flipped_status)
    status, report = run_json(
        capsys, "verify", "--suite", "rings", "--t-max", "1", "--ell-max", "1"
    )
    assert status == 1
    assert report["pass"] is False
    entries = report["sections"]["rings"]
    assert [e["name"] for e in entries] == [case.name for case in suites.ring_suite()]
    for entry in entries:
        (cell,) = entry["disagreements"]
        assert cell["brute"] == cell["fast"], entry["name"]
        assert {cell["brute_status"], cell["fast_status"]} == {"ok", "empty"}, entry["name"]


def test_missing_file_is_exit_2(capsys, tmp_path):
    status, out, err = run(capsys, "delta", str(tmp_path / "absent.json"))
    assert status == 2
    assert out == ""
    assert "error:" in err


def test_bad_json_reports_line_and_column(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"char": 2,\n  "gens": [}')
    status, out, err = run(capsys, "delta", str(path))
    assert status == 2
    assert "line 2" in err and "column" in err


def test_bad_polynomial_keeps_position(capsys, tmp_path):
    doc = {"char": 2, "vars": ["x", "y"], "gens": ["x^2", "x*?"]}
    path = tmp_path / "badpoly.json"
    path.write_text(json.dumps(doc))
    status, out, err = run(capsys, "delta", str(path))
    assert status == 2
    assert "generator #2" in err
    assert "position 2" in err


def test_non_utf8_file_is_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    status, out, err = run(capsys, "delta", str(path))
    assert (status, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


# One boolean in an integer field per input kind, with the field's message;
# JSON true and false are Python ints, so they used to pass as 1 and 0.
BOOLEAN_INPUTS = {
    "ideal-char": (
        {"char": True, "vars": ["x"], "gens": ["x"]},
        '"char" must be an integer',
    ),
    "complex-vertices": (
        {"vertices": True, "facets": [[1]]},
        '"vertices" must be a positive integer',
    ),
    "complex-facets": (
        {"vertices": 3, "facets": [[True, 2], [2, 3]]},
        "facets must be lists of 1-based vertex numbers",
    ),
    "points-ambient": (
        {"char": 2, "ambient": True, "points": [[1]]},
        '"ambient" must be an integer',
    ),
    "points": (
        {"char": 2, "ambient": 3, "points": [[True, False, False], [0, 1, 0]]},
        "points must be lists of integers",
    ),
    "generator": (
        {"char": 2, "generator": [[1, 0, True], [0, 1, 1]]},
        "generator rows must be lists of integers",
    ),
}


@pytest.mark.parametrize("name", sorted(BOOLEAN_INPUTS))
def test_boolean_in_an_integer_field_is_exit_2(capsys, tmp_path, name):
    doc, message = BOOLEAN_INPUTS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    command = "ghw" if name == "generator" else "delta"
    status, out, err = run(capsys, command, str(path))
    assert (status, out) == (2, "")
    assert err == f"error: {path}: {message}\n"


def test_unknown_kind_is_exit_2(capsys, tmp_path):
    path = tmp_path / "odd.json"
    path.write_text('{"char": 2, "rows": []}')
    status, out, err = run(capsys, "delta", str(path))
    assert status == 2
    assert "cannot detect the input kind" in err


def test_bad_jobs_and_t_max(capsys, ex1_file):
    status, _, err = run(capsys, "delta", ex1_file, "--jobs", "0")
    assert status == 2 and "--jobs" in err
    status, _, err = run(capsys, "delta", ex1_file, "--t-max", "0")
    assert status == 2 and "--t-max" in err


def test_stabilize_takes_no_t_max(capsys, ex1_file):
    # stabilize reads no degree range, so the flag is an unrecognized argument
    with pytest.raises(SystemExit) as exc:
        cli.main(["stabilize", ex1_file, "--t-max", "1"])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "unrecognized arguments: --t-max 1" in err


def test_fast_method_without_certificate_is_exit_3(capsys, tmp_path):
    doc = {"char": 2, "vars": ["x", "y"], "gens": ["x*y"]}
    path = tmp_path / "primeless.json"
    path.write_text(json.dumps(doc))
    status, out, err = run(
        capsys, "delta", str(path), "--method", "fast", "--t-max", "1"
    )
    assert status == 3
    assert "certified" in err


def test_own_dim_fast_is_exit_3(capsys, ex1_file):
    status, out, err = run(
        capsys,
        "delta", ex1_file, "--t-max", "1",
        "--convention", "own-dim", "--method", "fast",
    )
    assert status == 3
    assert "fixed-dim" in err


def test_uncertified_stabilize_is_exit_3(capsys, tmp_path):
    doc = {"char": 2, "vars": ["x", "y"], "gens": ["x*y"]}
    path = tmp_path / "primeless.json"
    path.write_text(json.dumps(doc))
    status, out, err = run(capsys, "stabilize", str(path))
    assert status == 3
    assert "certified minimal primes" in err and '"minimal_primes"' in err


def test_json_output_is_sorted_and_newline_terminated(capsys, triangle_file):
    status, out, err = run(capsys, "sr-info", triangle_file)
    assert status == 0
    assert out.endswith("\n")
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_csv_formats(capsys, ex1_file, points_file, triangle_file, code_file):
    status, out, _ = run(
        capsys, "delta", ex1_file, "--t-max", "1", "--ell", "1", "--format", "csv"
    )
    assert status == 0
    header, row = out.strip().splitlines()
    assert header == "t,ell,value,status,method,convention"
    assert row.startswith("1,1,4,ok,both")

    status, out, _ = run(capsys, "stabilize", ex1_file, "--ell", "1", "--format", "csv")
    assert status == 0
    assert out.splitlines()[0].startswith("ell,value,case")

    status, out, _ = run(capsys, "ghw", code_file, "--format", "csv")
    assert status == 0
    assert out.splitlines()[0].startswith("t,r,value")

    status, out, _ = run(capsys, "sr-info", triangle_file, "--format", "csv")
    assert status == 0
    assert out.splitlines()[0] == "key,value"

    status, out, _ = run(
        capsys, "verify", points_file, "--t-max", "1", "--format", "csv"
    )
    assert status == 0
    assert out.splitlines()[0] == "kind,name,status,detail"


def test_text_format_grid(capsys, ex1_file):
    status, out, _ = run(
        capsys,
        "delta", ex1_file, "--t-max", "2", "--ell-max", "3", "--format", "text",
    )
    assert status == 0
    assert "t\\l" in out or "t" in out
    assert "4" in out and "5" in out and "6" in out


def test_text_format_verify(capsys, points_file):
    status, out, _ = run(
        capsys, "verify", points_file, "--t-max", "1", "--format", "text"
    )
    assert status == 0
    assert "RESULT: PASS" in out


def test_jobs_do_not_change_output(capsys, ex1_file):
    argv = ["delta", ex1_file, "--t-max", "2", "--ell-max", "2"]
    status1, out1, _ = run(capsys, *argv, "--jobs", "1")
    status2, out2, _ = run(capsys, *argv, "--jobs", "2")
    assert status1 == status2 == 0
    assert out1 == out2
    assert '"jobs"' not in out1


class SerialPool:
    """Stands in for ProcessPoolExecutor: records its size, starts no process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return [fn(task) for task in tasks]


def test_jobs_are_clamped_before_any_pool_starts(capsys, ex1_file, points_file, monkeypatch):
    import concurrent.futures

    from gmdkit import codes, gflinalg, gmd

    # scan_in_chunks imports the pool class from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(gflinalg.os, "cpu_count", lambda: 3)
    scans = []  # (count, [(start, stop) of each task]) per scan_in_chunks call
    real_scan_in_chunks = gflinalg.scan_in_chunks
    real_run_task = gflinalg._run_task

    def recording_scan_in_chunks(count, *rest):
        scans.append((count, []))
        return real_scan_in_chunks(count, *rest)

    def recording_run_task(task):
        scans[-1][1].append(task[-2:])
        return real_run_task(task)

    for module in (gmd, codes):
        monkeypatch.setattr(module, "scan_in_chunks", recording_scan_in_chunks)
    monkeypatch.setattr(gflinalg, "_run_task", recording_run_task)
    for argv in (
        ["delta", ex1_file, "--t-max", "2", "--ell-max", "2", "--witnesses"],
        ["ghw", points_file, "--t-max", "2", "--witnesses"],
        ["verify", points_file, "--t-max", "2", "--ell-max", "2"],
        ["verify", "--suite", "rings"],
    ):
        outputs = []
        for jobs in (1, 2, 10**6):
            SerialPool.sizes.clear()
            scans.clear()
            status, out, err = run(capsys, *argv, "--jobs", str(jobs))
            assert status == 0, err
            outputs.append(out)
            assert scans
            for count, ranges in scans:
                # contiguous nonempty pieces that tile [0, count)
                assert 1 <= len(ranges) <= min(jobs, 3)
                assert [start for start, _ in ranges] == [0] + [stop for _, stop in ranges[:-1]]
                assert ranges[-1][1] == count
                assert all(start < stop for start, stop in ranges)
            if jobs == 1:
                assert SerialPool.sizes == []
            else:
                assert SerialPool.sizes and max(SerialPool.sizes) <= min(jobs, 3)
        assert outputs[0] == outputs[1] == outputs[2]


# Values a fake scan reads: ties for the least value (2 at 8 and 10, 3 at 2,
# 4 and 5) that chunk boundaries cut through, and runs of indices with none.
LISTED_VALUES = [None, 5, 3, None, 3, 3, None, None, 2, 4, 2, None]


def _listed_scan(values, start, stop):
    pairs = [(v, i) for i, v in enumerate(values[start:stop], start) if v is not None]
    return min(pairs, default=(None, None))


@pytest.mark.parametrize("values", [LISTED_VALUES, [None] * 5])
def test_scan_in_chunks_returns_the_least_value_at_its_first_index(monkeypatch, values):
    import concurrent.futures

    from gmdkit import gflinalg

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(gflinalg.os, "cpu_count", lambda: len(values))
    want = _listed_scan(values, 0, len(values))
    assert want == ((2, 8) if values is LISTED_VALUES else (None, None))
    for workers in range(1, len(values) + 1):
        SerialPool.sizes.clear()
        assert gflinalg.scan_in_chunks(len(values), workers, _listed_scan, (values,)) == want
        assert SerialPool.sizes == ([] if workers == 1 else [workers])


# Every subcommand's arguments as (flag or name, dest, type, nargs, choices,
# default); a knob added, dropped or changed fails this on purpose.
# Only delta and ghw report witnesses, sr-info reads no count and no
# worker count, and stabilize reads no degree range, so those commands do
# not take these flags.
_T_MAX = [("--t-max", "t_max", "int", None, None, 4)]
_COUNTS = [
    ("--ell", "ell", "int", None, None, None),
    ("--ell-max", "ell_max", "int", None, None, None),
]
_FORMAT = [("--format", "fmt", None, None, ["json", "csv", "text"], "json")]
_WITNESSES = [("--witnesses", "witnesses", None, 0, None, False)]
_SEED = [("--seed", "seed", "int", None, None, 2026)]
_JOBS = [("--jobs", "jobs", "int", None, None, 1)]
_INPUT = [("input", "input", None, None, None, None)]
PINNED_OPTIONS = {
    "delta": _INPUT + _T_MAX + _COUNTS + [
        ("--convention", "convention", None, None, ["fixed-dim", "own-dim"], "fixed-dim"),
        ("--method", "method", None, None, ["brute", "fast", "both"], None),
    ] + _FORMAT + _WITNESSES + _SEED + _JOBS,
    "stabilize": _INPUT + _COUNTS + _FORMAT + _SEED + _JOBS,
    "ghw": _INPUT + _T_MAX + _COUNTS + _FORMAT + _WITNESSES + _SEED + _JOBS,
    "sr-info": _INPUT + _T_MAX + _FORMAT + _SEED,
    "verify": [
        ("input", "input", None, "?", None, None),
        ("--suite", "suite", None, None, ["rings", "complexes", "bridge", "all"], "all"),
    ] + _T_MAX + _COUNTS + _FORMAT + _SEED + _JOBS,
}


def _subcommands(parser):
    import argparse

    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_every_subcommand_option_is_pinned():
    import argparse

    # the parser gives a subcommand its arguments only when argv names it
    assert list(_subcommands(cli.build_parser([]))) == list(PINNED_OPTIONS)
    options = {
        name: [
            (
                a.option_strings[0] if a.option_strings else a.dest,
                a.dest,
                getattr(a.type, "__name__", None),
                a.nargs,
                None if a.choices is None else list(a.choices),
                a.default,
            )
            for a in _subcommands(cli.build_parser([name]))[name]._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for name in PINNED_OPTIONS
    }
    assert options == PINNED_OPTIONS


def test_only_the_named_subcommand_gets_its_arguments():
    for name in PINNED_OPTIONS:
        choices = _subcommands(cli.build_parser([name, "input.json", "--jobs", "1"]))
        assert list(choices) == list(PINNED_OPTIONS)
        # every subparser has -h; the others have nothing else
        assert {other for other, parser in choices.items() if len(parser._actions) > 1} == {name}


def test_ell_and_ell_max_are_exclusive(capsys, ex1_file):
    with pytest.raises(SystemExit) as exc:
        cli.main(["delta", ex1_file, "--ell", "1", "--ell-max", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_seed_is_echoed(capsys, ex1_file):
    status, report = run_json(
        capsys, "stabilize", ex1_file, "--ell", "1", "--seed", "77"
    )
    assert status == 0
    assert report["seed"] == 77


def test_ghw_count_out_of_range_is_exit_2(capsys, code_file, points_file):
    for argv in (
        ("ghw", code_file, "--ell", "0"),
        ("ghw", code_file, "--ell-max", "0"),
        ("ghw", points_file, "--ell-max", "0"),
    ):
        status, out, err = run(capsys, *argv)
        assert (status, out) == (2, "")
        assert err.startswith("error: --ell") and err.count("\n") == 1
    # the [3,2] code, and the degree-1 code of three points on P^1
    for argv in (("ghw", code_file, "--ell", "5"), ("ghw", points_file, "--ell", "3")):
        status, out, err = run(capsys, *argv)
        assert (status, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "code dimension 2" in err


def test_ghw_ell_max_still_caps_at_the_code_dimension(capsys, code_file):
    status, report = run_json(capsys, "ghw", code_file, "--ell-max", str(10**12))
    assert status == 0
    assert [w["r"] for w in report["codes"][0]["weights"]] == [1, 2]


def test_counts_past_the_limit_are_exit_2(capsys, ex1_file, points_file, triangle_file, code_file):
    limit = cli.COUNT_LIMIT
    assert limit == 10_000
    for argv in (
        ("delta", ex1_file, "--t-max", "1"),
        ("stabilize", ex1_file),
        ("verify", points_file, "--t-max", "1"),
        ("verify", "--suite", "bridge", "--t-max", "1"),
        ("ghw", code_file, "--t-max", "1"),
    ):
        for flag in ("--ell", "--ell-max"):
            if argv[0] == "ghw" and flag == "--ell-max":
                continue  # capped at the code dimension, see the next test
            status, out, err = run(capsys, *argv, flag, str(limit + 1))
            assert (status, out) == (2, ""), (argv, flag)
            assert err == f"error: {flag} {limit + 1} is above the supported limit of {limit}\n"
    # the limit itself is a count like any other
    for argv in (("delta", ex1_file, "--t-max", "1"), ("stabilize", ex1_file)):
        status, report = run_json(capsys, *argv, "--ell", str(limit))
        assert status == 0
    # sr-info reads no count, so it takes no count flag
    with pytest.raises(SystemExit) as exc:
        cli.main(["sr-info", triangle_file, "--ell-max", str(limit + 1)])
    assert exc.value.code == 2
    capsys.readouterr()


def test_the_module_docstring_quotes_every_limit():
    # the exit-2 bounds the docstring lists, in its order, are the constants
    import re

    from gmdkit import gmd, groebner, polyring, schemes

    text = " ".join(cli.__doc__.split())
    bounds = text.split("beyond a supported bound (", 1)[1].split(")", 1)[0]
    assert [int(n) for n in re.findall(r"\d+", bounds)] == [
        polyring.MAX_VARIABLES,
        cli.COUNT_LIMIT,
        groebner.EXPONENT_LIMIT,
        schemes.PRIME_SUBSET_LIMIT,
        gmd.BRUTE_SUBSPACE_LIMIT,
    ]


def test_variable_limit_is_checked_at_load(capsys, tmp_path, monkeypatch):
    from gmdkit import simplicial
    from gmdkit.polyring import MAX_VARIABLES

    def no_face_ring_work(*args):
        raise AssertionError("the input should be rejected before any face-ring work")

    # the face-ring commands read betti_table from simplicial when they run
    monkeypatch.setattr(simplicial, "betti_table", no_face_ring_work)
    n = MAX_VARIABLES + 1
    complex_path = tmp_path / "big_complex.json"
    complex_path.write_text(json.dumps({"vertices": n, "facets": [list(range(1, n + 1))]}))
    points_path = tmp_path / "big_points.json"
    points_path.write_text(json.dumps({"char": 2, "ambient": n, "points": [[1] + [0] * (n - 1)]}))
    for command, path in (
        ("sr-info", complex_path),
        ("delta", complex_path),
        ("verify", complex_path),
        ("delta", points_path),
        ("ghw", points_path),
        ("verify", points_path),
    ):
        status, out, err = run(capsys, command, str(path), "--t-max", "1")
        assert (status, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"at most {MAX_VARIABLES}" in err
    names = [f"x{i + 1}" for i in range(n)]
    ideal_path = tmp_path / "big_ideal.json"
    ideal_path.write_text(json.dumps({"char": 2, "vars": names, "gens": names}))
    for argv in (("delta", "--t-max", "1"), ("stabilize",), ("verify", "--t-max", "1")):
        status, out, err = run(capsys, argv[0], str(ideal_path), *argv[1:])
        assert (status, out) == (2, "")
        assert err == f"error: {ideal_path}: ring needs 1..{MAX_VARIABLES} variables, got {n}\n"


def test_twelve_variable_inputs_run_past_the_elimination_ring(capsys, tmp_path):
    # groebner.intersect eliminates in a ring with one more variable, so a
    # 12-variable input needs a 13-variable ring inside the computation
    names = [f"x{i + 1}" for i in range(12)]
    points = tmp_path / "points.json"
    e1, e2 = [1] + [0] * 11, [0, 1] + [0] * 10
    points.write_text(json.dumps({"char": 2, "ambient": 12, "points": [e1, e2, [1, 1] + [0] * 10]}))
    # two points of P^11 on the line x1 = ... = x10 = 0; x11 + x12 is not a monomial
    gens = names[:10] + ["x11*x12+x12^2"]
    primes = [names[:10] + ["x12"], names[:10] + ["x11+x12"]]
    bare = tmp_path / "ideal.json"
    bare.write_text(json.dumps({"char": 2, "vars": names, "gens": gens}))
    primed = tmp_path / "primed.json"
    primed.write_text(json.dumps({"char": 2, "vars": names, "gens": gens, "minimal_primes": primes}))
    cells = {
        points: [2, 3, 3, 1, 2, 3],
        bare: [1, 2, 2, 1, 2, 2],
        primed: [1, 2, 2, 1, 2, 2],
    }
    for path, values in cells.items():
        method = "brute" if path == bare else "both"
        status, report = run_json(
            capsys, "delta", str(path), "--method", method, "--t-max", "2", "--ell-max", "3"
        )
        assert status == 0
        assert [cell["value"] for cell in report["cells"]] == values, path
        status, report = run_json(capsys, "verify", str(path), "--t-max", "2", "--ell-max", "2")
        assert (status, report["pass"]) == (0, True), path
    for path in (points, primed):
        status, report = run_json(capsys, "stabilize", str(path), "--ell-max", "3")
        assert status == 0
        assert [row["value"] for row in report["rows"]] == cells[path][3:], path


def test_exponent_past_the_groebner_limit_is_exit_2(capsys, tmp_path):
    from gmdkit.groebner import EXPONENT_LIMIT

    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"char": 2, "vars": ["x", "y", "z"], "gens": ["x^40000"]}))
    for argv in (("delta", "--t-max", "1"), ("stabilize",), ("verify", "--t-max", "1")):
        status, out, err = run(capsys, argv[0], str(path), *argv[1:], "--ell-max", "1")
        assert (status, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"above {EXPONENT_LIMIT}" in err


def test_prime_containing_another_is_exit_2(capsys, tmp_path):
    # (x, y) contains (x); the list still intersects to the ideal, so before
    # this check the low locus came out inflated and the commands exited 1
    doc = {"char": 2, "vars": ["x", "y", "z"], "gens": ["x*y", "x*z"]}
    for primes, message in (
        ([["x"], ["y", "z"], ["x", "y"]], "prime #3 contains prime #1"),
        ([["x"], ["y", "z"], ["z", "y+z"]], "prime #3 contains prime #2"),
    ):
        path = tmp_path / "nonminimal.json"
        path.write_text(json.dumps(dict(doc, minimal_primes=primes)))
        for argv in (("delta", "--t-max", "2"), ("stabilize",), ("verify", "--t-max", "2")):
            status, out, err = run(capsys, argv[0], str(path), *argv[1:])
            assert (status, out) == (2, ""), argv
            assert err.startswith(f"error: {path}: {message};") and err.count("\n") == 1


def test_prime_count_past_the_subset_limit_is_exit_2(capsys, tmp_path, monkeypatch):
    # the limit is patched low so that small inputs cross it: five points
    # (point backend) and five skew lines (normal-form backend); a command
    # that needs a table of every prime subset exits 2, and stabilize,
    # which needs none, runs
    from gmdkit import schemes

    from oracles import LINES5_F3

    monkeypatch.setattr(schemes, "PRIME_SUBSET_LIMIT", 4)
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"char": 3, "ambient": 3, "points": [
        [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 0]]}))
    lines = tmp_path / "lines.json"
    lines.write_text(json.dumps({
        "char": LINES5_F3["char"],
        "vars": list(LINES5_F3["vars"]),
        "gens": list(LINES5_F3["gens"]),
        "minimal_primes": [list(ps) for ps in LINES5_F3["primes"]],
    }))
    expected = "error: the prime-subset route supports at most 4 minimal primes, got 5\n"
    for path in (points, lines):
        for command in ("delta", "verify"):
            args = ("--method", "fast") if command == "delta" else ()
            status, out, err = run(capsys, command, str(path), "--t-max", "2", "--ell-max", "2", *args)
            assert (status, out, err) == (2, "", expected), (path.name, command)
        # both backends rank the few families stabilize reads one by one
        status, out, err = run(capsys, "stabilize", str(path), "--ell-max", "2")
        assert (status, err) == (0, ""), path.name
    monkeypatch.setattr(schemes, "PRIME_SUBSET_LIMIT", 5)
    for path in (points, lines):
        status, out, err = run(capsys, "delta", str(path), "--method", "fast", "--t-max", "2")
        assert (status, err) == (0, "")


def test_brute_cell_past_its_limit_is_exit_2(capsys, triangle_file, monkeypatch):
    # the subspace count is checked before the scan: the default delta grid
    # on the triangle's face ring reaches [12 3]_2 = 408,345,795 subspaces
    # at t = 4, l = 3, and its t = 3 cells hold 43,435 and 788,035
    from gmdkit import gmd
    from gmdkit.errors import BruteLimitError

    profile = cli._profile_for(cli.load_input(triangle_file))
    scanned = []
    scan = gmd._brute_scan

    def never(*args):
        raise AssertionError("the cell past the limit was scanned")

    def counted(*args):
        scanned.append(args[1:3])
        return scan(*args)

    monkeypatch.setattr(gmd, "_brute_scan", never)
    with pytest.raises(BruteLimitError, match="at most 10000000 subspaces per cell, got 408345795"):
        gmd.delta_bruteforce(gmd.GmdQuery(profile, 4, 3, method="brute"))
    # delta checks every cell of its grid before the first scan, so the
    # default grid exits 2 at once instead of scanning t <= 4, l <= 2 first
    expected = (
        "error: brute force supports at most 10000000 subspaces per cell, got 408345795; "
        "lower --t-max or --ell-max, or use --method fast\n"
    )
    assert run(capsys, "delta", triangle_file) == (2, "", expected)
    monkeypatch.setattr(gmd, "_brute_scan", counted)
    monkeypatch.setattr(gmd, "BRUTE_SUBSPACE_LIMIT", 43435)
    expected = (
        "error: brute force supports at most 43435 subspaces per cell, got 788035; "
        "lower --t-max or --ell-max, or use --method fast\n"
    )
    assert run(capsys, "delta", triangle_file) == (2, "", expected)
    assert scanned == []
    # the limit itself still scans, and the prime-subset route has no limit
    status, report = run_json(capsys, "delta", triangle_file, "--t-max", "3", "--ell-max", "2")
    assert status == 0 and len(report["cells"]) == 6
    status, report = run_json(capsys, "delta", triangle_file, "--method", "fast")
    assert status == 0 and len(report["cells"]) == 12


def test_brute_limit_leaves_every_benchmark_op_and_golden_command_alone(
    capsys, tmp_path, monkeypatch
):
    # perfbench runs brute delta ops over --t-max/--ell-max grids on the
    # inputs perfbench/workloads.py writes, and checks the five-lines ops of
    # prime-scan against brute cells at t = 1; a cell past the limit would
    # turn an op or a reference into a failure, and a golden report into exit 2
    import importlib
    from pathlib import Path

    from gmdkit import gmd
    from gmdkit.gflinalg import subspace_count
    from gmdkit.hilbert import hilbert_function

    from test_golden import COMMANDS, EXIT_CODES, GOLDEN

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    cells = {}
    for workload in workloads.WORKLOADS:
        for variant in range(workloads.VARIANTS[workload]):
            for op in workloads.generate(workload, 701, variant):
                flags = dict(zip(op.args[::2], op.args[1::2]))
                if workload == "prime-scan":
                    if (op.family, op.command) != ("lines", "delta"):
                        continue
                    flags["--t-max"] = "1"
                path = tmp_path / op.file_name()
                path.write_text(json.dumps(op.twin))
                profile = cli._profile_for(cli.load_input(str(path)))
                for t in range(1, int(flags["--t-max"]) + 1):
                    m = hilbert_function(profile.ideal, t)
                    for ell in range(1, int(flags["--ell-max"]) + 1):
                        count = subspace_count(m, ell, profile.ring.field)
                        cells[op.name, t, ell] = max(count, cells.get((op.name, t, ell), 0))
    counted = gmd.subspace_count

    def recorded(m, ell, field):
        count = counted(m, ell, field)
        cells["golden", m, ell, field.p] = count
        return count

    monkeypatch.setattr(gmd, "subspace_count", recorded)
    monkeypatch.chdir(GOLDEN)
    codes = json.loads(EXIT_CODES.read_text())
    for name, argv in COMMANDS.items():
        if argv[0] in ("delta", "verify"):
            status, _, _ = run(capsys, *argv, "--format", "json")
            assert status == codes[f"{name}.json"], name
    assert any(key[0] == "golden" for key in cells)
    largest = max(cells.values())
    assert largest < gmd.BRUTE_SUBSPACE_LIMIT, max(cells, key=cells.get)


def test_readme_quick_start_table(capsys, tmp_path, monkeypatch):
    from pathlib import Path

    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    blocks = quick_start.split("```")[1::2]
    document, command, table = (b.split("\n", 1)[1] for b in blocks[:3])
    argv = command.split()
    assert argv[:2] == ["gmdkit", "delta"]
    (tmp_path / argv[2]).write_text(document)
    monkeypatch.chdir(tmp_path)
    status, out, err = run(capsys, *argv[1:])
    assert (status, err) == (0, "")
    assert out == table
