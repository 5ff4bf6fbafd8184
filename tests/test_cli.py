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
    status, report = run_json(capsys, "ghw", code_file, "--strategy", "shorten")
    assert status == 0
    (entry,) = report["codes"]
    assert entry["t"] is None
    assert [w["value"] for w in entry["weights"]] == [2, 3]
    assert all(w["strategy"] == "shorten" for w in entry["weights"])


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


def test_verify_failure_exit_code(capsys, ex1_file, monkeypatch):
    from gmdkit.gmd import Verdict

    def fake_verify(profile, t_max, ell_max, sr=None, use_fast=None):
        return [Verdict("t-monotonicity", "fail", "planted failure")]

    monkeypatch.setattr(cli, "verify_theorems", fake_verify)
    status, report = run_json(capsys, "verify", ex1_file, "--t-max", "1")
    assert status == 1
    assert report["pass"] is False


def test_status_mismatch_is_listed_in_the_rings_report(capsys, monkeypatch):
    import dataclasses

    from gmdkit import suites

    real = suites.delta_fast

    def flipped_status(query):
        result = real(query)
        flipped = "ok" if result.status == "empty" else "empty"
        return dataclasses.replace(result, status=flipped) if query.t == 1 else result

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

    from gmdkit import gflinalg

    # scan_in_chunks imports the pool class from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(gflinalg.os, "cpu_count", lambda: 3)
    split_sizes = []
    real_split = gflinalg.SubspaceIterator.split

    def recording_split(self, parts):
        split_sizes.append(parts)
        return real_split(self, parts)

    monkeypatch.setattr(gflinalg.SubspaceIterator, "split", recording_split)
    for argv in (
        ["delta", ex1_file, "--t-max", "2", "--ell-max", "2", "--witnesses"],
        ["ghw", points_file, "--t-max", "2", "--strategy", "enumerate", "--witnesses"],
    ):
        outputs = []
        for jobs in (1, 2, 10**6):
            SerialPool.sizes.clear()
            split_sizes.clear()
            status, out, err = run(capsys, *argv, "--jobs", str(jobs))
            assert status == 0, err
            outputs.append(out)
            assert split_sizes and max(split_sizes) <= min(jobs, 3)
            if jobs == 1:
                assert SerialPool.sizes == []
            else:
                assert SerialPool.sizes and max(SerialPool.sizes) <= min(jobs, 3)
        assert outputs[0] == outputs[1] == outputs[2]


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


def test_variable_limit_is_checked_at_load(capsys, tmp_path, monkeypatch):
    from gmdkit.polyring import MAX_VARIABLES

    def no_face_ring_work(*args):
        raise AssertionError("the input should be rejected before any face-ring work")

    monkeypatch.setattr(cli, "betti_table", no_face_ring_work)
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


def test_exponent_past_the_groebner_limit_is_exit_2(capsys, tmp_path):
    from gmdkit.groebner import EXPONENT_LIMIT

    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"char": 2, "vars": ["x", "y", "z"], "gens": ["x^40000"]}))
    for command in ("delta", "stabilize", "verify"):
        status, out, err = run(capsys, command, str(path), "--t-max", "1", "--ell-max", "1")
        assert (status, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"above {EXPONENT_LIMIT}" in err


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
