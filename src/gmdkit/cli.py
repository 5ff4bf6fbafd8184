"""Command-line surface: table runs, stabilization reports, weights, verification.

Input documents are UTF-8 JSON.  The kind is detected from the keys:

  ideal      {"char": 2, "vars": ["x","y","z"], "gens": ["x*y+z^2"],
              "minimal_primes": [["x","z"], ...]}   (primes optional)
  complex    {"vertices": 3, "facets": [[1,2],[1,3],[2,3]], "char": 2}
  points     {"char": 2, "ambient": 2, "points": [[1,0],[0,1],[1,1]]}
  generator  {"char": 2, "generator": [[1,0,1],[0,1,1]]}

Reports embed the convention, method, and certificate statuses used and are
byte-identical for identical inputs and flags regardless of --jobs.  Exit
codes: 0 ok, 1 verification failure (a failed internal invariant check
included), 2 malformed input or input beyond a supported bound (more than
12 variables, a Groebner computation needing an exponent above 32767,
a prime-subset table over more than 22 minimal primes), 3 operation
outside its mathematical hypotheses.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .codes import (
    LinearCode,
    ProjectivePointSet,
    bridge_check,
    evaluation_code,
    generalized_hamming_weight,
    standard_ring,
)
from .errors import ExponentOverflowError, HypothesisError, ParseError, PrimeSubsetLimitError
from .gflinalg import FieldMatrix, FieldSpec
from .gmd import (
    CONVENTIONS,
    FIXED_DIM,
    GmdQuery,
    delta,
    regularity_index,
    stabilization_value,
    verify_theorems,
)
from .groebner import IdealPresentation
from .hilbert import hilbert_data, hilbert_function
from .polyring import MAX_VARIABLES, RingSpec, parse_polynomial
from .schemes import RingProfile, build_profile
from .simplicial import (
    SimplicialComplex,
    betti_table,
    face_count_hilbert,
    is_shellable,
    proj_connected,
    stanley_reisner_ideal,
)
from . import suites


class _Loaded:
    """Parsed input document plus the objects built from it."""

    def __init__(self, kind, char, profile=None, complex_=None, points=None, code=None):
        self.kind = kind
        self.char = char
        self.profile = profile
        self.complex_ = complex_
        self.points = points
        self.code = code


def _document(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", (exc.lineno, exc.colno))
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    return doc


def _field(doc: dict, path: str) -> FieldSpec:
    char = doc.get("char", 2)
    if not isinstance(char, int):
        raise ParseError(f"{path}: \"char\" must be an integer")
    try:
        return FieldSpec(char)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}")


def _parse_poly_list(ring: RingSpec, texts, label: str):
    polys = []
    for k, text in enumerate(texts):
        if not isinstance(text, str):
            raise ParseError(f"{label} #{k + 1} must be a string")
        try:
            polys.append(parse_polynomial(text, ring))
        except ParseError as exc:
            raise ParseError(f"in {label} #{k + 1}: {exc.message}", exc.position)
    return polys


def _load_ideal(doc: dict, path: str) -> _Loaded:
    field = _field(doc, path)
    names = doc.get("vars")
    if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
        raise ParseError(f"{path}: \"vars\" must be a list of strings")
    try:
        ring = RingSpec(field, tuple(names))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}")
    gens = doc.get("gens")
    if not isinstance(gens, list) or not gens:
        raise ParseError(f"{path}: \"gens\" must be a non-empty list")
    try:
        ideal = IdealPresentation(ring, _parse_poly_list(ring, gens, "generator"))
        primes = None
        if "minimal_primes" in doc:
            raw = doc["minimal_primes"]
            if not isinstance(raw, list):
                raise ParseError(f"{path}: \"minimal_primes\" must be a list of lists")
            primes = []
            for k, group in enumerate(raw):
                if not isinstance(group, list):
                    raise ParseError(f"{path}: \"minimal_primes\" entry #{k + 1} must be a list")
                primes.append(
                    IdealPresentation(
                        ring, _parse_poly_list(ring, group, f"prime #{k + 1} generator")
                    )
                )
        profile = build_profile(ideal, primes)
    except ValueError as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"{path}: {exc}")
    return _Loaded("ideal", field.p, profile=profile)


def _load_complex(doc: dict, path: str) -> _Loaded:
    field = _field(doc, path)
    vertices = doc.get("vertices")
    facets = doc.get("facets")
    if not isinstance(vertices, int) or vertices < 1:
        raise ParseError(f"{path}: \"vertices\" must be a positive integer")
    if vertices > MAX_VARIABLES:
        raise ParseError(f"{path}: at most {MAX_VARIABLES} vertices are supported, got {vertices}")
    if not isinstance(facets, list) or not facets:
        raise ParseError(f"{path}: \"facets\" must be a non-empty list")
    for f in facets:
        if not isinstance(f, list) or not all(isinstance(v, int) for v in f):
            raise ParseError(f"{path}: facets must be lists of 1-based vertex numbers")
    try:
        complex_ = SimplicialComplex.from_one_based(vertices, facets)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}")
    return _Loaded("complex", field.p, complex_=complex_)


def _load_points(doc: dict, path: str) -> _Loaded:
    field = _field(doc, path)
    ambient = doc.get("ambient")
    points = doc.get("points")
    if not isinstance(ambient, int):
        raise ParseError(f"{path}: \"ambient\" must be an integer")
    if ambient > MAX_VARIABLES:
        raise ParseError(
            f"{path}: at most {MAX_VARIABLES} coordinates are supported, got \"ambient\": {ambient}"
        )
    if not isinstance(points, list) or not points:
        raise ParseError(f"{path}: \"points\" must be a non-empty list")
    for pt in points:
        if not isinstance(pt, list) or not all(isinstance(c, int) for c in pt):
            raise ParseError(f"{path}: points must be lists of integers")
    try:
        point_set = ProjectivePointSet(field, ambient, points)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}")
    return _Loaded("points", field.p, points=point_set)


def _load_generator(doc: dict, path: str) -> _Loaded:
    field = _field(doc, path)
    rows = doc.get("generator")
    if not isinstance(rows, list) or not rows:
        raise ParseError(f"{path}: \"generator\" must be a non-empty list of rows")
    width = None
    for row in rows:
        if not isinstance(row, list) or not all(isinstance(c, int) for c in row):
            raise ParseError(f"{path}: generator rows must be lists of integers")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{path}: generator rows must all have the same length")
    try:
        code = LinearCode(field, FieldMatrix(field, rows))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}")
    return _Loaded("generator", field.p, code=code)


def load_input(path: str) -> _Loaded:
    doc = _document(path)
    if "gens" in doc:
        return _load_ideal(doc, path)
    if "facets" in doc:
        return _load_complex(doc, path)
    if "points" in doc:
        return _load_points(doc, path)
    if "generator" in doc:
        return _load_generator(doc, path)
    raise ParseError(
        f"{path}: cannot detect the input kind "
        "(expected one of the keys \"gens\", \"facets\", \"points\", \"generator\")"
    )


def _profile_for(loaded: _Loaded) -> RingProfile:
    if loaded.profile is not None:
        return loaded.profile
    if loaded.complex_ is not None:
        loaded.profile = suites.face_ring_profile(loaded.complex_, FieldSpec(loaded.char))
        return loaded.profile
    if loaded.points is not None:
        loaded.profile = loaded.points.vanishing_profile()
        return loaded.profile
    raise ParseError("this command needs an ideal, complex, or points input")


def _profile_meta(profile: RingProfile) -> dict:
    return {
        "char": profile.ring.field.p,
        "variables": list(profile.ring.names),
        "dim": profile.dim,
        "multiplicity": profile.multiplicity,
        "certified": profile.reduced_certified,
        "classification": profile.classification,
        "warnings": list(profile.warnings),
    }


def _verdict_dicts(verdicts) -> list[dict]:
    return [{"name": v.name, "status": v.status, "detail": v.detail} for v in verdicts]


def _ell_range(args, fallback_max: int) -> range:
    if args.ell is not None:
        if args.ell < 1:
            raise ParseError("--ell must be at least 1")
        return range(args.ell, args.ell + 1)
    ell_max = fallback_max if args.ell_max is None else args.ell_max
    if ell_max < 1:
        raise ParseError("--ell-max must be at least 1")
    return range(1, ell_max + 1)


def cmd_delta(args) -> tuple[dict, int]:
    loaded = load_input(args.input)
    profile = _profile_for(loaded)
    convention = args.convention
    method = args.method
    if method is None:
        method = "both" if profile.reduced_certified and convention == FIXED_DIM else "brute"
    ells = _ell_range(args, 3)
    cells = []
    for t in range(1, args.t_max + 1):
        for ell in ells:
            result = delta(
                GmdQuery(profile, t, ell, convention=convention, method=method),
                jobs=args.jobs,
            )
            cell = {
                "t": t,
                "ell": ell,
                "value": result.value,
                "status": result.status,
                "method": result.method,
                "convention": result.convention,
            }
            if args.witnesses:
                cell["witness"] = result.witness
            cells.append(cell)
    report = {
        "command": "delta",
        "input": args.input,
        "input_kind": loaded.kind,
        "seed": args.seed,
        "convention": convention,
        "method": method,
        "ring": _profile_meta(profile),
        "hilbert": [hilbert_function(profile.ideal, t) for t in range(0, args.t_max + 1)],
        "cells": cells,
    }
    return report, 0


def cmd_stabilize(args) -> tuple[dict, int]:
    loaded = load_input(args.input)
    profile = _profile_for(loaded)
    rows = []
    for ell in _ell_range(args, 3):
        s = stabilization_value(profile, ell)
        r = regularity_index(profile, ell)
        row = {
            "ell": ell,
            "value": s.value,
            "case": s.case,
            "detail": s.detail,
            "regularity_index": r.value,
            "regularity_exact": True,
            "regularity_method": r.method,
        }
        rows.append(row)
    report = {
        "command": "stabilize",
        "input": args.input,
        "input_kind": loaded.kind,
        "seed": args.seed,
        "convention": FIXED_DIM,
        "ring": _profile_meta(profile),
        "rows": rows,
    }
    return report, 0


def cmd_ghw(args) -> tuple[dict, int]:
    loaded = load_input(args.input)
    entries = []
    if loaded.code is not None:
        codes = [(None, loaded.code)]
    elif loaded.points is not None:
        codes = [(t, evaluation_code(loaded.points, t)) for t in range(1, args.t_max + 1)]
    else:
        raise ParseError("the ghw command needs a points or generator input")
    for t, code in codes:
        r_values = _ell_range(args, code.dimension)
        if r_values[0] > code.dimension:
            where = "" if t is None else f" at degree t={t}"
            raise ParseError(f"--ell {args.ell} exceeds the code dimension {code.dimension}{where}")
        weights = []
        for r in r_values:
            if r > code.dimension:
                break
            result = generalized_hamming_weight(code, r, strategy=args.strategy, jobs=args.jobs)
            row = {"r": r, "value": result.value, "strategy": result.strategy}
            if args.witnesses:
                row["witness"] = result.witness
            weights.append(row)
        values = [w["value"] for w in weights]
        entries.append(
            {
                "t": t,
                "length": code.length,
                "dimension": code.dimension,
                "weights": weights,
                "strictly_increasing": all(a < b for a, b in zip(values, values[1:])),
            }
        )
    report = {
        "command": "ghw",
        "input": args.input,
        "input_kind": loaded.kind,
        "seed": args.seed,
        "char": loaded.char,
        "codes": entries,
    }
    return report, 0


def cmd_sr_info(args) -> tuple[dict, int]:
    loaded = load_input(args.input)
    if loaded.complex_ is None:
        raise ParseError("the sr-info command needs a complex input")
    complex_ = loaded.complex_
    field = FieldSpec(loaded.char)
    table = betti_table(complex_, field)
    shelling = is_shellable(complex_)
    ideal = stanley_reisner_ideal(complex_, standard_ring(field, complex_.n))
    data = hilbert_data(ideal)
    report = {
        "command": "sr-info",
        "input": args.input,
        "input_kind": "complex",
        "seed": args.seed,
        "char": loaded.char,
        "vertices": complex_.n,
        "facets": [[v + 1 for v in sorted(f)] for f in complex_.facets],
        "complex_dim": complex_.dim(),
        "ring_dim": data.dim,
        "multiplicity": data.multiplicity,
        "f_vector": list(complex_.f_vector()),
        "depth": table.depth(),
        "regularity": table.regularity(),
        "proj_connected": proj_connected(complex_),
        "shellable": shelling.status,
        "shelling_order": (
            [[v + 1 for v in sorted(complex_.facets[i])] for i in shelling.order]
            if shelling.order is not None
            else None
        ),
        "hilbert": [hilbert_function(ideal, t) for t in range(0, args.t_max + 1)],
    }
    return report, 0


def _bridge_rows(points, t_max: int, ells, jobs: int) -> list[dict]:
    """Bridge check rows for t <= t_max and each l in ells up to the code dimension."""
    rows = []
    for t in range(1, t_max + 1):
        dimension = evaluation_code(points, t).dimension
        for ell in ells:
            if ell > dimension:
                continue
            row = bridge_check(points, t, ell, jobs=jobs)
            rows.append(
                {
                    "t": row.t,
                    "ell": row.ell,
                    "delta": row.delta_value,
                    "ghw": row.ghw_value,
                    "length": row.code_length,
                    "dimension": row.code_dimension,
                    "agree": row.agree,
                }
            )
    return rows


def _verify_input(args) -> tuple[dict, int]:
    loaded = load_input(args.input)
    profile = _profile_for(loaded)
    sr = None
    if loaded.complex_ is not None:
        sr = suites.sr_context(loaded.complex_, FieldSpec(loaded.char))
    ells = _ell_range(args, 3)
    verdicts = verify_theorems(profile, args.t_max, max(ells), sr=sr)
    report = {
        "command": "verify",
        "input": args.input,
        "input_kind": loaded.kind,
        "seed": args.seed,
        "convention": FIXED_DIM,
        "ring": _profile_meta(profile),
        "verdicts": _verdict_dicts(verdicts),
    }
    failed = any(v.status == "fail" for v in verdicts)
    if loaded.points is not None:
        report["bridge"] = _bridge_rows(loaded.points, args.t_max, ells, args.jobs)
        failed = failed or any(not r["agree"] for r in report["bridge"])
    report["pass"] = not failed
    return report, (1 if failed else 0)


def _verify_builtin(args) -> tuple[dict, int]:
    sections = {}
    ok = True
    which = args.suite
    ells = _ell_range(args, 3)
    ell_max = max(ells)
    if which in ("rings", "all"):
        entries = []
        for case in suites.ring_suite():
            profile = case.build()
            cells = suites.equivalence_cells(
                profile, t_cap=args.t_max, ell_cap=ell_max, jobs=args.jobs
            )
            disagreements = [
                {
                    "t": c.t, "ell": c.ell, "brute": c.brute_value, "fast": c.fast_value,
                    "brute_status": c.brute_status, "fast_status": c.fast_status,
                }
                for c in cells
                if not c.agree
            ]
            verdicts = verify_theorems(profile, args.t_max, ell_max)
            entry = {
                "name": case.name,
                "char": case.field.p,
                "classification": profile.classification,
                "certified": profile.reduced_certified,
                "cells_checked": len(cells),
                "disagreements": disagreements,
                "verdicts": _verdict_dicts(verdicts),
            }
            if disagreements or any(v.status == "fail" for v in verdicts):
                ok = False
            entries.append(entry)
        sections["rings"] = entries
    if which in ("complexes", "all"):
        entries = []
        sr_ell_max = max(ell_max, 4)
        field = FieldSpec(2)
        bound_names = {case.name for case in suites.bound_suite_members()}
        for case in suites.complex_suite():
            complex_ = case.complex_
            sr = suites.sr_context(complex_, field)
            profile = suites.face_ring_profile(complex_, field)
            hochster_ok = all(
                face_count_hilbert(complex_, t) == hilbert_function(profile.ideal, t)
                for t in range(0, 7)
            )
            connectivity_ok = (sr.depth >= 2) == sr.proj_connected
            entry = {
                "name": case.name,
                "char": field.p,
                "depth": sr.depth,
                "regularity": sr.regularity,
                "proj_connected": sr.proj_connected,
                "shellable": sr.shellable,
                "hilbert_ok": hochster_ok,
                "depth_connectivity_ok": connectivity_ok,
                "verdicts": None,
            }
            if case.name in bound_names:
                verdicts = verify_theorems(profile, args.t_max, sr_ell_max, sr=sr)
                entry["verdicts"] = _verdict_dicts(verdicts)
                if any(v.status == "fail" for v in verdicts):
                    ok = False
            if not (hochster_ok and connectivity_ok):
                ok = False
            entries.append(entry)
        sections["complexes"] = entries
    if which in ("bridge", "all"):
        entries = []
        small_ells = [ell for ell in ells if ell <= 3]
        for case in suites.bridge_suite(args.seed):
            rows = [
                {k: row[k] for k in ("t", "ell", "delta", "ghw", "agree")}
                for row in _bridge_rows(case.point_set(), min(args.t_max, 3), small_ells, args.jobs)
            ]
            agree = all(r["agree"] for r in rows)
            if not agree:
                ok = False
            entries.append(
                {
                    "name": case.name,
                    "char": case.field.p,
                    "size": case.size,
                    "cases": rows,
                    "all_agree": agree,
                }
            )
        sections["bridge"] = entries
    report = {
        "command": "verify",
        "input": None,
        "input_kind": "builtin-suite",
        "suite": which,
        "seed": args.seed,
        "convention": FIXED_DIM,
        "sections": sections,
        "pass": ok,
    }
    return report, (0 if ok else 1)


def cmd_verify(args) -> tuple[dict, int]:
    if args.input is None:
        return _verify_builtin(args)
    return _verify_input(args)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def render_csv(report: dict) -> str:
    command = report["command"]
    table = {
        "delta": ("cells", ("t", "ell", "value", "status", "method", "convention")),
        "stabilize": (
            "rows",
            ("ell", "value", "case", "regularity_index", "regularity_exact", "regularity_method"),
        ),
    }.get(command)
    if table is not None:
        entries, keys = table
        return _csv_text(keys, [[entry[k] for k in keys] for entry in report[entries]])
    if command == "ghw":
        rows = []
        for entry in report["codes"]:
            for w in entry["weights"]:
                rows.append(
                    ("" if entry["t"] is None else entry["t"], w["r"], w["value"], w["strategy"])
                )
        return _csv_text(("t", "r", "value", "strategy"), rows)
    if command == "sr-info":
        keys = (
            "vertices", "complex_dim", "ring_dim", "multiplicity", "depth",
            "regularity", "proj_connected", "shellable",
        )
        return _csv_text(("key", "value"), [(k, report[k]) for k in keys])
    if report.get("input_kind") == "builtin-suite":
        rows = []
        for section, entries in sorted(report["sections"].items()):
            for entry in entries:
                if section == "rings":
                    rows.append((section, entry["name"], "equivalence",
                                 "pass" if not entry["disagreements"] else "fail"))
                    for v in entry["verdicts"]:
                        rows.append((section, entry["name"], v["name"], v["status"]))
                elif section == "complexes":
                    rows.append((section, entry["name"], "hilbert",
                                 "pass" if entry["hilbert_ok"] else "fail"))
                    rows.append((section, entry["name"], "depth-connectivity",
                                 "pass" if entry["depth_connectivity_ok"] else "fail"))
                    for v in entry["verdicts"] or ():
                        rows.append((section, entry["name"], v["name"], v["status"]))
                else:
                    rows.append((section, entry["name"], "bridge",
                                 "pass" if entry["all_agree"] else "fail"))
        return _csv_text(("section", "member", "check", "status"), rows)
    rows = [("verdict", v["name"], v["status"], v["detail"]) for v in report["verdicts"]]
    for r in report.get("bridge", ()):
        rows.append(
            ("bridge", f"t={r['t']},l={r['ell']}", "pass" if r["agree"] else "fail",
             f"delta={r['delta']} ghw={r['ghw']}")
        )
    return _csv_text(("kind", "name", "status", "detail"), rows)


def _grid_text(report: dict) -> str:
    cells = report["cells"]
    ts = sorted({c["t"] for c in cells})
    ells = sorted({c["ell"] for c in cells})
    value = {(c["t"], c["ell"]): c for c in cells}
    width = max(
        [len(str(c["value"])) + (1 if c["status"] == "empty" else 0) for c in cells] + [5]
    )
    lines = [
        "distance table: convention={} method={} classification={}".format(
            report["convention"], report["method"], report["ring"]["classification"]
        )
    ]
    header = "    " + " ".join(f"l={ell}".rjust(width) for ell in ells)
    lines.append(header)
    for t in ts:
        row = [f"t={t}".ljust(4)]
        for ell in ells:
            c = value[(t, ell)]
            text = str(c["value"]) + ("*" if c["status"] == "empty" else "")
            row.append(text.rjust(width))
        lines.append(row[0] + " ".join(row[1:]))
    if any(c["status"] == "empty" for c in cells):
        lines.append("* no qualifying subspace at this degree; the value is e(R)")
    return "\n".join(lines) + "\n"


def render_text(report: dict) -> str:
    command = report["command"]
    if command == "delta":
        return _grid_text(report)
    if command == "stabilize":
        ring = report["ring"]
        lines = [
            "stabilization: classification={} e={}".format(
                ring["classification"], ring["multiplicity"]
            )
        ]
        for r in report["rows"]:
            lines.append(
                "l={}: limit {} (case {}), first reached at t={} [{}, exact]".format(
                    r["ell"], r["value"], r["case"], r["regularity_index"], r["regularity_method"],
                )
            )
        return "\n".join(lines) + "\n"
    if command == "ghw":
        lines = []
        for entry in report["codes"]:
            label = "generator input" if entry["t"] is None else f"degree t={entry['t']}"
            mono = "strictly increasing" if entry["strictly_increasing"] else "NOT strictly increasing"
            weights = ", ".join(f"r={w['r']} -> {w['value']}" for w in entry["weights"])
            lines.append(
                f"[{entry['length']},{entry['dimension']}] code ({label}): {weights} ({mono})"
            )
        return "\n".join(lines) + "\n"
    if command == "sr-info":
        keys = (
            "vertices", "complex_dim", "ring_dim", "multiplicity", "f_vector", "depth",
            "regularity", "proj_connected", "shellable", "shelling_order", "hilbert",
        )
        lines = [f"{k}: {report[k]}" for k in keys]
        return "\n".join(lines) + "\n"
    lines = []
    if report.get("input_kind") == "builtin-suite":
        for section, entries in sorted(report["sections"].items()):
            for entry in entries:
                if section == "rings":
                    eq = "pass" if not entry["disagreements"] else "fail"
                    lines.append(
                        f"[rings/{entry['name']}] equivalence: {eq} "
                        f"({entry['cells_checked']} cells)"
                    )
                    for v in entry["verdicts"]:
                        lines.append(f"[rings/{entry['name']}] {v['name']}: {v['status']}")
                elif section == "complexes":
                    lines.append(
                        "[complexes/{}] hilbert: {}, depth-connectivity: {}".format(
                            entry["name"],
                            "pass" if entry["hilbert_ok"] else "fail",
                            "pass" if entry["depth_connectivity_ok"] else "fail",
                        )
                    )
                    for v in entry["verdicts"] or ():
                        lines.append(f"[complexes/{entry['name']}] {v['name']}: {v['status']}")
                else:
                    lines.append(
                        "[bridge/{}] {}: {}".format(
                            entry["name"],
                            f"{len(entry['cases'])} cases",
                            "pass" if entry["all_agree"] else "fail",
                        )
                    )
    else:
        for v in report["verdicts"]:
            lines.append(f"{v['name']}: {v['status']} ({v['detail']})")
        for r in report.get("bridge", ()):
            lines.append(
                "bridge t={} l={}: delta={} ghw={} {}".format(
                    r["t"], r["ell"], r["delta"], r["ghw"],
                    "agree" if r["agree"] else "DISAGREE",
                )
            )
    if "pass" in report:
        lines.append("RESULT: {}".format("PASS" if report["pass"] else "FAIL"))
    return "\n".join(lines) + "\n"


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        return render_csv(report)
    return render_text(report)


def _add_common(parser, with_method=True):
    parser.add_argument("--t-max", type=int, default=4, dest="t_max")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--ell", type=int, default=None)
    group.add_argument("--ell-max", type=int, default=None, dest="ell_max")
    if with_method:
        parser.add_argument(
            "--convention", choices=list(CONVENTIONS), default=FIXED_DIM
        )
        parser.add_argument("--method", choices=["brute", "fast", "both"], default=None)
    parser.add_argument(
        "--format", choices=["json", "csv", "text"], default="json", dest="fmt"
    )
    parser.add_argument("--witnesses", action="store_true")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--jobs", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmdkit",
        description="Distance functions of graded ideals, face rings, and evaluation codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_delta = sub.add_parser("delta", help="distance table over a degree/count grid")
    p_delta.add_argument("input")
    _add_common(p_delta)

    p_stab = sub.add_parser("stabilize", help="limit values and least degrees")
    p_stab.add_argument("input")
    _add_common(p_stab, with_method=False)

    p_ghw = sub.add_parser("ghw", help="generalized Hamming weights")
    p_ghw.add_argument("input")
    p_ghw.add_argument(
        "--strategy", choices=["auto", "enumerate", "shorten"], default="auto"
    )
    _add_common(p_ghw, with_method=False)

    p_sr = sub.add_parser("sr-info", help="face-ring facts of a complex")
    p_sr.add_argument("input")
    _add_common(p_sr, with_method=False)

    p_verify = sub.add_parser("verify", help="theorem checks on an input or the built-in suite")
    p_verify.add_argument("input", nargs="?", default=None)
    p_verify.add_argument(
        "--suite", choices=["rings", "complexes", "bridge", "all"], default="all"
    )
    _add_common(p_verify, with_method=False)

    return parser


_COMMANDS = {
    "delta": cmd_delta,
    "stabilize": cmd_stabilize,
    "ghw": cmd_ghw,
    "sr-info": cmd_sr_info,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 2
    if args.t_max < 1:
        print("error: --t-max must be at least 1", file=sys.stderr)
        return 2
    try:
        report, status = _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc.describe()}", file=sys.stderr)
        return 2
    except (ExponentOverflowError, PrimeSubsetLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(render(report, args.fmt))
    return status


if __name__ == "__main__":
    sys.exit(main())
