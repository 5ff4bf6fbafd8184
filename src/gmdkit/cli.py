"""Command-line surface: table runs, stabilization reports, weights, verification.

Input documents are UTF-8 JSON.  The kind is detected from the keys:

  ideal      {"char": 2, "vars": ["x","y","z"], "gens": ["x*y+z^2"],
              "minimal_primes": [["x","z"], ...]}   (primes optional;
                                                     none may contain another)
  complex    {"vertices": 3, "facets": [[1,2],[1,3],[2,3]], "char": 2}
  points     {"char": 2, "ambient": 2, "points": [[1,0],[0,1],[1,1]]}
  generator  {"char": 2, "generator": [[1,0,1],[0,1,1]]}

Reports embed the convention, method, and certificate statuses used and are
byte-identical for identical inputs and flags regardless of --jobs.  Exit
codes: 0 ok, 1 verification failure (a failed internal invariant check
included), 2 malformed input or input beyond a supported bound (more than
12 variables, a count above 10000, a Groebner computation needing an
exponent above 32767, a prime-subset table over more than 22 minimal
primes, a brute-force cell over more than 10000000 subspaces), 3
operation outside its mathematical hypotheses.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ExponentOverflowError, HypothesisError, LimitError, ParseError
from .gflinalg import FieldMatrix, FieldSpec
from .gmd import (
    CONVENTIONS,
    FIXED_DIM,
    GmdQuery,
    brute_count,
    delta,
    regularity_index,
    stabilization_value,
    verify_theorems,
)
from .groebner import IdealPresentation
from .hilbert import hilbert_data, hilbert_function
from .polyring import MAX_VARIABLES, RingSpec, parse_polynomial, standard_ring
from .schemes import RingProfile, build_profile

# ``codes``, ``simplicial`` and ``suites`` are imported by the loaders and
# commands that read them, so a command loads only the modules it runs.

# The largest count --ell or --ell-max may ask for; ghw caps --ell-max at the
# code dimension instead.
COUNT_LIMIT = 10_000


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
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", (exc.lineno, exc.colno))
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    return doc


def _is_integer(value) -> bool:
    """A JSON integer: ``bool`` subclasses ``int``, so true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _field(doc: dict, path: str) -> FieldSpec:
    char = doc.get("char", 2)
    if not _is_integer(char):
        raise ParseError(f"{path}: \"char\" must be an integer")
    return FieldSpec(char)


def _integer_lists(doc: dict, path: str, key: str, entries: str) -> list:
    """``doc[key]``, checked to be a non-empty list of integer lists."""
    rows = doc.get(key)
    if not isinstance(rows, list) or not rows:
        of_rows = " of rows" if key == "generator" else ""
        raise ParseError(f"{path}: \"{key}\" must be a non-empty list{of_rows}")
    if not all(isinstance(row, list) and all(map(_is_integer, row)) for row in rows):
        raise ParseError(f"{path}: {entries}")
    return rows


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
    if not 1 <= len(names) <= MAX_VARIABLES:
        raise ParseError(f"{path}: ring needs 1..{MAX_VARIABLES} variables, got {len(names)}")
    ring = RingSpec(field, tuple(names))
    gens = doc.get("gens")
    if not isinstance(gens, list) or not gens:
        raise ParseError(f"{path}: \"gens\" must be a non-empty list")
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
                IdealPresentation(ring, _parse_poly_list(ring, group, f"prime #{k + 1} generator"))
            )
    return _Loaded("ideal", field.p, profile=build_profile(ideal, primes))


def _load_complex(doc: dict, path: str) -> _Loaded:
    from .simplicial import SimplicialComplex

    field = _field(doc, path)
    vertices = doc.get("vertices")
    if not _is_integer(vertices) or vertices < 1:
        raise ParseError(f"{path}: \"vertices\" must be a positive integer")
    if vertices > MAX_VARIABLES:
        raise ParseError(f"{path}: at most {MAX_VARIABLES} vertices are supported, got {vertices}")
    facets = _integer_lists(doc, path, "facets", "facets must be lists of 1-based vertex numbers")
    return _Loaded("complex", field.p, complex_=SimplicialComplex.from_one_based(vertices, facets))


def _load_points(doc: dict, path: str) -> _Loaded:
    from .codes import ProjectivePointSet

    field = _field(doc, path)
    ambient = doc.get("ambient")
    if not _is_integer(ambient):
        raise ParseError(f"{path}: \"ambient\" must be an integer")
    if ambient > MAX_VARIABLES:
        raise ParseError(
            f"{path}: at most {MAX_VARIABLES} coordinates are supported, got \"ambient\": {ambient}"
        )
    points = _integer_lists(doc, path, "points", "points must be lists of integers")
    return _Loaded("points", field.p, points=ProjectivePointSet(field, ambient, points))


def _load_generator(doc: dict, path: str) -> _Loaded:
    from .codes import LinearCode

    field = _field(doc, path)
    rows = _integer_lists(doc, path, "generator", "generator rows must be lists of integers")
    if len({len(row) for row in rows}) > 1:
        raise ParseError(f"{path}: generator rows must all have the same length")
    return _Loaded("generator", field.p, code=LinearCode(field, FieldMatrix(field, rows)))


_LOADERS = {
    "gens": _load_ideal,
    "facets": _load_complex,
    "points": _load_points,
    "generator": _load_generator,
}


def load_input(path: str) -> _Loaded:
    doc = _document(path)
    kind = next((key for key in _LOADERS if key in doc), None)
    if kind is None:
        raise ParseError(
            f"{path}: cannot detect the input kind "
            "(expected one of the keys \"gens\", \"facets\", \"points\", \"generator\")"
        )
    try:
        return _LOADERS[kind](doc, path)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}")


def _profile_for(loaded: _Loaded) -> RingProfile:
    if loaded.profile is not None:
        return loaded.profile
    if loaded.complex_ is not None:
        from .simplicial import face_ring_profile

        loaded.profile = face_ring_profile(loaded.complex_, FieldSpec(loaded.char))
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


def _failed(verdicts: list[dict]) -> bool:
    return any(v["status"] == "fail" for v in verdicts)


def _header(args, input_kind: str) -> dict:
    """The keys every report starts with."""
    return {
        "command": args.command, "input": args.input, "input_kind": input_kind, "seed": args.seed,
    }


def _ell_range(args, fallback_max: int) -> range:
    """The counts a command runs over, from ``--ell`` or ``--ell-max``.

    A count above ``COUNT_LIMIT`` is rejected, except for ``ghw --ell-max``,
    which is capped at each code's dimension.
    """
    flag, count = ("--ell", args.ell) if args.ell is not None else ("--ell-max", args.ell_max)
    count = fallback_max if count is None else count
    if count < 1:
        raise ParseError(f"{flag} must be at least 1")
    if count > COUNT_LIMIT and (flag == "--ell" or args.command != "ghw"):
        raise ParseError(f"{flag} {count} is above the supported limit of {COUNT_LIMIT}")
    return range(count if flag == "--ell" else 1, count + 1)


def cmd_delta(args) -> tuple[dict, int]:
    loaded = load_input(args.input)
    profile = _profile_for(loaded)
    convention = args.convention
    method = args.method
    if method is None:
        method = "both" if profile.reduced_certified and convention == FIXED_DIM else "brute"
    ells = _ell_range(args, 3)
    hilbert = [hilbert_function(profile.ideal, t) for t in range(0, args.t_max + 1)]
    if method != "fast":
        # refuse the first oversized cell, in grid order, before any scan
        for m in hilbert[1:]:
            for ell in ells:
                if ell > m:
                    break
                brute_count(m, ell, profile.ring.field)
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
        **_header(args, loaded.kind),
        "convention": convention,
        "method": method,
        "ring": _profile_meta(profile),
        "hilbert": hilbert,
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
        **_header(args, loaded.kind),
        "convention": FIXED_DIM,
        "ring": _profile_meta(profile),
        "rows": rows,
    }
    return report, 0


def cmd_ghw(args) -> tuple[dict, int]:
    from .codes import evaluation_code, generalized_hamming_weight

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
            result = generalized_hamming_weight(code, r, jobs=args.jobs)
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
    report = {**_header(args, loaded.kind), "char": loaded.char, "codes": entries}
    return report, 0


def cmd_sr_info(args) -> tuple[dict, int]:
    from .simplicial import betti_table, is_shellable, proj_connected, stanley_reisner_ideal

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
        **_header(args, loaded.kind),
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


def _verify_input(args) -> tuple[dict, int]:
    loaded = load_input(args.input)
    profile = _profile_for(loaded)
    sr = None
    if loaded.complex_ is not None:
        from .simplicial import sr_context

        sr = sr_context(loaded.complex_, FieldSpec(loaded.char))
    ells = _ell_range(args, 3)
    report = {
        **_header(args, loaded.kind),
        "convention": FIXED_DIM,
        "ring": _profile_meta(profile),
        "verdicts": _verdict_dicts(verify_theorems(profile, args.t_max, max(ells), sr=sr)),
    }
    failed = _failed(report["verdicts"])
    if loaded.points is not None:
        from .codes import bridge_rows

        report["bridge"] = list(bridge_rows(loaded.points, args.t_max, ells, args.jobs))
        failed = failed or not all(r["agree"] for r in report["bridge"])
    report["pass"] = not failed
    return report, (1 if failed else 0)


def _verify_builtin(args) -> tuple[dict, int]:
    from . import suites
    from .codes import bridge_rows
    from .simplicial import face_count_hilbert, face_ring_profile, sr_context

    sections = {}
    ok = True
    which = args.suite
    ells = _ell_range(args, 3)
    ell_max = max(ells)
    if which in ("rings", "all"):
        entries = []
        for case in suites.ring_suite():
            profile = case.build()
            checked, disagreements = suites.equivalence_cells(
                profile, args.t_max, ell_max, args.jobs
            )
            verdicts = _verdict_dicts(verify_theorems(profile, args.t_max, ell_max))
            entries.append(
                {
                    "name": case.name,
                    "char": case.field.p,
                    "classification": profile.classification,
                    "certified": profile.reduced_certified,
                    "cells_checked": checked,
                    "disagreements": disagreements,
                    "verdicts": verdicts,
                }
            )
            ok = ok and not disagreements and not _failed(verdicts)
        sections["rings"] = entries
    if which in ("complexes", "all"):
        entries = []
        sr_ell_max = max(ell_max, 4)
        field = FieldSpec(2)
        bound_names = {case.name for case in suites.bound_suite_members()}
        for case in suites.complex_suite():
            complex_ = case.complex_
            sr = sr_context(complex_, field)
            profile = face_ring_profile(complex_, field)
            hochster_ok = all(
                face_count_hilbert(complex_, t) == hilbert_function(profile.ideal, t)
                for t in range(0, 7)
            )
            connectivity_ok = (sr.depth >= 2) == sr.proj_connected
            verdicts = None
            if case.name in bound_names:
                verdicts = _verdict_dicts(verify_theorems(profile, args.t_max, sr_ell_max, sr=sr))
            entries.append(
                {
                    "name": case.name,
                    "char": field.p,
                    "depth": sr.depth,
                    "regularity": sr.regularity,
                    "proj_connected": sr.proj_connected,
                    "shellable": sr.shellable,
                    "hilbert_ok": hochster_ok,
                    "depth_connectivity_ok": connectivity_ok,
                    "verdicts": verdicts,
                }
            )
            ok = ok and hochster_ok and connectivity_ok and not _failed(verdicts or ())
        sections["complexes"] = entries
    if which in ("bridge", "all"):
        entries = []
        small_ells = [ell for ell in ells if ell <= 3]
        for case in suites.bridge_suite(args.seed):
            rows = [
                {k: row[k] for k in ("t", "ell", "delta", "ghw", "agree")}
                for row in bridge_rows(case.point_set(), min(args.t_max, 3), small_ells, args.jobs)
            ]
            agree = all(r["agree"] for r in rows)
            entries.append(
                {
                    "name": case.name,
                    "char": case.field.p,
                    "size": case.size,
                    "cases": rows,
                    "all_agree": agree,
                }
            )
            ok = ok and agree
        sections["bridge"] = entries
    report = {
        **_header(args, "builtin-suite"),
        "suite": which,
        "convention": FIXED_DIM,
        "sections": sections,
        "pass": ok,
    }
    return report, (0 if ok else 1)


def cmd_verify(args) -> tuple[dict, int]:
    if args.input is None:
        return _verify_builtin(args)
    return _verify_input(args)


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    from .formats import render_csv, render_text

    if fmt == "csv":
        return render_csv(report)
    return render_text(report)


def _add_common(parser, counts=True, method=False, witnesses=False):
    """Flags shared by the subcommands; each command gets only those it reads.

    ``counts`` adds ``--ell``/``--ell-max`` and ``--jobs``: sr-info reads
    neither a count nor a worker count.  ``--t-max`` is added by each
    command that reads a degree range; stabilize reads none.
    """
    if counts:
        group = parser.add_mutually_exclusive_group()
        group.add_argument("--ell", type=int, default=None)
        group.add_argument("--ell-max", type=int, default=None, dest="ell_max")
    if method:
        parser.add_argument(
            "--convention", choices=list(CONVENTIONS), default=FIXED_DIM
        )
        parser.add_argument("--method", choices=["brute", "fast", "both"], default=None)
    parser.add_argument(
        "--format", choices=["json", "csv", "text"], default="json", dest="fmt"
    )
    if witnesses:
        parser.add_argument("--witnesses", action="store_true")
    parser.add_argument("--seed", type=int, default=2026)
    if counts:
        parser.add_argument("--jobs", type=int, default=1)


def _delta_arguments(parser):
    parser.add_argument("input")
    parser.add_argument("--t-max", type=int, default=4, dest="t_max")
    _add_common(parser, method=True, witnesses=True)


def _stabilize_arguments(parser):
    parser.add_argument("input")
    _add_common(parser)


def _ghw_arguments(parser):
    parser.add_argument("input")
    parser.add_argument("--t-max", type=int, default=4, dest="t_max")
    _add_common(parser, witnesses=True)


def _sr_info_arguments(parser):
    parser.add_argument("input")
    parser.add_argument("--t-max", type=int, default=4, dest="t_max")
    _add_common(parser, counts=False)


def _verify_arguments(parser):
    parser.add_argument("input", nargs="?", default=None)
    parser.add_argument(
        "--suite", choices=["rings", "complexes", "bridge", "all"], default="all"
    )
    parser.add_argument("--t-max", type=int, default=4, dest="t_max")
    _add_common(parser)


_SUBCOMMANDS = {
    "delta": ("distance table over a degree/count grid", _delta_arguments),
    "stabilize": ("limit values and least degrees", _stabilize_arguments),
    "ghw": ("generalized Hamming weights", _ghw_arguments),
    "sr-info": ("face-ring facts of a complex", _sr_info_arguments),
    "verify": ("theorem checks on an input or the built-in suite", _verify_arguments),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser with all five subcommands; only the one argv names gets its arguments.

    The top-level parser takes no option with a value, so the first
    argument that does not start with "-" names the command.  The command
    list in ``--help`` and the invalid-choice error read only the names and
    help strings, so they do not change.  ``argv`` defaults to sys.argv[1:].
    """
    if argv is None:
        argv = sys.argv[1:]
    named = next((a for a in argv if not a.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="gmdkit",
        description="Distance functions of graded ideals, face rings, and evaluation codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _SUBCOMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        if name == named:
            add_arguments(command)
    return parser


_COMMANDS = {
    "delta": cmd_delta,
    "stabilize": cmd_stabilize,
    "ghw": cmd_ghw,
    "sr-info": cmd_sr_info,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser(argv).parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 2
    if getattr(args, "t_max", 1) < 1:
        print("error: --t-max must be at least 1", file=sys.stderr)
        return 2
    try:
        report, status = _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc.describe()}", file=sys.stderr)
        return 2
    except (ExponentOverflowError, LimitError) as exc:
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
