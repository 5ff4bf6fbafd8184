"""Reference values for every op, computed in the benchmark process.

Each reference takes a route other than the one the op times:

* EXAMPLE1: the table printed in README.md (t <= 3, l <= 3), whose t <= 2
  cells are also the frozen ``delta_cells`` of tests/oracles.py.
* brute-colon: the prime-subset route on the certified twin of the input.
* point sets: generalized Hamming weights of the evaluation code (the
  delta/GHW bridge); a ``ghw`` op is checked against the prime-subset route.
* line arrangements: brute-force subspace enumeration at t = 1.
* other certified delta ops (complexes, EXAMPLE2): the prime-subset route,
  while the op itself runs ``--method both``.
* ``stabilize`` rows: the delta row must equal the reported limit at the
  reported index and one degree later, and differ one degree earlier.

Values are cached, so a reference is computed once per run.
"""

from __future__ import annotations

from gmdkit.codes import ProjectivePointSet, evaluation_code, generalized_hamming_weight
from gmdkit.gflinalg import FieldSpec
from gmdkit.gmd import GmdQuery, delta_bruteforce, delta_fast
from gmdkit.groebner import IdealPresentation
from gmdkit.polyring import RingSpec
from gmdkit.schemes import build_profile
from gmdkit.simplicial import SimplicialComplex
from gmdkit.suites import face_ring_profile

# README.md, "Quick start": delta table of EXAMPLE1 for t <= 3, l <= 3.
EXAMPLE1_TABLE = {
    (1, 1): 4, (1, 2): 5, (1, 3): 6,
    (2, 1): 2, (2, 2): 4, (2, 3): 4,
    (3, 1): 1, (3, 2): 2, (3, 3): 4,
}


def _profile(doc: dict):
    field = FieldSpec(doc.get("char", 2))
    if "points" in doc:
        return ProjectivePointSet(field, doc["ambient"], doc["points"]).vanishing_profile()
    if "facets" in doc:
        return face_ring_profile(SimplicialComplex.from_one_based(doc["vertices"], doc["facets"]), field)
    ring = RingSpec(field, tuple(doc["vars"]))
    primes = [IdealPresentation.from_strings(ring, gs) for gs in doc["minimal_primes"]]
    return build_profile(IdealPresentation.from_strings(ring, doc["gens"]), primes)


class References:
    """Cached reference values for the ops of one run."""

    def __init__(self):
        self._profiles: dict[int, object] = {}
        self._values: dict = {}

    def _twin(self, op):
        key = id(op.twin)
        if key not in self._profiles:
            self._profiles[key] = _profile(op.twin)
        return self._profiles[key]

    def _cached(self, key, compute):
        if key not in self._values:
            self._values[key] = compute()
        return self._values[key]

    def fast(self, op, t, ell) -> int:
        return self._cached(
            ("fast", id(op.twin), t, ell),
            lambda: delta_fast(GmdQuery(self._twin(op), t, ell, method="fast")).value,
        )

    def brute(self, op, t, ell) -> int:
        return self._cached(
            ("brute", id(op.twin), t, ell),
            lambda: delta_bruteforce(GmdQuery(self._twin(op), t, ell, method="brute")).value,
        )

    def bridge(self, op, t, ell) -> int:
        """delta of a point set from the Hamming weights of its evaluation code."""

        def compute():
            doc = op.twin
            points = ProjectivePointSet(FieldSpec(doc["char"]), doc["ambient"], doc["points"])
            code = evaluation_code(points, t)
            if ell > code.dimension:
                return len(points)
            return generalized_hamming_weight(code, ell).value

        return self._cached(("ghw", id(op.twin), t, ell), compute)

    def delta_cell(self, op, t, ell) -> int | None:
        """Expected delta(t, ell) for a delta op; None when the cell is not checked."""
        if not op.certified:
            return self.fast(op, t, ell)
        if op.family == "ex1":
            return EXAMPLE1_TABLE[(t, ell)]
        if op.family == "points":
            return self.bridge(op, t, ell)
        if op.family == "lines":
            return self.brute(op, t, ell) if t == 1 else None
        return self.fast(op, t, ell)

    def row_delta(self, op, t, ell) -> int:
        """delta(t, ell) for checking a stabilize row."""
        if op.family == "points":
            return self.bridge(op, t, ell)
        return self.fast(op, t, ell)

    def prepare(self, op):
        """Compute every reference an op's report can be checked against up front."""
        if op.command == "delta":
            t_max = int(op.args[op.args.index("--t-max") + 1])
            ell_max = int(op.args[op.args.index("--ell-max") + 1])
            for t in range(1, t_max + 1):
                for ell in range(1, ell_max + 1):
                    self.delta_cell(op, t, ell)
        elif op.command == "ghw":
            for t in range(1, 4):
                for r in range(1, 4):
                    self.fast(op, t, r)

    def check(self, op, report: dict) -> str | None:
        """None when the report matches every reference, else what differed."""
        if report.get("command") != op.command:
            return f"report is for {report.get('command')!r}"
        if op.command == "delta":
            if report["ring"]["certified"] != op.certified:
                return f"certified is {report['ring']['certified']}, expected {op.certified}"
            if not op.certified and report["method"] != "brute":
                return f"uncertified input ran method {report['method']!r}"
            for cell in report["cells"]:
                want = self.delta_cell(op, cell["t"], cell["ell"])
                if want is not None and cell["value"] != want:
                    return f"delta({cell['t']},{cell['ell']}) = {cell['value']}, reference {want}"
            return None
        if op.command == "ghw":
            for entry in report["codes"]:
                for w in entry["weights"]:
                    want = self.fast(op, entry["t"], w["r"])
                    if w["value"] != want:
                        return f"ghw(t={entry['t']}, r={w['r']}) = {w['value']}, delta reference {want}"
            return None
        for row in report["rows"]:
            ell, value, index = row["ell"], row["value"], row["regularity_index"]
            if not row["regularity_exact"]:
                return f"stabilize l={ell}: regularity index is not exact"
            for t in (index, index + 1):
                got = self.row_delta(op, t, ell)
                if got != value:
                    return f"stabilize l={ell}: limit {value} but delta({t},{ell}) = {got}"
            if index >= 2 and self.row_delta(op, index - 1, ell) == value:
                return f"stabilize l={ell}: delta already equals {value} at t={index - 1}"
        return None
