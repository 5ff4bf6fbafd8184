"""Seeded inputs for the three benchmark workloads.

Each workload is a fixed list of slots.  A slot fixes the family, the field,
the size and the Hilbert function of its input; the seed only picks which
points or lines realise it, or how a path is labelled.  Inputs of different
seeds therefore cost about the same, which keeps run-to-run spreads small,
while every seed still gives gmdkit inputs it has not seen before.  Each
seed gives several variants of the slot list, and the passes of a run take
them in turn (see ``VARIANTS``).

Nothing here imports gmdkit: documents are written from ``vanishing``, so
they are the same bytes whatever the program under test does.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from math import comb

import vanishing

WORKLOADS = ("brute-certified", "brute-colon", "prime-scan")

# Input variants per seed; pass k of a run runs variant k mod this count.
# The same slot still costs up to 1.7x more on one realisation than on
# another (colon ideals of four points), so a run that repeated one variant
# would report that variant's costs, and its op_p50_s would jump between
# the middle slots from seed to seed.  Several variants per run average
# this out.  prime-scan has fewer because its references take about 5 s
# per variant to compute.
VARIANTS = {"brute-certified": 4, "brute-colon": 4, "prime-scan": 2}

# Subspaces one delta op may scan over its whole grid (so also per cell).
# Brute cells cost about 0.2-3 ms per subspace on certified ideals and
# 5-50 ms through colon ideals; these caps keep one op near a second.
BRUTE_CAP = {"brute-certified": 800, "brute-colon": 110}

# The two golden examples of tests/oracles.py and their Hilbert functions
# in degrees 0..3 (EXAMPLE1's are listed there too).
EXAMPLE1 = {
    "char": 2,
    "vars": ["x", "y", "z"],
    "gens": ["x^3+y^2*z", "x*y+z^2"],
    "minimal_primes": [["x", "z"], ["y+z", "x+z"], ["x*y+z^2", "x^2+y^2+x*z+y*z+z^2"]],
}
EXAMPLE1_HILBERT = (1, 3, 5, 6)
EXAMPLE2 = {
    "char": 3,
    "vars": ["x", "y", "z"],
    "gens": ["y^2-y*z", "x^2*y-y*z^2"],
    "minimal_primes": [["y"], ["y-z", "x-z"], ["y-z", "x+z"]],
}
EXAMPLE2_HILBERT = (1, 3, 5, 6)


@dataclass(frozen=True)
class Op:
    """One gmdkit command on one generated input.

    ``twin`` is the certified form of the input (equal to ``doc`` unless the
    op runs on an uncertified ideal document); ``family`` names the input
    family, which picks the reference route.  ``name`` names the slot, the
    same in every variant.
    """

    name: str
    family: str
    command: str
    doc: dict
    twin: dict
    args: tuple[str, ...]
    variant: int = 0

    @property
    def certified(self) -> bool:
        return self.doc == self.twin

    def file_name(self) -> str:
        return f"{self.name.rsplit('.', 1)[0]}-v{self.variant}.json"

    def argv(self, path: str) -> list[str]:
        return [self.command, path, *self.args, "--jobs", "1", "--format", "json"]


def doc_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def inputs_digest(ops) -> str:
    """sha256 over every op's input bytes and arguments, in order."""
    h = hashlib.sha256()
    for op in ops:
        h.update(op.name.encode() + b"\0" + doc_bytes(op.doc) + b"\0")
        h.update(" ".join(op.args).encode() + b"\n")
    return h.hexdigest()


def gaussian_binomial(m: int, l: int, p: int) -> int:
    if l < 0 or l > m:
        return 0
    num = den = 1
    for i in range(l):
        num *= p ** (m - i) - 1
        den *= p ** (l - i) - 1
    return num // den


def brute_grid(hilbert, p: int, cap: int) -> tuple[int, int]:
    """(t_max, ell_max) with t, ell <= 3 and at most ``cap`` subspaces in all.

    Among the grids under the cap, take the one with the most cells, then
    the most subspaces, then the larger t.
    """
    best = None
    for t_max, ell_max in itertools.product(range(1, 4), range(1, 4)):
        total = sum(
            gaussian_binomial(hilbert[t], ell, p)
            for t in range(1, t_max + 1)
            for ell in range(1, ell_max + 1)
        )
        if total > cap:
            continue
        key = (t_max * ell_max, total, t_max)
        if best is None or key > best[0]:
            best = (key, (t_max, ell_max))
    if best is None:
        raise ValueError("even the 1x1 grid exceeds the subspace cap")
    return best[1]


# ---------------------------------------------------------------------------
# seeded families


def projective_points(p: int, n: int) -> list[tuple[int, ...]]:
    out = []
    for lead in range(n):
        for tail in itertools.product(range(p), repeat=n - lead - 1):
            out.append((0,) * lead + (1,) + tail)
    return out


def _hilbert_is(components, n: int, p: int, target) -> bool:
    """Whether the union's Hilbert function equals target in degrees 1, 2, ..."""
    return all(
        vanishing.hilbert_function(components, n, d, p) == value
        for d, value in enumerate(target, start=1)
    )


def points_hilbert(size: int) -> tuple[int, ...]:
    """Hilbert function in degrees 0..3 of points of P^2 in general position."""
    return tuple(min(comb(d + 2, 2), size) for d in range(4))


def point_set(rng: random.Random, p: int, size: int) -> list[tuple[int, ...]]:
    """Points of P^2(F_p) whose Hilbert function is ``points_hilbert(size)``."""
    universe = projective_points(p, 3)
    for _ in range(200):
        pts = sorted(rng.sample(universe, size))
        if _hilbert_is([[list(q)] for q in pts], 3, p, points_hilbert(size)[1:]):
            return pts
    raise RuntimeError(f"no generic set of {size} points over F_{p}")


def line_arrangement(rng: random.Random, p: int, size: int, hilbert) -> list[list[list[int]]]:
    """Pairwise skew lines of P^3(F_p) with the given Hilbert function in degrees 1, 2, ...

    Each line is given by two spanning points.  Five skew lines of P^3(F_3)
    come in two kinds, on two cubics (Hilbert function 4, 10, 18) or on
    none (4, 10, 20); the second kind costs gmdkit several times more to
    certify, and fixing the kind keeps the op's cost steady across seeds.
    """
    universe = projective_points(p, 4)
    for _ in range(2000):
        lines = []
        covered = set()
        for _ in range(200):
            a, b = rng.sample(universe, 2)
            span = _span_points(p, a, b)
            if covered & span:
                continue
            covered |= span
            lines.append([list(a), list(b)])
            if len(lines) == size:
                break
        if len(lines) == size and _hilbert_is(lines, 4, p, hilbert):
            return sorted(lines)
    raise RuntimeError(f"no {size} skew lines over F_{p}")


def _span_points(p, a, b):
    out = set()
    for c, d in itertools.product(range(p), repeat=2):
        v = tuple((c * x + d * y) % p for x, y in zip(a, b))
        if any(v):
            lead = next(x for x in v if x)
            inv = pow(lead, p - 2, p)
            out.add(tuple((x * inv) % p for x in v))
    return out


def path_complex(rng: random.Random, vertices: int) -> list[list[int]]:
    """Facets (1-based edges) of a path through all vertices in a seeded order.

    The shape is fixed because the colon route's cost depends on it (a star
    or a triangle with a loose vertex costs up to twice a path); the seed
    picks the labelling.
    """
    order = rng.sample(range(1, vertices + 1), vertices)
    return sorted(sorted(edge) for edge in zip(order, order[1:]))


def path_hilbert(vertices: int) -> tuple[int, ...]:
    """Hilbert function in degrees 0..3 of the face ring of a path: 1, then n + (n - 1)(t - 1)."""
    return (1,) + tuple(vertices + (vertices - 1) * (t - 1) for t in (1, 2, 3))


# ---------------------------------------------------------------------------
# documents


def points_doc(p: int, pts) -> dict:
    return {"char": p, "ambient": 3, "points": [list(q) for q in pts]}


def points_ideal_doc(p: int, pts) -> dict:
    gens = vanishing.minimal_generators([[list(q)] for q in pts], 3, p)
    return {"char": p, "vars": ["x", "y", "z"], "gens": [vanishing.poly_text(g) for g in gens]}


def complex_doc(p: int, vertices: int, facets) -> dict:
    return {"char": p, "vertices": vertices, "facets": facets}


def complex_ideal_doc(p: int, vertices: int, facets) -> dict:
    """Stanley-Reisner ideal: one monomial per minimal non-face."""
    faces = {frozenset(s) for f in facets for k in range(len(f) + 1) for s in itertools.combinations(f, k)}
    names = vanishing.VARS[:vertices]
    gens = []
    for k in range(1, vertices + 1):
        for s in itertools.combinations(range(1, vertices + 1), k):
            if frozenset(s) in faces:
                continue
            if any(frozenset(s) - {v} not in faces for v in s):
                continue
            gens.append("*".join(names[v - 1] for v in s))
    return {"char": p, "vars": list(names), "gens": gens}


def lines_doc(p: int, lines) -> dict:
    gens = vanishing.minimal_generators(lines, 4, p)
    primes = [
        [vanishing.poly_text(f) for f in vanishing.linear_forms_vanishing_on(span, 4, p)]
        for span in lines
    ]
    return {
        "char": p,
        "vars": list(vanishing.VARS),
        "gens": [vanishing.poly_text(g) for g in gens],
        "minimal_primes": primes,
    }


def _without_primes(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "minimal_primes"}


# ---------------------------------------------------------------------------
# workloads


def _brute_ops(workload: str, rng: random.Random, variant: int) -> list[Op]:
    colon = workload == "brute-colon"
    cap = BRUTE_CAP[workload]
    method = () if colon else ("--method", "both")
    ops = []

    def add(name, family, twin, doc, hilbert, p):
        t_max, ell_max = brute_grid(hilbert, p, cap)
        args = (*method, "--t-max", str(t_max), "--ell-max", str(ell_max))
        ops.append(Op(f"{name}.delta", family, "delta", doc, twin, args, variant))

    for p, size in ((2, 4), (2, 5), (2, 6), (3, 4), (3, 5)):
        pts = point_set(rng, p, size)
        twin = points_doc(p, pts)
        doc = points_ideal_doc(p, pts) if colon else twin
        add(f"pts{size}-f{p}", "points", twin, doc, points_hilbert(size), p)
    for p, vertices in ((3, 3), (2, 4)):
        facets = path_complex(rng, vertices)
        twin = complex_doc(p, vertices, facets)
        doc = complex_ideal_doc(p, vertices, facets) if colon else twin
        add(f"cx{vertices}-f{p}", "complex", twin, doc, path_hilbert(vertices), p)
    for name, example, hilbert in (("ex1", EXAMPLE1, EXAMPLE1_HILBERT), ("ex2", EXAMPLE2, EXAMPLE2_HILBERT)):
        doc = _without_primes(example) if colon else example
        add(name, name, example, doc, hilbert, example["char"])
    return ops


def _prime_scan_ops(rng: random.Random, variant: int) -> list[Op]:
    grid = ("--t-max", "3", "--ell-max", "3")
    args = {"delta": ("--method", "fast", *grid), "stabilize": ("--ell-max", "3"), "ghw": grid}
    slots = (
        ("points", 3, 9, ("delta", "stabilize", "ghw")),
        ("points", 3, 10, ("stabilize", "ghw")),
        ("points", 3, 11, ("delta",)),
        ("points", 3, 12, ("ghw",)),
        ("lines", 2, 5, ("delta",)),
        ("lines", 3, 5, ("stabilize",)),
    )
    ops = []
    for family, p, size, commands in slots:
        if family == "points":
            doc, prefix = points_doc(p, point_set(rng, p, size)), "pts"
        else:
            # Five skew lines over F_2 always have Hilbert function 4, 10, 18.
            doc, prefix = lines_doc(p, line_arrangement(rng, p, size, (4, 10, 18))), "lines"
        for command in commands:
            ops.append(Op(f"{prefix}{size}-f{p}.{command}", family, command, doc, doc, args[command], variant))
    return ops


def generate(workload: str, seed: int, variant: int = 0) -> list[Op]:
    """The op list of one input variant of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}:{variant}")
    if workload == "prime-scan":
        return _prime_scan_ops(rng, variant)
    return _brute_ops(workload, rng, variant)
