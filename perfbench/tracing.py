"""Spans and counters around gmdkit's public functions, installed from outside.

``install`` wraps each target in every gmdkit module namespace that bound
it (``gmd.py`` imports ``normal_form`` by name, so both
``gmdkit.groebner.normal_form`` and ``gmdkit.gmd.normal_form`` are patched)
and, for methods, on the class.  Nothing is written to disk while the op
runs: spans live in a list until ``Tracer.dump``.

A span is (op id, name, start, end, parent index).  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module.attr`` or ``module.Class.method``."""

    module: str
    attr: str
    name: str
    timed: bool = True
    hook: Callable | None = None


def _ann_hook(tracer, args, kwargs, result):
    tracer.counters["gmd.ann_nonzero.true"] += bool(result)


def _buchberger_hook(tracer, args, kwargs, result):
    tracer.counters["groebner.buchberger.out_len"] += len(result)


def _brute_scan_hook(tracer, args, kwargs, result):
    start, stop = args[6], args[7]
    tracer.counters["gmd.brute.subspaces"] += stop - start


def _quotient_dim_hook(tracer, args, kwargs, result):
    key = (id(args[0]), args[1] if len(args) > 1 else kwargs["t"])
    if key in tracer.seen:
        tracer.counters["schemes.quotient_dim.repeat"] += 1
    tracer.seen.add(key)


def _family_hook(tracer, args, kwargs, result):
    if id(result) not in tracer.families:
        tracer.families[id(result)] = result
        tracer.counters["schemes.families"] += 1


TARGETS = (
    Target("cli", "load_input", "cli.load_input"),
    Target("cli", "render", "cli.render"),
    Target("gflinalg", "SubspaceIterator.matrix_at", "gflinalg.matrix_at"),
    Target("gflinalg", "rref", "gflinalg.rref"),
    Target("gflinalg", "FieldMatrix.matmul", "gflinalg.matmul"),
    Target("polyring", "MonomialOrder.key", "polyring.order_key", timed=False),
    Target("groebner", "groebner_basis_extending", "groebner.extending"),
    Target("groebner", "buchberger", "groebner.buchberger", hook=_buchberger_hook),
    Target("groebner", "normal_form", "groebner.normal_form"),
    Target("groebner", "groebner_basis", "groebner.groebner_basis"),
    Target("groebner", "colon", "groebner.colon"),
    Target("groebner", "intersect", "groebner.intersect"),
    Target("hilbert", "hilbert_data", "hilbert.hilbert_data"),
    Target("hilbert", "multiplicity_at_dim", "hilbert.multiplicity_at_dim"),
    Target("hilbert", "hilbert_function", "hilbert.hilbert_function"),
    Target("schemes", "build_profile", "schemes.build_profile"),
    Target("schemes", "FamilyIntersection.quotient_dim", "schemes.quotient_dim", hook=_quotient_dim_hook),
    Target("schemes", "RingProfile.intersect_family", "schemes.intersect_family", timed=False, hook=_family_hook),
    Target("gmd", "delta_bruteforce", "gmd.delta_bruteforce"),
    Target("gmd", "_brute_scan", "gmd.brute_scan", hook=_brute_scan_hook),
    Target("gmd", "ann_nonzero", "gmd.ann_nonzero", hook=_ann_hook),
    Target("gmd", "delta_fast", "gmd.delta_fast"),
    Target("gmd", "regularity_index", "gmd.regularity_index"),
    Target("gmd", "stabilization_value", "gmd.stabilization_value"),
    Target("codes", "PointFamilyBackend.piece_dim", "codes.piece_dim"),
    Target("codes", "generalized_hamming_weight", "codes.ghw"),
    Target("codes", "_ghw_enumerate", "codes.ghw_enumerate"),
    Target("codes", "_ghw_shorten", "codes.ghw_shorten"),
    Target("codes", "evaluation_code", "codes.evaluation_code"),
)


class Tracer:
    """In-memory span and counter store for one op process."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.names: list[str] = []
        self.spans: list = []
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.seen: set = set()
        self.families: dict = {}
        self._restore: list = []

    def wrap(self, target: Target, fn):
        hook = target.hook
        counters = self.counters
        if not target.timed:
            key = target.name + ".calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counters[key] += 1
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, kwargs, result)
                return result

            return counted

        name_id = len(self.names)
        self.names.append(target.name)
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return timed

    def install(self):
        """Wrap every target; ``uninstall`` puts the originals back."""
        for target in TARGETS:
            module = importlib.import_module(f"gmdkit.{target.module}")
            owner_name, _, attr = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self.wrap(target, original))
                self._restore.append((owner, attr, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(target, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "gmdkit" or mod_name.startswith("gmdkit.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path: str):
        spans = [[self.op_id, *span] for span in self.spans]
        record = {"op": self.op_id, "names": self.names, "spans": spans, "counters": dict(self.counters)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, separators=(",", ":"))


class Totals:
    """Sums over the span files of one or more traced passes."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        self.gb_hits = 0
        self.masks = 0

    def add(self, record: dict):
        names = record["names"]
        spans = record["spans"]
        child_time = [0.0] * len(spans)
        gb_missed = set()
        for _op, name_id, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
                pair = (names[spans[parent][1]], names[name_id])
                if pair == ("groebner.groebner_basis", "groebner.buchberger"):
                    gb_missed.add(parent)
                elif pair == ("gmd.delta_fast", "schemes.quotient_dim"):
                    # delta_fast asks one family quotient_dim per subset it evaluates.
                    self.masks += 1
        for index, (_op, name_id, start, end, _parent) in enumerate(spans):
            name = names[name_id]
            self.calls[name] += 1
            self.inclusive[name] += end - start
            self.self_s[name] += end - start - child_time[index]
            if name == "groebner.groebner_basis" and index not in gb_missed:
                self.gb_hits += 1
        self.counters.update(record["counters"])


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: Totals, passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass, keyed as in BENCHMARK.json."""
    c, s, k = totals.calls, totals.self_s, totals.counters
    per = float(passes)
    out = {}
    for name in ("cli.load_input", "cli.render"):
        out[f"{name}.self_s"] = s[name] / per
    for name in (
        "gflinalg.matrix_at", "gflinalg.rref", "gflinalg.matmul",
        "groebner.extending", "groebner.buchberger", "groebner.normal_form",
        "groebner.colon", "groebner.intersect",
        "hilbert.hilbert_data", "hilbert.multiplicity_at_dim", "hilbert.hilbert_function",
        "schemes.build_profile", "schemes.quotient_dim",
        "gmd.delta_bruteforce", "gmd.ann_nonzero", "gmd.delta_fast",
        "gmd.regularity_index", "gmd.stabilization_value",
        "codes.piece_dim",
    ):
        out[f"{name}.calls"] = c[name] / per
        out[f"{name}.self_s"] = s[name] / per
    out["polyring.order_key.calls"] = k["polyring.order_key.calls"] / per
    out["groebner.buchberger.out_len"] = _ratio(k["groebner.buchberger.out_len"], c["groebner.buchberger"])
    out["groebner.groebner_basis.hit_ratio"] = _ratio(totals.gb_hits, c["groebner.groebner_basis"])
    out["schemes.quotient_dim.repeat_ratio"] = _ratio(k["schemes.quotient_dim.repeat"], c["schemes.quotient_dim"])
    out["schemes.families"] = k["schemes.families"] / per
    out["gmd.brute.subspaces"] = k["gmd.brute.subspaces"] / per
    out["gmd.brute.subspaces_per_s"] = _ratio(k["gmd.brute.subspaces"], totals.inclusive["gmd.delta_bruteforce"])
    out["gmd.ann_nonzero.true_ratio"] = _ratio(k["gmd.ann_nonzero.true"], c["gmd.ann_nonzero"])
    out["gmd.delta_fast.masks"] = totals.masks / per
    out["codes.ghw.calls"] = c["codes.ghw"] / per
    for name in ("codes.ghw_enumerate", "codes.ghw_shorten", "codes.evaluation_code"):
        out[f"{name}.self_s"] = s[name] / per
    return out
