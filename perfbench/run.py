"""gmdkit benchmark: seeded workloads of real CLI commands, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gmdkit checkout.  One op is one
``python -m gmdkit.cli <command> <input> ... --jobs 1`` process with ``src``
on PYTHONPATH; ops run back to back from this one process (a closed loop
with one client), so per-process caches never carry over.  Every report is
checked against a reference computed here by another route (see
``reference.py``).

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics.  With ``--trace 1`` each op runs untraced and then
under ``traced_op.py``, and the result carries the per-layer metrics
instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

OP_LIMIT_S = 60.0
# An import sample (setup_s) is taken before every SETUP_EVERY-th op of a
# pass.  Spread over the run like this, the samples see the same machine
# speed as the ops; one before every op would take a fifth of the run.
SETUP_EVERY = 2
# No op starts after this much of a run, so that a run ends within 180 s.
RUN_BUDGET_S = 150.0

# Per-layer metrics that must be nonzero on each workload.  A wrapper that
# stops running (a rename, a removed call) fails the traced run instead of
# reading as a gain.  multiplicity_at_dim is called only by the brute
# route, so prime-scan, which has no brute scan, does not list it.
COMMON = ("cli.load_input.self_s", "cli.render.self_s", "polyring.order_key.calls")
BRUTE = (
    "gmd.delta_bruteforce.calls", "gmd.delta_bruteforce.self_s", "gmd.brute.subspaces",
    "gmd.brute.subspaces_per_s", "gmd.ann_nonzero.calls", "gmd.ann_nonzero.self_s",
    "gmd.ann_nonzero.true_ratio", "hilbert.multiplicity_at_dim.calls",
    "hilbert.multiplicity_at_dim.self_s",
)
HILBERT = (
    "hilbert.hilbert_data.calls", "hilbert.hilbert_data.self_s",
    "hilbert.hilbert_function.calls", "hilbert.hilbert_function.self_s",
)
EXPECTED = {
    "brute-certified": COMMON + BRUTE + HILBERT + (
        "gflinalg.matrix_at.calls", "gflinalg.matrix_at.self_s",
        "groebner.extending.calls", "groebner.extending.self_s",
        "groebner.buchberger.calls", "groebner.buchberger.self_s", "groebner.buchberger.out_len",
        "groebner.normal_form.calls", "groebner.normal_form.self_s",
        "groebner.groebner_basis.hit_ratio",
    ),
    "brute-colon": COMMON + BRUTE + (
        "groebner.colon.calls", "groebner.colon.self_s",
        "groebner.intersect.calls", "groebner.intersect.self_s",
    ),
    "prime-scan": COMMON + HILBERT + (
        "gflinalg.rref.calls", "gflinalg.rref.self_s", "gflinalg.matmul.calls", "gflinalg.matmul.self_s",
        "groebner.intersect.calls", "groebner.intersect.self_s",
        "schemes.build_profile.calls", "schemes.build_profile.self_s",
        "schemes.quotient_dim.calls", "schemes.quotient_dim.self_s",
        "schemes.quotient_dim.repeat_ratio", "schemes.families",
        "gmd.delta_fast.calls", "gmd.delta_fast.self_s", "gmd.delta_fast.masks",
        "gmd.regularity_index.calls", "gmd.regularity_index.self_s",
        "gmd.stabilization_value.calls", "gmd.stabilization_value.self_s",
        "codes.piece_dim.calls", "codes.piece_dim.self_s", "codes.ghw.calls",
        "codes.ghw_enumerate.self_s", "codes.ghw_shorten.self_s", "codes.evaluation_code.self_s",
    ),
}


@dataclass
class OpResult:
    name: str
    wall_s: float
    rss_kb: int
    entries: int
    error: str | None


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(cmd, cwd: Path, out_path: Path, err_path: Path, limit: float):
    """Run cmd to completion; return (wall seconds, exit code, peak RSS in KB, timed out).

    Wall time runs from just before the fork to the reaping of the child,
    so interpreter start and exit are included.  The child is waited for
    through a pidfd, so the timeout adds no polling delay.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err, env=_env())
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(limit, 0.0))
        if not ready:
            os.kill(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss, not ready


class Runner:
    """Runs ops of one workload in one work directory and checks their reports."""

    def __init__(self, check, workdir: Path, run_start: float):
        self.check = check
        self.workdir = workdir
        self.run_start = run_start
        self.span_files: list[Path] = []

    def run_op(self, index: int, op, traced: bool) -> OpResult:
        limit = min(OP_LIMIT_S, RUN_BUDGET_S - (time.perf_counter() - self.run_start))
        if limit <= 0:
            return OpResult(op.name, 0.0, 0, 0, "not started: run budget exhausted")
        argv = op.argv(op.file_name())
        if traced:
            span_file = self.workdir / f"spans-{len(self.span_files)}.json"
            cmd = [sys.executable, str(HERE / "traced_op.py"), str(span_file), str(index), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "gmdkit.cli", *argv]
        out_path = self.workdir / "out.json"
        err_path = self.workdir / "err.txt"
        wall, code, rss, timed_out = run_process(cmd, self.workdir, out_path, err_path, limit)
        if traced and span_file.exists():
            self.span_files.append(span_file)
        if timed_out:
            return OpResult(op.name, wall, rss, 0, f"killed after {limit:.0f} s")
        if code != 0:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            return OpResult(op.name, wall, rss, 0, f"exit {code}: {' '.join(tail)}")
        try:
            report = json.loads(out_path.read_text())
            error = self.check(op, report)
            count = entries(report)
        except (ValueError, KeyError, TypeError) as exc:
            return OpResult(op.name, wall, rss, 0, f"unreadable report: {exc!r}")
        return OpResult(op.name, wall, rss, count, error)

    def run_pass(self, ops, setup: list[float] | None = None) -> list[OpResult]:
        """One untraced pass; with ``setup``, import samples are taken between its ops."""
        results = []
        for i, op in enumerate(ops):
            if setup is not None and i % SETUP_EVERY == 0:
                setup.append(setup_time(self.workdir))
            results.append(self.run_op(i, op, traced=False))
        return results


def entries(report: dict) -> int:
    """Result entries in a report: delta cells, stabilize rows, weights."""
    if report["command"] == "delta":
        return len(report["cells"])
    if report["command"] == "stabilize":
        return len(report["rows"])
    return sum(len(entry["weights"]) for entry in report["codes"])


def failures(results) -> tuple[int, int]:
    """(attempted, failed) over op results; fail_frac is their ratio."""
    return len(results), sum(1 for r in results if r.error is not None)


def setup_time(workdir: Path) -> float:
    """Wall time of one fresh interpreter importing gmdkit.cli."""
    cmd = [sys.executable, "-c", "import gmdkit.cli"]
    wall, code, _, _ = run_process(cmd, workdir, workdir / "out.json", workdir / "err.txt", OP_LIMIT_S)
    if code != 0:
        raise RuntimeError("import gmdkit.cli failed: " + (workdir / "err.txt").read_text().strip())
    return wall


def p90(values) -> float:
    """90th percentile, as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


def pass_throughput(results) -> float:
    wall = sum(r.wall_s for r in results)
    done = sum(r.entries for r in results if r.error is None)
    return done / wall if wall else 0.0


def end_to_end(passes, setup) -> dict:
    results = [r for p in passes for r in p]
    walls = [r.wall_s for r in results if r.wall_s > 0]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "cells_per_s": (statistics.median(pass_throughput(p) for p in passes), "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_p90_s": (p90(walls), "s"),
        "peak_rss_mb": (max(r.rss_kb for r in results) / 1024.0, "MiB"),
    }


def layer_units(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    run_start = time.perf_counter()
    if not (SRC / "gmdkit" / "cli.py").is_file():
        print(f"error: no gmdkit sources under {SRC}; run from a gmdkit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    variants = [workloads.generate(args.workload, args.seed, v) for v in range(workloads.VARIANTS[args.workload])]
    digest = workloads.inputs_digest([op for ops in variants for op in ops])
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        for ops in variants:
            for op in ops:
                (workdir / op.file_name()).write_bytes(workloads.doc_bytes(op.doc))
        return measure(args, variants, digest, workdir, run_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, variants, digest, workdir, run_start) -> int:
    import reference
    import tracing

    refs = reference.References()
    for ops in variants:
        for op in ops:
            refs.prepare(op)
    runner = Runner(refs.check, workdir, run_start)
    # The first import in a fresh checkout also writes the bytecode caches;
    # it is not a setup sample.
    setup_time(workdir)

    plain, traced, setup = [], [], []
    start = time.perf_counter()
    while True:
        ops = variants[len(plain) % len(variants)]
        if args.trace:
            # Each op runs untraced and then traced, so a machine that speeds
            # up or slows down during the pass affects both sides alike.
            pairs = [(runner.run_op(i, op, False), runner.run_op(i, op, True)) for i, op in enumerate(ops)]
            plain.append([a for a, _ in pairs])
            traced.append([b for _, b in pairs])
        else:
            plain.append(runner.run_pass(ops, setup))
        elapsed = time.perf_counter() - start
        # Stop at the pass boundary nearest to --seconds.
        if elapsed + 0.5 * elapsed / len(plain) > args.seconds:
            break

    all_results = [r for p in plain + traced for r in p]
    attempted, failed = failures(all_results)
    for r in all_results:
        if r.error is not None:
            print(f"op failed: {r.name}: {r.error}", file=sys.stderr)
    print(
        f"workload={args.workload} seed={args.seed} inputs_sha256={digest} "
        f"ops_per_pass={len(variants[0])} variants={len(variants)} passes={len(plain)} traced_passes={len(traced)} "
        f"python={platform.python_version()} nproc={os.cpu_count()}"
    )
    for i, op in enumerate(variants[0]):
        walls = [p[i].wall_s for p in plain]
        print(f"op {op.name} {' '.join(op.args)} median_wall_s={statistics.median(walls):.3f} entries={plain[0][i].entries}")
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.4f}")
    if args.trace:
        totals = tracing.Totals()
        for path in runner.span_files:
            totals.add(json.loads(path.read_text()))
        values = tracing.layer_metrics(totals, len(traced))
        plain_wall = sum(r.wall_s for p in plain for r in p)
        traced_wall = sum(r.wall_s for p in traced for r in p)
        values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
        metrics = {name: (v, layer_units(name)) for name, v in values.items()}
        missing = [m for m in EXPECTED[args.workload] if not values.get(m)]
    else:
        metrics = end_to_end(plain, setup)
        walls = sorted(r.wall_s for r in all_results)
        beyond = sum(1 for w in walls if w > metrics["op_p90_s"][0])
        print(f"op samples={len(walls)} beyond_p90={beyond} setup_samples={len(setup)}")
        missing = []
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if missing:
        print(f"error: layer metrics expected on {args.workload} read 0: {', '.join(missing)}", file=sys.stderr)
        return 1
    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
