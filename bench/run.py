"""Benchmark for lamsig: normalization, bounded search and the CLI.

    python3 bench/run.py --workload {normalize,search,cli} --seed N --seconds S --trace {0,1}

One process, one thread, one client in a closed loop: each operation starts
when the previous one has returned.  A run times a cold import of lamsig in
fresh interpreters (set-up), builds the workload's inputs from the seed,
runs one untimed warm-up pass, then timed passes over the whole input set
until S seconds have gone by (at least three), and checks the warm-up
pass's outputs against the independent reference in ``reference.py``; every
timed pass must repeat them exactly.  Reported times are scaled to the
reference speed of ``calibration.py``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones of the named
workload.  With ``--trace 1`` calls into lamsig's public functions are
recorded as spans, the run rotates through one pass of each workload
(starting with the named one) until S seconds have gone by, and the
metrics are the per-layer ones; the spans are written to
``.bench_work/trace-<workload>-<seed>.jsonl``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibration import machine_scale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("normalize", "search", "cli")
CLI_COMMANDS = ("check", "precook", "reduce", "solve", "verify", "normalize", "corpus")
SETUP_RUNS = 10
CAL_EVERY_NS = 100_000_000  # how often a pass re-measures the machine's speed
MIN_PASSES = 3
TAIL_BEYOND = 10


def import_cost() -> list[float]:
    """Seconds a fresh interpreter takes to import lamsig and its CLI, as
    the interpreter itself times the import statement, at the reference
    speed measured in that interpreter just before and after the import.
    The interpreter starts isolated (-I) and loads only `calibration`,
    which imports nothing, before the timed import; so lamsig and what it
    pulls in from the standard library are counted, and start-up is not."""
    probe = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; import calibration, time; "
        "before = calibration.work_ns(); start = time.perf_counter_ns(); import lamsig, lamsig.cli; "
        "took = time.perf_counter_ns() - start; after = calibration.work_ns(); "
        "print(took * 2 * calibration.CAL_REF_NS / (before + after))"
    )
    samples = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-I", "-c", probe], check=True, capture_output=True, text=True)
        samples.append(float(done.stdout) / 1e9)
    return samples


def build(name: str, seed: int, workdir: Path):
    import workloads

    if name == "normalize":
        return workloads.Normalize(seed)
    if name == "search":
        return workloads.Search(seed)
    return workloads.Cli(seed, workdir, SRC / "lamsig" / "corpus")


class Pass:
    """One pass over a workload's operations: its wall time and each
    operation's latency (ns), the indices and messages of the operations
    that raised, and either the outputs (first pass) or how many outputs
    differ from the first pass's, so that timed passes keep no outputs.

    Every CAL_EVERY_NS the pass re-measures the machine's speed, and the
    times up to the next measurement are scaled to the reference speed;
    `raw_wall_ns` keeps the pass's unscaled wall time, calibration left
    out.  An untimed pass (tracing, or no `first` pass yet) still keeps
    its times, unscaled."""

    def __init__(self, workload, tracer=None, op_ids=None, first=None):
        self.outputs = []
        self.latency_ns = []
        self.failed = set()
        self.errors = []
        self.differing = 0
        self.wall_ns = 0.0
        self.raw_wall_ns = 0
        calibrate = tracer is None and first is not None
        scale = 1.0
        next_calibration = 0
        mark = time.perf_counter_ns()
        for i, op in enumerate(workload.ops):
            if calibrate and mark >= next_calibration:
                scale = machine_scale()
                mark = time.perf_counter_ns()
                next_calibration = mark + CAL_EVERY_NS
            if tracer is not None:
                tracer.op_id = len(op_ids)
                op_ids.append(workload.name)
            start = time.perf_counter_ns()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    span = f"cli.run_command.{op.command}" if workload.name == "cli" else f"op.{workload.name}"
                    out = tracer.call(span, op.run)
            except Exception as exc:  # an operation that fails is counted, not fatal
                out = None
                self.failed.add(i)
                self.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
            self.latency_ns.append((time.perf_counter_ns() - start) * scale)
            if first is None:
                self.outputs.append(out)
            elif out != first.outputs[i]:
                self.differing += 1
            now = time.perf_counter_ns()
            self.wall_ns += (now - mark) * scale
            self.raw_wall_ns += now - mark
            mark = now

    def completed(self) -> int:
        return len(self.latency_ns) - len(self.failed)


def end_to_end(passes: list[Pass], setup_s: float, peak_rss_mb: float) -> dict:
    """Throughput is the median over the timed passes of the operations a
    pass completed over its wall time.  Latencies are taken over the
    operations that completed in every pass: each operation's latency is
    the median of its timed repetitions, and p50 and the tail are taken
    over those operations.  All times are at the reference speed."""
    failed = set().union(*(p.failed for p in passes))
    completed = [i for i in range(len(passes[0].latency_ns)) if i not in failed]
    per_op = sorted(statistics.median(p.latency_ns[i] for p in passes) / 1e6 for i in completed)
    return {
        "ops_per_s": {"value": statistics.median(p.completed() / (p.wall_ns / 1e9) for p in passes), "unit": "ops/s"},
        "latency_p50_ms": {"value": statistics.median(per_op), "unit": "ms"},
        "latency_tail_ms": {"value": per_op[len(per_op) - 1 - TAIL_BEYOND], "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
    }


def per_layer(tracer, op_ids: list[str], counts: dict, rotations: int) -> dict:
    """Per-layer figures, each from the workload that exercises the layer:
    mean self time per call, exact counts, and rates."""
    summaries = {w: tracer.summary(lambda op, w=w: op_ids[op] == w) for w in WORKLOADS}

    def self_per_call(workload, span, scale):
        entry = summaries[workload][span]
        return entry["self_ns"] / entry["calls"] / scale

    def total(workload, span, key):
        return summaries[workload].get(span, {}).get(key, 0)

    steps = counts["rewrite.steps"]
    normalize_self = total("normalize", "rewrite.normalize_sigma", "self_ns") + total(
        "normalize", "rewrite.normalize_lambda_sigma", "self_ns"
    )
    search_ns = total("search", "solver.solve_sigma", "incl_ns") + total(
        "search", "solver.decide_small_lambda", "incl_ns"
    )
    values = {
        "sexpr.parse_us": ("us", self_per_call("cli", "sexpr.parse_sexprs", 1e3)),
        "surface.parse_problem_us": ("us", self_per_call("cli", "surface.parse_problem", 1e3)),
        "surface.render_problem_us": ("us", self_per_call("cli", "surface.render_problem", 1e3)),
        "sorts.validate_problem_us": ("us", self_per_call("search", "sorts.validate_problem", 1e3)),
        "sorts.sort_check_term_us": ("us", self_per_call("search", "sorts.sort_check_term", 1e3)),
        "rewrite.normalize_sigma_us": ("us", self_per_call("normalize", "rewrite.normalize_sigma", 1e3)),
        "rewrite.normalize_lambda_sigma_us": (
            "us", self_per_call("normalize", "rewrite.normalize_lambda_sigma", 1e3)),
        "rewrite.steps": ("count", steps),
        "rewrite.us_per_step": ("us", normalize_self / 1e3 / (steps * rotations)),
        "transform.reduce_problem_us": ("us", self_per_call("search", "transform.reduce_problem", 1e3)),
        "transform.validate_reduced_us": (
            "us", self_per_call("search", "transform.validate_reduced_problem", 1e3)),
        "solver.candidates": ("count", counts["solver.candidates"]),
        "solver.candidates_per_s": ("1/s", counts["solver.candidates"] / counts["solver.enumerate_s"]),
        "solver.assignments_tried": ("count", counts["solver.assignments_tried"]),
        "solver.assignments_per_s": ("1/s", counts["solver.assignments_tried"] * rotations / (search_ns / 1e9)),
        "solver.solve_sigma_ms": ("ms", self_per_call("search", "solver.solve_sigma", 1e6)),
        "solver.decide_small_lambda_ms": ("ms", self_per_call("search", "solver.decide_small_lambda", 1e6)),
    }
    for command in CLI_COMMANDS:
        values[f"cli.run_command_ms.{command}"] = ("ms", self_per_call("cli", f"cli.run_command.{command}", 1e6))
    return {name: {"value": value, "unit": unit} for name, (unit, value) in values.items()}


def verify_passes(workload, passes: list[Pass], report: list[str]) -> int:
    """Check the first pass against the reference and every later pass
    against the first; returns the number of failed operations."""
    report.extend(f"{workload.name}: {p}" for p in workload.check(passes[0].outputs))
    differing = sum(p.differing for p in passes)
    if differing:
        report.append(f"{workload.name}: {differing} outputs differ from the first pass's")
    errors = sorted(set(e for p in passes for e in p.errors))
    for error in errors:
        print(f"failed operation: {workload.name}/{error}", file=sys.stderr)
    return sum(len(p.errors) for p in passes)


def run(args, workdir: Path) -> dict:
    import lamsig
    import lamsig.cli  # writes the bytecode that the timed imports then load

    if Path(lamsig.__file__).resolve().parent != SRC / "lamsig":
        raise SystemExit(f"bench: lamsig was imported from {lamsig.__file__}, not from {SRC}")
    sys.path.insert(0, str(BENCH))
    report: list[str] = []

    if not args.trace:
        imports = import_cost()
        workload = build(args.workload, args.seed, workdir)
        gc.collect()
        passes = [Pass(workload)]  # warm-up, checked but not timed
        deadline = time.perf_counter() + args.seconds
        while len(passes) < 1 + MIN_PASSES or time.perf_counter() < deadline:
            passes.append(Pass(workload, first=passes[0]))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for label, key in (("reference-speed", "wall_ns"), ("raw wall-clock", "raw_wall_ns")):
            rates = " ".join(f"{p.completed() / (getattr(p, key) / 1e9):.1f}" for p in passes[1:])
            print(f"{label} ops/s by pass: {rates}", file=sys.stderr)
        failed = verify_passes(workload, passes, report)
        # as many imports again once the timed passes are over, so that
        # set-up is sampled at both ends of the run
        imports += import_cost()
        metrics = end_to_end(passes[1:], statistics.median(imports), peak_rss_mb)
        attempted = sum(len(p.latency_ns) for p in passes)
    else:
        from tracing import Tracer

        order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
        workloads = [build(name, args.seed, workdir) for name in order]
        tracer = Tracer()
        op_ids: list[str] = []
        passes = {w.name: [] for w in workloads}
        deadline = time.perf_counter() + args.seconds
        tracer.patch()
        try:
            while not passes[order[0]] or time.perf_counter() < deadline:
                for w in workloads:
                    gc.collect()  # no workload's spans pay for another's garbage
                    done = passes[w.name]
                    done.append(Pass(w, tracer, op_ids, first=done[0] if done else None))
        finally:
            tracer.restore()
        for name, runs in passes.items():
            seconds = statistics.median(p.wall_ns for p in runs) / 1e9
            print(f"traced pass: {name} {seconds:.3f} s (median of {len(runs)})", file=sys.stderr)
        failed = sum(verify_passes(w, passes[w.name], report) for w in workloads)
        attempted = sum(len(p.latency_ns) for ps in passes.values() for p in ps)
        counts = {}
        for w in workloads:
            counts.update(w.counts())
        metrics = per_layer(tracer, op_ids, counts, len(passes[order[0]]))
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"trace-{args.workload}-{args.seed}.jsonl")

    for line in report:
        print(f"check failed: {line}", file=sys.stderr)
    return {"correct": not report, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lamsig" / "__init__.py").is_file():
        print(f"bench: no lamsig sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
