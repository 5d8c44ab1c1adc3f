"""Rerun the benchmark and report how steady each end-to-end metric is.

    python3 bench/steadiness.py [--sets 1] [--first-seed 1]

Each set runs every workload of BENCHMARK.json once per seed, for ten seeds
(first-seed, first-seed+1, ...) and the run length in BENCHMARK.json,
alternating workloads so that a slow spell of the machine is shared out
among them.  For each workload and metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (q3 - q1) /
median against the bound in BENCHMARK.json, and the share of failed
operations.  With two or more sets it also compares each set's median with
the first set's.  Exits 1 if a run fails or is incorrect, a spread (other
than setup_s) exceeds its bound, a later median is worse than the first by
more than the bound, or the failed share differs between runs.  The bound is
applied to setup_s as to every other metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(command, workload, seed, seconds) -> dict:
    argv = list(command) + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    command = [sys.executable if spec["command"][0] == "python3" else spec["command"][0]] + spec["command"][1:]
    metrics = spec["end_to_end"]

    ok = True
    results = {w: [] for w in workloads}  # per workload: one list of runs per set
    seed = args.first_seed
    for _ in range(args.sets):
        runs = {w: [] for w in workloads}
        for _ in range(RUNS):
            for w in workloads:
                result = run_once(command, w, seed, spec["run_seconds"])
                runs[w].append(result)
                values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}" for m in metrics)
                print(f"{w} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
                ok &= result["correct"]
            seed += 1
        for w in workloads:
            results[w].append(runs[w])

    for w in workloads:
        shares = {Fraction(r["failed"], r["attempted"]) for runs in results[w] for r in runs}
        print(f"\n{w}: failed share {sorted(str(s) for s in shares)}")
        ok &= len(shares) == 1
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for i, runs in enumerate(results[w]):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                spread = (q3 - q1) / med
                steady = spread <= bound
                ok &= steady
                medians.append(med)
                print(f"  set {i + 1} {name:16s} median {med:10.4f} {m['unit']:6s} q1 {q1:10.4f} q3 {q3:10.4f} "
                      f"spread {spread:6.3f} bound {bound} {'ok' if steady else 'TOO WIDE'}")
            for i, med in enumerate(medians[1:], start=2):
                worse = (med - medians[0]) / medians[0]
                if m["better"] == "higher":
                    worse = -worse
                held = worse <= bound
                ok &= held
                print(f"  set {i} vs 1 {name:16s} worse by {worse:+.3f} bound {bound} {'ok' if held else 'REGRESSED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
