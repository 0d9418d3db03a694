"""Steadiness: run each workload on several seeds and compare spreads to bounds.

    python3 perfbench/steady.py [--runs 10] [--workloads documents,cli]
                                [--first-seed 1] [--seconds S]

For every end-to-end metric it prints the median of the runs, the first
and third quartiles (``statistics.quantiles(values, n=4)``), the spread
(third minus first quartile, as a share of the median) and the metric's
bound from BENCHMARK.json. A spread should stay below a third of its
bound. It also prints each run's share of failed operations, which must
be the same in every run. Raw results go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(workload: str, runs: list, bounds: dict) -> bool:
    steady = True
    shares = {str(Fraction(r["failed"], r["attempted"])) for r in runs}
    correct = all(r["correct"] for r in runs)
    print(f"\n{workload}: {len(runs)} runs, correct={correct}, "
          f"failed share {' '.join(sorted(shares))}")
    steady &= correct and len(shares) == 1
    print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread < bound / 3 else "  <- above bound/3"
        if spread >= bound:
            flag, steady = "  <- ABOVE BOUND", False
        print(f"  {name:14s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:7.3f} {bound:6.2f}{flag}")
    return steady


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    opts = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    steady = True
    for workload in opts.workloads.split(","):
        runs = []
        for seed in range(opts.first_seed, opts.first_seed + opts.runs):
            start = time.perf_counter()
            runs.append(one_run(workload, seed, opts.seconds))
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f} s",
                  file=sys.stderr)
        (results / f"steady-{workload}-{opts.first_seed}.json").write_text(
            json.dumps(runs, indent=1))
        steady &= report(workload, runs, bounds)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
