"""The mixoptic benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload documents --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from ``src``.
Workloads: documents, chains, transformer, cli (see README.md).

With ``--trace 0`` the last line of output holds the end-to-end metrics:
throughput and median latency of reads and writes, set-up time and peak
memory. With ``--trace 1`` it holds the per-layer metrics of a separate
traced run, the collector's pauses and the tracing overhead. Either way it
also says whether every output was correct, and how many operations were
attempted and failed. Every child process is waited for before exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import FRESH_NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("documents", "chains", "transformer", "cli")
SETUP_PROBES = 16  # half before the worker, half after it
TRACED_SETUP_PROBES = 4
RUN_LIMIT_S = 175  # every child together, so a hung run still ends in time

END_TO_END_UNITS = {
    "read_per_s": "1/s", "write_per_s": "1/s",
    "read_p50_ms": "ms", "write_p50_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}
WORKER_UNITS = {
    "gc.pause_ms": "ms/op", "gc.gen2_collections": "1/op",
    "trace.overhead_pct": "%", "machine.reference_us": "us",
}


class ChildFailed(Exception):
    pass


def child(args, env, deadline: float) -> dict:
    """Run one benchmark child to its end and parse its last output line."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise ChildFailed(f"{args[0]} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_samples(workload: str, env, deadline: float, probes: int) -> list:
    """Import and build seconds in fresh interpreters, each scaled to the
    machine's usual speed by the reference work timed around it in the
    same interpreter."""
    samples = [child([str(HERE / "setup_probe.py"), workload], env, deadline)
               for _ in range(probes)]
    for s in samples:
        scale = FRESH_NOMINAL_S / s["reference_s"]
        s["import_s"] *= scale
        s["build_s"] *= scale
    return samples


def setup_times(samples: list):
    """Median set-up, import and build seconds."""
    return (statistics.median(s["import_s"] + s["build_s"] for s in samples),
            statistics.median(s["import_s"] for s in samples),
            statistics.median(s["build_s"] for s in samples))


def write_trace(workload: str, seed: int, spans: dict):
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    (out / f"trace-{workload}-{seed}.json").write_text(json.dumps(spans, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (SRC / "mixoptic" / "__init__.py").is_file():
        print(f"error: no library to measure under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    # compile and cache the modules once, so no timed import pays for it
    child(["-c", "import json, mixoptic.cli; print('{}')"], env, deadline)
    work = HERE / "results" / f"run-{opts.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, metrics = measure(opts, env, deadline, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, exc in sorted(result["failures"].items()):
        print(f"failed operation: {name} ({exc})", file=sys.stderr)
    for note in result["notes"]:
        print(f"note: {note}", file=sys.stderr)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def measure(opts, env, deadline: float, work: Path):
    """Set-up probes, input generation and the worker (and in a traced run
    the layer suite), one fresh interpreter at a time. Half the set-up
    probes run before the worker and half after it, so that their median
    spans two moments of the machine's drifting speed."""
    seed, seconds = str(opts.seed), str(opts.seconds)
    worker = str(HERE / "worker.py")
    probes = SETUP_PROBES if opts.trace == 0 else TRACED_SETUP_PROBES
    samples = setup_samples(opts.workload, env, deadline, probes // 2)
    inputs = child([str(HERE / "prepare.py"), opts.workload, seed, str(work)],
                   env, deadline)["inputs"]

    if opts.trace == 0:
        result = child([worker, opts.workload, inputs, seconds, "plain"], env,
                       deadline)
        samples += setup_samples(opts.workload, env, deadline, probes // 2)
        setup_s, _, _ = setup_times(samples)
        values = dict(result["metrics"], setup_s=setup_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        suite = child([str(HERE / "layers.py"), seed], env, deadline)
        result = child([worker, opts.workload, inputs, seconds, "traced"], env,
                       deadline)
        samples += setup_samples(opts.workload, env, deadline, probes // 2)
        _, import_s, build_s = setup_times(samples)
        write_trace(opts.workload, opts.seed,
                    {"workload": result["spans"], "layers": suite["spans"]})
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in suite["metrics"].items()}
        metrics.update({name: {"value": result["metrics"][name], "unit": unit}
                        for name, unit in WORKER_UNITS.items()})
        metrics["setup.import_ms"] = {"value": import_s * 1e3, "unit": "ms"}
        metrics["setup.registry_ms"] = {"value": build_s * 1e3, "unit": "ms"}
    return result, metrics


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
