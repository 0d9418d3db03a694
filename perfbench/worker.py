"""Run one workload in this fresh interpreter and print one JSON line.

    PYTHONPATH=src python3 perfbench/worker.py WORKLOAD INPUTS SECONDS MODE

INPUTS is the file ``prepare.py`` wrote. MODE ``plain`` runs the closed
loop untraced for SECONDS. MODE ``traced`` alternates untraced and traced
rounds for SECONDS, and reports collector pauses in the traced rounds,
the tracing overhead and the span summary.
``run.py`` starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import common
from setup_probe import timed_setup


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def busy_per_unit(rec: common.Record) -> float:
    busy = sum(sum(t) for t in rec.times.values())
    units = sum(rec.units.values())
    return busy / units


def main(workload: str, inputs_file: str, seconds: float, mode: str):
    module, context, _ = timed_setup(workload)
    inputs = json.loads(Path(inputs_file).read_text())
    before_loop = peak_rss_mb(resource.RUSAGE_SELF)
    result = measure(workload, module, context, inputs, seconds, mode)
    if workload != "cli":
        result["notes"].append(
            f"worker peak RSS {before_loop:.1f} MB before the first operation")
    print(json.dumps(result))


def measure(workload, module, context, inputs, seconds: float, mode: str) -> dict:
    functions = getattr(module, "functions", common.library_functions)()

    if mode == "plain":
        rec = common.run_rounds(
            module.ops(context, inputs, common.Layers(functions, None)), seconds)
        # the cli workload's program runs in child processes
        who = (resource.RUSAGE_CHILDREN if workload == "cli"
               else resource.RUSAGE_SELF)
        metrics = rec.metrics()
        metrics["peak_rss_mb"] = peak_rss_mb(who)
        result = {"correct": rec.correct, "attempted": rec.attempted,
                  "failed": rec.failed, "failures": rec.failures,
                  "metrics": metrics, "notes": rec.notes}
    else:
        # untraced and traced rounds alternate, so a slow spell of the
        # machine weighs on both sides of the overhead alike
        tracer = common.Tracer()
        plain_ops = module.ops(context, inputs, common.Layers(functions, None))
        traced_ops = module.ops(context, inputs, common.Layers(functions, tracer))
        plain, traced = common.Record(), common.Record()
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            common.run_rounds(plain_ops, 0, None, plain)
            with common.Tracing(tracer):
                common.run_rounds(traced_ops, 0, tracer, traced)
        overhead = busy_per_unit(traced) / busy_per_unit(plain) - 1.0
        result = {
            "correct": plain.correct and traced.correct,
            "attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed,
            "failures": {**plain.failures, **traced.failures},
            "metrics": {
                "gc.pause_ms": tracer.gc_pause * 1e3 / traced.attempted,
                "gc.gen2_collections": tracer.gc_gen2 / traced.attempted,
                "trace.overhead_pct": overhead * 100.0,
                "machine.reference_us":
                    statistics.median(plain.speed + traced.speed) * 1e6,
            },
            "spans": tracer.summary(),
            "notes": plain.notes + [n for n in traced.notes
                                    if n not in plain.notes],
        }
    return result


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4])
