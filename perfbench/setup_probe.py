"""Time a workload's set-up in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/setup_probe.py WORKLOAD

prints one JSON line: the seconds taken to import the library modules the
workload uses, the seconds taken to build what its first operation needs,
and the median time of the reference work of ``speed``, timed five times
before and five times after, by which ``run.py`` scales the other two to
the machine's usual speed. Nothing the library imports is loaded before
the clock starts; the benchmark's own workload module is loaded between
the two timings, off the clock.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

from speed import median, reference_time

WORKLOAD_MODULES = {
    "documents": "documents",
    "chains": "chains",
    "transformer": "transformer",
    "cli": "cli_workload",
}
LIBRARY = ("mixoptic", "mixoptic.expr", "mixoptic.fixtures")
CLI_LIBRARY = ("mixoptic.cli",)
REFERENCE_SAMPLES = 5


def timed_setup(workload: str):
    """Return (module, context, timings): the workload module, what its
    first operation needs, and the import, build and reference seconds."""
    before = [reference_time() for _ in range(REFERENCE_SAMPLES)]
    t0 = perf_counter()
    for name in CLI_LIBRARY if workload == "cli" else LIBRARY:
        importlib.import_module(name)
    t1 = perf_counter()
    module = importlib.import_module(WORKLOAD_MODULES[workload])
    t2 = perf_counter()
    context = module.setup()
    t3 = perf_counter()
    after = [reference_time() for _ in range(REFERENCE_SAMPLES)]
    return module, context, {"import_s": t1 - t0, "build_s": t3 - t2,
                             "reference_s": median(before + after)}


if __name__ == "__main__":
    _, _, timings = timed_setup(sys.argv[1])
    import json

    print(json.dumps(timings))
