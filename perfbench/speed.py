"""The machine's speed, measured by a fixed piece of pure-Python work.

A shared virtual machine's speed can drift by 10-30 % over spells of
seconds to a minute. The benchmark times a fixed piece of work that does
not touch the library next to what it measures, and scales its times by
the work's nominal time over its measured time. This module imports only
``gc`` and ``time``, so a set-up probe can load it before its clock
starts without loading anything the library imports.
"""

import gc
from time import perf_counter

# the work's usual time on the 2-vCPU Xeon VM at 2.1 GHz where the bounds
# were set: between operations, after a collection, and in a fresh
# interpreter around its set-up
REFERENCE_NOMINAL_S = 0.00065
FRESH_NOMINAL_S = 0.00052


def reference_work() -> int:
    out = []
    for i in range(1500):
        out.append((i, {"k": i, "v": str(i)}))
    return len(out)


def reference_time() -> float:
    """One run of the work, with the collector off.

    One run, not the fastest of several: it then finds the caches as cold
    as the operation timed after it does, and follows the machine's fast
    and slow spells about as closely as the library's operations do (see
    "Keeping runs steady" in README.md).
    """
    gc.disable()
    try:
        t0 = perf_counter()
        reference_work()
        return perf_counter() - t0
    finally:
        gc.enable()


def median(xs) -> float:
    s = sorted(xs)
    return (s[(len(s) - 1) // 2] + s[len(s) // 2]) / 2
