"""Shared pieces of the benchmark: operations, the closed loop, tracing and
the plain-Python document format used by every oracle.

Nothing here imports the library; workload modules do, after set-up.
"""

from __future__ import annotations

import gc
import importlib
import json
import statistics
import zlib
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional

from speed import REFERENCE_NOMINAL_S, reference_time

# Operations that fail today through a fault of the program, by workload.
# They fail on every run, on inputs that do not depend on the seed, and are
# counted in ``failed``; an exception from any other operation makes the
# run incorrect.
KNOWN_FAULTS = {
    # RecursionError in the recursive funlist functions above ~500 foci
    "transformer": frozenset({"traversal.over.n520"}),
    # a raw RecursionError traceback and exit 1 instead of "error:", exit 2
    "cli": frozenset({"deep.tolist"}),
}


@dataclass
class Op:
    """One timed call. ``run`` is timed; ``given`` and ``check`` are not.

    ``mode`` is "read" (view, preview, tolist) or "write" (set, over,
    review, classify, aggregate). ``units`` is the workload's unit of work.
    When ``given`` is set, its result is made before the clock starts and
    passed to ``run``. An exception from ``run`` counts the operation as
    failed, and marks the run incorrect unless ``known_fault`` is set;
    ``check`` returning False marks the run incorrect.
    """

    name: str
    mode: str
    units: int
    run: Callable[..., object]
    check: Callable[[object], bool]
    given: Optional[Callable[[], object]] = None
    known_fault: bool = False


# ---------------------------------------------------------------------------
# The document format, restated without the library: objects keep key order,
# numbers are floats, and integral values below 2**53 print as integers.


def norm(x):
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, (int, float)):
        f = float(x)
        return int(f) if f.is_integer() and abs(f) < 2 ** 53 else f
    if isinstance(x, list):
        return [norm(v) for v in x]
    if isinstance(x, dict):
        return {k: norm(v) for k, v in x.items()}
    raise TypeError(f"not a document value: {x!r}")


def dump(x) -> str:
    return json.dumps(norm(x), ensure_ascii=False)


def digest(text: str) -> str:
    """What the worker holds of a large expected output: its length and
    CRC-32, which tell a wrong output from the right one. (``hashlib``
    would load OpenSSL, which adds 3.6 MB to the worker's peak memory.)"""
    data = text.encode()
    return f"{len(data)}:{zlib.crc32(data):08x}"


# ---------------------------------------------------------------------------
# Tracing: spans kept in memory, keyed by layer name.


class Tracer:
    """Times calls made through the functions it wraps.

    Spans nest: a span's self time is its duration minus the time of the
    spans it encloses. Collector pauses arrive through ``gc.callbacks`` and
    are counted only while ``on_clock`` is set, around a timed operation,
    so the benchmark's own preparation, checks and ``gc.collect()`` calls
    are left out.
    """

    def __init__(self):
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, total, child]
        self._stack: List[List[float]] = []
        self.gc_pause = 0.0
        self.gc_gen2 = 0
        self._gc_start: Optional[float] = None
        self.on_clock = False

    def wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += frame[0]

        return traced

    def on_gc(self, phase, info):
        if phase == "start":
            if self.on_clock:
                self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.gc_pause += perf_counter() - self._gc_start
            self._gc_start = None
            if info["generation"] == 2:
                self.gc_gen2 += 1

    def summary(self) -> dict:
        return {
            name: {"calls": int(calls), "total_ms": total * 1e3,
                   "self_ms": (total - child) * 1e3}
            for name, (calls, total, child) in sorted(self.stats.items())
            if calls
        }


class Layers:
    """The library functions the workloads call, by layer name.

    Untraced, each attribute is the library function itself; traced, each
    is wrapped by a ``Tracer`` span of the same name.
    """

    def __init__(self, functions: Dict[str, Callable], tracer: Optional[Tracer]):
        for name, fn in functions.items():
            short = name.rsplit(".", 1)[1]
            setattr(self, short, tracer.wrap(name, fn) if tracer else fn)


def library_functions() -> Dict[str, Callable]:
    from mixoptic import encoding, expr, optics, values

    return {
        "values.parse_json": values.parse_json,
        "values.serialize": values.serialize,
        "optics.view": optics.view,
        "optics.preview": optics.preview,
        "optics.set_value": optics.set_value,
        "optics.over": optics.over,
        "optics.to_list_of": optics.to_list_of,
        "optics.review": optics.review,
        "optics.classify": optics.classify,
        "optics.aggregate": optics.aggregate,
        "optics.mupdate": optics.mupdate,
        "expr.parse_expr": expr.parse_expr,
        "expr.resolve_expr": expr.resolve_expr,
        "encoding.ex2prof": encoding.ex2prof,
        "encoding.then": encoding.ProfOptic.then,
        "encoding.prof2ex": encoding.prof2ex,
    }


# Module attributes the library itself looks up at call time. Only
# non-recursive entry points are wrapped: a wrapper frame on a recursive
# function would lower the recursion ceiling the benchmark measures.
_ATTRIBUTE_SPANS = (
    ("mixoptic.funlist", "of_extract", "funlist.of_extract"),
    ("mixoptic.funlist", "fuse", "funlist.fuse"),
    ("mixoptic.expr", "compose", "composition.compose"),
)


class Tracing:
    """Context manager that turns tracing on for one block."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []

    def __enter__(self):
        for module_name, attr, span in _ATTRIBUTE_SPANS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.tracer.wrap(span, original))
        gc.callbacks.append(self.tracer.on_gc)
        return self.tracer

    def __exit__(self, *exc):
        gc.callbacks.remove(self.tracer.on_gc)
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


# ---------------------------------------------------------------------------
# The closed loop.


class Record:
    def __init__(self):
        self.times = {"read": [], "write": []}
        self.units = {"read": 0, "write": 0}
        self.round_rates = {"read": [], "write": []}
        self.speed: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: Dict[str, str] = {}  # operation -> exception type
        self.correct = True
        self.notes: List[str] = []

    def note(self, text: str):
        if text not in self.notes:
            self.notes.append(text)

    def add_round(self, done, scale: float):
        """Record a round's operations, their times scaled by ``scale``."""
        busy = {"read": 0.0, "write": 0.0}
        units = {"read": 0, "write": 0}
        for op, dt in done:
            self.times[op.mode].append(dt * scale)
            self.units[op.mode] += op.units
            busy[op.mode] += dt * scale
            units[op.mode] += op.units
        for mode in busy:
            if busy[mode]:
                self.round_rates[mode].append(units[mode] / busy[mode])

    def metrics(self) -> dict:
        """Throughput is the median over rounds of units per busy second,
        so a round that falls in a slow spell of the machine moves it
        little; latency is the median over every operation of the run."""
        out = {}
        for mode in ("read", "write"):
            rates, times = self.round_rates[mode], self.times[mode]
            out[f"{mode}_per_s"] = statistics.median(rates) if rates else 0.0
            out[f"{mode}_p50_ms"] = statistics.median(times) * 1e3 if times else 0.0
        return out


def run_rounds(ops: List[Op], seconds: float, tracer: Optional[Tracer] = None,
               record: Optional[Record] = None) -> Record:
    """Run whole rounds of ``ops``, one call at a time, for ``seconds``.

    Every round attempts the same operations, so the share of failed
    operations does not depend on how many rounds fit. Every operation
    starts from a collected heap. Before it, untimed, the loop times the
    reference work of ``speed``; each round's operation times are scaled
    by the work's nominal time over its median time in the round.
    """
    rec = record or Record()
    deadline = perf_counter() + seconds
    while True:
        done, speed = [], []
        for op in ops:
            gc.collect()
            rec.attempted += 1
            args = () if op.given is None else (op.given(),)
            speed.append(reference_time())
            if tracer is not None:
                tracer.on_clock = True
            t0 = perf_counter()
            try:
                out = op.run(*args)
            except Exception as exc:
                rec.failed += 1
                rec.failures.setdefault(op.name, type(exc).__name__)
                if not op.known_fault:
                    rec.correct = False
                    rec.note(f"{op.name}: unexpected {type(exc).__name__}: {exc}")
                continue
            finally:
                dt = perf_counter() - t0
                if tracer is not None:
                    tracer.on_clock = False
            if op.check(out):
                done.append((op, dt))
            else:
                rec.correct = False
                rec.note(f"{op.name}: wrong output")
            del out, args
        rec.speed += speed
        rec.add_round(done, REFERENCE_NOMINAL_S / statistics.median(speed))
        if perf_counter() >= deadline:
            return rec


def median_time(fn: Callable[[], object], repeat: int) -> float:
    """Median seconds of ``repeat`` calls, each from a collected heap."""
    times = []
    for _ in range(repeat):
        gc.collect()
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)
