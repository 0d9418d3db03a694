"""Per-layer measurements for the traced run.

    PYTHONPATH=src python3 perfbench/layers.py SEED

prints one JSON object: ``metrics`` maps each layer metric to
``[value, unit]``, and ``spans`` holds the span summary. It runs in a
fresh interpreter with tracing on: the benchmark's calls into
each module go through ``Tracer`` spans, and the module attributes the
library looks up itself (``fl.of_extract``, ``fl.fuse``, ``expr.compose``)
are wrapped for the duration. Every timing starts from a collected heap.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from functools import reduce
from pathlib import Path
from time import perf_counter

import common
from common import Layers, Tracer, Tracing, median_time

import chains
import cli_workload
import documents
import transformer

PARSE_CURVE = ((1000, "r1k", 5), (10000, "r10k", 3), (100000, "r100k", 1))
SWEEP_REPEATS = {25: 5, 100: 3, 200: 3, 400: 1}
APPLY_REPEATS = 20
CLI_REPEATS = 3


class Spans:
    """Calls and seconds each named span gained inside a block."""

    def __init__(self, tracer: Tracer, *names: str):
        self.tracer, self.names = tracer, names

    def __enter__(self):
        self.before = {n: list(self.tracer.stats.get(n, [0, 0.0, 0.0]))
                       for n in self.names}
        return self

    def __exit__(self, *exc):
        self.calls, self.seconds = {}, {}
        for n in self.names:
            now = self.tracer.stats.get(n, [0, 0.0, 0.0])
            self.calls[n] = now[0] - self.before[n][0]
            self.seconds[n] = now[1] - self.before[n][1]
        return False

    def per_call(self, name: str) -> float:
        return self.seconds[name] / self.calls[name]


def values_layer(out, L, tracer, seed):
    r = random.Random(seed)
    for n, label, repeat in PARSE_CURVE:
        text = json.dumps(documents.address_book(r, n))
        out[f"apply.parse.ms.{label}"] = (
            median_time(lambda: L.parse_json(text), repeat) * 1e3, "ms")
        del text

    n = documents.ADDRESS_DOCS[0]
    text = json.dumps(documents.address_book(r, n))
    out["values.parse_json.us_per_record"] = (
        median_time(lambda: L.parse_json(text), 5) / n * 1e6, "us")
    doc = L.parse_json(text)
    out["values.serialize.us_per_record"] = (
        median_time(lambda: L.serialize(doc), 5) / n * 1e6, "us")

    gc.collect()
    tracemalloc.start()
    parsed = L.parse_json(text)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    del parsed
    out["values.parse_json.peak_kb_per_krec"] = (peak / 1024 / (n / 1000), "KB")
    return doc


def optics_layer(out, L, tracer, seed, book):
    context = documents.setup()
    n = len(book.items)
    city = context["city"]
    out["optics.over.us_per_focus"] = (
        median_time(lambda: L.over(city, documents.upper, book), 5)
        / n * 1e6, "us")
    out["optics.to_list_of.us_per_focus"] = (
        median_time(lambda: L.to_list_of(city, book), 5) / n * 1e6, "us")

    r = random.Random(seed)
    size = documents.FLOWER_DOCS[0]
    training = L.parse_json(json.dumps(documents.flowers(r, size)))
    items = list(training.items)
    query = L.parse_json(json.dumps(documents.measurements(r, "Versicolor")))
    measure, measure_aggregate = context["measure"], context["measure_aggregate"]
    out["optics.classify.ms"] = (
        median_time(lambda: L.classify(measure, items, query), 5) * 1e3,
        "ms")
    out["optics.aggregate.ms"] = (
        median_time(lambda: L.aggregate(measure_aggregate, statistics.fmean,
                                        items), 5) * 1e3, "ms")


def counting_lens_views(depth: int) -> int:
    """View calls one ``over`` makes through ``depth`` composed lenses."""
    from mixoptic import Lens, compose, over

    count = [0]

    def lens(key):
        def view(s):
            count[0] += 1
            return s[key]

        return Lens(view=view, update=lambda s, b: {**s, key: b})

    optic = reduce(compose, [lens("k") for _ in range(depth)])
    doc = 0
    for _ in range(depth):
        doc = {"k": doc}
    over(optic, lambda x: x + 1, doc)
    return count[0]


def expr_layer(out, L, tracer, seed):
    from mixoptic.fixtures import registry

    names = registry()
    cases = chains.prepare(seed)
    segments = sum(case["depth"] for case in cases)
    with Spans(tracer, "expr.parse_expr", "expr.resolve_expr",
               "composition.compose") as spans:
        for case in cases:
            L.resolve_expr(L.parse_expr(case["expr"]), names)
    out["expr.parse_expr.us_per_segment"] = (
        spans.seconds["expr.parse_expr"] / segments * 1e6, "us")
    out["expr.resolve_expr.us_per_segment"] = (
        spans.seconds["expr.resolve_expr"] / segments * 1e6, "us")
    out["composition.compose.us_per_call"] = (
        spans.per_call("composition.compose") * 1e6, "us")
    out["composition.over_view_calls.d64"] = (counting_lens_views(64), "count")

    from mixoptic.values import VText

    new = VText("x")
    for case in cases:
        if case["shape"] != "lens" or not case["name"].endswith(".v0"):
            continue
        optic = L.resolve_expr(L.parse_expr(case["expr"]), names)
        doc = L.parse_json(case["doc"])
        d = case["depth"]
        out[f"apply.view.us.d{d}"] = (
            median_time(lambda: L.view(optic, doc), APPLY_REPEATS) * 1e6,
            "us")
        out[f"apply.over.us.d{d}"] = (
            median_time(lambda: L.over(optic, lambda _: new, doc),
                        APPLY_REPEATS) * 1e6, "us")


def encoding_layer(out, L, tracer, seed):
    from mixoptic import OpticKind
    from mixoptic.values import each_traversal, field_lens

    context = transformer.setup()
    cases = transformer.prepare(seed)
    kinds = [c for c in cases if not c["name"].startswith("traversal.")]
    kind_ops = transformer.ops(context, kinds, L)
    with Spans(tracer, "encoding.ex2prof", "encoding.then",
               "encoding.prof2ex") as spans:
        for _ in range(5):
            for op in kind_ops:
                op.run(op.given())
    for name in ("ex2prof", "then", "prof2ex"):
        out[f"encoding.{name}.us_per_call"] = (
            spans.per_call(f"encoding.{name}") * 1e6, "us")

    r = random.Random(seed)
    for n, repeat in SWEEP_REPEATS.items():
        chain = L.then(L.ex2prof(each_traversal()), L.ex2prof(field_lens("v")))
        optic = L.prof2ex(chain, OpticKind.TRAVERSAL)
        doc = L.parse_json(json.dumps(transformer.items(r, n)))
        with Spans(tracer, "funlist.of_extract", "funlist.fuse") as spans:
            out[f"transformer.over.ms.n{n}"] = (
                median_time(lambda: L.over(optic, documents.upper, doc),
                            repeat) * 1e3, "ms")
        if n == max(SWEEP_REPEATS):
            for name in ("of_extract", "fuse"):
                out[f"funlist.{name}.ms.n{n}"] = (
                    spans.per_call(f"funlist.{name}") * 1e3, "ms")
        out[f"transformer.to_list_of.ms.n{n}"] = (
            median_time(lambda: L.to_list_of(optic, doc), repeat) * 1e3,
            "ms")

    lift = [c for c in cases if c["name"] == "traversal.aggregate"]
    op = transformer.ops(context, lift, L)[0]
    rows = op.given()
    out["transformer.aggregate.ms"] = (
        median_time(lambda: op.run(rows), 5) * 1e3, "ms")


def _wall(args, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        subprocess.run(args, capture_output=True, check=False, timeout=120)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def cli_layer(out, seed):
    bare = _wall([sys.executable, "-c", "pass"], CLI_REPEATS)
    imported = _wall([sys.executable, "-c", "import mixoptic.cli"], CLI_REPEATS)
    out["cli.interpreter_ms"] = (bare * 1e3, "ms")
    out["cli.import_ms"] = ((imported - bare) * 1e3, "ms")
    results = Path(__file__).resolve().parent / "results"
    results.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="cli-", dir=results))
    try:
        inputs = cli_workload.prepare(seed, work)
        for action, args in inputs["per_action"]:
            out[f"cli.{action}_ms"] = (
                _wall([sys.executable, "-m", "mixoptic.cli", action, *args],
                      CLI_REPEATS) * 1e3, "ms")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(seed: int):
    tracer = Tracer()
    out = {}
    with Tracing(tracer):
        L = Layers(common.library_functions(), tracer)
        book = values_layer(out, L, tracer, seed)
        optics_layer(out, L, tracer, seed, book)
        del book
        expr_layer(out, L, tracer, seed)
        encoding_layer(out, L, tracer, seed)
    cli_layer(out, seed)
    print(json.dumps({"metrics": {k: list(v) for k, v in out.items()},
                      "spans": tracer.summary()}))


if __name__ == "__main__":
    main(int(sys.argv[1]))
