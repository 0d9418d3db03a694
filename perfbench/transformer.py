"""The ``transformer`` workload: the profunctor path.

Every operation turns each segment of a composite into a transformer with
``ex2prof``, chains them with ``ProfOptic.then``, extracts the result at
its kind with ``prof2ex`` and applies one combinator. It covers lens,
prism, affine traversal, traversal, grate, glass, algebraic lens,
kaleidoscope and monadic lens, and sweeps the ``each`` traversal from 25
to 400 foci. One ``over`` at 520 foci, on the same input for every seed,
fails today with ``RecursionError`` in the recursive FunList functions and
is counted as failed. There is no parsing and no expression building. The
unit of work is foci × segments.
"""

from __future__ import annotations

import json
import random
import statistics
from functools import reduce

from mixoptic import (
    Grate, MonadicLens, OpticKind, VList, VNum, VRec, VText, Writer, compose,
    parse_json, serialize,
)
from mixoptic import carriers
from mixoptic import optics as concrete
from mixoptic.fixtures import (
    registry, value_aggregate_kaleidoscope, value_measure_lens,
)
from mixoptic.values import each_traversal, field_lens, variant_prism

from common import KNOWN_FAULTS, Op, dump
from documents import (
    CENTRES, aggregate_then_classify, measurements, nearest, upper,
)
from chains import word

K = OpticKind
SWEEP = (25, 100, 200, 400)
FAILING_FOCI = 520
BATCH = 600
LIFT_BATCH = (8, 10)  # lists × items through Aggregating.lift_funlist
GRATE_KEYS = ("x", "y", "z")
INNER_KEYS = ("p", "q")
# Repeats per round; every other case runs once. The lens views are 9 of
# the 17 reads, so the read median is a lens view whatever the order of
# the single-focus reads, whose costs are close; the write median falls
# among the lift_funlist aggregates, away from the edges of that class.
REPEATS = {"lens.view": 9, "traversal.aggregate": 9}


def record_grate(keys) -> Grate:
    """Zips a record with a fixed set of keys, one key at a time."""
    return Grate(run=lambda h: VRec(tuple(
        (k, h(lambda s, k=k: s.get(k))) for k in keys)))


def logging_lens(key: str) -> MonadicLens:
    """A field lens whose update logs the new value."""
    base = field_lens(key)
    return MonadicLens(
        view=base.view,
        mupdate=lambda s, b: Writer.tell(base.update(s, b),
                                         f"[{key}] set to {serialize(b)}"),
        pure=Writer.pure,
    )


def setup() -> dict:
    names = registry()
    return {"measure": value_measure_lens(),
            "aggregate": value_aggregate_kaleidoscope(),
            "each": names["each"]}


# ---------------------------------------------------------------------------
# Inputs. Each case holds its segments as JSON, the name of the kind to
# extract, the combinator, the expected output as the oracle prints it and
# whether the concrete ``compose`` chain gives that output too.


def segment(spec: list, context: dict):
    """The optic a segment's JSON form names."""
    kind, *args = spec
    if kind == "field":
        return field_lens(args[0])
    if kind == "variant":
        return variant_prism(args[0])
    if kind == "each":
        return each_traversal()
    if kind == "grate":
        return record_grate(args[0])
    if kind == "logging":
        return logging_lens(args[0])
    return context[kind]  # "measure", "aggregate"


def items(r: random.Random, n: int) -> list:
    return [{"v": word(r), "w": r.randrange(1000)} for _ in range(n)]


def _upper_items(xs):
    return [{**x, "v": x["v"].upper()} for x in xs]


def prepare(seed: int) -> list:
    """Every case of a round. Runs the concrete chains, so it needs the
    library and a set-up context of its own."""
    r = random.Random(seed)
    keys = [word(r) for _ in range(6)]
    tags = [word(r) for _ in range(3)]
    new = word(r)
    cases = []

    def case(name, mode, segs, kind, apply, doc, expected, foci):
        cases.append({"name": name, "mode": mode, "segs": segs,
                      "kind": kind and kind.name, "apply": apply, "doc": json.dumps(doc),
                      "expected": dump(expected), "units": foci * len(segs),
                      "repeat": REPEATS.get(name, 1)})

    # lens: three fields
    a, b, c = keys[:3]
    doc = {a: {"n": 1, b: {c: word(r), "m": 2}}, "o": 3}
    lens = [["field", a], ["field", b], ["field", c]]
    case("lens.view", "read", lens, K.LENS, ("view",), doc,
         doc[a][b][c], 1)
    case("lens.set", "write", lens, K.LENS, ("set", new), doc,
         {a: {"n": 1, b: {c: new, "m": 2}}, "o": 3}, 1)

    # prism: two variants
    t1, t2 = tags[:2]
    doc = {"@" + t1: {"@" + t2: word(r)}}
    prism = [["variant", t1], ["variant", t2]]
    case("prism.preview", "read", prism, K.PRISM, ("preview",), doc,
         doc["@" + t1]["@" + t2], 1)
    case("prism.review", "write", prism, K.PRISM, ("review", new), None,
         {"@" + t1: {"@" + t2: new}}, 1)

    # affine traversal: field, variant, field
    d, e = keys[3:5]
    t3 = tags[2]
    doc = {d: {"@" + t3: {e: word(r), "k": 4}}, "j": 5}
    affine = [["field", d], ["variant", t3], ["field", e]]
    case("affine.preview", "read", affine, K.AFFINE_TRAVERSAL, ("preview",),
         doc, doc[d]["@" + t3][e], 1)
    case("affine.set", "write", affine, K.AFFINE_TRAVERSAL, ("set", new), doc,
         {d: {"@" + t3: {e: new, "k": 4}}, "j": 5}, 1)

    # traversal: each then a field, swept over the number of foci
    for n in SWEEP:
        xs = items(r, n)
        trav = [["each"], ["field", "v"]]
        case(f"traversal.tolist.n{n}", "read", trav, K.TRAVERSAL, ("tolist",),
             xs, [x["v"] for x in xs], n)
        case(f"traversal.over.n{n}", "write", trav, K.TRAVERSAL, ("over",),
             xs, _upper_items(xs), n)
    fixed = [{"v": f"item{i}", "w": i} for i in range(FAILING_FOCI)]
    case(f"traversal.over.n{FAILING_FOCI}", "write",
         [["each"], ["field", "v"]], K.TRAVERSAL, ("over",),
         fixed, _upper_items(fixed), FAILING_FOCI)

    # grate: a record grate inside a record grate
    doc = {g: {i: word(r) for i in INNER_KEYS} for g in GRATE_KEYS}
    case("grate.over", "write",
         [["grate", GRATE_KEYS], ["grate", INNER_KEYS]], K.GRATE,
         ("over",), doc,
         {g: {i: doc[g][i].upper() for i in INNER_KEYS} for g in GRATE_KEYS},
         len(GRATE_KEYS) * len(INNER_KEYS))

    # glass: a field, then a record grate
    f = keys[5]
    doc = {f: {g: word(r) for g in GRATE_KEYS}, "h": 6}
    case("glass.over", "write", [["field", f], ["grate", GRATE_KEYS]],
         K.GLASS, ("over",), doc,
         {f: {g: doc[f][g].upper() for g in GRATE_KEYS}, "h": 6},
         len(GRATE_KEYS))

    # algebraic lens and kaleidoscope over a batch of flowers
    species = sorted(CENTRES)
    batch = [{"measurements": measurements(r, s), "species": s}
             for s in (r.choice(species) for _ in range(BATCH))]
    query = measurements(r, r.choice(species))
    case("algebraic.view", "read", [["measure"]], K.ALGEBRAIC_LENS, ("view",),
         batch[0], batch[0]["measurements"], 1)
    case("algebraic.classify", "write", [["measure"]], K.ALGEBRAIC_LENS,
         ("classify", json.dumps(query)), batch, nearest(batch, query), BATCH)
    case("kaleidoscope.aggregate", "write", [["measure"], ["aggregate"]],
         K.KALEIDOSCOPE, ("aggregate",), batch,
         aggregate_then_classify(batch, statistics.fmean), BATCH)

    # monadic lens: a field, then a logging field
    doc = {"box": {"contents": word(r), "size": 7}, "label": word(r)}
    monadic = [["field", "box"], ["logging", "contents"]]
    case("monadic.view", "read", monadic, K.MONADIC_LENS, ("view",), doc,
         doc["box"]["contents"], 1)
    written = {**doc, "box": {**doc["box"], "contents": new}}
    case("monadic.mupdate", "write", monadic, K.MONADIC_LENS, ("mupdate", new),
         doc, [written, [f"[contents] set to {json.dumps(new)}"]], 1)

    # the kaleidoscope of a traversal, through Aggregating.lift_funlist
    lists, width = LIFT_BATCH
    rows = [[float(r.randrange(1000)) for _ in range(width)] for _ in range(lists)]
    case("traversal.aggregate", "write", [["each"]], None, ("lift",), rows,
         [statistics.fmean(col) for col in zip(*rows)], lists * width)

    context = setup()
    for c in cases:
        c["agree"] = concrete_result(c, context) in (None, c["expected"])
    return cases


# ---------------------------------------------------------------------------
# Operations.


def column_means(lists):
    return VList(tuple(VNum(statistics.fmean(x.value for x in col))
                       for col in zip(*(lst.items for lst in lists))))


def _segments(case, context):
    return [segment(spec, context) for spec in case["segs"]]


def _apply(fns, optic, action, doc):
    """Apply one combinator through ``fns`` and print the result."""
    name = action[0]
    if name == "view":
        return serialize(fns.view(optic, doc))
    if name == "preview":
        return serialize(fns.preview(optic, doc))
    if name == "set":
        return serialize(fns.set_value(optic, doc, VText(action[1])))
    if name == "review":
        return serialize(fns.review(optic, VText(action[1])))
    if name == "tolist":
        return serialize(VList(tuple(fns.to_list_of(optic, doc))))
    if name == "over":
        return serialize(fns.over(optic, upper, doc))
    if name == "classify":
        return serialize(fns.classify(optic, list(doc.items),
                                      parse_json(action[1])))
    if name == "aggregate":
        return serialize(fns.aggregate(optic, statistics.fmean,
                                       list(doc.items)))
    if name == "mupdate":
        out = fns.mupdate(optic, doc, VText(action[1]))
        return "[" + serialize(out.value) + ", " + json.dumps(list(out.log)) + "]"
    raise ValueError(name)


def concrete_result(case, context):
    """The same combinator through the concrete ``compose``, or None for
    the ``lift_funlist`` aggregate, which has no concrete counterpart."""
    if case["apply"][0] == "lift":
        return None
    optic = reduce(compose, _segments(case, context))
    return _apply(concrete, optic, case["apply"], parse_json(case["doc"]))


def ops(context: dict, cases: list, L) -> list:
    out = []
    for case in cases:
        segs = _segments(case, context)
        check = (lambda res, e=case["expected"], a=case["agree"]:
                 a and res == e)
        known_fault = case["name"] in KNOWN_FAULTS["transformer"]

        def given(text=case["doc"]):
            return parse_json(text)

        if case["apply"][0] == "lift":
            def run(rows, seg=segs[0]):
                probe = carriers.Aggregating(lambda ss, f: f(ss))
                lifted = L.ex2prof(seg).transform(probe)
                return serialize(lifted.run(list(rows.items), column_means))
        else:
            def run(doc, segs=segs, kind=K[case["kind"]],
                    action=case["apply"]):
                chain = L.ex2prof(segs[0])
                for seg in segs[1:]:
                    chain = L.then(chain, L.ex2prof(seg))
                return _apply(L, L.prof2ex(chain, kind), action, doc)

        for i in range(case["repeat"]):
            name = case["name"] if case["repeat"] == 1 else f"{case['name']}.{i}"
            out.append(Op(name, case["mode"], case["units"], run, check,
                          given, known_fault))
    return out
