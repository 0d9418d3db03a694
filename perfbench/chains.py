"""The ``chains`` workload: building and applying deep composites.

Every operation parses and resolves a fresh expression of 8 to 128
segments, then applies one read or one write to a small document made for
that expression. Three shapes per depth make the joined kind change along
the chain:

- ``lens``: fields only (view, set);
- ``affine``: fields, then variants among the fields (preview, set);
- ``traversal``: fields, then variants and three ``each`` over two-element
  lists, so eight foci (tolist, over).

Every shape starts with a run of fields, so the left fold composes lenses
with lenses first. The unit of work is foci × segments.
"""

from __future__ import annotations

import json
import random

from mixoptic import (
    VList, over, parse_json, preview, serialize, set_value, to_list_of, view,
)
from mixoptic.fixtures import registry
from mixoptic.values import VText

from common import Op, dump
from documents import upper

DEPTHS = (8, 16, 32, 64, 128)
SHAPES = ("lens", "affine", "traversal")
VARIANTS_PER_ROUND = 2
LETTERS = "abcdefghijklmnopqrstuvwxyz"


def word(r: random.Random, lo: int = 3, hi: int = 8) -> str:
    return "".join(r.choice(LETTERS) for _ in range(r.randint(lo, hi)))


def segments(r: random.Random, depth: int, shape: str) -> list:
    """(kind, argument) pairs; the first half of every chain is fields.

    Where the variants and ``each`` sit depends only on the depth and the
    shape, so every seed builds the same structure under other names.
    """
    half = depth // 2
    kinds = ["field"] * depth
    if shape != "lens":
        for i in range(half, depth, 4):
            kinds[i] = "variant"
    if shape == "traversal":
        for offset in (1, half // 2 + 1, half - 2):
            kinds[half + offset] = "each"
    return [(k, None if k == "each" else word(r)) for k in kinds]


def render(segs) -> str:
    return ".".join("each" if k == "each" else f"{k}({json.dumps(a)})"
                    for k, a in segs)


def document(r: random.Random, segs, i: int = 0):
    """A document on which every segment finds its focus."""
    if i == len(segs):
        return word(r)
    kind, arg = segs[i]
    if kind == "each":
        return [document(r, segs, i + 1) for _ in range(2)]
    if kind == "variant":
        return {"@" + arg: document(r, segs, i + 1)}
    siblings = []
    while len(siblings) < 2:  # two-letter keys never equal a segment's key
        key = word(r, 2, 2)
        if key not in siblings:
            siblings.append(key)
    return {siblings[0]: r.randrange(100), arg: document(r, segs, i + 1),
            siblings[1]: word(r)}


# Oracles: a plain walker over the generated objects.


def read(obj, segs) -> list:
    foci = [obj]
    for kind, arg in segs:
        nxt = []
        for x in foci:
            if kind == "field":
                nxt.append(x[arg])
            elif kind == "variant":
                if isinstance(x, dict) and list(x) == ["@" + arg]:
                    nxt.append(x["@" + arg])
            else:
                nxt.extend(x)
        foci = nxt
    return foci


def write(obj, segs, fn, i: int = 0):
    if i == len(segs):
        return fn(obj)
    kind, arg = segs[i]
    if kind == "field":
        return {**obj, arg: write(obj[arg], segs, fn, i + 1)}
    if kind == "variant":
        if isinstance(obj, dict) and list(obj) == ["@" + arg]:
            return {"@" + arg: write(obj["@" + arg], segs, fn, i + 1)}
        return obj
    return [write(x, segs, fn, i + 1) for x in obj]


def setup() -> dict:
    return {"registry": registry()}


def prepare(seed: int) -> list:
    r = random.Random(seed)
    cases = []
    for variant in range(VARIANTS_PER_ROUND):
        for depth in DEPTHS:
            for shape in SHAPES:
                segs = segments(r, depth, shape)
                doc = document(r, segs)
                new = word(r)
                foci = read(doc, segs)
                cases.append({
                    "name": f"{shape}.d{depth}.v{variant}", "shape": shape,
                    "depth": depth, "foci": len(foci),
                    "expr": render(segs), "doc": json.dumps(doc),
                    "new": new,
                    "read": dump(foci),
                    "set": dump(write(doc, segs, lambda _: new)),
                    "upper": dump(write(doc, segs, str.upper)),
                    "upper_foci": dump([x.upper() for x in foci]),
                    "same": dump(doc),
                })
    return cases


def ops(context: dict, cases: list, L) -> list:
    """One round: a read and a write for every case.

    The document is parsed before the clock starts. A write is checked
    against the oracle and by the lens laws, through the same composite:
    reading after setting returns what was set, and setting what was read
    returns the document unchanged. Checks call the library untraced.
    """
    names = context["registry"]
    out = []
    for case in cases:
        units = case["foci"] * case["depth"]

        def given(text=case["doc"]):
            return parse_json(text)

        def build(text=case["expr"]):
            return L.resolve_expr(L.parse_expr(text), names)

        if case["shape"] == "traversal":
            def read_op(doc, build=build):
                return L.to_list_of(build(), doc)

            def write_op(doc, build=build):
                optic = build()
                return optic, doc, L.over(optic, upper, doc)

            def laws(optic, doc, new, case=case):
                return (serialize(new) == case["upper"]
                        and _list(to_list_of(optic, new)) == case["upper_foci"]
                        and serialize(over(optic, lambda v: v, doc))
                        == case["same"])
        else:
            lens = case["shape"] == "lens"
            get, traced_get = (view, L.view) if lens else (preview, L.preview)
            value = VText(case["new"])

            def read_op(doc, build=build, get=traced_get):
                return [get(build(), doc)]

            def write_op(doc, build=build, value=value):
                optic = build()
                return optic, doc, L.set_value(optic, doc, value)

            def laws(optic, doc, new, case=case, get=get, value=value):
                put_back = set_value(optic, doc, get(optic, doc))
                return (serialize(new) == case["set"]
                        and get(optic, new) == value
                        and serialize(put_back) == case["same"])

        out.append(Op(f"{case['name']}.read", "read", units, read_op,
                      lambda foci, e=case["read"]: _list(foci) == e, given))
        out.append(Op(f"{case['name']}.write", "write", units, write_op,
                      lambda res, laws=laws: laws(*res), given))
    return out


def _list(foci) -> str:
    return serialize(VList(tuple(foci)))
