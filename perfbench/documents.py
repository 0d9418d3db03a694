"""The ``documents`` workload: the document runtime at realistic sizes.

Every operation parses a document of a few thousand records with
``parse_json``, applies one short composite over every record and sends
the result through ``serialize``. Two families share the same documents
for reads and writes: address books and flower measurements. The unit of
work is one record.
"""

from __future__ import annotations

import json
import math
import random
import statistics

from mixoptic import VList
from mixoptic.expr import parse_expr, resolve_expr
from mixoptic.fixtures import registry
from mixoptic.values import VText

from common import Op, digest, dump

ADDRESS_DOCS = (3000, 3000)
FLOWER_DOCS = (2000, 2000)
QUERIES_PER_FLOWER_DOC = 2

CITY = 'each.field("address").city'
STREET = 'each.field("postal").address.street'
MEASURE = "each.measure"

FIRST = ["Ada", "Alan", "Grace", "Edsger", "Barbara", "Donald", "Frances",
         "John", "Robin", "Tony", "Leslie", "Margaret", "Niklaus", "Radia"]
LAST = ["Lovelace", "Turing", "Hopper", "Dijkstra", "Liskov", "Knuth",
        "Allen", "Backus", "Milner", "Hoare", "Lamport", "Hamilton"]
STREETS = ["Baker St", "Rowan Rd", "High Ln", "Elm Way", "Forge Yard",
           "Mill Bank", "Dean Gate", "Acre Fold", "Quay Side", "Kings Row"]
CITIES = ["London", "Leeds", "York", "Bath", "Derby", "Truro", "Princeton",
          "Wilmslow", "Oslo", "Lyon", "Porto", "Ghent"]
COUNTRIES = ["UK", "USA", "France", "Norway", "Portugal", "Belgium"]
TAGS = ["home", "work", "family", "club", "school", "old"]
# postal strings the address prism must miss: fewer than two separators
MALFORMED = ["no separators here", "only, one separator", "", "PO Box 12",
             "Flat 3, Riverside"]

KEYS = ("sepalLength", "sepalWidth", "petalLength", "petalWidth")
CENTRES = {
    "Setosa": (5.0, 3.4, 1.5, 0.25),
    "Versicolor": (5.9, 2.8, 4.3, 1.3),
    "Virginica": (6.6, 3.0, 5.6, 2.0),
}


# ---------------------------------------------------------------------------
# Inputs.


def address_book(r: random.Random, n: int) -> list:
    """``n`` address records; a tenth of the postal strings are malformed."""
    malformed = set(r.sample(range(n), n // 10))
    book = []
    for i in range(n):
        postal = (r.choice(MALFORMED) if i in malformed else
                  f"{r.randrange(1, 999)} {r.choice(STREETS)}, "
                  f"{r.choice(CITIES)}, {r.choice(COUNTRIES)}")
        book.append({
            "id": i,
            "name": f"{r.choice(FIRST)} {r.choice(LAST)}",
            "address": {
                "street": f"{r.randrange(1, 999)} {r.choice(STREETS)}",
                "city": r.choice(CITIES),
                "country": r.choice(COUNTRIES),
            },
            "postal": postal,
            "tags": [r.choice(TAGS), r.choice(TAGS)],
        })
    return book


def measurements(r: random.Random, species: str) -> dict:
    return {key: round(max(0.1, r.gauss(centre, 0.45)), 1)
            for key, centre in zip(KEYS, CENTRES[species])}


def flowers(r: random.Random, n: int) -> list:
    out = []
    for _ in range(n):
        species = r.choice(sorted(CENTRES))
        out.append({"measurements": measurements(r, species),
                    "species": species})
    return out


def plant_tie(r: random.Random, training: list) -> dict:
    """Copy one flower's measurements over a later flower of another
    species and return them: a query at zero distance from both, which
    only the earliest-of-ties rule decides."""
    n = len(training)
    first = training[r.randrange(n // 2)]
    other = r.choice([s for s in sorted(CENTRES) if s != first["species"]])
    training[r.randrange(n // 2, n)] = {
        "measurements": dict(first["measurements"]), "species": other}
    return dict(first["measurements"])


# ---------------------------------------------------------------------------
# Oracles over the plain objects.


def postal_parts(text: str):
    """Street, city and country of a postal string, or None on a miss."""
    if text.count(",") < 2:
        return None
    parts = text.split(", ")
    if len(parts) != 3 or text.count(",") != 2:
        raise ValueError(f"postal string outside the generated forms: {text!r}")
    return parts


def read_city(book):
    return [rec["address"]["city"] for rec in book]


def write_city(book):
    return [{**rec, "address": {**rec["address"],
                                "city": rec["address"]["city"].upper()}}
            for rec in book]


def read_street(book):
    return [parts[0] for parts in map(postal_parts, (r["postal"] for r in book))
            if parts is not None]


def write_street(book):
    out = []
    for rec in book:
        parts = postal_parts(rec["postal"])
        if parts is None:
            out.append(rec)
        else:
            street, city, country = parts
            out.append({**rec, "postal": f"{street.upper()}, {city}, {country}"})
    return out


def distance(q: dict, m: dict) -> float:
    return math.sqrt(sum((q[k] - m[k]) ** 2 for k in KEYS))


def nearest(training: list, q: dict) -> dict:
    """Nearest-neighbour classification; min keeps the earliest tie."""
    best = min(training, key=lambda rec: distance(q, rec["measurements"]))
    return {"measurements": dict(q), "species": best["species"]}


def aggregate_then_classify(training: list, fn) -> dict:
    folded = {k: fn([rec["measurements"][k] for rec in training]) for k in KEYS}
    return nearest(training, folded)


# ---------------------------------------------------------------------------
# Set-up and operations.


def setup() -> dict:
    names = registry()
    return {name: resolve_expr(parse_expr(text), names)
            for name, text in (("city", CITY), ("street", STREET),
                               ("measure_each", MEASURE), ("measure", "measure"),
                               ("measure_aggregate", "measure.aggregate"))}


def upper(v):
    return VText(v.value.upper())


def prepare(seed: int) -> dict:
    """Generate the documents as JSON text, with the digests of their
    expected outputs, so the worker holds little beyond the text."""
    r = random.Random(seed)
    books, flower_docs = [], []
    for n in ADDRESS_DOCS:
        book = address_book(r, n)
        books.append({
            "n": n, "text": json.dumps(book),
            "city_read": digest(dump(read_city(book))),
            "city_write": digest(dump(write_city(book))),
            "street_read": digest(dump(read_street(book))),
            "street_write": digest(dump(write_street(book))),
        })
    for n in FLOWER_DOCS:
        training = flowers(r, n)
        queries = [plant_tie(r, training)] + [
            measurements(r, r.choice(sorted(CENTRES)))
            for _ in range(QUERIES_PER_FLOWER_DOC - 1)]
        flower_docs.append({
            "n": n, "text": json.dumps(training),
            "read": digest(dump([rec["measurements"] for rec in training])),
            "classify": [(json.dumps(q), digest(dump(nearest(training, q))))
                         for q in queries],
            "mean": digest(dump(aggregate_then_classify(training,
                                                        statistics.fmean))),
            "max": digest(dump(aggregate_then_classify(training, max))),
        })
    return {"books": books, "flowers": flower_docs}


def _equals(expected: str):
    return lambda out: digest(out) == expected


def ops(context: dict, inputs: dict, L) -> list:
    """One round: every read and write over every document."""
    city, street = context["city"], context["street"]
    measure_each, measure = context["measure_each"], context["measure"]
    measure_aggregate = context["measure_aggregate"]

    def tolist(optic, text):
        return lambda: L.serialize(VList(tuple(
            L.to_list_of(optic, L.parse_json(text)))))

    def upper_case(optic, text):
        return lambda: L.serialize(L.over(optic, upper, L.parse_json(text)))

    out = []
    for i, doc in enumerate(inputs["books"]):
        text, n = doc["text"], doc["n"]
        out += [
            Op(f"book{i}.tolist.city", "read", n, tolist(city, text),
               _equals(doc["city_read"])),
            Op(f"book{i}.tolist.street", "read", n, tolist(street, text),
               _equals(doc["street_read"])),
            Op(f"book{i}.over.city", "write", n, upper_case(city, text),
               _equals(doc["city_write"])),
            Op(f"book{i}.over.street", "write", n, upper_case(street, text),
               _equals(doc["street_write"])),
        ]
    for i, doc in enumerate(inputs["flowers"]):
        text, n = doc["text"], doc["n"]
        out.append(Op(f"flowers{i}.tolist.measure", "read", n,
                      tolist(measure_each, text), _equals(doc["read"])))
        for j, (query, expected) in enumerate(doc["classify"]):
            out.append(Op(
                f"flowers{i}.classify{j}", "write", n,
                lambda t=text, q=query: L.serialize(L.classify(
                    measure, list(L.parse_json(t).items), L.parse_json(q))),
                _equals(expected)))
        for name, fn in (("mean", statistics.fmean), ("max", max)):
            out.append(Op(
                f"flowers{i}.aggregate.{name}", "write", n,
                lambda t=text, f=fn: L.serialize(L.aggregate(
                    measure_aggregate, f, list(L.parse_json(t).items))),
                _equals(doc[name])))
    return out
