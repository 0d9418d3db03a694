"""The registry's document optics against their typed reference.

``address``, ``measure`` and ``aggregate`` read and build documents
directly. ``typed_registry`` states the same optics as the typed examples
composed with converters between documents and typed records. On every
drawn document, each combinator gives the same value through both, or
raises the same error class with the same message: a bad training flower
before a bad query, and the first bad flower of a list.
"""

import json
import random

from hypothesis import example, given, settings, strategies as st

from mixoptic import (
    aggregate, classify, compose, over, preview, review, set_value,
    to_list_of, view,
)
from mixoptic.cli import _render
from mixoptic.expr import parse_expr, resolve_expr
from mixoptic.fixtures import (
    Species, mean, registry, value_address_prism, value_aggregate_kaleidoscope,
    value_measure_lens,
)
from mixoptic.values import VList, VNum, VRec, VText, field_lens, parse_json

from typed_examples import Address, iris
from typed_registry import (
    MEASUREMENT_KEYS, address_to_value, flower_to_value,
    measurements_to_value, render, typed_address_prism,
    typed_aggregate_kaleidoscope, typed_measure_lens, value_to_address,
    value_to_flower, value_to_measurements,
)

NEW = {"address": value_address_prism(), "measure": value_measure_lens(),
       "aggregate": value_aggregate_kaleidoscope()}
OLD = {"address": typed_address_prism(), "measure": typed_measure_lens(),
       "aggregate": typed_aggregate_kaleidoscope()}
FOLDS = {"mean": mean, "maximum": max, "minimum": min,
         "head": lambda xs: xs[0]}


def outcome(run, *args):
    """What ``run(*args)`` returns, or the class and message it raises."""
    try:
        return "value", run(*args)
    except Exception as exc:  # the comparison is of any error alike
        return "error", type(exc), str(exc)


def same(run, *args):
    """``run(names, *args)`` gives the same outcome through both registries."""
    new, old = outcome(run, NEW, *args), outcome(run, OLD, *args)
    assert new == old
    return new


def with_names(names):
    # the CLI's names, with the three optics swapped for ``names``'
    return {**registry(), **names}


# ---------------------------------------------------------------------------
# Documents.

texts = st.text(alphabet="ab ,", max_size=12)
# postal strings with 0, 1 or 2 commas, and otherwise any short text
postal = st.one_of(
    st.lists(st.text(alphabet="ab ", max_size=4), min_size=1, max_size=3)
    .flatmap(lambda parts: st.sampled_from([", ", ","])
             .map(lambda sep: sep.join(parts))),
    texts)
numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-10,
              max_value=10),
    st.floats(allow_nan=False, allow_infinity=False),  # 1e200 squared overflows
    st.integers(-3, 3))
others = st.sampled_from([VNum(1.0), VList(()), VRec(()), VText("x")])


def records(keys, values):
    """Records of ``keys``, some missing, shuffled or with one more key."""
    full = st.fixed_dictionaries({k: values for k in keys})
    return st.one_of(
        full.map(lambda d: VRec(tuple(d.items()))),
        st.tuples(full, st.permutations(keys), st.booleans(),
                  st.sampled_from(keys)).map(
            lambda t: VRec(tuple(
                (k, t[0][k]) for k in t[1]
                if not (t[2] and k == t[3])))),
        full.map(lambda d: VRec((*d.items(), ("extra", VNum(0.0))))),
        st.tuples(full, st.sampled_from(keys), others).map(
            lambda t: VRec(tuple((k, t[2] if k == t[1] else v)
                                 for k, v in t[0].items()))),
        others)


measurement_records = records(MEASUREMENT_KEYS, numbers.map(VNum))
address_records = records(("street", "city", "country"), texts.map(VText))
species = st.one_of(
    st.sampled_from([s.value for s in Species]).map(VText),
    st.sampled_from(["Rosa", "setosa", ""]).map(VText),
    st.just(VNum(1.0)))
flowers = st.one_of(
    st.tuples(measurement_records, species).map(lambda t: VRec(
        (("measurements", t[0]), ("species", t[1])))),
    st.tuples(measurement_records, species).map(lambda t: VRec(
        (("species", t[1]), ("measurements", t[0])))),
    measurement_records.map(lambda m: VRec((("measurements", m),))),
    others)
good_flowers = st.tuples(
    st.fixed_dictionaries({k: numbers.map(VNum) for k in MEASUREMENT_KEYS}),
    st.sampled_from([s.value for s in Species])).map(
    lambda t: VRec((("measurements", VRec(tuple(t[0].items()))),
                    ("species", VText(t[1])))))


@st.composite
def training(draw):
    """Good flowers, with up to two drawn from ``flowers`` among them."""
    drawn = draw(st.lists(good_flowers, min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        drawn.insert(draw(st.integers(0, len(drawn))), draw(flowers))
    return drawn


GOOD = flower_to_value(iris[0])
QUERY = measurements_to_value(iris[60].measurements)


# ---------------------------------------------------------------------------
# The differential tests.


@settings(max_examples=300, deadline=None)
@given(st.one_of(postal.map(VText), others), address_records)
# the keys in the order the prism builds them, but one is no text
@example(VText("a, b, c"), VRec((("street", VText("s")), ("city", VNum(5.0)),
                                 ("country", VText("c")))))
def test_address_matches_the_typed_prism(doc, address):
    same(lambda n, s: preview(n["address"], s), doc)
    same(lambda n, s: over(n["address"], lambda a: a, s), doc)
    same(lambda n, s, b: set_value(n["address"], s, b), doc, address)
    same(lambda n, b: review(n["address"], b), address)
    same(lambda n, s: preview(compose(n["address"], field_lens("city")), s),
         doc)
    same(lambda n, s: over(compose(n["address"], field_lens("street")),
                           lambda t: VText(t.value.upper()), s), doc)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(postal.map(VText), others), max_size=5))
def test_a_book_of_postal_strings_matches(postals):
    book = VList(tuple(VRec((("postal", p),)) for p in postals))
    text = 'each.field("postal").address.street'
    same(lambda n, s: to_list_of(resolve_expr(parse_expr(text),
                                              with_names(n)), s), book)
    same(lambda n, s: over(resolve_expr(parse_expr(text), with_names(n)),
                           lambda t: VText(t.value.upper()), s), book)


@settings(max_examples=300, deadline=None)
@given(flowers, st.one_of(measurement_records, others))
@example(GOOD, VRec((("sepalLength", VNum(1e200)),
                     *((k, VNum(0.0)) for k in MEASUREMENT_KEYS[1:]))))
# the keys in the parser's order: bad measurements before an unknown species
@example(VRec((("measurements", VRec(())), ("species", VText("Rosa")))), QUERY)
@example(VRec((("species", VText("Setosa")), ("measurements", QUERY))), QUERY)
def test_measure_matches_the_typed_lens(flower, query):
    got = same(lambda n, s: view(n["measure"], s), flower)
    if got[0] == "value" and flower.get("measurements") == got[1]:
        assert got[1] is flower.get("measurements")  # returned as it is
    same(lambda n, s: over(n["measure"], lambda m: m, s), flower)
    same(lambda n, s, b: set_value(n["measure"], s, b), flower, query)


@settings(max_examples=300, deadline=None)
@given(training(), st.one_of(measurement_records, measurement_records, others))
@example([GOOD, VRec(()), VText("x")], VText("bad query"))
@example([GOOD, GOOD, VText("x")], QUERY)
@example([GOOD, VRec((("measurements", QUERY), ("species", VText("Rosa"))))],
         VRec(()))
@example([GOOD, VText("x")],
         VRec(tuple((k, VNum(1e200)) for k in MEASUREMENT_KEYS)))
@example([GOOD, GOOD],
         VRec(tuple((k, VNum(1e200)) for k in MEASUREMENT_KEYS)))
def test_classify_matches_the_typed_lens(flowers, query):
    got = same(lambda n, ss, b: classify(n["measure"], ss, b), flowers, query)
    if got[0] == "value":
        assert _render(got[1]) == render(got[1])


@settings(max_examples=200, deadline=None)
@given(training(), st.sampled_from(sorted(FOLDS)))
def test_aggregate_matches_the_typed_composites(flowers, fold):
    fn = FOLDS[fold]
    same(lambda n, ss: aggregate(compose(n["measure"], n["aggregate"]), fn,
                                 ss), flowers)
    same(lambda n, ss: aggregate(resolve_expr(parse_expr("measure.aggregate"),
                                              with_names(n)), fn, ss),
         flowers)
    same(lambda n, s: to_list_of(resolve_expr(parse_expr("each.measure"),
                                              with_names(n)), s),
         VList(tuple(flowers)))
    measurements = [f.get("measurements") if isinstance(f, VRec) else f
                    for f in flowers]
    same(lambda n, ms: aggregate(n["aggregate"], fn, ms), measurements)


@settings(max_examples=200, deadline=None)
@given(st.one_of(flowers, measurement_records, postal.map(VText)))
def test_render_matches_the_typed_summary(value):
    assert _render(value) == render(value)


def test_the_dataset_classifies_and_aggregates_alike():
    docs = [flower_to_value(f) for f in iris]
    for flower in docs[::7]:
        query = flower.get("measurements")
        same(lambda n, ss, b: classify(n["measure"], ss, b), docs, query)
    for fn in FOLDS.values():
        got = same(lambda n, ss: aggregate(
            compose(n["measure"], n["aggregate"]), fn, ss), docs)
        assert got[0] == "value"


def test_value_codecs_round_trip():
    a = Address("1 Acre Fold", "Truro", "UK")
    assert value_to_address(address_to_value(a)) == a
    m = iris[10].measurements
    assert value_to_measurements(measurements_to_value(m)) == m
    f = iris[120]
    assert value_to_flower(flower_to_value(f)) == f


# ---------------------------------------------------------------------------
# Records in the parser's key order are read by position.


def _book_and_flowers(n=200):
    r = random.Random(29)
    book = [{"postal": ("PO Box 12" if i % 10 == 0 else
                        f"{r.randrange(1, 999)} High Ln, York, UK")}
            for i in range(n)]
    flowers = [{"measurements": {k: round(r.uniform(0.1, 8.0), 1)
                                 for k in MEASUREMENT_KEYS},
                "species": r.choice([s.value for s in Species])}
               for _ in range(n)]
    return parse_json(json.dumps(book)), parse_json(json.dumps(flowers))


def test_records_in_the_parsed_key_order_are_read_without_a_key_lookup(
        monkeypatch):
    calls = []
    get = VRec.get
    monkeypatch.setattr(VRec, "get",
                        lambda self, key: calls.append(key) or get(self, key))

    def counted(run, *args):
        calls.clear()
        run(*args)
        return len(calls)

    names = registry()
    street = resolve_expr(parse_expr('each.field("postal").address.street'),
                          names)
    measure_each = resolve_expr(parse_expr("each.measure"), names)
    book, flowers = _book_and_flowers()
    assert counted(over, street, lambda t: VText(t.value.upper()),
                   book) == 0  # 540 by key
    assert counted(to_list_of, street, book) == 0
    assert counted(to_list_of, measure_each, flowers) == 0  # 400 by key
    assert counted(classify, names["measure"], flowers.items, QUERY) == 0
    assert counted(aggregate, resolve_expr(parse_expr("measure.aggregate"),
                                           names), mean, flowers.items) == 0

    # any other key order is read by key
    address = VRec((("city", VText("York")), ("street", VText("1 Low Rd")),
                    ("country", VText("UK"))))
    assert counted(review, names["address"], address) == 3
    flower = VRec((("species", VText("Setosa")), ("measurements", QUERY)))
    assert counted(view, names["measure"], flower) == 2
    flower = VRec((("measurements", VRec(QUERY.fields[::-1])),
                   ("species", VText("Setosa"))))
    assert counted(view, names["measure"], flower) == 4
