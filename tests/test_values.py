"""JSON-like document parsing, serialization, and structural optics."""

import json
import sys

import pytest
from hypothesis import example, given, strategies as st

from mixoptic import (
    VBool, VList, VNull, VNum, VRec, VTag, VText,
    compose, each_traversal, field_lens, parse_json, serialize, variant_prism,
    over, preview, review, set_value, to_list_of, view,
)
from mixoptic.errors import FocusError, LengthError, ParseError
from mixoptic.values import NULL

json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(),
        st.integers(min_value=-10**6, max_value=10**6),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.text(max_size=8),
    ),
    lambda leaf: st.one_of(
        st.lists(leaf, max_size=4),
        st.dictionaries(st.text(max_size=4), leaf, max_size=4),
    ),
    max_leaves=12,
)


@given(json_values)
def test_parse_serialize_round_trip(obj):
    import json
    text = json.dumps(obj)
    doc = parse_json(text)
    assert parse_json(serialize(doc)) == doc


def test_parse_shapes():
    doc = parse_json('{"a": [1, true, null], "b": "x"}')
    assert doc == VRec((
        ("a", VList((VNum(1.0), VBool(True), VNull()))),
        ("b", VText("x")),
    ))


def test_integral_numbers_serialize_without_decimal_point():
    assert serialize(parse_json("[1, 2.5]")) == "[1, 2.5]"


def test_tagged_variants():
    doc = parse_json('{"@circle": {"radius": 2}}')
    assert doc == VTag("circle", VRec((("radius", VNum(2.0)),)))
    assert parse_json(serialize(doc)) == doc


def test_duplicate_keys_rejected():
    with pytest.raises(ParseError):
        parse_json('{"a": 1, "a": 2}')


def test_malformed_json_reports_position():
    with pytest.raises(ParseError) as e:
        parse_json('{"a": }')
    assert e.value.line == 1
    assert e.value.column > 1


def test_field_lens_laws():
    doc = parse_json('{"x": 1, "y": 2}')
    lens = field_lens("x")
    assert view(lens, doc) == VNum(1.0)
    assert set_value(lens, doc, view(lens, doc)) == doc
    assert view(lens, set_value(lens, doc, VNum(9.0))) == VNum(9.0)
    # update preserves key order
    assert serialize(set_value(lens, doc, VNum(9.0))) == '{"x": 9, "y": 2}'


def test_field_lens_misses_raise():
    doc = parse_json('{"x": 1}')
    with pytest.raises(FocusError):
        view(field_lens("z"), doc)
    with pytest.raises(FocusError):
        view(field_lens("x"), parse_json("[1]"))


def test_field_lens_update_refuses_what_view_refuses():
    for key, text in (("z", '{"x": 1}'), ("x", "[1]")):
        lens = field_lens(key)
        with pytest.raises(FocusError) as read:
            view(lens, parse_json(text))
        with pytest.raises(FocusError) as write:
            lens.update(parse_json(text), VNum(9.0))
        assert str(write.value) == str(read.value)


def test_field_lens_update_replaces_the_pair_view_reads():
    # parse_json refuses a repeated key; a record built by hand can hold one
    doc = VRec((("a", VNum(1.0)), ("b", VNum(2.0)), ("a", VNum(3.0))))
    lens = field_lens("a")
    out = set_value(lens, doc, VNum(9.0))
    assert out.fields == (("a", VNum(9.0)), ("b", VNum(2.0)), ("a", VNum(3.0)))
    assert view(lens, out) == VNum(9.0)  # get after set
    assert out.fields[1] is doc.fields[1]  # the other pairs are shared


def test_set_and_over_leave_the_parsed_input_unchanged():
    from mixoptic.expr import parse_expr, resolve_expr
    from mixoptic.fixtures import registry

    text = json.dumps([
        {"name": "Ada", "postal": "1 High Ln, York, UK",
         "address": {"street": "1 High Ln", "city": "York", "country": "UK"},
         "tags": ["home", {"@work": [1, 2.5]}]},
        {"name": "Alan", "postal": "no separators",
         "address": {"street": "2 Elm Way", "city": "Bath", "country": "UK"},
         "tags": []},
    ])
    doc = parse_json(text)
    before = serialize(doc)
    names = registry()
    for expr in ('field("address").city', 'field("postal").address.street',
                 'field("tags").each.variant("work").each', 'field("name")'):
        optic = resolve_expr(parse_expr(expr), names)
        if "each" not in expr:
            for record in doc.items:
                set_value(optic, record, VText("new"))
        every = resolve_expr(parse_expr("each." + expr), names)
        over(every, lambda v: VText(serialize(v).upper()), doc)
        assert serialize(doc) == before, expr


def test_each_traversal():
    doc = parse_json("[1, 2, 3]")
    t = each_traversal()
    assert to_list_of(t, doc) == [VNum(1.0), VNum(2.0), VNum(3.0)]
    bumped = over(t, lambda v: VNum(v.value + 1), doc)
    assert serialize(bumped) == "[2, 3, 4]"
    with pytest.raises(FocusError):
        to_list_of(t, parse_json('{"a": 1}'))


def test_each_rebuild_length_checked():
    from mixoptic import funlist as fl

    t = each_traversal()
    foci, rebuild = t.extract(parse_json("[1, 2]"))
    with pytest.raises(LengthError):
        rebuild([VNum(1.0)])


def test_variant_prism():
    p = variant_prism("circle")
    doc = parse_json('{"@circle": {"radius": 2}}')
    assert preview(p, doc) == VRec((("radius", VNum(2.0)),))
    assert preview(p, parse_json('{"@square": 1}')) is None
    assert preview(p, parse_json("7")) is None
    assert review(p, VNum(1.0)) == VTag("circle", VNum(1.0))
    hit = preview(p, doc)
    assert review(p, hit) == doc


def test_segments_are_tuples_of_their_argument_and_build_no_function():
    a, b = field_lens("a"), field_lens("b")
    assert a.view.__func__ is b.view.__func__
    assert a.update.__func__ is b.update.__func__
    assert variant_prism("t").match.__func__ is variant_prism("u").match.__func__
    assert each_traversal() is each_traversal()
    assert field_lens("a", "b") == field_lens("a", "b") != field_lens("a")
    assert tuple(field_lens("a", "b")) == (("a", "b"),)
    assert tuple(variant_prism("t")) == ("t",)


def test_serialize_refuses_a_document_it_cannot_recurse_through():
    deep = VList(())
    for _ in range(5_000):
        deep = VList((deep,))
    with pytest.raises(ParseError) as got:
        serialize(deep)
    assert str(got.value) == "document nests too deeply"


# ---------------------------------------------------------------------------
# The decoder route ``parse_json`` and ``serialize`` replaced, kept verbatim
# as the oracle: ``json.loads`` to plain Python objects, then an
# ``isinstance`` walk that builds the values, and the walk back.

_FLOAT_MAX = sys.float_info.max


def _from_pairs(pairs):
    keys = [k for k, _ in pairs]
    if len(set(keys)) != len(keys):
        dup = next(k for k in keys if keys.count(k) > 1)
        raise ParseError(f"duplicate key {dup!r}")
    if len(pairs) == 1 and keys[0].startswith("@"):
        return VTag(keys[0][1:], pairs[0][1])
    return VRec(tuple(pairs))


def _from_python(obj):
    if _is_value(obj):
        return obj
    if obj is None:
        return NULL
    if isinstance(obj, bool):
        return VBool(obj)
    if isinstance(obj, (int, float)):
        num = float(obj)  # OverflowError past the float range
        if not -_FLOAT_MAX <= num <= _FLOAT_MAX:  # 1e400 decodes as inf
            raise ParseError("number out of range")
        return VNum(num)
    if isinstance(obj, str):
        return VText(obj)
    if isinstance(obj, list):
        return VList(tuple(_from_python(x) for x in obj))
    raise ParseError(f"unsupported document element {type(obj).__name__}")


def _not_a_number(name: str):
    raise ParseError(f"{name} is not a JSON number")


def oracle_parse_json(text: str):
    try:
        raw = json.loads(
            text,
            object_pairs_hook=lambda pairs: _from_pairs(
                [(k, v if _is_value(v) else _from_python(v)) for k, v in pairs]
            ),
            parse_constant=_not_a_number,
        )
        return raw if _is_value(raw) else _from_python(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    except (OverflowError, ValueError):
        # an integer past the float range, or past the digits int() reads
        raise ParseError("number out of range") from None
    except RecursionError:
        raise ParseError("document nests too deeply") from None


def _is_value(obj) -> bool:
    return isinstance(obj, (VNull, VBool, VNum, VText, VList, VRec, VTag))


def _to_python(value):
    if isinstance(value, VNull):
        return None
    if isinstance(value, VBool):
        return value.value
    if isinstance(value, VNum):
        num = value.value
        return int(num) if float(num).is_integer() and abs(num) < 2 ** 53 else num
    if isinstance(value, VText):
        return value.value
    if isinstance(value, VList):
        return [_to_python(v) for v in value.items]
    if isinstance(value, VRec):
        return {k: _to_python(v) for k, v in value.fields}
    if isinstance(value, VTag):
        return {"@" + value.tag: _to_python(value.payload)}
    raise TypeError(f"not a Value: {value!r}")


def oracle_serialize(value) -> str:
    try:
        return json.dumps(_to_python(value), ensure_ascii=False)
    except RecursionError:
        # records parse deeper than the conversion back can recurse
        raise ParseError("document nests too deeply") from None


def typed(value):
    """The value as a tree of node classes, payload types and payload reprs,
    so ``-0.0`` against ``0.0`` and an int against a float payload differ."""
    kind = type(value)
    if kind is VList:
        return kind, tuple(typed(v) for v in value.items)
    if kind is VRec:
        return kind, tuple((k, typed(v)) for k, v in value.fields)
    if kind is VTag:
        return kind, value.tag, typed(value.payload)
    if kind is VNull:
        return (kind,)
    return kind, type(value.value), repr(value.value)


_numbers = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.integers(17, 25).flatmap(
        lambda n: st.integers(10 ** (n - 1), 10 ** n - 1)).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from([
        "-0", "0", "-0.0", "1e400", "-1e400", "1E-400", "2.5e308",
        "9" * 309, "-" + "9" * 400, "1" * 4300, "1" * 4301, "12.5e-3",
    ]),
)
_strings = st.builds(
    json.dumps, st.text(max_size=6), ensure_ascii=st.booleans())
_keys = st.sampled_from(["a", "b", "é", "@t", "@", "@é", "k→"]).map(
    json.dumps)
_leaves = st.one_of(
    _numbers, _strings,
    st.sampled_from(["null", "true", "false", "NaN", "Infinity",
                     "-Infinity"]),
)


def _containers(children):
    pairs = st.tuples(_keys, children).map(lambda kv: f"{kv[0]}: {kv[1]}")
    return st.one_of(
        st.lists(children, max_size=4).map(
            lambda xs: "[" + ", ".join(xs) + "]"),
        st.lists(pairs, max_size=4).map(lambda xs: "{" + ", ".join(xs) + "}"),
    )


json_texts = st.recursive(_leaves, _containers, max_leaves=16)
# texts cut short or with a stray character, for the decoder's own errors
broken_texts = st.tuples(json_texts, st.integers(0, 200),
                         st.sampled_from(["", "]", "}", ",", "x"])).map(
    lambda t: t[0][:t[1]] + t[2])


def check_against_oracle(text):
    try:
        expected = oracle_parse_json(text)
    except ParseError as error:
        with pytest.raises(ParseError) as got:
            parse_json(text)
        assert str(got.value) == str(error)
        assert (got.value.line, got.value.column) == (error.line, error.column)
        return
    doc = parse_json(text)
    assert typed(doc) == typed(expected)
    assert serialize(doc) == oracle_serialize(expected)


@given(json_texts)
def test_parse_and_serialize_match_the_replaced_route(text):
    check_against_oracle(text)


@given(broken_texts)
def test_parse_errors_match_the_replaced_route(text):
    check_against_oracle(text)


@pytest.mark.parametrize("text", [
    "-0", "[-0, -0.0]", "1e400", "[1e400]", "9" * 400, "1" * 4301,
    '{"a": 1e400, "b": {"c": 1, "c": 2}}',
    '[1e400, {"a": 1, "a": 2}]',
    '[{"a": 1, "a": 2}, 1e400]',
    '[1e400, NaN]',
    '[1e400, }',
    '{"a": [1e400], "a": 2}',
    '{"@t": ' + "9" * 400 + "}",
    '{"x": [' + "1" * 4301 + ", 1e400]}",
    # At 600 levels the replaced route's list walk, two frames a level,
    # overflows, while the library's, one frame a level, reads on to the
    # json decoder's limit; both refuse 10,000.
    "[" * 10_000 + "]" * 10_000, '{"a": ' * 300 + "[1]" + "}" * 300,
    '"caf\\u00e9 →"', "12345678901234567890123",
], ids=lambda text: text[:32])
def test_fault_order_and_edge_numbers_match_the_replaced_route(text):
    check_against_oracle(text)


# ---------------------------------------------------------------------------
# One node per distinct leaf: ``parse_json`` shares every repeated string and
# number literal of a document, which no ``==``, ``serialize`` or optic shows.


@pytest.mark.parametrize("text", [
    "[-0.0, 0, -0, 0.0, -0.0]",  # equal values, different literals
    "[1, 1.0, 1e0, 10E-1]",
    '{"a": "x", "b": ["x", {"@x": "x"}]}',  # a text as value, key and tag
    "[1e400, 1e400]",  # one literal out of range, twice
    '{"a": [1e400], "a": 2}',
    # repeated pairs and lists of leaves, one shared node each, never keyed
    # on a zero, whose literals print apart
    '[{"a": -0}, {"a": 0}, {"a": -0.0}]',
    "[[0, 1], [-0, 1], [0.0, 1]]",
    "[[-0.0, 1], [0, 1], [-0.0, 1], [0.0]]",
    '[{"a": 1}, {"a": 1.0}]',
    '[{"a": null}, {"a": null}, {"b": null}]',
    '[{"t": ["x"]}, {"t": ["x"]}, ["x"]]',
    '[{"a": ["x"]}, {"b": ["x"]}, {"b": ["x"]}, {"a": ["x"]}, {"a": ["x"]}]',
    # ``true`` equals ``1`` as a Python value, but never as a leaf
    '[{"a": true}, {"a": 1}, [true], [1], {"a": [true]}, {"a": [1]}]',
    '[["a", 2], {"a": 2}, ["a", 2], {"a": 2}]',
], ids=lambda text: text[:32])
def test_literals_repeated_in_different_roles_match_the_replaced_route(text):
    check_against_oracle(text)


# leaves from a small pool, so that they repeat within one document
_pooled_leaves = st.sampled_from([
    "0", "-0", "0.0", "-0.0", "1", "1.0", "1e0", "2.5", "1e400", '"x"',
    '"y"', '"@x"', '""', "null", "true", "false",
])


@given(st.recursive(_pooled_leaves, _containers, max_leaves=24))
def test_repeated_leaves_match_the_replaced_route(text):
    check_against_oracle(text)


def _assert_tuples_only(value):
    """Every record's fields, each of its pairs and every list's items in
    ``value`` are exact tuples: no list of the decoder's is left in it."""
    stack = [value]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is VRec:
            assert type(node.fields) is tuple, node
            for pair in node.fields:
                assert type(pair) is tuple, node
                stack.append(pair[1])
        elif kind is VList:
            assert type(node.items) is tuple, node
            stack.extend(node.items)
        elif kind is VTag:
            stack.append(node.payload)


@given(st.one_of(json_texts, st.recursive(_pooled_leaves, _containers,
                                          max_leaves=24)))
@example('[{"a": [{"b": {"c": []}}, "x"], "d": {"@t": {"e": [1, null]}}}, []]')
def test_a_parse_leaves_no_list_of_the_decoder(text):
    try:
        doc = parse_json(text)
    except ParseError:
        return
    _assert_tuples_only(doc)


@pytest.mark.parametrize("text,message", [
    ('{"a": 1e400, "a": 2}', "number out of range"),
    ('{"b": {"c": 1, "c": 2}, "d": 1e400}', "duplicate key 'c'"),
], ids=["own-values-first", "inner-object-first"])
def test_an_object_converts_its_values_before_it_checks_its_keys(text,
                                                                 message):
    with pytest.raises(ParseError) as got:
        parse_json(text)
    assert str(got.value) == message


def test_setting_one_shared_leaf_leaves_the_others_and_the_input_unchanged():
    doc = parse_json('[{"a": "x", "n": 1, "t": ["x", 1]},'
                     ' {"a": "x", "n": 1, "t": ["x", 1]},'
                     ' {"a": "x", "n": 1, "t": ["x", 1]}, ["x", 1]]')
    first, second, third, tail = doc.items
    assert first.get("a") is second.get("a") is tail.items[0]  # shared
    assert first.get("n") is second.get("n") is tail.items[1]
    assert first.get("t") is second.get("t") is third.get("t")
    # so is each pair of a key and a leaf or a list of leaves, from the
    # first occurrence of its leaf or list on
    assert first.fields[1] is second.fields[1]
    assert all(p is q for p, q in zip(second.fields, third.fields))
    before = serialize(doc)
    lens = field_lens("a")
    out = set_value(lens, first, VText("y"))
    assert view(lens, out) == VText("y")
    assert view(lens, second) == VText("x") and tail.items[0] == VText("x")
    assert set_value(field_lens("n"), second, VNum(2.0)).get("n") == VNum(2.0)
    assert first.get("n") == VNum(1.0) and tail.items[1] == VNum(1.0)
    out = over(compose(field_lens("t"), each_traversal()),
               lambda v: VText("z"), second)
    assert serialize(out) == '{"a": "x", "n": 1, "t": ["z", "z"]}'
    out = set_value(field_lens("a"), second, VText("w"))
    assert out.fields[0] == ("a", VText("w")) and out.fields[2] is third.fields[2]
    assert serialize(third) == '{"a": "x", "n": 1, "t": ["x", 1]}'
    assert third.fields[0] == ("a", VText("x"))
    assert third.get("t").items == (VText("x"), VNum(1.0))
    assert serialize(doc) == before


def test_a_parse_leaves_nothing_to_the_collector():
    # the per-call tables go when parse_json returns, not at a collection
    import gc

    gc.collect()
    gc.disable()
    try:
        doc = parse_json('[{"a": "x", "b": [1, 2.5, "x"]}, {"@t": [true]}]')
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert serialize(doc) == '[{"a": "x", "b": [1, 2.5, "x"]}, {"@t": [true]}]'


def _address_book(r, n):
    # the benchmark's address-book shape: a unique id; streets and postal
    # strings numbered from 1 to 998, so most are unique; names, cities,
    # countries, tags and one postal string in ten from small pools
    streets = ["Baker St", "Rowan Rd", "High Ln", "Elm Way", "Forge Yard",
               "Mill Bank", "Dean Gate", "Acre Fold", "Quay Side", "Kings Row"]
    cities = ["London", "Leeds", "York", "Bath", "Derby", "Truro", "Oslo",
              "Lyon", "Porto", "Ghent", "Princeton", "Wilmslow"]
    countries = ["UK", "USA", "France", "Norway", "Portugal", "Belgium"]
    tags = ["home", "work", "family", "club", "school", "old"]
    return [{"id": i,
             "name": f"{r.choice('ABCDEFGHIJKLMN')} {r.choice('OPQRSTUVWXYZ')}",
             "address": {"street": f"{r.randrange(1, 999)} {r.choice(streets)}",
                         "city": r.choice(cities),
                         "country": r.choice(countries)},
             "postal": (r.choice(["PO Box 12", "no separators here"])
                        if i % 10 == 0 else
                        f"{r.randrange(1, 999)} {r.choice(streets)}, "
                        f"{r.choice(cities)}, {r.choice(countries)}"),
             "tags": [r.choice(tags), r.choice(tags)]}
            for i in range(n)]


def _flowers(r, n):
    # the benchmark's flower shape: four measurements to one decimal place
    keys = ("sepalLength", "sepalWidth", "petalLength", "petalWidth")
    return [{"measurements": {k: round(r.uniform(0.1, 8.0), 1) for k in keys},
             "species": r.choice(["Setosa", "Versicolor", "Virginica"])}
            for _ in range(n)]


def _repeat_free(r, n):
    # no string, number, pair or list of leaves occurs twice
    return [{"id": i, "name": f"name {i}", "score": i + 0.5,
             "tags": [f"t{i}", f"u{i}"]} for i in range(n)]


@pytest.mark.parametrize("make,bound", [
    (_address_book, 11.5), (_flowers, 5.5), (_repeat_free, 13.01),
], ids=["address", "flowers", "repeat-free"])
def test_tracked_nodes_per_parsed_record(make, bound):
    # A record is its node, its fields tuple and one tuple per pair; leaves
    # add a node only where they are new to the document, and so do pairs of
    # a key and a leaf and lists of leaves. One node per leaf would give 22
    # (address) and 15 (flowers), and one node per pair and list with shared
    # leaves 16.9 and 10.0; the address book has about 11.0 and the flowers
    # 5.2. A repeat-free record of four pairs, a list of two texts among them,
    # is 13 nodes whether or not anything is shared; the root list adds two.
    import gc
    import random

    n = 2000
    text = json.dumps(make(random.Random(5), n))
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        doc = parse_json(text)
        tracked = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(doc.items) == n
    assert tracked / n <= bound, tracked / n


def test_serialize_matches_the_replaced_route_on_built_values():
    built = VRec((
        ("n", VNum(3)), ("big", VNum(2 ** 60)), ("f", VNum(2.0 ** 60)),
        ("neg", VNum(-0.0)), ("xs", VList((VBool(False), NULL, VText("é")))),
        ("t", VTag("k", VNum(1.5))),
    ))
    assert serialize(built) == oracle_serialize(built)


# ---------------------------------------------------------------------------
# The value classes' contract.


def test_values_are_frozen():
    samples = [NULL, VBool(True), VNum(1.0), VText("a"), VList(()), VRec(()),
               VTag("t", NULL)]
    for value in samples:
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        # a name that is no field has no slot to hold it
        with pytest.raises(AttributeError):
            value.extra = 1
        assert not hasattr(value, "__dict__")


def test_value_equality_hash_and_repr():
    assert VBool(True) != VNum(1.0)
    assert VNum(1) == VNum(1.0) and hash(VNum(1)) == hash(VNum(1.0))
    assert VNull() == NULL and hash(VNull()) == hash(NULL)
    assert repr(parse_json('{"a": [1, "x", null, true, {"@t": 2}]}')) == (
        "VRec(fields=(('a', VList(items=(VNum(value=1.0), VText(value='x'), "
        "VNull(), VBool(value=True), VTag(tag='t', "
        "payload=VNum(value=2.0))))),))")


def test_serialize_prints_an_int_payload_as_an_integer():
    assert serialize(VNum(3)) == "3"
    assert serialize(VList((VNum(3), VNum(-0.0), VNum(2.5)))) == "[3, 0, 2.5]"
