"""Field paths fuse in ``compose``, and nothing shows it.

``compose`` fuses adjacent field paths (``field_lens``), the registry's
``city`` and ``street`` among them, into one path, and coerces a path into
a fold one key at a time, so a fold chain still reads its wholes level by
level; into a setter, glass or getter a path is one segment. ``resolve_expr`` hands it each run of ``field("k")``
segments as one ``field_lens`` of the run's keys. The reference is the
chain of one optic per segment in which every field path is a plain
``Lens`` record of its ``view`` and ``update``, which ``compose`` cannot
fuse. Expressions and documents are drawn from one pool of names and keys,
the registry's and one optic of each kind it lacks, and each document is
built along its expression with some level replaced by another value: a
missing key, a record where a text is read, a wrong tag. So foci fail at
different levels, and every combinator gives the same serialized value
through both, or the same error class and message. ``compose`` itself is
held to the same reference over field paths, ``each``, variants and a
chain of three prisms, however the operands are bracketed.
"""

import time
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from mixoptic import (
    AchromaticLens, Adapter, AlgebraicLens, Fold, Getter, Glass, Grate,
    Kaleidoscope, Lens, MonadicLens, OpticKind as K, Setter, aggregate,
    classify, compose, grate_apply, over, parse_json, preview, serialize,
    set_value, to_list_of, view,
)
from mixoptic.composition import _Chain
from mixoptic.effects import Writer
from mixoptic.errors import FocusError, KindError
from mixoptic.expr import parse_expr, resolve_expr, resolve_segment
from mixoptic.fixtures import mean, registry
from mixoptic.values import (
    VList, VNum, VRec, VTag, VText, Field, each_traversal, field_lens,
    variant_prism,
)

KEYS = ("a", "b", "c")
TAGS = ("t", "u")
A, B = field_lens("a"), field_lens("b")


def items(whole):
    if not isinstance(whole, VList):
        raise FocusError("expected a list")
    return whole.items


# one optic of each kind the registry lacks: the setter and fold act on a
# list's items, the grate on a record's ``a`` and ``b``, the rest on ``b``
KINDS = {
    "adapter": Adapter(forward=lambda s: VTag("t", s),
                       backward=lambda t: t.value if isinstance(t, VTag)
                       else t),
    "ach": AchromaticLens(view=B.view, update=B.update,
                          create=lambda b: VRec((("b", b),))),
    "grate": Grate(run=lambda k: VRec((("a", k(A.view)), ("b", k(B.view))))),
    "glass": Glass(run=lambda k, s: B.update(s, k(B.view))),
    "setter": Setter(over=lambda f, s: VList(tuple(map(f, items(s))))),
    "getter": Getter(get=B.view),
    "fold": Fold(foci=items),
    "alg": AlgebraicLens(view=B.view,
                         classify=lambda wholes, b: B.update(wholes[-1], b)),
    "kal": Kaleidoscope(aggregate=lambda f: lambda wholes: f(
        [B.view(s) for s in wholes])),
    "mon": MonadicLens(view=B.view, pure=Writer.pure,
                       mupdate=lambda s, b: Writer.tell(B.update(s, b), "b")),
}
NAMES = {**registry(), **KINDS}
OTHERS = ('variant("t")', "each", "each", "city", "street", "address",
          "measure", "aggregate", *KINDS)
# an expression is drawn as blocks: a run of fields, one other segment, or
# a run after ``each`` or ``fold``, where the chain reads many wholes level
# by level
runs = st.lists(st.sampled_from([f'field("{k}")' for k in KEYS]),
                min_size=1, max_size=3)
blocks = st.one_of(runs, st.sampled_from(OTHERS).map(lambda name: [name]),
                   st.tuples(st.sampled_from(("each", "fold")), runs)
                   .map(lambda block: [block[0], *block[1]]))

MEASUREMENTS = VRec(tuple((k, VNum(v)) for k, v in (
    ("sepalLength", 5.0), ("sepalWidth", 3.4), ("petalLength", 1.5),
    ("petalWidth", 0.2))))
FLOWER = VRec((("measurements", MEASUREMENTS), ("species", VText("Setosa"))))
NEW = VText("new")

leaves = st.sampled_from([
    VText("x"), VText("1 High Ln, York, UK"), VText("no separators"),
    VNum(1.0), VList(()), VRec(()), MEASUREMENTS, FLOWER])
values = st.recursive(leaves, lambda inner: st.one_of(
    st.lists(st.tuples(st.sampled_from(KEYS + ("city", "street")), inner),
             max_size=3, unique_by=lambda pair: pair[0])
    .map(lambda pairs: VRec(tuple(pairs))),
    st.tuples(st.sampled_from(TAGS), inner).map(lambda t: VTag(*t)),
    st.lists(inner, max_size=3).map(lambda xs: VList(tuple(xs)))),
    max_leaves=6)


@st.composite
def along(draw, segments):
    """A document on which ``segments`` mostly find their focus: at each
    level, now and then, another value stands where the path goes on."""
    if not segments or draw(st.integers(0, 4)) == 0:
        return draw(values)
    name, rest = segments[0], segments[1:]
    if name.startswith("field"):
        key = name[len('field("'):-2]
        sibling = draw(st.sampled_from([k for k in KEYS if k != key]))
        pairs = [(key, draw(along(rest))), (sibling, draw(values))]
        return VRec(tuple(draw(st.permutations(pairs))))
    if name.startswith("variant"):
        return VTag(name[len('variant("'):-2], draw(along(rest)))
    if name == "each":
        return VList(tuple(draw(st.lists(along(rest), min_size=2,
                                         max_size=3))))
    if name in ("city", "street"):
        return VRec(((name, draw(along(rest))),))
    if name == "address":
        return VText("1 High Ln, York, UK")
    if name == "measure":
        return FLOWER
    if name == "aggregate":
        return MEASUREMENTS
    if name in ("setter", "fold"):
        return VList(tuple(draw(st.lists(along(rest), min_size=1,
                                         max_size=3))))
    if name == "grate":
        return VRec((("a", draw(along(rest))), ("b", draw(along(rest)))))
    if name == "adapter":
        return draw(along(rest))
    return VRec((("b", draw(along(rest))), ("c", draw(values))))


@st.composite
def cases(draw):
    """An expression, a document along it, another to zip with, and a list
    of documents along it to train or aggregate on."""
    segments = sum(draw(st.lists(blocks, min_size=1, max_size=4)), [])
    training = draw(st.lists(along(segments), min_size=1, max_size=3))
    return (".".join(segments), draw(along(segments)), draw(along(segments)),
            training)


def shown(result):
    if isinstance(result, list):
        return [shown(x) for x in result]
    return None if result is None else serialize(result)


def caught(run, *args):
    """What ``run(*args)`` returns, or the class and message of what it
    raises; and the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        try:
            result = "value", run(*args)
        except Exception as exc:  # the comparison is of any error alike
            result = "error", type(exc), str(exc)
    return result, [str(w.message) for w in warned]


def plain(optic):
    """A field path as plain lens records, one per key, which ``compose``
    cannot fuse; any other optic as it is."""
    if not isinstance(optic, Field):
        return [optic]
    return [Lens(view=f.view, update=f.update)
            for f in map(field_lens, optic[0])]


def chained(segments, names):
    """The reference: one optic per segment, each field path a plain lens,
    composed in one call."""
    return compose(*[lens for seg in segments
                     for lens in plain(resolve_segment(seg, names))])


COMBINATORS = {
    "view": lambda optic, doc, other, training: view(optic, doc),
    "preview": lambda optic, doc, other, training: preview(optic, doc),
    "set": lambda optic, doc, other, training: set_value(optic, doc, NEW),
    "over": lambda optic, doc, other, training: over(
        optic, lambda focus: VList((focus,)), doc),
    "tolist": lambda optic, doc, other, training: to_list_of(optic, doc),
    "classify": lambda optic, doc, other, training: classify(
        optic, training, MEASUREMENTS),
    "aggregate": lambda optic, doc, other, training: aggregate(
        optic, mean, training),
    "zip": lambda optic, doc, other, training: grate_apply(
        optic, lambda focus_of: focus_of(other), doc),
}


@settings(max_examples=400, deadline=None)
@given(cases())
@example(('each.field("a").field("b")', parse_json('[{"a": 5}, {"b": 1}]'),
          parse_json('[{"a": {"b": 2}}]'), [parse_json('[{"a": 5}, {"b": 1}]')]))
@example(('fold.field("a").field("b")', parse_json('[{"a": 5}, {"b": 1}]'),
          VRec(()), [VRec(())]))
@example(('each.field("a").field("b").fold',
          parse_json('[{"a": {"b": [1, 2]}}, {"a": {"c": [3]}}, {"a": 4}]'),
          parse_json('[{"a": {"b": [5]}}]'),
          [parse_json('[{"a": {"b": [6]}}]')]))
@example(('each.field("a").field("b").field("c")',
          # the first whole misses at ``c``, the second at ``b``: read level
          # by level, the second's miss comes first
          parse_json('[{"a": {"b": 5}}, {"a": {"c": 1}}, {"a": {"b": {"c": 1}}}]'),
          parse_json('[{"a": {"b": {"c": 2}}}]'),
          [parse_json('[{"a": 3}, {"b": {"a": 4}}]')]))
@example(('field("a").field("b").measure',
          VRec((("a", VRec((("b", FLOWER),))),)), FLOWER,
          [VRec((("a", VRec((("c", FLOWER),))),)),
           VRec((("c", VRec((("b", FLOWER),))),))]))
@example(('field("a").field("b").variant("t").field("c").each.field("a")'
          '.field("b")',
          parse_json('{"a": {"b": {"@t": {"c": [{"a": {"b": 1}}, {"a": 2}]}}}}'),
          VRec(()), [VRec(())]))
@example(('field("a").city', parse_json('{"a": {"town": "x"}}'),
          parse_json('{"a": {"city": "y"}}'),
          [parse_json('{"a": {"city": "z"}}'), parse_json('{"a": 1}')]))
@example(('fold.field("a").field("b")',
          # level by level, the second whole's miss at ``a`` comes before
          # the first's at ``b``
          parse_json('[{"a": {"c": 1}}, {"b": 2}]'),
          parse_json('[{"a": {"b": 3}}]'), [VRec(())]))
@example(('kal.field("a").field("b")',
          VRec((("b", parse_json('{"a": {"b": "x"}}')), ("c", NEW))),
          VRec((("b", parse_json('{"a": {"c": "y"}}')),)),
          [VRec((("b", parse_json('{"a": 1}')),))]))
def test_a_field_run_resolves_as_its_chain_does(case):
    text, doc, other, training = case
    segments = parse_expr(text)
    built = caught(resolve_expr, segments, NAMES)
    reference = caught(chained, segments, NAMES)
    if built[0][0] == "error" or reference[0][0] == "error":
        assert built == reference
        return
    assert built[1] == reference[1]  # the same warnings
    fused, chain = built[0][1], reference[0][1]
    for name, run in COMBINATORS.items():
        got = caught(lambda o: shown(run(o, doc, other, training)), fused)
        want = caught(lambda o: shown(run(o, doc, other, training)), chain)
        assert got == want, name


def failure(run):
    try:
        run()
    except FocusError as exc:
        return str(exc)
    raise AssertionError("no FocusError")


def test_after_a_traversal_the_first_error_is_met_level_by_level():
    optic = resolve_expr(parse_expr('each.field("a").field("b")'), NAMES)
    doc = parse_json('[{"a": 5}, {"b": 1}]')
    # the second element lacks ``a`` before the first's focus is no record
    assert failure(lambda: to_list_of(optic, doc)) == "record has no key 'a'"
    assert failure(lambda: over(optic, lambda x: x, doc)) == (
        "record has no key 'a'")


def test_every_run_of_an_expression_of_walk_steps_is_one_lens():
    optic = resolve_expr(parse_expr(
        'each.field("a").field("b").variant("t").field("c").field("d")'), NAMES)
    assert [part.kind for part in optic.parts] == \
        [K.TRAVERSAL, K.LENS, K.PRISM, K.LENS]
    assert optic.parts[1] == field_lens("a", "b")
    assert optic.parts[3] == field_lens("c", "d")


def test_over_and_set_through_a_path_walk_it_once(monkeypatch):
    def refuse(*_):
        raise AssertionError("a write ran view")

    monkeypatch.setattr(Field, "view", refuse)
    monkeypatch.setattr(Field, "_view", refuse)
    optic = field_lens("a", "b", "c")
    doc = parse_json('{"a": {"b": {"c": "x", "d": 1}, "e": 2}}')
    assert serialize(set_value(optic, doc, NEW)) == \
        '{"a": {"b": {"c": "new", "d": 1}, "e": 2}}'
    assert serialize(over(optic, lambda t: VText(t.value.upper()), doc)) == \
        '{"a": {"b": {"c": "X", "d": 1}, "e": 2}}'


def test_a_run_before_an_algebraic_lens_refuses_to_classify():
    optic = resolve_expr(parse_expr('field("a").field("b").measure'), NAMES)
    # the join is a lens, which refuses to classify, fused or not
    training = [VRec((("a", VRec((("c", FLOWER),))),)),
                VRec((("c", VRec((("b", FLOWER),))),))]
    try:
        classify(optic, training, MEASUREMENTS)
    except KindError as exc:
        assert str(exc) == "cannot classify through a lens"
    else:
        raise AssertionError("no KindError")


def test_a_run_before_a_traversal_fails_where_its_chain_fails():
    optic = resolve_expr(parse_expr('field("a").field("b").each'), NAMES)
    assert [part.kind for part in optic.parts] == [K.LENS, K.TRAVERSAL]
    for text, message in (('{"b": []}', "record has no key 'a'"),
                          ('{"a": 1}', "expected a record with key 'b'"),
                          ('{"a": {"a": []}}', "record has no key 'b'"),
                          ('{"a": {"b": 1}}', "expected a list")):
        doc = parse_json(text)
        assert failure(lambda: to_list_of(optic, doc)) == message
        assert failure(lambda: over(optic, lambda x: x, doc)) == message


# ---------------------------------------------------------------------------
# Depth: one lens of 10,000 keys reads and rebuilds in loops.


def test_ten_thousand_fields_are_one_lens_that_runs_at_any_depth():
    depth = 10_000
    optic = resolve_expr(parse_expr(".".join(['field("k")'] * depth)), NAMES)
    assert optic.kind is K.LENS and not isinstance(optic, _Chain)
    doc = VText("leaf")
    for level in reversed(range(depth)):
        doc = VRec((("n", VNum(level)), ("k", doc)))

    def walked(whole):
        # ``==`` on documents recurses, so each level is checked going down
        for level in range(depth):
            (n, number), (k, whole) = whole.fields
            assert (n, k, number) == ("n", "k", VNum(level))
        return whole

    assert view(optic, doc) == VText("leaf")
    assert preview(optic, doc) == VText("leaf")
    assert to_list_of(optic, doc) == [VText("leaf")]
    assert walked(set_value(optic, doc, NEW)) == NEW
    assert walked(over(optic, lambda leaf: VText(leaf.value.upper()), doc)) \
        == VText("LEAF")
    assert walked(doc) == VText("leaf")  # the input is left as it was


# ---------------------------------------------------------------------------
# ``compose`` fuses paths, however its operands are bracketed.

OPERANDS = {
    **{f'field("{k}")': field_lens(k) for k in KEYS},
    'field("a").field("b")': field_lens("a", "b"),
    "each": each_traversal(),
    'variant("t")': variant_prism("t"),
    'variant("t").variant("u").variant("t")': compose(
        variant_prism("t"), variant_prism("u"), variant_prism("t")),
}


@st.composite
def bracketed(draw):
    """The expression some operands spell, and the operands composed in a
    drawn bracketing."""
    names = draw(st.lists(st.sampled_from(sorted(OPERANDS)), min_size=1,
                          max_size=8))
    operands = [OPERANDS[name] for name in names]
    while len(operands) > 1:
        i = draw(st.integers(0, len(operands) - 2))
        operands[i:i + 2] = [compose(operands[i], operands[i + 1])]
    return ".".join(names), operands[0]


def fused(segments):
    """The parts of the chain of ``segments``: each run of fields one path,
    each other segment as it resolves."""
    parts, keys = [], None
    for seg in segments:
        if seg.name != "field":
            keys = None
            parts.append(resolve_segment(seg, NAMES))
        elif keys is None:
            keys = [seg.argument]
            parts.append(keys)
        else:
            keys.append(seg.argument)
    return [field_lens(*p) if type(p) is list else p for p in parts]


@settings(max_examples=300, deadline=None)
@given(bracketed(), st.data())
def test_compose_fuses_paths_however_bracketed(case, data):
    text, nested = case
    segments = parse_expr(text)
    flat = compose(*[resolve_segment(seg, NAMES) for seg in segments])
    assert nested == flat and type(nested) is type(flat)
    parts = flat.parts if isinstance(flat, _Chain) else (flat,)
    assert list(parts) == fused(segments)

    reference = chained(segments, NAMES)
    doc = data.draw(along(text.split(".")))
    for name, run in COMBINATORS.items():
        got = caught(lambda o: shown(run(o, doc, doc, [doc])), nested)
        want = caught(lambda o: shown(run(o, doc, doc, [doc])), reference)
        assert got == want, name


def test_forty_thousand_paths_fuse_into_one_in_linear_time():
    depth = 40_000
    start = time.perf_counter()
    optic = compose(*[field_lens("k")] * depth)
    # fused by one concatenation per operand, the build takes seconds
    assert time.perf_counter() - start < 1.0
    assert type(optic) is Field and optic[0] == ("k",) * depth
    doc = VText("leaf")
    for _ in range(depth):
        doc = VRec((("k", doc),))
    assert view(optic, doc) == VText("leaf")
    out = set_value(optic, doc, NEW)
    for _ in range(depth):  # walked down: a nested == would recurse
        ((key, out),) = out.fields
    assert out == NEW


def test_a_path_is_coerced_one_key_at_a_time_only_into_a_fold():
    a, fold, path = field_lens("a"), KINDS["fold"], field_lens("a", "b", "c")
    # a one-key path is coerced as itself, not rebuilt
    part = compose(fold, a).parts[1]
    assert type(part) is Fold and part.foci.__self__ is a
    with pytest.warns(UserWarning, match="compose only as a setter"):
        part = compose(KINDS["kal"], a).parts[1]
    assert type(part) is Setter and part.over.__self__ is a
    # into a fold, a longer path is one coerced segment per key
    parts = compose(fold, path).parts[1:]
    assert [part.foci.__self__ for part in parts] == [
        field_lens("a"), field_lens("b"), field_lens("c")]
    # into a setter, glass or getter, it is one segment
    with pytest.warns(UserWarning, match="compose only as a setter"):
        (_, part) = compose(KINDS["kal"], path).parts
    assert type(part) is Setter and part.over.__self__ is path
    (_, part) = compose(KINDS["getter"], path).parts
    assert type(part) is Getter and part.get.__self__ is path
    (_, part) = compose(KINDS["glass"], path).parts
    assert type(part) is Glass


def test_adjacent_paths_fuse_before_they_are_coerced():
    """Into a setter, getter or glass, a run of path operands fuses into one
    path, coerced once; a segment between two runs closes the first. Into
    a fold, each key stays one segment."""
    c = field_lens("c")
    kal, getter = KINDS["kal"], KINDS["getter"]
    with pytest.warns(UserWarning, match="compose only as a setter"):
        parts = compose(kal, A, B, kal, c).parts
    assert [type(part) for part in parts] == [Setter] * 4
    assert parts[1].over.__self__ == field_lens("a", "b")
    assert parts[3].over.__self__ is c
    parts = compose(getter, A, B, getter, c).parts
    assert [type(part) for part in parts] == [Getter] * 4
    assert parts[1].get.__self__ == field_lens("a", "b")
    assert parts[3].get.__self__ is c
    parts = compose(KINDS["glass"], A, B, c).parts
    assert [type(part) for part in parts] == [Glass] * 2
    parts = compose(KINDS["fold"], A, B).parts[1:]
    assert [part.foci.__self__ for part in parts] == [A, B]


def test_a_fold_reads_a_path_level_by_level():
    # a fold chain reads every whole at one level before the next, so the
    # second whole's miss at ``a`` surfaces before the first's at ``b``;
    # a path coerced whole would read the first whole down to ``b`` first
    doc = parse_json('[{"a": {"c": 1}}, {"b": 2}]')
    with pytest.raises(FocusError, match="record has no key 'a'"):
        to_list_of(compose(KINDS["fold"], field_lens("a", "b")), doc)
    with pytest.raises(FocusError, match="record has no key 'a'"):
        to_list_of(compose(KINDS["fold"], A, B), doc)


def test_a_deep_path_after_a_setter_or_glass_is_one_segment():
    depth = 5_000
    path = field_lens(*["a"] * depth)
    doc = VText("leaf")
    for _ in range(depth):
        doc = VRec((("a", doc),))

    def walked(whole):  # walked down: a nested == would recurse
        for _ in range(depth):
            ((key, whole),) = whole.fields
        return whole

    with pytest.warns(UserWarning, match="compose only as a setter"):
        optic = compose(Kaleidoscope(aggregate=lambda f: f), path)
    assert len(optic.parts) == 2
    out = over(optic, lambda t: VText(t.value.upper()), doc)
    assert walked(out) == VText("LEAF")
    optic = compose(Glass(run=lambda k, s: k(lambda whole: whole)), path)
    assert len(optic.parts) == 2
    out = grate_apply(optic, lambda focus_of: VText(focus_of(doc).value * 2),
                      doc)
    assert walked(out) == VText("leafleaf")
