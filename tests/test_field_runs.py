"""A run of ``field`` segments resolves to one lens, and nothing shows it.

``resolve_expr`` resolves each run of ``field("k")`` segments before the
expression's first segment of another kind than lens, prism or affine
traversal to one ``field_lens`` of the run's keys. The reference is the
chain of one optic per segment,
``compose(*[resolve_segment(s, names) for s in segments])``. Expressions
and documents are drawn from one pool of names and keys, the registry's
and one optic of each kind it lacks, and each document
is built along its expression with some level replaced by another value:
a missing key, a record where a text is read, a wrong tag. So foci fail at
different levels, and every combinator gives the same serialized value
through both, or the same error class and message.
"""

import warnings

from hypothesis import example, given, settings, strategies as st

from mixoptic import (
    AchromaticLens, Adapter, AlgebraicLens, Fold, Getter, Glass, Grate,
    Kaleidoscope, Lens, MonadicLens, Setter, Traversal, aggregate, classify,
    compose, grate_apply, over, parse_json, preview, serialize, set_value,
    to_list_of, view,
)
from mixoptic.effects import Writer
from mixoptic.errors import FocusError, KindError
from mixoptic.expr import parse_expr, resolve_expr, resolve_segment
from mixoptic.fixtures import mean, registry
from mixoptic.values import VList, VNum, VRec, VTag, VText, field_lens

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
        return VTag("t", draw(along(rest)))
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


def chained(segments, names):
    """The reference: one optic per segment, composed in one call."""
    return compose(*[resolve_segment(seg, names) for seg in segments])


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
@example(('field("a").field("b").measure',
          VRec((("a", VRec((("b", FLOWER),))),)), FLOWER,
          [VRec((("a", VRec((("c", FLOWER),))),)),
           VRec((("c", VRec((("b", FLOWER),))),))]))
@example(('field("a").field("b").variant("t").field("c").each.field("a")'
          '.field("b")',
          parse_json('{"a": {"b": {"@t": {"c": [{"a": {"b": 1}}, {"a": 2}]}}}}'),
          VRec(()), [VRec(())]))
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
    assert [type(part) for part in optic.parts] == [Lens, Traversal]
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
    assert type(optic) is Lens
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
