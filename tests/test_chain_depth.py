"""Deep chains: a composite runs as one loop over its segments.

The lens, affine and traversal shapes are those of the benchmark's
``chains`` workload: fields only, fields then variants, and fields,
variants and three ``each`` (eight foci); the prism shape is variants
only. Up to depth 400 every action agrees with the transformer oracle,
which nests one closure per segment; deeper, where the oracle overflows
the stack, the lens laws are checked directly, on the lens and the
affine shape.
"""

import warnings
from functools import reduce
from itertools import groupby
from operator import itemgetter

import pytest

from mixoptic import (
    AchromaticLens, Adapter, AffineTraversal, AlgebraicLens, Fallback, Focus,
    INCOMPATIBLE, Lens, Miss, MonadicLens, OpticKind, Writer, compose,
    ex2prof, join_kind, over, parse_json, prof2ex, preview, set_value,
    to_list_of, upcast, view,
)
from mixoptic.errors import CompositionError
from mixoptic.values import (
    VList, VNum, VRec, VTag, VText, each_traversal, field_lens, variant_prism,
)

from conftest import zoo

K = OpticKind

SHAPES = ("lens", "affine", "traversal")
KINDS = {"lens": K.LENS, "affine": K.AFFINE_TRAVERSAL,
         "traversal": K.TRAVERSAL, "prism": K.PRISM}


def segments(depth, shape):
    """Segment kinds; variants and ``each`` sit in the second half."""
    half = depth // 2
    kinds = ["variant" if shape == "prism" else "field"] * depth
    if shape in ("affine", "traversal"):
        for i in range(half, depth, 4):
            kinds[i] = "variant"
    if shape == "traversal":
        for i in {half, (half + depth) // 2, depth - 1}:
            kinds[i] = "each"
    return kinds


def leaves(kinds):
    make = {"field": field_lens, "variant": variant_prism}
    return [each_traversal() if k == "each" else make[k](f"{k[0]}{i % 7}")
            for i, k in enumerate(kinds)]


def document(kinds, miss_at=None):
    """A document on which every segment finds its focus, except a variant
    at ``miss_at``, whose tag differs. Built from the innermost level out,
    with a distinct leaf per focus."""
    docs = [VText(f"leaf{j}") for j in range(2 ** kinds.count("each"))]
    for i in reversed(range(len(kinds))):
        kind, name = kinds[i], f"{kinds[i][0]}{i % 7}"
        if kind == "each":
            docs = [VList(pair) for pair in zip(docs[::2], docs[1::2])]
        elif kind == "variant":
            tag = name if i != miss_at else "other"
            docs = [VTag(tag, doc) for doc in docs]
        else:
            docs = [VRec(((name, doc), ("n", VNum(i)))) for doc in docs]
    return docs[0]


def oracle(optics, kind):
    return prof2ex(reduce(lambda p, q: p.then(q),
                          [ex2prof(o) for o in optics]), kind)


def tokens(doc):
    """The document in pre-order, walked without recursion: documents too
    deep for ``==`` compare equal exactly when their tokens do."""
    out, stack = [], [doc]
    while stack:
        v = stack.pop()
        if isinstance(v, VRec):
            out.append(("rec",) + tuple(k for k, _ in v.fields))
            stack.extend(reversed([x for _, x in v.fields]))
        elif isinstance(v, VList):
            out.append(("list", len(v.items)))
            stack.extend(reversed(v.items))
        elif isinstance(v, VTag):
            out.append(("tag", v.tag))
            stack.append(v.payload)
        else:
            out.append(v)
    return out


def shout(v):
    return VText(v.value.upper()) if isinstance(v, VText) else v


def observe(optic, kind, doc):
    if kind is K.TRAVERSAL:
        got = [tuple(to_list_of(optic, doc))]
    else:
        read = view if kind is K.LENS else preview
        got = [read(optic, doc), tokens(set_value(optic, doc, VText("new")))]
    return got + [tokens(over(optic, shout, doc))]


@pytest.mark.parametrize("depth", [1, 2, 64, 400])
@pytest.mark.parametrize("shape", SHAPES + ("prism",))
def test_deep_chain_matches_transformer_oracle(shape, depth):
    kinds = segments(depth, shape)
    optics = leaves(kinds)
    composite = reduce(compose, optics)
    if depth > 1:
        assert composite.kind is KINDS[shape]
    reference = oracle(optics, composite.kind)
    docs = [document(kinds)]
    if "variant" in kinds:
        docs.append(document(kinds, miss_at=max(
            i for i, k in enumerate(kinds) if k == "variant")))
    for doc in docs:
        assert observe(composite, composite.kind, doc) == \
            observe(reference, composite.kind, doc)
    if shape == "traversal" and depth > 2:
        assert len(to_list_of(composite, docs[0])) == 8


@pytest.mark.parametrize("depth", [1024, 5000])
@pytest.mark.parametrize("shape", ["lens", "affine"])
def test_lens_laws_hold_at_depth(shape, depth):
    kinds = segments(depth, shape)
    optics = leaves(kinds)
    optic = reduce(compose, optics)
    read = view if shape == "lens" else preview
    doc = document(kinds)
    new, newer = VText("new"), VText("newer")

    once = set_value(optic, doc, new)
    assert read(optic, once) == new  # put then get
    assert tokens(set_value(optic, doc, read(optic, doc))) == tokens(doc)
    assert tokens(set_value(optic, once, newer)) == \
        tokens(set_value(optic, doc, newer))  # put twice
    before, after = tokens(doc), tokens(once)
    assert len(before) == len(after)
    assert [b for a, b in zip(before, after) if a != b] == [new]  # only it

    if shape == "affine":
        # each run of fields is one path, and every variant is a part as it
        # is, with no wrapper
        runs = [[optic for _, optic in run] for _, run in
                groupby(zip(kinds, optics), itemgetter(0))]
        want = [field_lens(*(f[0][0] for f in run)) if run[0].kind is K.LENS
                else run[0] for run in runs]
        assert list(optic.parts) == want
        assert all(part is operand for part, operand in
                   zip(optic.parts, want) if part.kind is K.PRISM)
        missed = document(kinds, miss_at=max(
            i for i, k in enumerate(kinds) if k == "variant"))
        assert read(optic, missed) is None
        assert tokens(set_value(optic, missed, new)) == tokens(missed)


def _put(s, b):
    return {**s, "k": b}


# each lens-like kind's optic onto the key "k", given the view it runs
KEY_OPTICS = {
    Lens: lambda view: Lens(view, _put),
    AchromaticLens: lambda view: AchromaticLens(view, _put,
                                                lambda b: {"k": b}),
    AlgebraicLens: lambda view: AlgebraicLens(
        view, lambda ss, b: _put(ss[0], b)),
    MonadicLens: lambda view: MonadicLens(
        view, lambda s, b: Writer.tell(_put(s, b), "k"), Writer.pure),
}


@pytest.mark.parametrize("depth", [64, 1000])
@pytest.mark.parametrize("cls", list(KEY_OPTICS))
def test_a_write_views_each_part_once(cls, depth):
    wholes = []

    def view_k(s):
        wholes.append(s)
        return s["k"]

    optic = reduce(compose, [KEY_OPTICS[cls](view_k)] * depth)
    assert optic.kind is cls.kind and len(optic.parts) == depth
    doc = 0
    for _ in range(depth):
        doc = {"k": doc}
    for write, leaf in ((lambda: over(optic, lambda x: x + 1, doc), 1),
                        (lambda: set_value(optic, doc, 7), 7)):
        wholes.clear()
        out = write()
        assert len(wholes) == depth
        for _ in range(depth):
            out = out["k"]
        assert out == leaf


def agree(affine, walk, doc):
    """What the affine chain's one-focus walk and the traversal walk read
    and write on ``doc`` agree; return what the affine chain reads."""
    found = preview(affine, doc)
    assert ([] if found is None else [found]) == to_list_of(walk, doc)
    for write in (lambda o: set_value(o, doc, VText("new")),
                  lambda o: over(o, shout, doc)):
        assert tokens(write(affine)) == tokens(write(walk))
    return found


@pytest.mark.parametrize("depth", [8, 1000])
def test_an_affine_chain_agrees_with_its_parts_as_a_traversal(depth):
    kinds = segments(depth, "affine")
    optic = compose(*leaves(kinds))
    walk = upcast(optic, K.TRAVERSAL)
    assert optic.kind is K.AFFINE_TRAVERSAL and walk.parts == optic.parts
    # a hit, and a miss at each level that can miss: every variant
    variants = [i for i, k in enumerate(kinds) if k == "variant"]
    for miss_at in [None, *variants]:
        found = agree(optic, walk, document(kinds, miss_at))
        assert found == (None if miss_at is not None else VText("leaf0"))


def test_an_affine_part_rebuilds_as_in_the_traversal_walk():
    def head(s):
        if isinstance(s, VList) and s.items:
            rest = s.items[1:]
            return Focus((s.items[0], lambda b: VList((b, *rest))))
        return Miss(s)

    optic = compose(field_lens("a"), AffineTraversal(head),
                    variant_prism("t"), field_lens("b"))
    walk = upcast(optic, K.TRAVERSAL)
    assert [p.kind for p in optic.parts] == [
        K.LENS, K.AFFINE_TRAVERSAL, K.PRISM, K.LENS]
    for text, found in [('{"a": [{"@t": {"b": "x"}}, 1]}', VText("x")),
                        ('{"a": [{"@u": {"b": "x"}}, 1]}', None),
                        ('{"a": []}', None)]:
        assert agree(optic, walk, parse_json(text)) == found


@pytest.mark.parametrize("shape", SHAPES)
def test_bracketing_does_not_change_the_chain(shape):
    kinds = segments(64, shape)
    optics = leaves(kinds)
    left = reduce(compose, optics)
    right = reduce(lambda inner, outer: compose(outer, inner), reversed(optics))
    middle = compose(reduce(compose, optics[:40]), reduce(compose, optics[40:]))
    doc = document(kinds)
    want = observe(left, left.kind, doc)
    for other in (right, middle):
        assert other.kind is left.kind
        assert observe(other, other.kind, doc) == want
    assert left == right == middle  # the same parts, fused the same way
    if shape == "lens":  # every bracketing fuses the fields into one path
        assert left == field_lens(*(optic[0][0] for optic in optics))


def test_chain_then_leaf_has_the_joined_kind():
    entries = zoo()
    identity = Adapter(forward=lambda s: s, backward=lambda b: b)
    for k1, first in entries.items():
        chain = compose(first.optic, identity)
        assert chain.kind is k1
        for k2, second in entries.items():
            joined = join_kind(k1, k2)
            if joined is INCOMPATIBLE:
                with pytest.raises(CompositionError):
                    compose(chain, second.optic)
            elif isinstance(joined, Fallback):
                with pytest.warns(UserWarning):
                    assert compose(chain, second.optic).kind is K.SETTER
            else:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert compose(chain, second.optic).kind is joined, \
                        (k1, k2)
