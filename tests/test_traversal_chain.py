"""Traversal and affine chains run their single-focus segments as they are.

A traversal chain keeps each lens, prism and affine-traversal segment of
that kind, and its ``extract`` walks down once, keeping one flat list per
level; an affine chain keeps the same segments and reads its ``access``
off that walk. An affine or traversal chain that enters a traversal chain,
however the operands are bracketed, brings its parts in. The reference for
a chain is the same parts each coerced to a traversal, the form every
segment had before, and for an affine chain also the transformer oracle.
The zoo below has one optic per kind that a traversal chain holds, all
over one nested document shape, so that any chain of them applies to a
document built for it.
"""

from functools import reduce

import pytest
from hypothesis import assume, given, settings, strategies as st

from mixoptic import (
    AchromaticLens, Adapter, AffineTraversal, Focus, Lens, Miss, OpticKind,
    Prism, VNum, compose, each_traversal, ex2prof, field_lens, over,
    parse_json, preview, prof2ex, serialize, set_value, to_list_of, upcast,
    variant_prism,
)
from mixoptic.composition import _CHAINS, _Chain, _coerce
from mixoptic.errors import LengthError
from mixoptic.expr import parse_expr, resolve_expr
from mixoptic.fixtures import registry

from conftest import key_lens, tag_prism
from typed_examples import each

K = OpticKind


def box_adapter():
    return Adapter(forward=lambda s: s["box"], backward=lambda b: {"box": b})


def key_achromatic():
    base = key_lens("k")
    return AchromaticLens(view=base.view, update=base.update,
                          create=lambda b: {"k": b, "n": -1})


def opt_affine():
    def access(s):
        if "opt" not in s:
            return Miss(s)
        return Focus((s["opt"], lambda b: {**s, "opt": b}))

    return AffineTraversal(access=access)


def keyed(inner):
    return st.builds(lambda d, n: {"k": d, "n": n}, inner, st.integers(0, 9))


# kind -> (its optic, the documents it applies to, given its focus's)
ZOO = {
    K.ADAPTER: (box_adapter(), lambda inner: st.builds(
        lambda d: {"box": d}, inner)),
    K.LENS: (key_lens("k"), keyed),
    K.ACHROMATIC_LENS: (key_achromatic(), keyed),
    K.PRISM: (tag_prism("hit"), lambda inner: st.tuples(
        st.sampled_from(["hit", "miss"]), inner)),
    K.AFFINE_TRAVERSAL: (opt_affine(), lambda inner: st.one_of(
        st.builds(lambda d: {"opt": d}, inner),
        st.builds(lambda n: {"n": n}, st.integers(0, 9)))),
    K.TRAVERSAL: (each(), lambda inner: st.lists(inner, max_size=2)),
}

# the segment kind each operand keeps in a traversal chain
NATIVE = {K.ADAPTER: K.LENS, K.LENS: K.LENS, K.ACHROMATIC_LENS: K.LENS,
          K.PRISM: K.PRISM, K.AFFINE_TRAVERSAL: K.AFFINE_TRAVERSAL,
          K.TRAVERSAL: K.TRAVERSAL}


@st.composite
def chains(draw):
    """2 to 8 zoo kinds and a document for them: one kind a traversal, or,
    for an affine chain, no kind a traversal and one a prism or an affine
    traversal."""
    if draw(st.booleans()):
        pool, must = list(ZOO), [K.TRAVERSAL]
    else:
        pool = [k for k in ZOO if k is not K.TRAVERSAL]
        must = [K.PRISM, K.AFFINE_TRAVERSAL]
    kinds = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7))
    kinds.insert(draw(st.integers(0, len(kinds))),
                 draw(st.sampled_from(must)))
    assume(not set(kinds) <= {K.PRISM, K.ADAPTER})  # those join to a prism
    docs = st.integers(0, 99)
    for kind in reversed(kinds):
        docs = ZOO[kind][1](docs)
    return kinds, draw(docs)


def recording(calls):
    def f(n):
        calls.append(n)
        return n * 2 + 1

    return f


def length_error(rebuild, n):
    with pytest.raises(LengthError) as caught:
        rebuild([0] * n)
    return str(caught.value)


def agrees_with_the_oracle(native, kinds, doc):
    """``preview``, ``set``, ``over`` and the ``Miss`` whole of an affine
    chain are the transformer oracle's."""
    oracle = prof2ex(reduce(lambda p, q: p.then(q),
                            [ex2prof(ZOO[k][0]) for k in kinds]),
                     K.AFFINE_TRAVERSAL)
    assert preview(native, doc) == preview(oracle, doc)
    assert set_value(native, doc, -1) == set_value(oracle, doc, -1)
    got, want = [], []
    assert over(native, recording(got), doc) == \
        over(oracle, recording(want), doc)
    assert got == want
    found, reference = native.access(doc), oracle.access(doc)
    assert type(found) is type(reference)
    if isinstance(found, Miss):
        assert found.value == reference.value


@settings(max_examples=400, deadline=None)
@given(chains())
def test_native_segments_match_the_all_traversal_chain(chain):
    kinds, doc = chain
    native = compose(*(ZOO[k][0] for k in kinds))
    assert native.kind is (K.TRAVERSAL if K.TRAVERSAL in kinds
                           else K.AFFINE_TRAVERSAL)
    reference = _CHAINS[K.TRAVERSAL](
        tuple(_coerce(p, K.TRAVERSAL) for p in native.parts))
    if len(native.parts) == len(kinds):  # no lower-kind run before it
        # a leading run of adapters and prisms is a prism chain, which
        # splices in as prisms
        lead = next((i for i, k in enumerate(kinds)
                     if k not in (K.ADAPTER, K.PRISM)), len(kinds))
        prisms = K.PRISM in kinds[:lead]
        assert [p.kind for p in native.parts] == [
            K.PRISM if prisms and i < lead else NATIVE[k]
            for i, k in enumerate(kinds)]

    found = to_list_of(native, doc)
    assert found == to_list_of(reference, doc)
    got, want = [], []
    assert over(native, recording(got), doc) == \
        over(reference, recording(want), doc)
    assert got == want == found
    if native.kind is K.AFFINE_TRAVERSAL:
        agrees_with_the_oracle(native, kinds, doc)
        return

    _, rebuild = native.extract(doc)
    _, reference_rebuild = reference.extract(doc)
    for wrong in [len(found) + 1] + ([len(found) - 1] if found else []):
        assert length_error(rebuild, wrong) == \
            length_error(reference_rebuild, wrong)


def test_prism_misses_keep_their_wholes():
    optic = compose(each(), tag_prism("hit"), key_lens("k"))
    doc = [("hit", {"k": 1}), ("miss", {"k": 2}), ("hit", {"k": 3})]
    assert to_list_of(optic, doc) == [1, 3]
    assert over(optic, lambda n: -n, doc) == \
        [("hit", {"k": -1}), ("miss", {"k": 2}), ("hit", {"k": -3})]


def test_reads_never_build_the_write_path():
    def refuse(*_):
        raise AssertionError("a read ran the write path")

    lens = Lens(view=field_lens("a").view, update=refuse)
    prism = Prism(match=variant_prism("t").match, build=refuse)
    doc = parse_json('[{"a": {"@t": 1}}, {"a": {"@u": 2}}, {"a": {"@t": 3}}]')
    assert to_list_of(compose(each_traversal(), lens, prism), doc) == \
        [VNum(1.0), VNum(3.0)]


def counting(calls, optic, name):
    """A ``Lens`` or ``Prism`` with the functions of ``optic``, a lens or
    prism, and a call of its ``name`` function noted in ``calls``."""
    cls = Lens if optic.kind is K.LENS else Prism
    fields = {field: getattr(optic, field) for field in cls._fields}
    run = fields[name]

    def counted(*args):
        calls.append(name)
        return run(*args)

    return cls(**{**fields, name: counted})


def test_a_missing_preview_rebuilds_nothing():
    calls = []
    prisms = compose(*(counting(calls, variant_prism(t), "build")
                       for t in "abc"))
    assert prisms.kind is K.PRISM
    assert preview(prisms, parse_json('{"@a": {"@b": {"@u": 1}}}')) is None
    assert to_list_of(prisms, parse_json('{"@a": {"@u": 1}}')) == []
    lenses = [counting(calls, field_lens("k"), "update") for _ in range(8)]
    affine = compose(*lenses, variant_prism("t"))
    assert affine.kind is K.AFFINE_TRAVERSAL
    doc = parse_json('{"k": ' * 8 + '{"@u": 1}' + "}" * 8)
    assert preview(affine, doc) is None
    assert to_list_of(affine, doc) == []
    hit = parse_json('{"k": ' * 8 + '{"@t": 1}' + "}" * 8)
    assert preview(affine, hit) == VNum(1.0)
    assert calls == []
    # the write path still rebuilds the whole above the miss
    assert set_value(affine, doc, VNum(0.0)) == doc
    assert calls == ["update"] * 8


def test_a_prism_chain_in_a_traversal_reads_without_building():
    calls = []
    prisms = compose(*(counting(calls, variant_prism(t), "build")
                       for t in "ab"))
    optic = compose(each_traversal(), prisms)
    assert not any(isinstance(p, _Chain) for p in optic.parts)
    doc = parse_json('[{"@a": {"@b": 1}}, {"@a": {"@u": 2}}, {"@u": 3}]')
    assert to_list_of(optic, doc) == [VNum(1.0)]
    assert calls == []
    assert serialize(set_value(optic, doc, VNum(5.0))) == \
        '[{"@a": {"@b": 5}}, {"@a": {"@u": 2}}, {"@u": 3}]'


def test_single_focus_segments_stay_native():
    names = registry()
    city = resolve_expr(parse_expr('each.field("address").city'), names)
    assert [p.kind for p in city.parts] == [K.TRAVERSAL, K.LENS, K.LENS]
    street = resolve_expr(parse_expr('each.field("postal").address.street'),
                          names)
    assert [p.kind for p in street.parts] == \
        [K.TRAVERSAL, K.LENS, K.PRISM, K.LENS]
    # a chain of three prisms splices in as three prism segments
    names["tags"] = compose(*(variant_prism(t) for t in "abc"))
    tagged = resolve_expr(parse_expr('each.field("postal").tags.street'),
                          names)
    assert [p.kind for p in tagged.parts] == \
        [K.TRAVERSAL, K.LENS, K.PRISM, K.PRISM, K.PRISM, K.LENS]
    assert not any(isinstance(p, _Chain) for p in tagged.parts[2:])
    doc = parse_json('[{"postal": {"@a": {"@b": {"@c": {"street": "x"}}}}},'
                     ' {"postal": {"@a": {"@u": 1}}}]')
    assert to_list_of(tagged, doc) == [parse_json('"x"')]


@settings(max_examples=200, deadline=None)
@given(chains(), st.data())
def test_walk_chains_splice_however_bracketed(chain, data):
    kinds, doc = chain
    operands = [ZOO[k][0] for k in kinds]
    while len(operands) > 1:
        i = data.draw(st.integers(0, len(operands) - 2))
        operands[i:i + 2] = [compose(operands[i], operands[i + 1])]
    nested, flat = operands[0], compose(*(ZOO[k][0] for k in kinds))
    assert nested.kind is flat.kind
    assert not any(isinstance(p, _Chain) and p.kind in
                   (K.AFFINE_TRAVERSAL, K.TRAVERSAL) for p in nested.parts)
    assert to_list_of(nested, doc) == to_list_of(flat, doc)
    assert over(nested, lambda n: n * 2 + 1, doc) == \
        over(flat, lambda n: n * 2 + 1, doc)


def test_an_upcast_lens_is_the_traversal_chain_of_itself():
    lens = field_lens("a")
    (part,) = upcast(lens, K.TRAVERSAL).parts
    assert part is lens
