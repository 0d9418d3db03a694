"""A walk chain runs each level through its segment's own steps (``_down``,
``_up``, ``_at``), so a segment that is a subclass of its kind's record
class, a lens chain or a ``prof2ex`` normal form, walks as the concrete
record it stands for does, inside a traversal chain and an affine chain."""

import itertools

import pytest

from mixoptic import (
    AffineTraversal, Focus, Lens, Miss, OpticKind, Prism, Traversal, compose,
    ex2prof, over, preview, prof2ex, set_value, to_list_of,
)
from mixoptic import optics
from mixoptic.composition import _NATIVE

K = OpticKind


def key(k):
    return Lens(view=lambda d: d[k], update=lambda d, b: {**d, k: b})


AB = Lens(view=lambda d: d["a"]["b"],
          update=lambda d, b: {**d, "a": {**d["a"], "b": b}})
TAG = Prism(match=lambda s: Focus(s["v"]) if s.get("tag") == "t" else Miss(s),
            build=lambda b: {"tag": "t", "v": b})
X = AffineTraversal(access=lambda s: Focus((s["x"], lambda b: {**s, "x": b}))
                    if "x" in s else Miss(s))
EACH = Traversal(extract=lambda s: (list(s), list))


# name: (the segment, the concrete record it stands for, and the whole it
# reads around an inner whole, with a hit or with a miss; a lens never
# misses)
SEGMENTS = {
    "lens chain": (compose(key("a"), key("b")), AB,
                   lambda inner, hit: {"a": {"b": inner}}),
    "lens form": (prof2ex(ex2prof(AB), K.LENS), AB,
                  lambda inner, hit: {"a": {"b": inner}}),
    "prism form": (prof2ex(ex2prof(TAG), K.PRISM), TAG,
                   lambda inner, hit: {"tag": "t" if hit else "u",
                                       "v": inner}),
    "affine form": (prof2ex(ex2prof(X), K.AFFINE_TRAVERSAL), X,
                    lambda inner, hit: {"x" if hit else "y": inner}),
    "traversal form": (prof2ex(ex2prof(EACH), K.TRAVERSAL), EACH,
                       lambda inner, hit: [inner, inner] if hit else []),
}


def wholes(wrap):
    """The chain ``TAG, segment, X``'s wholes: every pattern of hits and
    misses, so each level misses in some of them."""
    out = []
    for n, (outer, middle, inner) in enumerate(
            itertools.product((True, False), repeat=3)):
        leaf = {"x": n} if inner else {"z": n}
        out.append({"tag": "t" if outer else "u", "v": wrap(leaf, middle)})
    return out


def assert_same_access(got, want, b):
    assert type(got) is type(want)
    if isinstance(want, Miss):
        assert got == want
    else:
        assert got.value[0] == want.value[0]
        assert got.value[1](b) == want.value[1](b)


@pytest.mark.parametrize("name", list(SEGMENTS))
def test_a_segment_walks_as_its_record_inside_a_traversal_chain(name):
    segment, record, wrap = SEGMENTS[name]
    chain = compose(EACH, TAG, segment, X)
    concrete = compose(EACH, TAG, record, X)
    assert [type(p) for p in chain.parts] == [
        Traversal, Prism, type(segment), AffineTraversal]
    assert chain.parts[2] is segment
    everything = wholes(wrap)
    for s in [everything, *([w] for w in everything), []]:
        assert to_list_of(chain, s) == to_list_of(concrete, s)
        assert over(chain, lambda n: n + 1, s) == \
            over(concrete, lambda n: n + 1, s)
        assert set_value(chain, s, -1) == set_value(concrete, s, -1)
        foci, rebuild = chain.extract(s)
        want_foci, want_rebuild = concrete.extract(s)
        assert foci == want_foci
        bs = [-n for n in range(len(foci))]
        assert rebuild(bs) == want_rebuild(bs)


@pytest.mark.parametrize("name", [n for n in SEGMENTS if n != "traversal form"])
def test_a_segment_walks_as_its_record_inside_an_affine_chain(name):
    segment, record, wrap = SEGMENTS[name]
    chain = compose(TAG, segment, X)
    concrete = compose(TAG, record, X)
    assert chain.kind is K.AFFINE_TRAVERSAL
    assert chain.parts[1] is segment
    misses = 0
    for s in wholes(wrap):
        misses += preview(concrete, s) is None
        assert preview(chain, s) == preview(concrete, s)
        assert to_list_of(chain, s) == to_list_of(concrete, s)
        assert over(chain, lambda n: n + 1, s) == \
            over(concrete, lambda n: n + 1, s)
        assert set_value(chain, s, -1) == set_value(concrete, s, -1)
        assert_same_access(chain.access(s), concrete.access(s), -1)
    # one pattern of eight hits at every level; a lens hits both ways
    assert misses == (6 if segment.kind is K.LENS else 7)


def test_every_segment_kind_has_the_steps_its_chains_walk():
    records = {cls.kind: cls for cls in vars(optics).values()
               if isinstance(cls, type) and hasattr(cls, "_fields")
               and hasattr(cls, "kind")}
    for kind in _NATIVE[K.TRAVERSAL]:
        assert callable(records[kind]._down) and callable(records[kind]._up)
    for kind in _NATIVE[K.AFFINE_TRAVERSAL]:
        assert callable(records[kind]._at)
    assert callable(records[K.FOLD]._down)
