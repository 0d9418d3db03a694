"""Monadic lenses compose as flat chains, with each other and with lenses.

A monadic chain keeps its lens segments plain and its monadic ones
effectful. ``mupdate`` views down once, then rebuilds upwards from
``pure``: a lens maps its update over the effect, a monadic lens binds
its own, so the innermost segment's log comes first, as in the
transformer oracle.
"""

import pytest

from mixoptic import (
    MonadicLens, OpticKind, Opt, Writer, compose, ex2prof, mupdate, prof2ex,
    view,
)
from mixoptic.errors import CompositionError

from conftest import key_lens

K = OpticKind


def logging_lens(key):
    """A key lens whose update logs the key it set."""
    return MonadicLens(
        view=lambda d: d[key],
        mupdate=lambda d, b: Writer.tell({**d, key: b}, f"[{key}] set"),
        pure=Writer.pure,
    )


def checked_lens(key):
    """A key lens whose update refuses None."""
    return MonadicLens(
        view=lambda d: d[key],
        mupdate=lambda d, b: Opt.absent() if b is None else Opt.pure(
            {**d, key: b}),
        pure=Opt.pure,
    )


def nested(keys, leaf):
    doc = leaf
    for key in reversed(keys):
        doc = {key: doc, "n": len(key)}
    return doc


def oracle(optics):
    p = ex2prof(optics[0])
    for o in optics[1:]:
        p = p.then(ex2prof(o))
    return prof2ex(p, K.MONADIC_LENS)


def test_logs_come_innermost_first_as_in_the_oracle():
    optics = [logging_lens("a"), key_lens("b"), logging_lens("c"),
              key_lens("d"), logging_lens("e")]
    composed = compose(*optics)
    assert composed.kind is K.MONADIC_LENS
    assert [p.kind for p in composed.parts] == [
        K.MONADIC_LENS, K.LENS, K.MONADIC_LENS, K.LENS, K.MONADIC_LENS]
    doc = nested("abcde", "old")
    got = mupdate(composed, doc, "new")
    assert got == mupdate(oracle(optics), doc, "new")
    assert got == Writer(nested("abcde", "new"),
                         ("[e] set", "[c] set", "[a] set"))
    assert view(composed, doc) == "old"


def test_an_absent_update_absorbs_the_chain():
    optics = [checked_lens("a"), key_lens("b"), checked_lens("c")]
    composed = compose(*optics)
    doc = nested("abc", 1)
    for new in (2, None):
        assert mupdate(composed, doc, new) == mupdate(oracle(optics), doc, new)
    assert mupdate(composed, doc, None) == Opt.absent()
    assert mupdate(composed, doc, 2) == Opt.pure(nested("abc", 2))


def test_nested_monadic_chains_splice():
    outer = compose(logging_lens("a"), key_lens("b"))
    inner = compose(key_lens("c"), logging_lens("d"))
    flat = compose(logging_lens("a"), key_lens("b"), key_lens("c"),
                   logging_lens("d"))
    composed = compose(outer, inner)
    assert len(composed.parts) == 4
    assert composed.pure is Writer.pure
    doc = nested("abcd", "old")
    assert mupdate(composed, doc, "x") == mupdate(flat, doc, "x")


@pytest.mark.parametrize("optics", [
    [logging_lens("a"), checked_lens("b")],
    [checked_lens("a"), key_lens("b"), logging_lens("c")],
    [compose(logging_lens("a"), key_lens("b")), checked_lens("c")],
], ids=["pair", "flat", "nested"])
def test_a_writer_lens_and_an_opt_lens_do_not_compose(optics):
    with pytest.raises(CompositionError):
        compose(*optics)


def test_a_logging_lens_then_thousands_of_fields():
    depth = 5000
    composed = compose(logging_lens("k"), *[key_lens("k")] * depth)
    assert len(composed.parts) == depth + 1
    doc = "leaf"
    for _ in range(depth + 1):
        doc = {"k": doc}
    assert view(composed, doc) == "leaf"
    written = mupdate(composed, doc, "new")
    assert written.log == ("[k] set",)
    whole, levels = written.value, 0
    while isinstance(whole, dict):
        whole, levels = whole["k"], levels + 1
    assert (whole, levels) == ("new", depth + 1)
