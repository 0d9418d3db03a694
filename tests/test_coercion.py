"""A coercion into getter, fold, setter or review is one record.

Each of those kinds is one combinator (``view``, ``to_list_of``, ``over``,
``review``) that every kind reaching it admits, and no coercion path goes
on past them but getter's into fold. So coercing into one of them, along
any path, gives one record whose field is the optic's own runner of that
combinator (``_view``, ``_tolist``, ``_over``, ``_review``), not one
wrapper per step of the path.
"""

import random
import warnings
from functools import partial

import pytest

from mixoptic import (
    Fold, Getter, Kaleidoscope, OpticKind, Review, Setter, compose, over,
    review, to_list_of, upcast, view,
)
from mixoptic.composition import _COERCION_PATHS, _EMBED_PATHS, _coerce
from mixoptic.values import VRec, VText, field_lens

from conftest import zoo

K = OpticKind
ENTRIES = zoo()

# goal -> its record class, its combinator, the combinator's runner, and
# the combinator run on a case
RUNS = {
    K.GETTER: (Getter, view, "_view", lambda run, c: run(c["s"])),
    K.FOLD: (Fold, to_list_of, "_tolist", lambda run, c: run(c["s"])),
    K.SETTER: (Setter, over, "_over",
               lambda run, c: run(c.get("f", lambda _: c.get("b")), c["s"])),
    K.REVIEW: (Review, review, "_review", lambda run, c: run(c["b"])),
}
PAIRS = sorted(((kind, goal) for kind, goal in _COERCION_PATHS
                if goal in RUNS and kind is not goal),
               key=lambda pair: (pair[0].value, pair[1].value))


def zoo_case(kind, r):
    """A zoo case; the kaleidoscope's, which has no whole, reads the first
    of its batch."""
    case = ENTRIES[kind].make_case(r)
    if "s" not in case:
        case["s"] = case["batch"][0]
    return case


@pytest.mark.parametrize("kind,goal", PAIRS,
                         ids=[f"{k.value}-{g.value}" for k, g in PAIRS])
def test_a_coercion_into_a_combinator_kind_is_one_record(kind, goal):
    cls, combinator, runner, run = RUNS[goal]
    optic = ENTRIES[kind].optic
    coerced = [_coerce(optic, goal)]
    if (kind, goal) in _EMBED_PATHS:
        coerced.append(upcast(optic, goal))
    r = random.Random(kind.value + goal.value)
    for got in coerced:
        assert type(got) is cls
        (field,) = got
        # a bound runner equals another only if bound to the same optic
        assert field == getattr(optic, runner)
        for _ in range(20):
            case = zoo_case(kind, r)
            assert run(partial(combinator, got), case) == \
                run(partial(combinator, optic), case)


def test_a_deep_setter_fallback_nests_one_call_per_part():
    """After the fallback, the run of paths fuses into one path before it
    is coerced, so the chain is two parts and runs at any depth."""
    depth = 5000
    lenses = [field_lens("a")] * depth
    with pytest.warns(UserWarning, match="compose only as a setter"):
        optic = compose(Kaleidoscope(aggregate=lambda f: f), *lenses)
    assert len(optic.parts) == 2
    assert all(type(part) is Setter for part in optic.parts)
    assert optic.parts[1].over.__self__ == field_lens(*["a"] * depth)

    doc = VText("leaf")
    for _ in range(depth):
        doc = VRec((("a", doc),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = over(optic, lambda t: VText(t.value.upper()), doc)
    for _ in range(depth):  # walked down: a nested == would recurse
        out = out.get("a")
    assert out == VText("LEAF")
