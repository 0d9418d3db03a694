"""The transformer traversal and its FunList at realistic sizes.

Every size here is well above the default recursion limit, so a FunList
operation that recursed once per focus would fail.
"""

import sys

import pytest

from mixoptic import (
    Aggregating, OpticKind, VList, VNum, VRec, VText, compose,
    each_traversal, ex2prof, field_lens, over, prof2ex, to_list_of,
)
from mixoptic import funlist as fl
from mixoptic.errors import LengthError

K = OpticKind


def records(n):
    return VList(tuple(
        VRec((("v", VText(f"w{i}")), ("w", VNum(float(i))))) for i in range(n)
    ))


def transformer_each_v():
    chain = ex2prof(each_traversal()).then(ex2prof(field_lens("v")))
    return prof2ex(chain, K.TRAVERSAL)


def shout(v):
    return VText(v.value.upper())


@pytest.mark.parametrize("n", [0, 10_000])
def test_transformer_traversal_agrees_with_compose(n):
    assert sys.getrecursionlimit() < 10_000
    doc = records(n)
    oracle = compose(each_traversal(), field_lens("v"))
    path = transformer_each_v()

    assert to_list_of(path, doc) == to_list_of(oracle, doc)
    assert over(path, shout, doc) == over(oracle, shout, doc)

    _, rebuild = path.extract(doc)
    renamed = [VText(f"n{i}") for i in range(n)]
    assert to_list_of(oracle, rebuild(renamed)) == renamed
    with pytest.raises(LengthError):
        rebuild(renamed + [VText("extra")])


def test_aggregating_lift_over_many_lists():
    flists = [fl.of_extract([i, i + 1], lambda bs: bs[0] * bs[1])
              for i in range(0, 2_000, 2)]
    lifted = Aggregating(run=lambda ss, f: f(ss)).lift_funlist()
    foci, rebuild = fl.no_fun(lifted.run(flists, sum))
    assert foci == list(range(2_000))
    assert rebuild(foci) == sum(i * (i + 1) for i in range(0, 2_000, 2))


def test_sequence_of_many_singletons_round_trips():
    n = 10_000
    foci, rebuild = fl.no_fun(fl.sequence([fl.singleton(i) for i in range(n)]))
    assert foci == list(range(n))
    assert rebuild([-i for i in foci]) == [-i for i in foci]
    for wrong in (n - 1, n + 1):
        with pytest.raises(LengthError):
            rebuild([0] * wrong)


def test_replacements_reach_rebuild_in_source_order():
    seen = []

    def recording(tag):
        def rebuild(bs):
            seen.append((tag, list(bs)))
            return tag

        return rebuild

    parts = [fl.of_extract(["a", "b"], recording("first")),
             fl.pure("none"),
             fl.of_extract(["c"], recording("second"))]
    whole = fl.map_sources(str.upper, fl.sequence(parts))
    assert fl.sources(whole) == ["A", "B", "C"]
    assert fl.fuse(whole) == ["first", "none", "second"]
    assert seen == [("first", ["A", "B"]), ("second", ["C"])]


def test_transformer_update_visits_foci_in_order():
    visited = []

    def record(v):
        visited.append(v.value)
        return v

    over(transformer_each_v(), record, records(1_000))
    assert visited == [f"w{i}" for i in range(1_000)]
