"""``compose(*optics)`` is the left fold of two-operand composition.

``step`` is two-operand composition as it was before ``compose`` took any
number of operands, kept here as the reference: join the two kinds, warn on
a setter fallback, thread a monadic lens by hand, and otherwise put both
operands' segments into one chain of the joined kind. Both sides are
compared by kind, class, the nested shape of ``parts``, the exception they
raise and the number of warnings.
"""

import itertools
import warnings
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from mixoptic import Fallback, INCOMPATIBLE, OpticKind, compose, join_kind
from mixoptic.composition import (
    _CHAINS, _Chain, _compose_monadic, _segments,
)
from mixoptic.errors import CompositionError, OpticError
from mixoptic.expr import parse_expr, resolve_expr
from mixoptic.fixtures import registry

from conftest import zoo

K = OpticKind
ENTRIES = zoo()


def step(o1, o2):
    kind = join_kind(o1.kind, o2.kind)
    if kind is INCOMPATIBLE:
        raise CompositionError(o1.kind, o2.kind)
    if isinstance(kind, Fallback):
        warnings.warn(
            f"{o1.kind.value} and {o2.kind.value} compose only as a setter")
        kind = K.SETTER
    if kind is K.MONADIC_LENS:
        return _compose_monadic(o1, o2)
    return _CHAINS[kind](_segments(o1, kind) + _segments(o2, kind))


def shape(optic, operands):
    """An operand by its position; a chain by its class, kind and parts;
    any other optic, such as a coerced segment, by its class and kind."""
    for i, operand in enumerate(operands):
        if optic is operand:
            return i
    if isinstance(optic, _Chain):
        return ("chain", type(optic).__name__, optic.kind,
                tuple(shape(p, operands) for p in optic.parts))
    return (type(optic).__name__, optic.kind)


def outcome(build, operands):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = shape(build(operands), operands)
        except OpticError as exc:
            got = (type(exc), str(exc))
    return got, sum(issubclass(w.category, UserWarning) for w in caught)


def variadic(operands):
    return compose(*operands)


def folded(operands):
    return reduce(step, operands)


def test_every_triple_matches_the_left_fold():
    kinds = list(K)
    for triple in itertools.product(kinds, repeat=3):
        operands = [ENTRIES[k].optic for k in triple]
        assert outcome(variadic, operands) == outcome(folded, operands), \
            triple


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(list(K)), min_size=2, max_size=8))
def test_chains_of_zoo_optics_match_the_left_fold(kinds):
    operands = [ENTRIES[k].optic for k in kinds]
    assert outcome(variadic, operands) == outcome(folded, operands)


def test_a_single_operand_is_returned_as_is():
    for entry in ENTRIES.values():
        assert compose(entry.optic) is entry.optic


@pytest.mark.parametrize("depth", [1000, 10000])
def test_resolving_builds_one_chain_per_kind(depth, monkeypatch):
    names = registry()  # built before counting: it composes its own optics
    built = []
    init = _Chain.__init__

    def counting(self, parts):
        built.append(self.kind)
        init(self, parts)

    monkeypatch.setattr(_Chain, "__init__", counting)
    fields = ['field("k")'] * (depth // 2)

    optic = resolve_expr(parse_expr(".".join(fields * 2)), names)
    assert built == [K.LENS]
    assert len(optic.parts) == depth

    # a variant half-way changes the kind once: the lens chain becomes one
    # segment of the affine chain
    built.clear()
    text = ".".join(fields + ['variant("t")'] + fields)
    optic = resolve_expr(parse_expr(text), names)
    assert built == [K.LENS, K.AFFINE_TRAVERSAL]
    assert len(optic.parts) == 2 + depth // 2
