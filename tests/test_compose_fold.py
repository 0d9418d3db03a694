"""``compose(*optics)`` composes at the join of all its operands' kinds.

``least_upper`` is the reference n-ary join, read off the pairwise
``join_kind`` table: the minimal kinds above every operand, the first in
declaration order, a ``Fallback`` when that is setter and no operand is
one. ``step`` is two-operand composition kept as the reference for the
shape: join the two kinds, warn on a setter fallback, and put both
operands' segments into one chain of the joined kind. Wherever its left
fold succeeds, flat ``compose`` builds the same nested ``parts``; where the
fold fails and the n-ary join exists (achromatic-lens, prism and review in
either order), flat ``compose`` still builds the join. It warns only when
the n-ary join falls back, so not when a setter operand follows a pair that
falls back.
The transformer oracle, ``ProfOptic.then`` nested one operand at a time,
checks what the chains do.
"""

import itertools
import random
import warnings
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from mixoptic import (
    Fallback, INCOMPATIBLE, OpticKind, compose, ex2prof, join_kind, prof2ex,
)
from mixoptic.composition import _CHAINS, _Chain, _segments
from mixoptic.errors import CompositionError, NormalFormError, OpticError
from mixoptic.expr import parse_expr, resolve_expr
from mixoptic.fixtures import registry

from conftest import OBSERVERS, zoo

K = OpticKind
ENTRIES = zoo()


def least_upper(kinds):
    uppers = [u for u in K if all(join_kind(k, u) is u for k in kinds)]
    least = [u for u in uppers
             if not any(v is not u and join_kind(v, u) is u for v in uppers)]
    if not least:
        return INCOMPATIBLE
    if least[0] is K.SETTER and K.SETTER not in kinds:
        return Fallback()
    return least[0]


def step(o1, o2):
    kind = join_kind(o1.kind, o2.kind)
    if kind is INCOMPATIBLE:
        raise CompositionError(o1.kind, o2.kind)
    if isinstance(kind, Fallback):
        warnings.warn(
            f"{o1.kind.value} and {o2.kind.value} compose only as a setter")
        kind = K.SETTER
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
    """The built optic (or the error raised) and the warnings issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = build(operands)
        except OpticError as exc:
            got = exc
    return got, sum(issubclass(w.category, UserWarning) for w in caught)


def check_against_the_joins(operands):
    """Flat ``compose`` has the n-ary join's kind, raises exactly when it
    is INCOMPATIBLE and warns once exactly when it is a fallback; where
    the left fold of ``step`` succeeds it has that fold's shape, and where
    both raise, the fold's message. Returns the composite or None."""
    joined = least_upper([o.kind for o in operands])
    got, warned = outcome(lambda ops: compose(*ops), operands)
    folded, _ = outcome(lambda ops: reduce(step, ops), operands)
    if joined is INCOMPATIBLE:
        assert isinstance(got, CompositionError) and warned == 0
        assert str(got) == str(folded)
        return None
    assert not isinstance(got, OpticError), got
    if isinstance(joined, Fallback):
        assert got.kind is K.SETTER and warned == 1
    else:
        assert got.kind is joined and warned == 0
    if not isinstance(folded, OpticError):
        assert shape(got, operands) == shape(folded, operands)
    return got


def test_every_triple_composes_at_the_n_ary_join():
    for triple in itertools.product(list(K), repeat=3):
        check_against_the_joins([ENTRIES[k].optic for k in triple])


def _observed(optic, kind, case):
    """The observation, or the class of the error it raised: operands that
    do not fit one another fail in both."""
    try:
        return OBSERVERS[kind](optic, case)
    except Exception as exc:  # noqa: BLE001 - the class is the observation
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(list(K)), min_size=2, max_size=8),
       st.integers(0, 2 ** 32))
def test_chains_of_zoo_optics_match_the_transformer_oracle(kinds, seed):
    operands = [ENTRIES[k].optic for k in kinds]
    composite = check_against_the_joins(operands)
    if composite is None:
        return
    try:
        oracle = prof2ex(reduce(lambda p, q: p.then(q),
                                [ex2prof(o) for o in operands]),
                         composite.kind)
    except NormalFormError:
        # the algebraic-lens and achromatic-lens transformers do not act on
        # Updating or Aggregating; test_composition writes those cells out
        return
    r = random.Random(seed)
    for _ in range(5):
        # the whole from the outermost operand, the focus functions from
        # the innermost
        case = {**ENTRIES[kinds[-1]].make_case(r),
                **{k: v for k, v in ENTRIES[kinds[0]].make_case(r).items()
                   if k in ("s", "batch")}}
        assert _observed(composite, composite.kind, case) == \
            _observed(oracle, composite.kind, case)


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
