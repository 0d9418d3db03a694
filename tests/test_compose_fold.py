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
checks what the chains do. The typed zoo's optics mostly do not fit one
another, so its chains mostly raise in both forms; ``ONE_TYPE`` has one
optic per kind whose whole and focus are both an integer, so that every
chain the join admits runs on any case.
"""

import itertools
import random
import warnings
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from mixoptic import (
    AchromaticLens, Adapter, AffineTraversal, AlgebraicLens, Fallback, Focus,
    Fold, Getter, Glass, Grate, INCOMPATIBLE, Kaleidoscope, Lens, Miss,
    MonadicLens, OpticKind, Prism, Review, Setter, Traversal, Writer, compose,
    ex2prof, join_kind, prof2ex,
)
from mixoptic.composition import _CHAINS, _Chain, _segments
from mixoptic.errors import CompositionError, NormalFormError, OpticError
from mixoptic.expr import parse_expr, resolve_expr
from mixoptic.fixtures import registry
from mixoptic.values import field_lens, variant_prism

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
# a fold whose prism chain once rebuilt a miss through a build that fails
@example(kinds=[K.PRISM, K.ADAPTER, K.PRISM, K.GETTER], seed=0)
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


# kind -> an optic whose whole and focus are integers: mostly a digit or a
# quotient of the whole, put back with the remainder
ONE_TYPE = {
    K.ADAPTER: Adapter(forward=lambda n: n + 1, backward=lambda b: b - 1),
    K.LENS: Lens(view=lambda n: n // 2, update=lambda n, b: 2 * b + n % 2),
    K.ACHROMATIC_LENS: AchromaticLens(
        view=lambda n: n // 3, update=lambda n, b: 3 * b + n % 3,
        create=lambda b: 3 * b + 1),
    K.PRISM: Prism(match=lambda n: Focus(n // 5) if n % 5 == 0 else Miss(n),
                   build=lambda b: 5 * b),
    K.AFFINE_TRAVERSAL: AffineTraversal(
        access=lambda n: Focus((n // 7, lambda b: 7 * b + n % 7)) if n >= 0
        else Miss(n)),
    K.TRAVERSAL: Traversal(extract=lambda n: (
        [n // 10, n % 10], lambda bs: 10 * bs[0] + bs[1])),
    K.GRATE: Grate(run=lambda h: 10 * h(lambda n: n // 10) + h(lambda n: n % 10)),
    K.GLASS: Glass(run=lambda h, s: 2 * h(lambda n: n // 2) + s % 2),
    K.SETTER: Setter(over=lambda f, n: 3 * f(n // 3) + n % 3),
    K.GETTER: Getter(get=lambda n: n - 4),
    K.REVIEW: Review(build=lambda b: 11 * b),
    K.FOLD: Fold(foci=lambda n: [n % 10, n // 10]),
    K.ALGEBRAIC_LENS: AlgebraicLens(
        view=lambda n: n // 2, classify=lambda ns, b: 2 * b + max(ns) % 2),
    K.KALEIDOSCOPE: Kaleidoscope(aggregate=lambda f: lambda ns: (
        10 * f([n // 10 for n in ns]) + f([n % 10 for n in ns]))),
    K.MONADIC_LENS: MonadicLens(
        view=lambda n: n // 2, pure=Writer.pure,
        mupdate=lambda n, b: Writer.tell(2 * b + n % 2, f"[half]: {b}")),
}


def one_type_case(r):
    return {"s": r.randrange(-30, 300), "b": r.randrange(-20, 200),
            "f": r.choice([lambda n: n + 1, lambda n: 3 * n - 2]),
            "batch": [r.randrange(-30, 300) for _ in range(r.randint(1, 5))],
            "agg": r.choice([sum, max])}


def compared_with_the_oracle(kinds, r) -> bool:
    """Check the one-type chain of ``kinds`` against the joins and, on five
    cases, against the transformer oracle; True when every case returned
    values to compare."""
    operands = [ONE_TYPE[k] for k in kinds]
    composite = check_against_the_joins(operands)
    if composite is None:
        return False
    try:
        oracle = prof2ex(reduce(lambda p, q: p.then(q),
                                [ex2prof(o) for o in operands]),
                         composite.kind)
    except NormalFormError:
        return False
    returned = True
    for _ in range(5):
        case = one_type_case(r)
        got = _observed(composite, composite.kind, case)
        assert got == _observed(oracle, composite.kind, case), (kinds, case)
        returned = returned and not isinstance(got, type)
    return returned


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(list(K)), min_size=2, max_size=8),
       st.integers(0, 2 ** 32))
def test_chains_of_one_type_optics_match_the_transformer_oracle(kinds, seed):
    compared_with_the_oracle(kinds, random.Random(seed))


def test_most_one_type_chains_are_compared_with_the_oracle():
    # 2,000 chains drawn as the hypothesis test draws them; about two in
    # three are incompatible or have no transformer normal form
    r = random.Random(14)
    compared = sum(
        compared_with_the_oracle([r.choice(list(K))
                                  for _ in range(r.randint(2, 8))], r)
        for _ in range(2000))
    assert compared >= 500


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
    cities = ["city"] * (depth // 2)
    fields = ['field("k")'] * (depth // 2)

    # the registry's ``city`` is a field path: ``compose`` fuses a run of it
    # into one path and builds no chain
    optic = resolve_expr(parse_expr(".".join(cities * 2)), names)
    assert built == []
    assert optic == field_lens(*["city"] * depth)

    # a variant half-way changes the kind once: the path before it becomes
    # one segment of the affine chain, and the run after it another
    built.clear()
    optic = resolve_expr(parse_expr(".".join(cities + ['variant("t")']
                                             + cities)), names)
    assert built == [K.AFFINE_TRAVERSAL]
    path = field_lens(*["city"] * (depth // 2))
    assert optic.parts == (path, variant_prism("t"), path)

    # a run of fields is one lens and builds no chain
    built.clear()
    optic = resolve_expr(parse_expr(".".join(fields * 2)), names)
    assert built == []
    assert optic.kind is K.LENS

    # either side of a variant, each run of fields is one lens part
    built.clear()
    optic = resolve_expr(parse_expr(".".join(fields + ['variant("t")']
                                             + fields)), names)
    assert built == [K.AFFINE_TRAVERSAL]
    assert [part.kind for part in optic.parts] == [K.LENS, K.PRISM, K.LENS]
