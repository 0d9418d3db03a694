"""Kind lattice, composition, and upcasts.

``join_kind`` is total: the least kind both operands coerce to, a
``Fallback`` when that is setter and neither operand is one, or
``INCOMPATIBLE``. It reads a table built at import from the coercion paths,
with one hand rule: a monadic lens joins the kinds that reach a lens.
``compose(first, *rest)`` takes that join over all its operands at once;
where it fails or falls back, ``compose`` raises or warns once, naming the
first pair where the left fold of ``join_kind`` does. Achromatic-lens and
prism join to affine-traversal, which review cannot reach, so only the
flat ``compose(ach, prism, review)`` is a review; nested, it raises.
For every kind the result is a flat chain: an instance of the kind's class
holding ``parts``, its segments outermost first, each coerced to the first
kind of the chain's ``_NATIVE`` row it reaches. A chain of the join
splices its parts in. Segments collect in one list while the left fold's
join stays the same, so building is linear in the operands, and the kind's
functions loop over the parts, so applying is linear in depth.
``encoding.ProfOptic.then`` stays nested: it is the independent oracle the
tests hold ``compose`` to. ``upcast`` embeds an optic into a more general
kind along the public edges only; it and ``compose`` follow shortest
coercion paths computed once at import.
"""

from __future__ import annotations

import warnings
from functools import lru_cache, partial
from operator import itemgetter
from typing import Any, NamedTuple, Optional

from .errors import CompositionError, LengthError, UpcastError
from .kinds import OpticKind
from .optics import (
    Adapter, AffineTraversal, AchromaticLens, AlgebraicLens, Focus, Fold,
    Getter, Glass, Grate, Kaleidoscope, Lens, Miss, MonadicLens, Prism,
    Review, Setter, Traversal,
)
from .records import record

K = OpticKind


# ---------------------------------------------------------------------------
# Single-step embeddings. Keys are (source kind, target kind).


def _adapter_to_lens(o):
    return Lens(view=o.forward, update=lambda s, b: o.backward(b))


def _adapter_to_prism(o):
    return Prism(match=lambda s: Focus(o.forward(s)), build=o.backward)


def _lens_to_affine(o):
    return AffineTraversal(
        access=lambda s: Focus((o.view(s), lambda b: o.update(s, b)))
    )


def _prism_to_affine(o):
    def access(s):
        res = o.match(s)
        if isinstance(res, Miss):
            return res
        return Focus((res.value, o.build))

    return AffineTraversal(access=access)


_EMBED = {
    (K.ADAPTER, K.LENS): _adapter_to_lens,
    (K.ADAPTER, K.PRISM): _adapter_to_prism,
    (K.ADAPTER, K.GRATE): lambda o: Grate(run=lambda h: o.backward(h(o.forward))),
    (K.ADAPTER, K.GETTER): lambda o: Getter(get=o.forward),
    (K.ADAPTER, K.REVIEW): lambda o: Review(build=o.backward),
    (K.ADAPTER, K.ACHROMATIC_LENS): lambda o: AchromaticLens(
        view=o.forward, update=lambda s, b: o.backward(b), create=o.backward
    ),
    (K.ADAPTER, K.ALGEBRAIC_LENS): lambda o: AlgebraicLens(
        view=o.forward, classify=lambda ss, b: o.backward(b)
    ),
    (K.ADAPTER, K.KALEIDOSCOPE): lambda o: Kaleidoscope(
        aggregate=lambda f: lambda ss: o.backward(f([o.forward(s) for s in ss]))
    ),
    (K.LENS, K.AFFINE_TRAVERSAL): _lens_to_affine,
    (K.LENS, K.GETTER): lambda o: Getter(get=o.view),
    (K.LENS, K.GLASS): lambda o: Glass(
        run=lambda h, s: o.update(s, h(o.view))
    ),
    (K.ACHROMATIC_LENS, K.LENS): lambda o: Lens(view=o.view, update=o.update),
    (K.ACHROMATIC_LENS, K.REVIEW): lambda o: Review(build=o.create),
    (K.ACHROMATIC_LENS, K.ALGEBRAIC_LENS): lambda o: AlgebraicLens(
        view=o.view,
        classify=lambda ss, b: o.update(ss[0], b) if ss else o.create(b),
    ),
    (K.PRISM, K.AFFINE_TRAVERSAL): _prism_to_affine,
    (K.PRISM, K.REVIEW): lambda o: Review(build=o.build),
    # a traversal chain runs an affine segment natively
    (K.AFFINE_TRAVERSAL, K.TRAVERSAL): lambda o: _CHAINS[K.TRAVERSAL]((o,)),
    (K.TRAVERSAL, K.FOLD): lambda o: Fold(foci=lambda s: list(o.extract(s)[0])),
    (K.TRAVERSAL, K.SETTER): lambda o: Setter(
        over=lambda f, s: (lambda foci, rebuild: rebuild([f(a) for a in foci]))(
            *o.extract(s)
        )
    ),
    (K.GRATE, K.GLASS): lambda o: Glass(run=lambda h, s: o.run(h)),
    (K.GLASS, K.SETTER): lambda o: Setter(
        over=lambda f, s: o.run(lambda k: f(k(s)), s)
    ),
    (K.GETTER, K.FOLD): lambda o: Fold(foci=lambda s: [o.get(s)]),
    (K.ALGEBRAIC_LENS, K.SETTER): lambda o: Setter(
        over=lambda f, s: o.classify([s], f(o.view(s)))
    ),
    (K.KALEIDOSCOPE, K.SETTER): lambda o: Setter(
        over=lambda f, s: o.aggregate(lambda foci: f(foci[0]))([s])
    ),
    (K.MONADIC_LENS, K.LENS): lambda o: Lens(
        view=o.view, update=lambda s, b: o.mupdate(s, b).value
    ),
}

# private coercions used by compose() but not exposed through upcast()
_PRIVATE_EMBED = {
    (K.ALGEBRAIC_LENS, K.LENS): lambda o: Lens(
        view=o.view, update=lambda s, b: o.classify([s], b)
    ),
    (K.ALGEBRAIC_LENS, K.KALEIDOSCOPE): lambda o: Kaleidoscope(
        aggregate=lambda f: lambda ss: o.classify(ss, f([o.view(s) for s in ss]))
    ),
}


_COERCIONS = {**_EMBED, **_PRIVATE_EMBED}


def _shortest_paths(edges) -> dict:
    """(source kind, goal kind) -> the steps of the shortest chain of
    ``edges`` between them, found by one breadth-first search per source;
    absent when no chain exists."""
    paths = {}
    for source in OpticKind:
        paths[(source, source)] = ()
        frontier = [source]
        for kind in frontier:
            for (src, dst), fn in edges.items():
                if src is kind and (source, dst) not in paths:
                    paths[(source, dst)] = paths[(source, kind)] + (fn,)
                    frontier.append(dst)
    return paths


_EMBED_PATHS = _shortest_paths(_EMBED)
_COERCION_PATHS = _shortest_paths(_COERCIONS)


@record
class Fallback(NamedTuple):
    """Join outcome when only the setter interface survives."""

    kind: OpticKind = K.SETTER


class _Incompatible:
    def __repr__(self):
        return "INCOMPATIBLE"


INCOMPATIBLE = _Incompatible()

# The kinds each kind coerces to, itself included: the order the join reads.
_ABOVE = {kind: frozenset(goal for source, goal in _COERCION_PATHS
                          if source is kind) for kind in OpticKind}


@lru_cache(maxsize=None)
def _join(kinds: frozenset):
    """The least kind all ``kinds`` coerce to, computed once per set."""
    # effectful lenses only thread through what coerces to a plain lens
    if K.MONADIC_LENS in kinds:
        if all(K.LENS in _ABOVE[k] for k in kinds):
            return K.MONADIC_LENS
        return INCOMPATIBLE
    common = frozenset.intersection(*(_ABOVE[k] for k in kinds))
    # the kinds in common that no other kind in common coerces to
    least = common.difference(*(_ABOVE[c] - {c} for c in common))
    if not least:
        return INCOMPATIBLE
    # achromatic-lens and prism have two, affine-traversal and review;
    # declaration order picks affine-traversal
    joined = next(k for k in OpticKind if k in least)
    if joined is K.SETTER and K.SETTER not in kinds:
        return Fallback()
    return joined


_JOIN = {k1: {k2: _join(frozenset({k1, k2})) for k2 in OpticKind}
         for k1 in OpticKind}


def join_kind(k1: OpticKind, k2: OpticKind):
    """Total, commutative join on optic kinds."""
    return _JOIN[k1][k2]


def _embed(optic: Any, goal: OpticKind, paths: dict) -> Optional[Any]:
    """Apply the path from the optic's kind to ``goal``; None when there is
    none."""
    if optic.kind is goal:
        return optic
    steps = paths.get((optic.kind, goal))
    if steps is None:
        return None
    for step in steps:
        optic = step(optic)
    return optic


def upcast(optic: Any, kind: OpticKind) -> Any:
    """Embed an optic into a more general kind; UpcastError if impossible."""
    out = _embed(optic, kind, _EMBED_PATHS)
    if out is None:
        raise UpcastError(
            f"no embedding of {optic.kind.value} into {kind.value}"
        )
    return out


def _coerce(optic: Any, kind: OpticKind) -> Any:
    out = _embed(optic, kind, _COERCION_PATHS)
    if out is None:
        raise CompositionError(optic.kind, kind)
    return out


# ---------------------------------------------------------------------------
# Flat chains. A composite is an instance of a subclass of its kind's class
# that holds ``parts``; the kind's functions are methods that loop over the
# parts. Read-then-rebuild kinds walk down once, keeping each level's whole,
# and rebuild upwards; continuation kinds nest one function per part.


class _Chain:
    """A chain is the one-item tuple of its parts, so it is as immutable and
    compared as its kind's records are; its kind's fields are methods."""

    __slots__ = ()

    def __new__(cls, parts: tuple):
        return tuple.__new__(cls, (parts,))

    def __init__(self, parts: tuple):
        """Every chain but a monadic one, which checks its effects, passes
        here once it is built; ``__new__`` stored the parts."""

    parts = property(itemgetter(0))

    def __repr__(self):
        return f"{type(self).__name__}(parts={self.parts!r})"


def _down(name):
    def run(self, s):
        for p in self.parts:
            s = getattr(p, name)(s)
        return s

    return run


def _up(name):
    def run(self, b):
        for p in reversed(self.parts):
            b = getattr(p, name)(b)
        return b

    return run


def _wholes(parts, s):
    """The whole each part reads: ``s``, then each part's focus but the
    last part's."""
    wholes = [s]
    for p in parts[:-1]:
        s = p.view(s)
        wholes.append(s)
    return wholes


def _lens_update(self, s, b):
    parts = self.parts
    for p, whole in zip(reversed(parts), reversed(_wholes(parts, s))):
        b = p.update(whole, b)
    return b


def _mupdate(self, s, b):
    # the Kleisli rebuild: a lens maps its update over the effect, a
    # monadic lens binds its own, so the innermost log comes first
    parts, m = self.parts, self.pure(b)
    for p, whole in zip(reversed(parts), reversed(_wholes(parts, s))):
        if p.kind is K.MONADIC_LENS:
            m = m.bind(partial(p.mupdate, whole))
        else:
            m = m.map(partial(p.update, whole))
    return m


def _pure(self):
    return next(p.pure for p in self.parts if p.kind is K.MONADIC_LENS)


def _one_pure(self, parts):
    """The monadic segments of a chain run in one effect."""
    if len({p.pure for p in parts if p.kind is K.MONADIC_LENS}) > 1:
        raise CompositionError(K.MONADIC_LENS, K.MONADIC_LENS)


def _classify(self, ss, b):
    parts = self.parts
    levels = [ss]  # every training whole is viewed once per level
    for p in parts[:-1]:
        ss = [p.view(s) for s in ss]
        levels.append(ss)
    for p, wholes in zip(reversed(parts), reversed(levels)):
        b = p.classify(wholes, b)
    return b


def _match(self, s):
    for depth, p in enumerate(self.parts):
        res = p.match(s)
        if isinstance(res, Miss):
            t = res.value
            for q in reversed(self.parts[:depth]):
                t = q.build(t)
            return Miss(t)
        s = res.value
    return Focus(s)


def _put_all(puts, b):
    for put in reversed(puts):
        b = put(b)
    return b


def _access(self, s):
    puts = []
    for p in self.parts:
        res = p.access(s)
        if isinstance(res, Miss):
            return Miss(_put_all(puts, res.value))
        s, put = res.value
        puts.append(put)
    return Focus((s, partial(_put_all, puts)))


def _extract(self, s):
    # a level: its part and one flat list its rebuild reads: a lens's
    # wholes; per whole, what the prism's match or the affine's access
    # returned; per whole of a traversal, the inner rebuild and its width
    levels, foci = [], [s]
    for p in self.parts:
        wholes, kind = foci, p.kind
        if kind is K.LENS:
            memo, foci = wholes, list(map(p.view, wholes))
        elif kind is K.PRISM:
            memo = list(map(p.match, wholes))
            foci = [res.value for res in memo if not isinstance(res, Miss)]
        elif kind is K.AFFINE_TRAVERSAL:
            memo = list(map(p.access, wholes))
            foci = [res.value[0] for res in memo if not isinstance(res, Miss)]
        else:
            memo, foci = [], []
            for inner, inner_rebuild in map(p.extract, wholes):
                foci += inner
                memo += (inner_rebuild, len(inner))
        levels.append((p, memo))

    def rebuild(bs, _n=len(foci)):
        if len(bs) != _n:
            raise LengthError(f"expected {_n} replacements, got {len(bs)}")
        bs = list(bs)
        for p, memo in reversed(levels):
            kind = p.kind
            if kind is K.LENS:
                bs = list(map(p.update, memo, bs))
            elif kind is K.TRAVERSAL:
                rebuilt, cursor, pairs = [], 0, iter(memo)
                for inner_rebuild, width in zip(pairs, pairs):
                    rebuilt.append(inner_rebuild(bs[cursor:cursor + width]))
                    cursor += width
                bs = rebuilt
            elif kind is K.PRISM:
                build, bs = p.build, iter(bs)
                bs = [res.value if isinstance(res, Miss) else build(next(bs))
                      for res in memo]
            else:
                bs = iter(bs)
                bs = [res.value if isinstance(res, Miss)
                      else res.value[1](next(bs)) for res in memo]
        return bs[0]

    return foci, rebuild


def _foci(self, s):
    found = [s]
    for p in self.parts:
        found = [x for a in found for x in p.foci(a)]
    return found


def _over(self, f, s):
    for p in reversed(self.parts):
        f = partial(p.over, f)
    return f(s)


def _thread(ks, s):
    for k in ks:
        s = k(s)
    return s


def _grate_level(g, inner, ks):
    return g.run(lambda k: inner(ks + (k,)))


def _grate_run(self, h):
    def inner(ks):
        return h(partial(_thread, ks))

    for g in reversed(self.parts):
        inner = partial(_grate_level, g, inner)
    return inner(())


def _glass_level(g, inner, ks, whole):
    return g.run(lambda k: inner(ks + (k,), k(whole)), whole)


def _glass_run(self, h, s):
    def inner(ks, _whole):
        return h(partial(_thread, ks))

    for g in reversed(self.parts):
        inner = partial(_glass_level, g, inner)
    return inner((), s)


def _chain_type(base, *runs, **methods):
    """The subclass of ``base`` whose fields are the ``runs``, in order."""
    return type(base.__name__, (_Chain, base),
                dict(zip(base._fields, runs), __slots__=(), **methods))


_VIEW = _down("view")

_CHAINS = {
    chain.kind: chain for chain in (
        _chain_type(Adapter, _down("forward"), _up("backward")),
        _chain_type(Lens, _VIEW, _lens_update),
        _chain_type(AchromaticLens, _VIEW, _lens_update, _up("create")),
        _chain_type(Prism, _match, _up("build")),
        _chain_type(AffineTraversal, _access),
        _chain_type(Traversal, _extract),
        _chain_type(Grate, _grate_run),
        _chain_type(Glass, _glass_run),
        _chain_type(Setter, _over),
        _chain_type(Getter, _down("get")),
        _chain_type(Fold, _foci),
        _chain_type(Review, _up("build")),
        _chain_type(AlgebraicLens, _VIEW, _classify),
        _chain_type(Kaleidoscope, _up("aggregate")),
        _chain_type(MonadicLens, _VIEW, _mupdate, property(_pure),
                    __init__=_one_pure),
    )
}


# The kinds a chain keeps its segments as, tried in order; any other chain
# keeps them as its own kind. ``_SEGMENT[chain][kind]`` is the first of them
# that an operand of ``kind`` coerces to.
_NATIVE = {K.TRAVERSAL: (K.LENS, K.PRISM, K.AFFINE_TRAVERSAL, K.TRAVERSAL),
           K.MONADIC_LENS: (K.MONADIC_LENS, K.LENS)}
_SEGMENT = {
    chain: {kind: next(k for k in natives if k in _ABOVE[kind])
            for kind in OpticKind if not _ABOVE[kind].isdisjoint(natives)}
    for chain, natives in ((c, _NATIVE.get(c, (c,))) for c in OpticKind)
}


def _segments(optic: Any, kind: OpticKind) -> tuple:
    """A chain of ``kind`` splices in; any other optic is one segment."""
    if isinstance(optic, _Chain) and optic.kind is kind:
        return optic.parts
    return (_coerce(optic, _SEGMENT[kind][optic.kind]),)


def _fail_once(kinds: list, joined) -> OpticKind:
    """Raise, or warn and return setter, at the first pair where the left
    fold of ``join_kind`` over ``kinds`` fails or falls back."""
    kind = kinds[0]
    for nxt in kinds[1:]:
        pair = _JOIN[kind][nxt]
        if pair is INCOMPATIBLE:
            raise CompositionError(kind, nxt)
        if isinstance(pair, Fallback) and joined is not INCOMPATIBLE:
            warnings.warn(f"{kind.value} and {nxt.value} compose only as a "
                          "setter", stacklevel=3)
            return K.SETTER
        kind = pair.kind if isinstance(pair, Fallback) else pair


def compose(first: Any, *rest: Any) -> Any:
    """Compose optics, outermost first, at the join of all their kinds,
    built with one list of segments per run of the same left-folded join."""
    kinds = [o.kind for o in (first, *rest)]
    target = _join(frozenset(kinds))
    if not isinstance(target, OpticKind):
        target = _fail_once(kinds, target)
    # parts: the segments of a chain of ``kind`` not built yet, or None
    optic, kind, parts = first, first.kind, None
    for nxt in rest:
        joined = _JOIN[kind][nxt.kind]
        if joined is kind and parts is not None:
            parts.extend(_segments(nxt, kind))
            continue
        if _JOIN[target].get(joined) is not target:
            # the pair falls back, or its join tie-broke away from the
            # expression's join
            joined = target
        if parts is not None:
            optic = _CHAINS[kind](tuple(parts))
        kind = joined
        parts = [*_segments(optic, kind), *_segments(nxt, kind)]
    return optic if parts is None else _CHAINS[kind](tuple(parts))
