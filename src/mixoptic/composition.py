"""Kind lattice, composition, and upcasts.

``join_kind`` is total: it returns the least kind both operands coerce
to, a ``Fallback`` when that is setter and neither operand is one, or
``INCOMPATIBLE`` when they coerce to no common kind. It reads a table built
at import from the coercion paths alone, no set from ``kinds``; its one
hand rule: a monadic lens joins exactly the other kinds that reach a lens.
``compose(first, *rest)`` is variadic and folds from the left: each step
joins the kind so far with the next operand's. It returns a flat chain of
the joined kind: an instance of that kind's class holding ``parts``, the
tuple of its segments outermost first, each coerced to the kind. An operand
that is a chain of the joined kind splices its parts in; any other operand,
a chain of a lower kind included, is coerced once and becomes one segment.
While the kind stays the same the segments collect in one list, and a chain
object is built only where the kind changes, so building is linear in the
number of operands and chains nest no deeper than the number of kind
changes along them. The kind's functions loop over the parts, so applying
a chain is linear in its depth, and the kinds that read before they
rebuild use no stack per segment. Only the monadic lens, whose effect
threads through a plain lens, is composed by hand, two operands at a time.
``encoding.ProfOptic.then`` stays nested: it is the
independent oracle the tests hold ``compose`` to. ``upcast`` embeds an
optic into a more general kind along the public edges only; it and
``compose`` follow shortest coercion paths computed once at import.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from functools import partial
from typing import Any, Optional

from .errors import CompositionError, LengthError, UpcastError
from .kinds import OpticKind
from .optics import (
    Adapter, AffineTraversal, AchromaticLens, AlgebraicLens, Focus, Fold,
    Getter, Glass, Grate, Kaleidoscope, Lens, Miss, MonadicLens, Prism,
    Review, Setter, Traversal,
)

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


def _affine_to_traversal(o):
    def extract(s):
        res = o.access(s)
        if isinstance(res, Miss):
            def rebuild_none(bs, _t=res.value):
                if len(bs) != 0:
                    raise LengthError(f"expected 0 replacements, got {len(bs)}")
                return _t

            return [], rebuild_none
        focus, put = res.value

        def rebuild_one(bs, _put=put):
            if len(bs) != 1:
                raise LengthError(f"expected 1 replacement, got {len(bs)}")
            return _put(bs[0])

        return [focus], rebuild_one

    return Traversal(extract=extract)


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
    (K.AFFINE_TRAVERSAL, K.TRAVERSAL): _affine_to_traversal,
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


@dataclass(frozen=True)
class Fallback:
    """Join outcome when only the setter interface survives."""

    kind: OpticKind = K.SETTER


class _Incompatible:
    def __repr__(self):
        return "INCOMPATIBLE"


INCOMPATIBLE = _Incompatible()

# The kinds each kind coerces to, itself included: the order the join reads.
_ABOVE = {kind: frozenset(goal for source, goal in _COERCION_PATHS
                          if source is kind) for kind in OpticKind}


def _join(k1: OpticKind, k2: OpticKind):
    """The least kind both coerce to; ``join_kind`` reads its table."""
    # effectful lenses only thread through what coerces to a plain lens
    if K.MONADIC_LENS in (k1, k2):
        other = k2 if k1 is K.MONADIC_LENS else k1
        if other is not K.MONADIC_LENS and K.LENS in _ABOVE[other]:
            return K.MONADIC_LENS
        return INCOMPATIBLE
    common = _ABOVE[k1] & _ABOVE[k2]
    # the kinds in common that no other kind in common coerces to
    least = common.difference(*(_ABOVE[c] - {c} for c in common))
    if not least:
        return INCOMPATIBLE
    # achromatic-lens and prism have two, affine-traversal and review;
    # declaration order picks affine-traversal
    joined = next(k for k in OpticKind if k in least)
    if joined is K.SETTER and K.SETTER not in (k1, k2):
        return Fallback()
    return joined


_JOIN = {k1: {k2: _join(k1, k2) for k2 in OpticKind} for k1 in OpticKind}


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
    def __init__(self, parts: tuple):
        object.__setattr__(self, "parts", parts)  # the dataclass is frozen

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


def _lens_update(self, s, b):
    parts = self.parts
    wholes = [s]
    for p in parts[:-1]:
        s = p.view(s)
        wholes.append(s)
    for p, whole in zip(reversed(parts), reversed(wholes)):
        b = p.update(whole, b)
    return b


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
    levels, foci = [], [s]  # a level: (foci, rebuild) per focus above it
    for p in self.parts:
        level = [p.extract(a) for a in foci]
        levels.append(level)
        foci = [x for inner, _ in level for x in inner]

    def rebuild(bs, _n=len(foci)):
        if len(bs) != _n:
            raise LengthError(f"expected {_n} replacements, got {len(bs)}")
        for level in reversed(levels):
            rebuilt, cursor = [], 0
            for inner, inner_rebuild in level:
                width = len(inner)
                rebuilt.append(inner_rebuild(list(bs[cursor:cursor + width])))
                cursor += width
            bs = rebuilt
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


def _chain_type(base, *runs):
    """The subclass of ``base`` whose fields are the ``runs``, in order."""
    names = [f.name for f in fields(base)]
    return type(base.__name__, (_Chain, base), dict(zip(names, runs)))


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
    )
}


def _segments(optic: Any, kind: OpticKind) -> tuple:
    """A chain of ``kind`` splices in; any other optic is one segment."""
    if isinstance(optic, _Chain) and optic.kind is kind:
        return optic.parts
    return (_coerce(optic, kind),)


def _compose_monadic(o1: Any, o2: Any) -> MonadicLens:
    """The effect threads through the plain-lens side, whichever it is."""
    if o1.kind is K.MONADIC_LENS:
        inner = _coerce(o2, K.LENS)
        return MonadicLens(
            view=lambda s: inner.view(o1.view(s)),
            mupdate=lambda s, b: o1.mupdate(s, inner.update(o1.view(s), b)),
            pure=o1.pure,
        )
    outer = _coerce(o1, K.LENS)
    return MonadicLens(
        view=lambda s: o2.view(outer.view(s)),
        mupdate=lambda s, b: o2.mupdate(outer.view(s), b).map(
            lambda a: outer.update(s, a)
        ),
        pure=o2.pure,
    )


def compose(first: Any, *rest: Any) -> Any:
    """Compose optics, outermost first, per the kind lattice: the left fold
    of two-operand composition, built with one list of segments per run of
    the same joined kind."""
    # parts: the segments of a chain of ``kind`` not built yet, or None
    optic, kind, parts = first, first.kind, None
    for nxt in rest:
        joined = join_kind(kind, nxt.kind)
        if joined is INCOMPATIBLE:
            raise CompositionError(kind, nxt.kind)
        if isinstance(joined, Fallback):
            warnings.warn(
                f"{kind.value} and {nxt.kind.value} compose only as a setter",
                stacklevel=2,
            )
            joined = K.SETTER
        if parts is not None:
            if joined is kind:
                parts.extend(_segments(nxt, kind))
                continue
            optic = _CHAINS[kind](tuple(parts))
        kind = joined
        if kind is K.MONADIC_LENS:
            optic, parts = _compose_monadic(optic, nxt), None
        else:
            parts = [*_segments(optic, kind), *_segments(nxt, kind)]
    return optic if parts is None else _CHAINS[kind](tuple(parts))
