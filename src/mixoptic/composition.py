"""Coercion edges, kind lattice, composition, upcasts, and admission.

Every coercion edge is one row of ``_EDGES``: how it builds the goal optic
and whether it is public. ``upcast`` embeds an optic into a more general
kind along the public edges only, and ``compose`` along all of them; both
follow shortest paths computed once at import. A kind admits what every
kind it upcasts to, itself included, runs natively (``optics.NATIVES``):
``ADMITS`` is derived so, and ``_ROUTE`` names, for each admitted cell that
is not native, the kind its combinator runs at.

``join_kind`` is total: the least kind both operands coerce to, a
``Fallback`` when that is setter and neither operand is one, or
``INCOMPATIBLE``. It reads a table built at import from the coercion paths,
with one hand rule: a monadic lens joins the kinds that reach a lens.
``compose(first, *rest)`` takes that join over all its operands at once;
where it fails or falls back, ``compose`` raises or warns once, naming the
first pair where the left fold of ``join_kind`` does. Achromatic-lens and
prism join to affine-traversal, which review cannot reach, so only the
flat ``compose(ach, prism, review)`` is a review; nested, it raises.
For every kind the result is a flat chain, a view type (``records``) of
the kind's record class that holds ``parts``, its segments outermost first,
each coerced to the first kind of the chain's ``_NATIVE`` row it reaches:
traversal and affine chains keep lens, prism and affine segments as they
are. A chain's fields loop over the parts, and it overrides the runners
it walks in one pass. The walks of traversal, affine, prism and fold
chains have no branch on a part's kind: each level runs its segment's
steps (``optics``). A traversal chain's ``extract`` runs ``_down`` then
``_up``, and ``to_list_of`` (``_read_all``) only ``_down``. An affine
chain's ``access`` and a prism chain's ``match`` run ``_at`` down to the
focus or the first miss and rebuild upwards from there; ``preview``
(``_read``) rebuilds nothing. The ``over`` of a lens, achromatic-lens,
algebraic-lens or monadic-lens chain reads each part's view once
(``_one_walk``). A chain of the join splices its parts in, and so do a
prism chain entering an affine or traversal chain and an affine chain
entering a traversal. A composite at the join is one optic of its kind,
so ``compose`` fuses each run of adjacent field paths (``values.Field``)
once, when it ends; into a setter, glass or getter chain it fuses the run
first and coerces the fused path once (``_closed``), and a path coerced
into a fold is one segment per key, so that a fold chain still reads its
wholes level by level. Segments collect in one list while the left fold's
join stays the same, so building is linear in the operands and applying
linear in depth.
A coercion into getter, fold, setter or review, whatever its path, is one
record holding the optic's own runner of that kind's combinator.
``encoding.ProfOptic.then`` stays nested: it is the independent oracle the
tests hold ``compose`` to.
"""

from __future__ import annotations

from functools import lru_cache, partial
from operator import itemgetter
from typing import Any, NamedTuple, Optional

from .errors import CompositionError, LengthError, UpcastError
from .kinds import OpticKind
from .optics import (
    NATIVES, Adapter, AffineTraversal, AchromaticLens, AlgebraicLens, Focus,
    Fold, Getter, Glass, Grate, Kaleidoscope, Lens, Miss, MonadicLens, Prism,
    Review, Setter, Traversal,
)
from .records import View, record, view_type

K = OpticKind


# ---------------------------------------------------------------------------
# Coercion edges.


def _one_segment(kind):
    """The edge into ``kind``: a chain of the optic's segments as they are."""
    return lambda o: _CHAINS[kind](_segments(o, kind))


# goal: the edge into it. Each of these kinds is one combinator, which
# every kind that reaches it runs natively, and no path goes on past them
# but getter's into fold, so ``_shortest_paths`` keeps the last edge alone.
# The record holds the optic's own runner, so a chain of them nests one
# call per part.
_RUN_BY = {K.GETTER: lambda o: Getter(o._view),
           K.FOLD: lambda o: Fold(o._tolist),
           K.SETTER: lambda o: Setter(o._over),
           K.REVIEW: lambda o: Review(o._review)}


# (source kind, goal kind): (build, public). ``upcast`` follows the public
# edges, ``compose`` all of them; the order breaks ties between paths of
# the same length.
_EDGES = {
    (K.ADAPTER, K.LENS): (lambda o: Lens(
        view=o.forward, update=lambda s, b: o.backward(b)), True),
    (K.ADAPTER, K.PRISM): (lambda o: Prism(
        match=lambda s: Focus(o.forward(s)), build=o.backward), True),
    (K.ADAPTER, K.GRATE): (
        lambda o: Grate(run=lambda h: o.backward(h(o.forward))), True),
    (K.ADAPTER, K.ACHROMATIC_LENS): (lambda o: AchromaticLens(
        view=o.forward, update=lambda s, b: o.backward(b),
        create=o.backward), True),
    (K.ADAPTER, K.ALGEBRAIC_LENS): (lambda o: AlgebraicLens(
        view=o.forward, classify=lambda ss, b: o.backward(b)), True),
    (K.ADAPTER, K.KALEIDOSCOPE): (lambda o: Kaleidoscope(
        aggregate=lambda f: lambda ss: o.backward(
            f([o.forward(s) for s in ss]))), True),
    (K.LENS, K.AFFINE_TRAVERSAL): (_one_segment(K.AFFINE_TRAVERSAL), True),
    (K.LENS, K.GLASS): (lambda o: Glass(
        run=lambda h, s: o.update(s, h(o.view))), True),
    (K.ACHROMATIC_LENS, K.LENS): (
        lambda o: Lens(view=o.view, update=o.update), True),
    (K.ACHROMATIC_LENS, K.ALGEBRAIC_LENS): (
        lambda o: AlgebraicLens(view=o.view, classify=o._classify), True),
    (K.PRISM, K.AFFINE_TRAVERSAL): (_one_segment(K.AFFINE_TRAVERSAL), True),
    (K.AFFINE_TRAVERSAL, K.TRAVERSAL): (_one_segment(K.TRAVERSAL), True),
    (K.GRATE, K.GLASS): (lambda o: Glass(run=o._zip), True),
    (K.MONADIC_LENS, K.LENS): (lambda o: Lens(
        view=o.view, update=lambda s, b: o.mupdate(s, b).value), True),
    (K.ADAPTER, K.GETTER): (_RUN_BY[K.GETTER], True),
    (K.LENS, K.GETTER): (_RUN_BY[K.GETTER], True),
    (K.TRAVERSAL, K.FOLD): (_RUN_BY[K.FOLD], True),
    (K.GETTER, K.FOLD): (_RUN_BY[K.FOLD], True),
    (K.TRAVERSAL, K.SETTER): (_RUN_BY[K.SETTER], True),
    (K.GLASS, K.SETTER): (_RUN_BY[K.SETTER], True),
    (K.ALGEBRAIC_LENS, K.SETTER): (_RUN_BY[K.SETTER], True),
    (K.KALEIDOSCOPE, K.SETTER): (_RUN_BY[K.SETTER], True),
    (K.ADAPTER, K.REVIEW): (_RUN_BY[K.REVIEW], True),
    (K.ACHROMATIC_LENS, K.REVIEW): (_RUN_BY[K.REVIEW], True),
    (K.PRISM, K.REVIEW): (_RUN_BY[K.REVIEW], True),
    # an algebraic lens is a lens or a kaleidoscope only inside a composite
    (K.ALGEBRAIC_LENS, K.LENS): (lambda o: Lens(
        view=o.view, update=lambda s, b: o.classify([s], b)), False),
    (K.ALGEBRAIC_LENS, K.KALEIDOSCOPE): (lambda o: Kaleidoscope(
        aggregate=lambda f: lambda ss: o.classify(
            ss, f([o.view(s) for s in ss]))), False),
}


def _shortest_paths(edges) -> dict:
    """(source kind, goal kind) -> the steps of the shortest chain of
    ``edges`` between them, found by one breadth-first search per source
    (only the last step into a kind of ``_RUN_BY``); absent when none."""
    paths = {}
    for source in OpticKind:
        paths[(source, source)] = ()
        frontier = [source]
        for kind in frontier:
            for (src, dst), fn in edges.items():
                if src is kind and (source, dst) not in paths:
                    steps = () if dst in _RUN_BY else paths[(source, kind)]
                    paths[(source, dst)] = steps + (fn,)
                    frontier.append(dst)
    return paths


_EMBED_PATHS = _shortest_paths(
    {edge: build for edge, (build, public) in _EDGES.items() if public})
_COERCION_PATHS = _shortest_paths(
    {edge: build for edge, (build, _) in _EDGES.items()})

# What each kind admits: the natives of every kind it reaches by public
# edges, itself included, as an optic runs wherever its upcast runs.
ADMITS = {kind: frozenset().union(*(NATIVES[goal] for source, goal
                                    in _EMBED_PATHS if source is kind))
          for kind in OpticKind}

# (kind, combinator) -> the kind an admitted but not native call runs at:
# the native kind fewest upcast steps away, ties going to the one declared
# first, as in ``_join``.
_ROUTE = {(kind, name): min(
    (goal for goal in OpticKind
     if name in NATIVES[goal] and (kind, goal) in _EMBED_PATHS),
    key=lambda goal: len(_EMBED_PATHS[(kind, goal)]))
    for kind in OpticKind for name in ADMITS[kind] - NATIVES[kind]}


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
_STRICTLY_ABOVE = {kind: above - {kind} for kind, above in _ABOVE.items()}
_ORDER = tuple(OpticKind)


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
    least = common.difference(*(_STRICTLY_ABOVE[c] for c in common))
    if not least:
        return INCOMPATIBLE
    # achromatic-lens and prism have two, affine-traversal and review;
    # declaration order picks affine-traversal
    joined = next(k for k in _ORDER if k in least)
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
# Flat chains, whose fields are methods that loop over the parts.
# Read-then-rebuild kinds walk down once, keeping each level's whole, and
# rebuild upwards; continuation kinds nest one function per part.


class _Chain(View):
    """A chain is a view type (``records``) of the tuple of its parts."""

    __slots__ = ()

    def __new__(cls, parts: tuple):
        return tuple.__new__(cls, (parts,))

    def __init__(self, parts: tuple):
        """Every chain but a monadic one, which checks its effects, passes
        here once it is built; ``__new__`` stored the parts."""

    parts = property(itemgetter(0))

    def __repr__(self):
        return f"{type(self).__name__}(parts={self.parts!r})"


def _run_down(name):
    def run(self, s):
        for p in self.parts:
            s = getattr(p, name)(s)
        return s

    return run


def _run_up(name):
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


def _one_walk(rise):
    """``over`` in one walk: the last part's view is the focus ``fn`` reads,
    and ``rise(self, wholes, b)`` rebuilds upwards from ``fn``'s result."""
    def run(self, fn, s):
        parts = self.parts
        wholes = _wholes(parts, s)
        return rise(self, wholes, fn(parts[-1].view(wholes[-1])))

    return run


def _rise(self, wholes, b):
    """Each part puts ``b`` back into the whole it read."""
    for p, whole in zip(reversed(self.parts), reversed(wholes)):
        b = p.update(whole, b)
    return b


def _lens_update(self, s, b):
    return _rise(self, _wholes(self.parts, s), b)


def _kleisli(self, wholes, b):
    # the Kleisli rebuild: a lens maps its update over the effect, a
    # monadic lens binds its own, so the innermost log comes first
    m = self.pure(b)
    for p, whole in zip(reversed(self.parts), reversed(wholes)):
        if p.kind is K.MONADIC_LENS:
            m = m.bind(partial(p.mupdate, whole))
        else:
            m = m.map(partial(p.update, whole))
    return m


def _mupdate(self, s, b):
    return _kleisli(self, _wholes(self.parts, s), b)


def _pure(self):
    return next(p.pure for p in self.parts if p.kind is K.MONADIC_LENS)


def _one_pure(self, parts):
    """The monadic segments of a chain run in one effect."""
    pures = [*dict.fromkeys(p.pure for p in parts if p.kind is K.MONADIC_LENS)]
    if len(pures) > 1:
        # an effect's pure is a method of it, such as ``Writer.pure``
        outer, inner = (getattr(pure, "__qualname__", repr(pure))
                        .removesuffix(".pure") for pure in pures[:2])
        raise CompositionError(K.MONADIC_LENS, K.MONADIC_LENS,
                               f"their effects differ, {outer} and {inner}")


def _classify(self, ss, b):
    parts = self.parts
    levels = [ss]  # every training whole is viewed once per level
    for p in parts[:-1]:
        ss = [p.view(s) for s in ss]
        levels.append(ss)
    for p, wholes in zip(reversed(parts), reversed(levels)):
        b = p.classify(wholes, b)
    return b


def _classify_rise(self, wholes, b):
    # each part classifies the one whole it read
    for p, whole in zip(reversed(self.parts), reversed(wholes)):
        b = p.classify([whole], b)
    return b


def _extract(self, s):
    # a level: its part and the memo its ``_down`` kept for its ``_up``
    levels, foci = [], [s]
    for p in self.parts:
        foci, memo = p._down(foci)
        levels.append((p, memo))

    def rebuild(bs, _n=len(foci)):
        LengthError.check(_n, bs)
        bs = list(bs)
        for p, memo in reversed(levels):
            bs = p._up(memo, bs)
        return bs[0]

    return foci, rebuild


def _at(self, s):
    # one walk down to the focus or to the first miss, keeping per level
    # the function that rebuilds it from below
    levels = []
    for p in self.parts:
        res = p._at(s)
        if isinstance(res, Miss):
            return Miss(_rebuild(levels, res.value))
        s, rebuild = res
        levels.append(rebuild)
    return s, partial(_rebuild, levels)


def _access(self, s):
    res = _at(self, s)
    return res if isinstance(res, Miss) else Focus(res)


def _match(self, s):
    res = _at(self, s)
    return res if isinstance(res, Miss) else Focus(res[0])


def _read(self, s):
    # ``preview``'s walk: down to the focus, or ``None`` at the first miss,
    # with nothing rebuilt
    for p in self.parts:
        res = p._at(s)
        if isinstance(res, Miss):
            return None
        s = res[0]
    return s


def _read_all(self, s):
    # ``to_list_of``'s walk: each level's foci, with nothing rebuilt
    foci = [s]
    for p in self.parts:
        foci = p._down(foci)[0]
    return foci


def _rebuild(levels, b):
    for level in reversed(levels):
        b = level(b)
    return b


def _setter_over(self, f, s):
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


_VIEW = _run_down("view")
_chain_type = partial(view_type, _Chain)

_CHAINS = {
    chain.kind: chain for chain in (
        _chain_type(Adapter, _run_down("forward"), _run_up("backward")),
        _chain_type(Lens, _VIEW, _lens_update, _over=_one_walk(_rise)),
        _chain_type(AchromaticLens, _VIEW, _lens_update, _run_up("create"),
                    _over=_one_walk(_rise)),
        _chain_type(Prism, _match, _run_up("build"), _at=_at, _preview=_read,
                    _tolist=_read_all),
        _chain_type(AffineTraversal, _access, _at=_at, _preview=_read,
                    _tolist=_read_all),
        _chain_type(Traversal, _extract, _tolist=_read_all),
        _chain_type(Grate, _grate_run),
        _chain_type(Glass, _glass_run),
        _chain_type(Setter, _setter_over),
        _chain_type(Getter, _run_down("get")),
        _chain_type(Fold, _read_all),
        _chain_type(Review, _run_up("build")),
        _chain_type(AlgebraicLens, _VIEW, _classify,
                    _over=_one_walk(_classify_rise)),
        _chain_type(Kaleidoscope, _run_up("aggregate")),
        _chain_type(MonadicLens, _VIEW, _mupdate, property(_pure),
                    __init__=_one_pure, _over=_one_walk(
                        lambda self, wholes, b: _kleisli(self, wholes, b).value)),
    )
}


# The kinds a chain keeps its segments as, tried in order; any other chain
# keeps them as its own kind. ``_SEGMENT[chain][kind]`` is the first of them
# that an operand of ``kind`` coerces to.
_NATIVE = {K.TRAVERSAL: (K.LENS, K.PRISM, K.AFFINE_TRAVERSAL, K.TRAVERSAL),
           K.AFFINE_TRAVERSAL: (K.LENS, K.PRISM, K.AFFINE_TRAVERSAL),
           K.MONADIC_LENS: (K.MONADIC_LENS, K.LENS)}
_SEGMENT = {
    chain: {kind: next(k for k in natives if k in _ABOVE[kind])
            for kind in OpticKind if not _ABOVE[kind].isdisjoint(natives)}
    for chain, natives in ((c, _NATIVE.get(c, (c,))) for c in OpticKind)
}


# The chains whose parts a walk chain splices in besides its own kind's,
# as it runs their parts as they are.
_SPLICED = {K.TRAVERSAL: (K.AFFINE_TRAVERSAL, K.PRISM),
            K.AFFINE_TRAVERSAL: (K.PRISM,)}


def _segments(optic: Any, kind: OpticKind) -> tuple:
    """A chain of ``kind``, or of a kind ``_SPLICED`` names for it, splices
    in; any other optic is one segment, but a path (``_unfused``) coerced
    into a fold is one segment per key."""
    if isinstance(optic, _Chain) and (optic.kind is kind or optic.kind
                                      in _SPLICED.get(kind, ())):
        return optic.parts
    segment = _SEGMENT[kind][optic.kind]
    if optic.kind is segment:
        return (optic,)
    if segment is K.FOLD and hasattr(optic, "_unfused"):
        return tuple(_coerce(key, segment) for key in optic._unfused())
    return (_coerce(optic, segment),)


# The chains that coerce a path (a lens) to one segment of their own kind:
# setter, glass and getter. A fold chain takes it one key at a time.
_PATH_SEGMENT = {kind: segment for kind, segment in (
    (kind, _SEGMENT[kind].get(K.LENS)) for kind in OpticKind)
    if segment not in (None, K.LENS, K.FOLD)}


def _closed(kind: OpticKind, run: list) -> Any:
    """The one segment a run of adjacent paths closes to in a chain of
    ``kind``: the run fused, then coerced once if the chain coerces paths."""
    path = run[0] if len(run) == 1 else run[-1]._fused(run)
    segment = _PATH_SEGMENT.get(kind)
    return path if segment is None else _coerce(path, segment)


def _chain(kind: OpticKind, parts, run: int) -> Any:
    """The chain of ``kind`` of ``parts``, whose last ``run`` parts close
    (``_closed``); a chain left with one part of its kind is that part."""
    if run:
        parts[-run:] = [_closed(kind, parts[-run:])]
        if len(parts) == 1 and parts[0].kind is kind:
            return parts[0]
    return _CHAINS[kind](tuple(parts))


def _fail_once(kinds: list, joined) -> OpticKind:
    """Raise, or warn and return setter, at the first pair where the left
    fold of ``join_kind`` over ``kinds`` fails or falls back."""
    kind = kinds[0]
    for nxt in kinds[1:]:
        pair = _JOIN[kind][nxt]
        if pair is INCOMPATIBLE:
            raise CompositionError(kind, nxt)
        if isinstance(pair, Fallback) and joined is not INCOMPATIBLE:
            import warnings  # the only warning; kept off the import path

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
    # parts: the segments of a chain of ``kind`` not built yet, or None; a
    # tuple until a third operand joins, so that a run of two copies a long
    # chain's parts once. run: the paths (``_fused``) that end ``parts``, if
    # more than one or not coerced yet, to close (``_closed``) once another
    # segment follows or at the end
    optic, kind, parts, run = first, first.kind, None, 0
    for nxt in rest:
        joined = _JOIN[kind][nxt.kind]
        if joined is kind and parts is not None:
            if type(parts) is tuple:
                parts = [*parts]
        else:
            if _JOIN[target].get(joined) is not target:
                # the pair falls back, or its join tie-broke away from the
                # expression's join
                joined = target
            if parts is not None:
                optic, run = _chain(kind, parts, run), 0
            kind = joined
            parts = _segments(optic, kind)
        if kind in _PATH_SEGMENT and hasattr(nxt, "_fused"):
            # a path joins its run as it is, to be coerced once the run closes
            if type(parts) is tuple:
                parts = [*parts]
            parts.append(nxt)
            run += 1
            continue
        segments = _segments(nxt, kind)
        head = segments[0]
        if type(head) is type(parts[-1]) and hasattr(head, "_fused"):
            if type(parts) is tuple:
                parts = [*parts]
            parts.append(head)
            run, segments = (run or 1) + 1, segments[1:]
        if run and segments:
            parts[-run:] = [_closed(kind, parts[-run:])]
            run = 0
        parts += segments
    return optic if parts is None else _chain(kind, parts, run)
