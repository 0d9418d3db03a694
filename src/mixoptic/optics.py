"""Concrete optic representations and the combinators that run them.

Each optic variant is an immutable record (``records.record``), the tuple
of functions that defines it: a lens is ``(view, update)``. Its class also
holds one runner per combinator it runs natively, named ``_`` and the
combinator (``_view``, ``_over``, ``_tolist``, ...), and ``NATIVES`` is read
off those runners, so a kind runs natively exactly what it has a runner
for. The combinators (`view`, `over`, `preview`, ...) admit the optic once
and call its runner; they raise `KindError` when ``composition.ADMITS``
does not admit the combinator for the optic's kind.

A segment class of the walk chains (lens, prism, affine traversal and
traversal; fold for fold chains) also holds its walk steps: the write step
``_down(wholes) -> (foci, memo)``, the rebuild ``_up(memo, bs) -> wholes``
and, but for the traversal's and the fold's, the one-focus step
``_at(s) -> Miss(t) | (focus, rebuild)``, where any result that is not a
``Miss`` is a hit. Prisms and affine traversals run their combinators over
``_at``.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import Any, Callable, List, NamedTuple, Sequence, Tuple

from .errors import EmptyInputError, EmptyTrainingError, KindError
from .kinds import OpticKind
from .records import record


# ---------------------------------------------------------------------------
# Partial-match results.


@record
class Miss(NamedTuple):
    """No focus; carries the fully rebuilt whole."""

    value: Any


@record
class Focus(NamedTuple):
    """A focus was found; payload depends on the optic variant."""

    value: Any


# ---------------------------------------------------------------------------
# Runners, and what each kind runs natively. A runner takes the combinator's
# arguments after the optic. A chain type (``composition._CHAINS``) inherits
# its kind's runners, which then run the chain's own fields, and overrides
# those it walks in one pass.

# The combinators, named as the CLI actions plus "mupdate" and "zip" (a
# grate's or glass's continuation), and what a refusal says is not possible.
_REFUSALS = {
    "view": "view through", "preview": "preview through",
    "set": "set through", "over": "rewrite through",
    "tolist": "enumerate foci of", "review": "build through",
    "classify": "classify through", "aggregate": "aggregate through",
    "mupdate": "run an effectful update through", "zip": "zip through",
}
NATIVES = {}  # kind -> the combinators its record class runs natively


def natives(cls) -> frozenset:
    """The combinators ``cls`` has a runner for; ``set`` runs ``_over``."""
    return frozenset(name for name in _REFUSALS if getattr(
        cls, "_over" if name == "set" else "_" + name, None) is not None)


def _runs(name):
    """The runner that is the optic's own attribute ``name``: a field, or
    the method a chain type puts in its place; it adds no call frame."""
    return property(attrgetter(name))


def _listed_view(self, s):
    return [self._view(s)]


def _optic(cls):
    """The record class of its kind; a kind that views also previews and
    lists its one focus (the other rule, ``set`` from ``over``, is in
    ``natives``)."""
    record(cls)
    if hasattr(cls, "_view"):
        cls._preview, cls._tolist = _runs("_view"), _listed_view
    NATIVES[cls.kind] = natives(cls)
    return cls


# ---------------------------------------------------------------------------
# Concrete optics.


@_optic
class Adapter(NamedTuple):
    forward: Callable[[Any], Any]
    backward: Callable[[Any], Any]

    kind = OpticKind.ADAPTER
    _view = _runs("forward")
    _review = _runs("backward")

    def _over(self, fn, s):
        return self.backward(fn(self.forward(s)))


@_optic
class Lens(NamedTuple):
    view: Callable[[Any], Any]
    update: Callable[[Any, Any], Any]

    kind = OpticKind.LENS
    _view = _runs("view")

    def _over(self, fn, s):
        return self.update(s, fn(self.view(s)))

    def _down(self, wholes):  # the memo is the wholes ``update`` reads
        return list(map(self.view, wholes)), wholes

    def _up(self, memo, bs):
        return list(map(self.update, memo, bs))

    def _at(self, s):
        return self.view(s), partial(self.update, s)


@_optic
class AchromaticLens(NamedTuple):
    """A lens that can also conjure a whole from a focus alone."""

    view: Callable[[Any], Any]
    update: Callable[[Any, Any], Any]
    create: Callable[[Any], Any]

    kind = OpticKind.ACHROMATIC_LENS
    _view, _over = Lens._view, Lens._over
    _review = _runs("create")

    def _classify(self, training, b):
        return self.update(training[0], b) if training else self.create(b)


_HIT = object()  # what a prism's ``_down`` keeps for a whole it matched


@_optic
class Prism(NamedTuple):
    match: Callable[[Any], Any]  # s -> Miss t | Focus a
    build: Callable[[Any], Any]

    kind = OpticKind.PRISM
    _review = _runs("build")

    # an affine traversal's runners too, each over its ``_at``
    def _preview(self, s):  # a composite's is a walk that keeps nothing
        res = self._at(s)
        return None if isinstance(res, Miss) else res[0]

    def _tolist(self, s):  # lists a ``None`` focus, which ``over`` rewrites
        res = self._at(s)
        return [] if isinstance(res, Miss) else [res[0]]

    def _over(self, fn, s):
        res = self._at(s)
        return res.value if isinstance(res, Miss) else res[1](fn(res[0]))

    def _down(self, wholes):
        # the memo: per whole, the whole a miss returned or ``_HIT``
        memo, foci = [], []
        for res in map(self.match, wholes):
            if isinstance(res, Miss):
                memo.append(res.value)
            else:
                memo.append(_HIT)
                foci.append(res.value)
        return foci, memo

    def _up(self, memo, bs):
        build, bs = self.build, iter(bs)
        return [build(next(bs)) if kept is _HIT else kept for kept in memo]

    def _at(self, s):
        res = self.match(s)
        return res if isinstance(res, Miss) else (res.value, self.build)


@_optic
class AffineTraversal(NamedTuple):
    """At most one focus; `access` returns Miss t or Focus (a, b -> t)."""

    access: Callable[[Any], Any]

    kind = OpticKind.AFFINE_TRAVERSAL
    _preview, _tolist, _over = Prism._preview, Prism._tolist, Prism._over

    def _down(self, wholes):  # the memo: per whole, what ``access`` returned
        memo = list(map(self.access, wholes))
        return [res.value[0] for res in memo if not isinstance(res, Miss)], memo

    def _up(self, memo, bs):
        bs = iter(bs)
        return [res.value if isinstance(res, Miss) else res.value[1](next(bs))
                for res in memo]

    def _at(self, s):
        res = self.access(s)
        return res if isinstance(res, Miss) else res.value


@_optic
class Traversal(NamedTuple):
    """`extract` returns (foci, rebuild); rebuild demands the same arity."""

    extract: Callable[[Any], Tuple[Sequence[Any], Callable[[Sequence[Any]], Any]]]

    kind = OpticKind.TRAVERSAL

    def _over(self, fn, s):
        foci, rebuild = self.extract(s)
        return rebuild([fn(a) for a in foci])

    def _tolist(self, s):
        # a composite's is one walk down that rebuilds nothing
        return list(self.extract(s)[0])

    def _down(self, wholes):
        # the memo: per whole, its rebuild and its number of foci
        foci, memo = [], []
        for inner, rebuild in map(self.extract, wholes):
            foci += inner
            memo += (rebuild, len(inner))
        return foci, memo

    def _up(self, memo, bs):
        rebuilt, cursor, pairs = [], 0, iter(memo)
        for rebuild, width in zip(pairs, pairs):
            rebuilt.append(rebuild(bs[cursor:cursor + width]))
            cursor += width
        return rebuilt


@_optic
class Grate(NamedTuple):
    """`run` turns a continuation ((s -> a) -> b) into a t."""

    run: Callable[[Callable[[Callable[[Any], Any]], Any]], Any]

    kind = OpticKind.GRATE

    def _over(self, fn, s):  # a glass's too: zip with ``fn`` of the focus
        return self._zip(lambda k: fn(k(s)), s)

    def _zip(self, continuation, s):  # a grate zips without the whole
        return self.run(continuation)


@_optic
class Glass(NamedTuple):
    """Like a grate but with access to the concrete whole: run(f, s) -> t."""

    run: Callable[[Callable[[Callable[[Any], Any]], Any], Any], Any]

    kind = OpticKind.GLASS
    _over, _zip = Grate._over, _runs("run")


@_optic
class Setter(NamedTuple):
    over: Callable[[Callable[[Any], Any], Any], Any]

    kind = OpticKind.SETTER
    _over = _runs("over")


@_optic
class Getter(NamedTuple):
    get: Callable[[Any], Any]

    kind = OpticKind.GETTER
    _view = _runs("get")


@_optic
class Review(NamedTuple):
    build: Callable[[Any], Any]

    kind = OpticKind.REVIEW
    _review = _runs("build")


@_optic
class Fold(NamedTuple):
    foci: Callable[[Any], Sequence[Any]]

    kind = OpticKind.FOLD

    def _tolist(self, s):
        return list(self.foci(s))

    def _down(self, wholes):  # a fold chain's, which rebuilds nothing
        foci = []
        for s in wholes:
            foci += self.foci(s)
        return foci, None


@_optic
class AlgebraicLens(NamedTuple):
    """A lens whose update direction consumes a list of wholes."""

    view: Callable[[Any], Any]
    classify: Callable[[Sequence[Any], Any], Any]

    kind = OpticKind.ALGEBRAIC_LENS
    _view = Lens._view

    def _over(self, fn, s):
        return self.classify([s], fn(self.view(s)))

    def _classify(self, training, b):
        if not training:
            raise EmptyTrainingError("classify requires a non-empty training list")
        return self.classify(training, b)


@_optic
class Kaleidoscope(NamedTuple):
    """`aggregate` lifts a list-level focus function to the wholes."""

    aggregate: Callable[[Callable[[Sequence[Any]], Any]], Callable[[Sequence[Any]], Any]]

    kind = OpticKind.KALEIDOSCOPE

    def _over(self, fn, s):
        return self.aggregate(lambda foci: fn(foci[0]))([s])

    def _aggregate(self, fn, sources):
        if not sources:
            raise EmptyInputError("aggregate requires a non-empty input list")
        return self.aggregate(fn)(list(sources))


@_optic
class MonadicLens(NamedTuple):
    """A lens whose update runs in an effect; `pure` injects into it."""

    view: Callable[[Any], Any]
    mupdate: Callable[[Any, Any], Any]
    pure: Callable[[Any], Any]

    kind = OpticKind.MONADIC_LENS
    _view = Lens._view
    _mupdate = _runs("mupdate")

    def _over(self, fn, s):
        return self.mupdate(s, fn(self.view(s))).value


# ---------------------------------------------------------------------------
# Combinators. Each runs its runner on the optic ``_admit`` returns: the
# optic itself when its kind's row of ``NATIVES`` holds the combinator, the
# optic upcast to the kind ``composition._ROUTE`` names when
# ``composition.ADMITS`` admits it there (such as ``classify`` on an
# adapter, run on it as an achromatic lens), and otherwise ``KindError``.
# Only a call that is not native imports ``composition``, which imports
# this module.


def _admit(optic: Any, combinator: str) -> Any:
    kind = optic.kind
    if combinator in NATIVES[kind]:
        return optic
    from .composition import _ROUTE, upcast
    goal = _ROUTE.get((kind, combinator))
    if goal is None:
        raise KindError(f"cannot {_REFUSALS[combinator]} {kind.with_article}")
    return upcast(optic, goal)


def view(optic: Any, source: Any) -> Any:
    """Extract the unique focus of a single-focus read-capable optic."""
    return _admit(optic, "view")._view(source)


def preview(optic: Any, source: Any) -> Any:
    """Return the focus if present, else None."""
    return _admit(optic, "preview")._preview(source)


def over(optic: Any, fn: Callable[[Any], Any], source: Any) -> Any:
    """Rewrite every focus with `fn`, returning the new whole."""
    return _admit(optic, "over")._over(fn, source)


def set_value(optic: Any, source: Any, value: Any) -> Any:
    """Replace the focus with a constant; misses return the whole unchanged."""
    return _admit(optic, "set")._over(lambda _: value, source)


def to_list_of(optic: Any, source: Any) -> List[Any]:
    """Collect all foci of a read-capable optic, left to right."""
    return _admit(optic, "tolist")._tolist(source)


def classify(optic: Any, training: Sequence[Any], value: Any) -> Any:
    """Rebuild a whole from a focus, guided by a list of example wholes."""
    return _admit(optic, "classify")._classify(training, value)


def aggregate(optic: Any, fn: Callable[[Sequence[Any]], Any], sources: Sequence[Any]) -> Any:
    """Combine a list of wholes focus-wise with `fn`."""
    return _admit(optic, "aggregate")._aggregate(fn, sources)


def mupdate(optic: Any, source: Any, value: Any) -> Any:
    """Effectful update; returns the effect wrapping the new whole."""
    return _admit(optic, "mupdate")._mupdate(source, value)


def review(optic: Any, value: Any) -> Any:
    """Construct a whole from a focus alone."""
    return _admit(optic, "review")._review(value)


def grate_apply(optic: Any, continuation: Callable[[Callable[[Any], Any]], Any],
                source: Any = None) -> Any:
    """Run a grate's or glass's zipping continuation directly.

    A grate, and an adapter, which zips as one, ignore ``source``; a glass,
    and a lens, achromatic-lens or monadic-lens, which zip as one, need it.
    """
    return _admit(optic, "zip")._zip(continuation, source)
