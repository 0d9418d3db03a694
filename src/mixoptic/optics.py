"""Concrete optic representations and the combinators that run them.

Each optic variant is an immutable record (``records.record``), the tuple
of functions that defines it: a lens is ``(view, update)``. The combinators
(`view`, `over`, `preview`, ...) dispatch on the kind of the optic they run
on, which is the given optic or, for a cell of ``composition.ADMITS`` that
is not native to its kind, its upcast; they raise `KindError` when
``composition.ADMITS`` does not admit the combinator for the optic's kind.
"""

from __future__ import annotations

from typing import Any, Callable, List, NamedTuple, Sequence, Tuple

from .errors import EmptyInputError, EmptyTrainingError, KindError
from .kinds import NATIVES, OpticKind
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
# Concrete optics.


@record
class Adapter(NamedTuple):
    forward: Callable[[Any], Any]
    backward: Callable[[Any], Any]

    kind = OpticKind.ADAPTER


@record
class Lens(NamedTuple):
    view: Callable[[Any], Any]
    update: Callable[[Any, Any], Any]

    kind = OpticKind.LENS
    # a composite's ``over`` in one walk down its parts; a plain lens has
    # none and ``over`` runs it inline, with no frame of its own
    _over = None


@record
class AchromaticLens(NamedTuple):
    """A lens that can also conjure a whole from a focus alone."""

    view: Callable[[Any], Any]
    update: Callable[[Any, Any], Any]
    create: Callable[[Any], Any]

    kind = OpticKind.ACHROMATIC_LENS

    _over = None  # as a lens's


@record
class Prism(NamedTuple):
    match: Callable[[Any], Any]  # s -> Miss t | Focus a
    build: Callable[[Any], Any]

    kind = OpticKind.PRISM

    def _preview(self, s):
        # a composite's is one walk down that rebuilds nothing on a miss
        res = self.match(s)
        return res.value if isinstance(res, Focus) else None


@record
class AffineTraversal(NamedTuple):
    """At most one focus; `access` returns Miss t or Focus (a, b -> t)."""

    access: Callable[[Any], Any]

    kind = OpticKind.AFFINE_TRAVERSAL

    def _preview(self, s):  # as a prism's
        res = self.access(s)
        return res.value[0] if isinstance(res, Focus) else None


@record
class Traversal(NamedTuple):
    """`extract` returns (foci, rebuild); rebuild demands the same arity."""

    extract: Callable[[Any], Tuple[Sequence[Any], Callable[[Sequence[Any]], Any]]]

    kind = OpticKind.TRAVERSAL

    def _to_list(self, s):
        # a composite's is one walk down that keeps nothing to rebuild with
        return list(self.extract(s)[0])


@record
class Grate(NamedTuple):
    """`run` turns a continuation ((s -> a) -> b) into a t."""

    run: Callable[[Callable[[Callable[[Any], Any]], Any]], Any]

    kind = OpticKind.GRATE


@record
class Glass(NamedTuple):
    """Like a grate but with access to the concrete whole: run(f, s) -> t."""

    run: Callable[[Callable[[Callable[[Any], Any]], Any], Any], Any]

    kind = OpticKind.GLASS


@record
class Setter(NamedTuple):
    over: Callable[[Callable[[Any], Any], Any], Any]

    kind = OpticKind.SETTER


@record
class Getter(NamedTuple):
    get: Callable[[Any], Any]

    kind = OpticKind.GETTER


@record
class Review(NamedTuple):
    build: Callable[[Any], Any]

    kind = OpticKind.REVIEW


@record
class Fold(NamedTuple):
    foci: Callable[[Any], Sequence[Any]]

    kind = OpticKind.FOLD


@record
class AlgebraicLens(NamedTuple):
    """A lens whose update direction consumes a list of wholes."""

    view: Callable[[Any], Any]
    classify: Callable[[Sequence[Any], Any], Any]

    kind = OpticKind.ALGEBRAIC_LENS

    def _over(self, fn, s):
        # a composite's ``over`` reads each part's view once
        return self.classify([s], fn(self.view(s)))


@record
class Kaleidoscope(NamedTuple):
    """`aggregate` lifts a list-level focus function to the wholes."""

    aggregate: Callable[[Callable[[Sequence[Any]], Any]], Callable[[Sequence[Any]], Any]]

    kind = OpticKind.KALEIDOSCOPE


@record
class MonadicLens(NamedTuple):
    """A lens whose update runs in an effect; `pure` injects into it."""

    view: Callable[[Any], Any]
    mupdate: Callable[[Any, Any], Any]
    pure: Callable[[Any], Any]

    kind = OpticKind.MONADIC_LENS

    def _over(self, fn, s):
        # as an algebraic lens's: a composite's reads each part's view once
        return self.mupdate(s, fn(self.view(s))).value


# ---------------------------------------------------------------------------
# Combinators. Each runs on the optic ``_admit`` returns and dispatches on
# its kind: the optic itself when its kind's row of ``kinds.NATIVES`` holds
# the combinator, the optic upcast to the kind ``composition._ROUTE`` names
# when ``composition.ADMITS`` admits it there (such as ``classify`` on an
# adapter, run on it as an achromatic lens), and otherwise ``KindError``.
# ``composition`` imports this module, so only a call that is not native
# imports it.


def _admit(optic: Any, combinator: str, refusal: str) -> Any:
    kind = optic.kind
    if combinator in NATIVES[kind]:
        return optic
    from .composition import _ROUTE, upcast
    goal = _ROUTE.get((kind, combinator))
    if goal is None:
        raise KindError(f"cannot {refusal} {kind.with_article}")
    return upcast(optic, goal)


def view(optic: Any, source: Any) -> Any:
    """Extract the unique focus of a single-focus read-capable optic."""
    optic = _admit(optic, "view", "view through")
    kind = optic.kind
    if kind is OpticKind.ADAPTER:
        return optic.forward(source)
    if kind is OpticKind.GETTER:
        return optic.get(source)
    return optic.view(source)


def preview(optic: Any, source: Any) -> Any:
    """Return the focus if present, else None."""
    optic = _admit(optic, "preview", "preview through")
    kind = optic.kind
    if kind is OpticKind.PRISM or kind is OpticKind.AFFINE_TRAVERSAL:
        return optic._preview(source)
    return view(optic, source)


def over(optic: Any, fn: Callable[[Any], Any], source: Any) -> Any:
    """Rewrite every focus with `fn`, returning the new whole."""
    optic = _admit(optic, "over", "rewrite through")
    kind = optic.kind
    if kind is OpticKind.ADAPTER:
        return optic.backward(fn(optic.forward(source)))
    if kind is OpticKind.LENS or kind is OpticKind.ACHROMATIC_LENS:
        if optic._over is None:
            return optic.update(source, fn(optic.view(source)))
        return optic._over(fn, source)
    if kind is OpticKind.PRISM:
        res = optic.match(source)
        return optic.build(fn(res.value)) if isinstance(res, Focus) else res.value
    if kind is OpticKind.AFFINE_TRAVERSAL:
        res = optic.access(source)
        if isinstance(res, Focus):
            focus, rebuild = res.value
            return rebuild(fn(focus))
        return res.value
    if kind is OpticKind.TRAVERSAL:
        foci, rebuild = optic.extract(source)
        return rebuild([fn(a) for a in foci])
    if kind is OpticKind.GRATE:
        return optic.run(lambda k: fn(k(source)))
    if kind is OpticKind.GLASS:
        return optic.run(lambda k: fn(k(source)), source)
    if kind is OpticKind.SETTER:
        return optic.over(fn, source)
    if kind is OpticKind.KALEIDOSCOPE:
        return optic.aggregate(lambda foci: fn(foci[0]))([source])
    # an algebraic or monadic lens
    return optic._over(fn, source)


def set_value(optic: Any, source: Any, value: Any) -> Any:
    """Replace the focus with a constant; misses return the whole unchanged."""
    return over(_admit(optic, "set", "set through"), lambda _: value, source)


def to_list_of(optic: Any, source: Any) -> List[Any]:
    """Collect all foci of a read-capable optic, left to right."""
    optic = _admit(optic, "tolist", "enumerate foci of")
    kind = optic.kind
    if kind is OpticKind.FOLD:
        return list(optic.foci(source))
    if kind is OpticKind.TRAVERSAL:
        return optic._to_list(source)
    if kind in (OpticKind.PRISM, OpticKind.AFFINE_TRAVERSAL):
        found = preview(optic, source)
        return [] if found is None else [found]
    return [view(optic, source)]


def classify(optic: Any, training: Sequence[Any], value: Any) -> Any:
    """Rebuild a whole from a focus, guided by a list of example wholes."""
    optic = _admit(optic, "classify", "classify through")
    if optic.kind is OpticKind.ALGEBRAIC_LENS:
        if not training:
            raise EmptyTrainingError("classify requires a non-empty training list")
        return optic.classify(training, value)
    if not training:
        return optic.create(value)
    return optic.update(training[0], value)


def aggregate(optic: Any, fn: Callable[[Sequence[Any]], Any], sources: Sequence[Any]) -> Any:
    """Combine a list of wholes focus-wise with `fn`."""
    optic = _admit(optic, "aggregate", "aggregate through")
    if not sources:
        raise EmptyInputError("aggregate requires a non-empty input list")
    return optic.aggregate(fn)(list(sources))


def mupdate(optic: Any, source: Any, value: Any) -> Any:
    """Effectful update; returns the effect wrapping the new whole."""
    optic = _admit(optic, "mupdate", "run an effectful update through")
    return optic.mupdate(source, value)


def review(optic: Any, value: Any) -> Any:
    """Construct a whole from a focus alone."""
    optic = _admit(optic, "review", "build through")
    kind = optic.kind
    if kind is OpticKind.ADAPTER:
        return optic.backward(value)
    if kind is OpticKind.ACHROMATIC_LENS:
        return optic.create(value)
    return optic.build(value)


def grate_apply(optic: Any, continuation: Callable[[Callable[[Any], Any]], Any],
                source: Any = None) -> Any:
    """Run a grate's or glass's zipping continuation directly.

    A grate, and an adapter, which zips as one, ignore ``source``; a glass,
    and a lens, achromatic-lens or monadic-lens, which zip as one, need it.
    """
    optic = _admit(optic, "zip", "zip through")
    if optic.kind is OpticKind.GRATE:
        return optic.run(continuation)
    return optic.run(continuation, source)
