"""The power series of a traversal, as one flat value.

A traversal from ``S`` to ``T`` with foci ``A`` and replacements ``B`` is a
point of the power series ∑ₙ Aⁿ × (Bⁿ → T): for each whole, some number n of
foci and one function that takes n replacements and gives the new whole. A
``FunList`` stores exactly that pair: ``sources``, the tuple of the n foci,
and ``rebuild``, which takes a sequence of exactly ``len(sources)``
replacements in source order.

The applicative structure works on the pair directly, so every operation is
one pass over the sources and nothing recurses on their number: ``fmap``
post-composes onto ``rebuild``, ``ap`` and ``sequence`` concatenate sources
and cut the replacements at fixed offsets, and ``map_sources`` rewrites the
sources left to right. Internal rebuilds trust their argument's length;
``no_fun`` is the checked view and raises ``LengthError`` on a wrong count.
``More``, ``pure`` and ``singleton`` build the flat form.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Sequence, Tuple

from .errors import LengthError
from .records import record


@record
class FunList(NamedTuple):
    sources: Tuple[object, ...]
    rebuild: Callable[[Sequence[object]], object]  # takes len(sources) values


def pure(b) -> FunList:
    """No sources; rebuilds to ``b``."""
    return FunList((), lambda _bs: b)


def More(source, rest: FunList) -> FunList:
    """Prepend ``source``. The payload of ``rest`` is a function of one
    argument, which receives the replacement for ``source``."""
    return FunList((source,) + rest.sources,
                   lambda bs: rest.rebuild(bs[1:])(bs[0]))


def singleton(s) -> FunList:
    """One stored source whose payload is the identity on its replacement."""
    return FunList((s,), lambda bs: bs[0])


def fmap(f: Callable, fl: FunList) -> FunList:
    rebuild = fl.rebuild
    return FunList(fl.sources, lambda bs: f(rebuild(bs)))


def ap(ff: FunList, fa: FunList) -> FunList:
    """Applicative combination: apply the functions in ff to the values in fa."""
    n, rf, ra = len(ff.sources), ff.rebuild, fa.rebuild
    return FunList(ff.sources + fa.sources, lambda bs: rf(bs[:n])(ra(bs[n:])))


def no_fun(fl: FunList) -> Tuple[List[object], Callable[[Sequence[object]], object]]:
    """Split a FunList into its stored sources and a rebuilding function.

    The rebuilding function demands exactly one replacement per source and
    raises LengthError otherwise.
    """
    n, inner = len(fl.sources), fl.rebuild

    def rebuild(bs):
        if len(bs) != n:
            raise LengthError(f"expected {n} replacements, got {len(bs)}")
        return inner(bs)

    return list(fl.sources), rebuild


def sequence(fls: Sequence[FunList]) -> FunList:
    """Combine a list of FunLists into a FunList of lists."""
    srcs: List[object] = []
    cuts = []
    for part in fls:
        start = len(srcs)
        srcs.extend(part.sources)
        cuts.append((part.rebuild, start, len(srcs)))
    return FunList(tuple(srcs),
                   lambda bs: [r(bs[i:j]) for r, i, j in cuts])


def of_extract(foci: Sequence[object], rebuild: Callable) -> FunList:
    """Build the FunList whose sources are ``foci`` and whose evaluation is
    ``rebuild`` applied to the replacements in order."""
    return FunList(tuple(foci), rebuild)


def sources(fl: FunList) -> List[object]:
    return list(fl.sources)


def map_sources(f: Callable, fl: FunList) -> FunList:
    """Rewrite every stored source, left to right, keeping the payload."""
    return FunList(tuple(map(f, fl.sources)), fl.rebuild)


def fuse(fl: FunList):
    """Evaluate a FunList by feeding each stored source back to the payload."""
    return fl.rebuild(list(fl.sources))
