"""Kind lattice, composition, and upcasts.

``join_kind`` is total: it returns the minimal named kind covering both
operands, a ``Fallback`` to setter when both sides can still write but no
named kind fits, or ``INCOMPATIBLE`` when the directions cannot meet.
``compose`` coerces both operands to the joined kind and applies that
kind's one formula from ``_FORMULAS``; only the monadic lens, whose effect
threads through a plain lens, is composed by hand. ``upcast`` embeds an
optic into a more general kind along the public edges only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, Optional

from .errors import CompositionError, LengthError, UpcastError
from .kinds import (
    BUILD_CAPABLE, Capability, OpticKind, READ_CAPABLE, SINGLE_FOCUS,
    WRITE_CAPABLE, capability_set, closure,
)
from .optics import (
    Adapter, AffineTraversal, AchromaticLens, AlgebraicLens, Focus, Fold,
    Getter, Glass, Grate, Kaleidoscope, Lens, Miss, MonadicLens, Prism,
    Review, Setter, Traversal,
)

K = OpticKind


@dataclass(frozen=True)
class Fallback:
    """Join outcome when only the setter interface survives."""

    kind: OpticKind = K.SETTER


class _Incompatible:
    def __repr__(self):
        return "INCOMPATIBLE"


INCOMPATIBLE = _Incompatible()

# The kinds named by their capability set alone.
_CORE = (K.ADAPTER, K.LENS, K.PRISM, K.AFFINE_TRAVERSAL, K.TRAVERSAL,
         K.GRATE, K.GLASS)

_CORE_BY_CAPS = {capability_set(kind): kind for kind in _CORE}


def join_kind(k1: OpticKind, k2: OpticKind):
    """Total, commutative join on optic kinds."""
    if k1 is K.ADAPTER:
        return k2
    if k2 is K.ADAPTER:
        return k1

    # effectful lenses only thread through plain lenses
    if K.MONADIC_LENS in (k1, k2):
        other = k2 if k1 is K.MONADIC_LENS else k1
        return K.MONADIC_LENS if other is K.LENS else INCOMPATIBLE

    if k1 is k2:
        return k1

    if k1 in (K.GETTER, K.FOLD) or k2 in (K.GETTER, K.FOLD):
        if k1 not in READ_CAPABLE or k2 not in READ_CAPABLE:
            return INCOMPATIBLE
        if k1 in SINGLE_FOCUS and k2 in SINGLE_FOCUS:
            return K.GETTER
        return K.FOLD

    if K.REVIEW in (k1, k2):
        other = k2 if k1 is K.REVIEW else k1
        return K.REVIEW if other in BUILD_CAPABLE else INCOMPATIBLE

    if K.SETTER in (k1, k2):
        other = k2 if k1 is K.SETTER else k1
        return K.SETTER if other in WRITE_CAPABLE else INCOMPATIBLE

    if K.KALEIDOSCOPE in (k1, k2):
        other = k2 if k1 is K.KALEIDOSCOPE else k1
        if other is K.ALGEBRAIC_LENS:
            return K.KALEIDOSCOPE
        return Fallback()

    if K.ALGEBRAIC_LENS in (k1, k2):
        other = k2 if k1 is K.ALGEBRAIC_LENS else k1
        if other in (K.LENS, K.ACHROMATIC_LENS):
            return K.LENS
        # classification does not survive; continue as a plain lens
        union = closure(capability_set(other) | {Capability.PRODUCT})
        return _CORE_BY_CAPS.get(union, Fallback())

    if K.ACHROMATIC_LENS in (k1, k2):
        other = k2 if k1 is K.ACHROMATIC_LENS else k1
        union = closure(capability_set(other) | {Capability.PRODUCT})
        return _CORE_BY_CAPS.get(union, Fallback())

    union = closure(capability_set(k1) | capability_set(k2))
    return _CORE_BY_CAPS.get(union, Fallback())


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


def _embed(optic: Any, goal: OpticKind, edges) -> Optional[Any]:
    """Apply the shortest chain of ``edges`` from the optic's kind to
    ``goal``; None when no chain exists."""
    if optic.kind is goal:
        return optic
    frontier = [(optic.kind, [])]
    seen = {optic.kind}
    while frontier:
        kind, path = frontier.pop(0)
        if kind is goal:
            for step in path:
                optic = step(optic)
            return optic
        for (src, dst), fn in edges.items():
            if src is kind and dst not in seen:
                seen.add(dst)
                frontier.append((dst, path + [fn]))
    return None


def upcast(optic: Any, kind: OpticKind) -> Any:
    """Embed an optic into a more general kind; UpcastError if impossible."""
    out = _embed(optic, kind, _EMBED)
    if out is None:
        raise UpcastError(
            f"no embedding of {optic.kind.value} into {kind.value}"
        )
    return out


def _coerce(optic: Any, kind: OpticKind) -> Any:
    out = _embed(optic, kind, _COERCIONS)
    if out is None:
        raise CompositionError(optic.kind, kind)
    return out


# ---------------------------------------------------------------------------
# Composition formulas, outer optic first. Both operands arrive already
# coerced to the joined kind.


def _compose_lens(o1: Lens, o2: Lens) -> Lens:
    return Lens(
        view=lambda s: o2.view(o1.view(s)),
        update=lambda s, b: o1.update(s, o2.update(o1.view(s), b)),
    )


def _compose_achromatic(a1: AchromaticLens, a2: AchromaticLens) -> AchromaticLens:
    base = _compose_lens(Lens(a1.view, a1.update), Lens(a2.view, a2.update))
    return AchromaticLens(
        view=base.view,
        update=base.update,
        create=lambda b: a1.create(a2.create(b)),
    )


def _compose_prism(p1: Prism, p2: Prism) -> Prism:
    def match(s):
        outer = p1.match(s)
        if isinstance(outer, Miss):
            return outer
        inner = p2.match(outer.value)
        if isinstance(inner, Miss):
            return Miss(p1.build(inner.value))
        return inner

    return Prism(match=match, build=lambda b: p1.build(p2.build(b)))


def _compose_affine(o1: AffineTraversal, o2: AffineTraversal) -> AffineTraversal:
    def access(s):
        outer = o1.access(s)
        if isinstance(outer, Miss):
            return outer
        focus1, put1 = outer.value
        inner = o2.access(focus1)
        if isinstance(inner, Miss):
            return Miss(put1(inner.value))
        focus2, put2 = inner.value
        return Focus((focus2, lambda b: put1(put2(b))))

    return AffineTraversal(access=access)


def _compose_traversal(o1: Traversal, o2: Traversal) -> Traversal:
    def extract(s):
        outer_foci, outer_rebuild = o1.extract(s)
        parts = [o2.extract(a) for a in outer_foci]
        foci = [x for inner_foci, _ in parts for x in inner_foci]

        def rebuild(bs, _parts=parts, _outer=outer_rebuild, _n=len(foci)):
            if len(bs) != _n:
                raise LengthError(f"expected {_n} replacements, got {len(bs)}")
            rebuilt, cursor = [], 0
            for inner_foci, inner_rebuild in _parts:
                width = len(inner_foci)
                rebuilt.append(inner_rebuild(list(bs[cursor:cursor + width])))
                cursor += width
            return _outer(rebuilt)

        return foci, rebuild

    return Traversal(extract=extract)


def _compose_glass(o1: Glass, o2: Glass) -> Glass:
    def run(h, s):
        return o1.run(
            lambda k1: o2.run(lambda k2: h(lambda x: k2(k1(x))), k1(s)),
            s,
        )

    return Glass(run=run)


_FORMULAS = {
    K.ADAPTER: lambda a1, a2: Adapter(
        forward=lambda s: a2.forward(a1.forward(s)),
        backward=lambda b: a1.backward(a2.backward(b)),
    ),
    K.LENS: _compose_lens,
    K.ACHROMATIC_LENS: _compose_achromatic,
    K.PRISM: _compose_prism,
    K.AFFINE_TRAVERSAL: _compose_affine,
    K.TRAVERSAL: _compose_traversal,
    K.GRATE: lambda g1, g2: Grate(
        run=lambda h: g1.run(lambda k1: g2.run(lambda k2: h(lambda s: k2(k1(s)))))
    ),
    K.GLASS: _compose_glass,
    K.SETTER: lambda s1, s2: Setter(
        over=lambda f, s: s1.over(lambda a: s2.over(f, a), s)
    ),
    K.GETTER: lambda g1, g2: Getter(get=lambda s: g2.get(g1.get(s))),
    K.FOLD: lambda f1, f2: Fold(
        foci=lambda s: [x for a in f1.foci(s) for x in f2.foci(a)]
    ),
    K.REVIEW: lambda r1, r2: Review(build=lambda b: r1.build(r2.build(b))),
    K.ALGEBRAIC_LENS: lambda a1, a2: AlgebraicLens(
        view=lambda s: a2.view(a1.view(s)),
        classify=lambda ss, b: a1.classify(
            ss, a2.classify([a1.view(s) for s in ss], b)
        ),
    ),
    K.KALEIDOSCOPE: lambda k1, k2: Kaleidoscope(
        aggregate=lambda f: k1.aggregate(k2.aggregate(f))
    ),
}


def compose(o1: Any, o2: Any) -> Any:
    """Compose two optics, o1 outermost, per the kind lattice."""
    kind = join_kind(o1.kind, o2.kind)
    if kind is INCOMPATIBLE:
        raise CompositionError(o1.kind, o2.kind)

    if isinstance(kind, Fallback):
        warnings.warn(
            f"{o1.kind.value} and {o2.kind.value} compose only as a setter",
            stacklevel=2,
        )
        kind = K.SETTER

    # the effect threads through the plain-lens side, whichever it is
    if kind is K.MONADIC_LENS and o1.kind is K.MONADIC_LENS:
        inner = _coerce(o2, K.LENS)
        return MonadicLens(
            view=lambda s: inner.view(o1.view(s)),
            mupdate=lambda s, b: o1.mupdate(s, inner.update(o1.view(s), b)),
            pure=o1.pure,
        )
    if kind is K.MONADIC_LENS:
        outer = _coerce(o1, K.LENS)
        return MonadicLens(
            view=lambda s: o2.view(outer.view(s)),
            mupdate=lambda s, b: o2.mupdate(outer.view(s), b).map(
                lambda a: outer.update(s, a)
            ),
            pure=o2.pure,
        )
    return _FORMULAS[kind](_coerce(o1, kind), _coerce(o2, kind))
