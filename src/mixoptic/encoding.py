"""Profunctor encoding: optics as carrier transformers, and back.

``ex2prof`` turns a concrete optic into a ``ProfOptic``: a function that
rewrites any supported carrier over the focus pair into a carrier over the
whole pair. Most transformers, as for a Tambara module, lift the carrier
through an action, then apply one ``dimap``: a lens lifts through the
product, a prism the sum, an affine traversal the product then the sum, a
traversal FunList, a grate the closed action, a glass the closed action then
the product, an algebraic lens the list algebra, and an adapter, getter and
review through nothing; the other kinds build their carrier. ``prof2ex``
recovers the normal form one record field at a time, running the
transformer on identity probes of the carriers that field needs.
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, NamedTuple, Optional

from . import carriers as c
from . import funlist as fl
from .errors import LengthError, NormalFormError
from .kinds import OpticKind
from .optics import (
    Adapter, AffineTraversal, AchromaticLens, AlgebraicLens, Focus, Fold,
    Getter, Glass, Grate, Kaleidoscope, Lens, Miss, MonadicLens, Prism,
    Review, Setter, Traversal,
)
from .records import record

_ALL_CARRIERS = frozenset({
    c.Viewing, c.Previewing, c.Replacing, c.Classifying,
    c.Aggregating, c.Updating, c.Folding, c.Reviewing, c.Grating, c.Glassing,
})
# The carriers whose ``dimap`` discards the output map.
_READ_ONLY = (c.Viewing, c.Previewing, c.Folding)


@record
class ProfOptic(NamedTuple):
    """An optic in transformer form.

    ``transform`` maps a carrier over the foci to a carrier over the wholes.
    ``supported`` is the carrier classes the transformer accepts, and
    ``pure`` the effect injector when the transformer came from an
    effectful lens.
    """

    transform: Callable[[c.Carrier], c.Carrier]
    supported: FrozenSet[type]
    pure: Optional[Callable[[Any], Any]] = None

    def then(self, inner: "ProfOptic") -> "ProfOptic":
        """Compose transformers, outer first."""
        return ProfOptic(
            transform=lambda p: self.transform(inner.transform(p)),
            supported=self.supported & inner.supported,
            pure=self.pure if self.pure is not None else inner.pure,
        )


def ex2prof(optic: Any) -> ProfOptic:
    kind = optic.kind

    if kind is OpticKind.ADAPTER:
        fwd, bwd = optic.forward, optic.backward
        return ProfOptic(lambda p: p.dimap(fwd, bwd), _ALL_CARRIERS)

    if kind in (OpticKind.LENS, OpticKind.ACHROMATIC_LENS):
        v, u = optic.view, optic.update
        supported = {c.Viewing, c.Previewing, c.Replacing, c.Folding,
                     c.Updating, c.Glassing}

        def t_lens(p):
            return p.lift_product().dimap(
                lambda s: (s, v(s)), lambda pair: u(pair[0], pair[1])
            )

        if kind is OpticKind.LENS:
            return ProfOptic(t_lens, frozenset(supported))

        create = optic.create

        def ach_classify(wholes, b):
            return u(wholes[0], b) if wholes else create(b)

        def t_ach(p):
            if isinstance(p, c.Reviewing):
                return c.Reviewing(lambda b: create(p.run(b)))
            if isinstance(p, c.Classifying):
                return c.Classifying(
                    lambda ss, b: ach_classify(ss, p.run([v(s) for s in ss], b))
                )
            return t_lens(p)

        supported |= {c.Reviewing, c.Classifying}
        return ProfOptic(t_ach, frozenset(supported))

    if kind is OpticKind.PRISM:
        match, build = optic.match, optic.build

        def r_prism(m):
            return m.value if isinstance(m, Miss) else build(m.value)

        return ProfOptic(
            lambda p: p.lift_sum().dimap(match, r_prism),
            frozenset({c.Previewing, c.Replacing, c.Folding, c.Reviewing}),
        )

    if kind is OpticKind.AFFINE_TRAVERSAL:
        access = optic.access

        def l_affine(s):
            res = access(s)
            if isinstance(res, Miss):
                return res
            focus, rebuild = res.value
            return Focus((rebuild, focus))  # residual first

        def r_affine(m):
            if isinstance(m, Miss):
                return m.value
            rebuild, b = m.value
            return rebuild(b)

        return ProfOptic(
            lambda p: p.lift_product().lift_sum().dimap(l_affine, r_affine),
            frozenset({c.Previewing, c.Replacing, c.Folding}),
        )

    if kind is OpticKind.TRAVERSAL:
        extract = optic.extract

        def l_trav(s):
            foci, rebuild = extract(s)
            return fl.of_extract(foci, rebuild)

        return ProfOptic(
            lambda p: p.lift_funlist().dimap(l_trav, fl.fuse),
            frozenset({c.Replacing, c.Folding}),
        )

    if kind is OpticKind.GRATE:
        grate = optic.run
        return ProfOptic(
            lambda p: p.lift_closed().dimap(lambda s: lambda k: k(s), grate),
            frozenset({c.Replacing, c.Grating, c.Glassing}),
        )

    if kind is OpticKind.GLASS:
        glass = optic.run
        return ProfOptic(
            lambda p: p.lift_closed().lift_product().dimap(
                lambda s: (s, lambda k: k(s)),
                lambda pair: glass(pair[1], pair[0]),
            ),
            frozenset({c.Replacing, c.Glassing}),
        )

    if kind is OpticKind.SETTER:
        over_fn = optic.over

        def t_setter(p):
            if not isinstance(p, c.Replacing):
                raise p._no("mapping")
            return c.Replacing(lambda u: lambda s: over_fn(p.run(u), s))

        return ProfOptic(t_setter, frozenset({c.Replacing}))

    if kind is OpticKind.GETTER:
        get = optic.get
        ident = lambda x: x

        def t_getter(p):
            if not isinstance(p, _READ_ONLY):
                raise p._no("read-only")
            return p.dimap(get, ident)

        return ProfOptic(t_getter, frozenset(_READ_ONLY))

    if kind is OpticKind.REVIEW:
        build = optic.build
        ident = lambda x: x

        def t_review(p):
            if not isinstance(p, c.Reviewing):
                raise p._no("write-only")
            return p.dimap(ident, build)

        return ProfOptic(t_review, frozenset({c.Reviewing}))

    if kind is OpticKind.FOLD:
        foci = optic.foci

        def t_fold(p):
            if not isinstance(p, c.Folding):
                raise p._no("folding")
            return c.Folding(lambda s: [x for a in foci(s) for x in p.run(a)])

        return ProfOptic(t_fold, frozenset({c.Folding}))

    if kind is OpticKind.ALGEBRAIC_LENS:
        v, classify = optic.view, optic.classify
        return ProfOptic(
            lambda p: p.lift_list_algebra().dimap(
                lambda s: ([s], v(s)),
                lambda pair: classify(pair[0], pair[1]),
            ),
            frozenset({c.Viewing, c.Previewing, c.Folding, c.Replacing,
                       c.Classifying, c.Aggregating}),
        )

    if kind is OpticKind.KALEIDOSCOPE:
        agg = optic.aggregate

        def t_kal(p):
            if isinstance(p, c.Aggregating):
                return c.Aggregating(
                    lambda ss, f: agg(lambda foci: p.run(foci, f))(ss)
                )
            if isinstance(p, c.Replacing):
                return c.Replacing(
                    lambda u: lambda s: agg(lambda foci: p.run(u)(foci[0]))([s])
                )
            raise p._no("funlist-applicative")

        return ProfOptic(t_kal, frozenset({c.Aggregating, c.Replacing}))

    if kind is OpticKind.MONADIC_LENS:
        v, mupd, pure = optic.view, optic.mupdate, optic.pure

        def t_monadic(p):
            if isinstance(p, c.Updating):
                return c.Updating(
                    lambda b, s: p.run(b, v(s)).bind(lambda b2: mupd(s, b2))
                )
            if isinstance(p, c.Replacing):
                return c.Replacing(
                    lambda u: lambda s: mupd(s, p.run(u)(v(s))).value
                )
            if not isinstance(p, _READ_ONLY):
                raise p._no("read-only")
            return p.dimap(v, lambda x: x)

        return ProfOptic(
            t_monadic,
            frozenset({*_READ_ONLY, c.Updating, c.Replacing}),
            pure=pure,
        )

    raise NormalFormError(f"no transformer for kind {kind!r}")


# ---------------------------------------------------------------------------
# prof2ex: probe the transformer with identity carriers, one record field at
# a time. ``_FIELDS`` maps a field name (a grate's and a glass's ``run``, by
# their class) to the carriers whose probes it runs and its reader, which
# takes the transformer to the field; a kind needs what its fields need.

_VIEW = c.Viewing(lambda a: a)
_OVER = c.Replacing(lambda f: f)
_PREVIEW = c.Previewing(lambda a: a)
_FOCI = c.Folding(lambda a: [a])
_BUILD = c.Reviewing(lambda x: x)


def _match(p, hit=lambda p, found, s: found):
    """A prism's ``match``; with ``hit=_rebuilt``, an affine's ``access``."""
    def match(s):
        found = p.transform(_PREVIEW).run(s)
        if found is None:
            return Miss(p.transform(_OVER).run(lambda a: a)(s))
        return Focus(hit(p, found, s))

    return match


def _rebuilt(p, found, s):
    return found, lambda b: p.transform(_OVER).run(lambda _: b)(s)


def _extract(p):
    def extract(s):
        foci = p.transform(_FOCI).run(s)

        def rebuild(bs, _n=len(foci)):
            if len(bs) != _n:
                raise LengthError(f"expected {_n} replacements, got {len(bs)}")
            queue = iter(bs)
            return p.transform(_OVER).run(lambda _: next(queue))(s)

        return foci, rebuild

    return extract


def _aggregate(p):
    run = p.transform(c.Aggregating(lambda foci, f: f(foci))).run
    return lambda f: lambda ss: run(ss, f)


def _mupdate(p):
    run = p.transform(c.Updating(lambda b, a: p.pure(b))).run
    return lambda s, b: run(b, s)


def _pure(p):
    if p.pure is None:
        raise NormalFormError(
            "cannot extract an effectful lens: no effect context recorded"
        )
    return p.pure


_FIELDS = {
    **dict.fromkeys(("view", "forward", "get"), (
        {c.Viewing}, lambda p: lambda s: p.transform(_VIEW).run(s))),
    "update": ({c.Replacing},
               lambda p: lambda s, b: p.transform(_OVER).run(lambda _: b)(s)),
    **dict.fromkeys(("build", "backward", "create"), (
        {c.Reviewing}, lambda p: lambda b: p.transform(_BUILD).run(b))),
    "match": ({c.Previewing, c.Replacing}, _match),
    "access": ({c.Previewing, c.Replacing}, lambda p: _match(p, _rebuilt)),
    "extract": ({c.Folding, c.Replacing}, _extract),
    "over": ({c.Replacing},
             lambda p: lambda f, s: p.transform(_OVER).run(f)(s)),
    "foci": ({c.Folding}, lambda p: lambda s: p.transform(_FOCI).run(s)),
    "classify": ({c.Classifying},
                 lambda p: p.transform(c.Classifying(lambda ss, b: b)).run),
    "aggregate": ({c.Aggregating}, _aggregate),
    "mupdate": ({c.Updating}, _mupdate),
    "pure": (set(), _pure),
    Grate: ({c.Grating},
            lambda p: p.transform(c.Grating(lambda h: h(lambda a: a))).run),
    Glass: ({c.Glassing}, lambda p: p.transform(
        c.Glassing(lambda h, a: h(lambda x: x))).run),
}


def _form(cls):
    """The record class, the probes its fields need, and their readers."""
    entries = [_FIELDS.get(name) or _FIELDS[cls] for name in cls._fields]
    return (cls, frozenset().union(*(probes for probes, _ in entries)),
            tuple(read for _, read in entries))


_FORMS = {cls.kind: _form(cls) for cls in (
    Adapter, Lens, AchromaticLens, Prism, AffineTraversal, Traversal, Grate,
    Glass, Setter, Getter, Review, Fold, AlgebraicLens, Kaleidoscope,
    MonadicLens)}


def prof2ex(p: ProfOptic, kind: OpticKind) -> Any:
    form = _FORMS.get(kind)
    if form is None:
        raise NormalFormError(f"no normal form registered for {kind!r}")
    cls, needed, readers = form
    if not needed <= p.supported:
        missing = ", ".join(sorted(
            probe.__name__ for probe in needed - p.supported
        ))
        raise NormalFormError(
            f"cannot extract {kind.with_article}: transformer does not act on"
            f" {missing}"
        )
    return cls(*[read(p) for read in readers])
