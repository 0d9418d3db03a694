"""Profunctor encoding: optics as carrier transformers, and back.

``ex2prof`` turns a concrete optic into a ``ProfOptic``: a function that
rewrites any supported carrier over the focus pair into a carrier over the
whole pair. ``prof2ex`` recovers the concrete normal form by running the
transformer on kind-specific identity probes.
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


def _lens_glassing(view, update, p):
    def run(h, s):
        return update(s, p.run(lambda k2: h(lambda x: k2(view(x))), view(s)))

    return c.Glassing(run)


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
            if isinstance(p, c.Glassing):
                return _lens_glassing(v, u, p)
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

        def t_grate(p):
            if isinstance(p, c.Grating):
                return c.Grating(
                    lambda h: grate(
                        lambda k1: p.run(lambda k2: h(lambda s: k2(k1(s))))
                    )
                )
            if isinstance(p, c.Glassing):
                return c.Glassing(
                    lambda h, s: grate(
                        lambda k1: p.run(
                            lambda k2: h(lambda x: k2(k1(x))), k1(s)
                        )
                    )
                )
            return p.lift_closed().dimap(lambda s: lambda k: k(s), grate)

        return ProfOptic(
            t_grate, frozenset({c.Replacing, c.Grating, c.Glassing}),
        )

    if kind is OpticKind.GLASS:
        glass = optic.run

        def t_glass(p):
            if isinstance(p, c.Glassing):
                return c.Glassing(
                    lambda h, s: glass(
                        lambda k1: p.run(
                            lambda k2: h(lambda x: k2(k1(x))), k1(s)
                        ),
                        s,
                    )
                )
            if isinstance(p, c.Replacing):
                return c.Replacing(
                    lambda u: lambda s: glass(lambda k: p.run(u)(k(s)), s)
                )
            raise p._no("product+closed")

        return ProfOptic(t_glass, frozenset({c.Replacing, c.Glassing}))

    if kind is OpticKind.SETTER:
        over_fn = optic.over
        return ProfOptic(
            lambda p: c.Replacing(lambda u: lambda s: over_fn(p.run(u), s)),
            frozenset({c.Replacing}),
        )

    if kind is OpticKind.GETTER:
        get = optic.get
        ident = lambda x: x
        return ProfOptic(
            lambda p: p.dimap(get, ident),
            frozenset({c.Viewing, c.Previewing, c.Folding}),
        )

    if kind is OpticKind.REVIEW:
        build = optic.build
        ident = lambda x: x
        return ProfOptic(
            lambda p: p.dimap(ident, build),
            frozenset({c.Reviewing}),
        )

    if kind is OpticKind.FOLD:
        foci = optic.foci
        return ProfOptic(
            lambda p: c.Folding(lambda s: [x for a in foci(s) for x in p.run(a)]),
            frozenset({c.Folding}),
        )

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
            return p.dimap(v, lambda x: x)  # read-only carriers

        return ProfOptic(
            t_monadic,
            frozenset({c.Viewing, c.Previewing, c.Folding, c.Updating,
                       c.Replacing}),
            pure=pure,
        )

    raise NormalFormError(f"no transformer for kind {kind!r}")


# ---------------------------------------------------------------------------
# prof2ex: probe the transformer with identity carriers.

_PROBES_NEEDED = {
    OpticKind.ADAPTER: {c.Viewing, c.Reviewing},
    OpticKind.LENS: {c.Viewing, c.Replacing},
    OpticKind.ACHROMATIC_LENS: {c.Viewing, c.Replacing, c.Reviewing},
    OpticKind.PRISM: {c.Previewing, c.Replacing, c.Reviewing},
    OpticKind.AFFINE_TRAVERSAL: {c.Previewing, c.Replacing},
    OpticKind.TRAVERSAL: {c.Folding, c.Replacing},
    OpticKind.GRATE: {c.Grating},
    OpticKind.GLASS: {c.Glassing},
    OpticKind.SETTER: {c.Replacing},
    OpticKind.GETTER: {c.Viewing},
    OpticKind.REVIEW: {c.Reviewing},
    OpticKind.FOLD: {c.Folding},
    OpticKind.ALGEBRAIC_LENS: {c.Viewing, c.Classifying},
    OpticKind.KALEIDOSCOPE: {c.Aggregating},
    OpticKind.MONADIC_LENS: {c.Viewing, c.Updating},
}


def prof2ex(p: ProfOptic, kind: OpticKind) -> Any:
    needed = _PROBES_NEEDED.get(kind)
    if needed is None:
        raise NormalFormError(f"no normal form registered for {kind!r}")
    if not needed <= p.supported:
        missing = ", ".join(sorted(
            cls.__name__ for cls in needed - p.supported
        ))
        raise NormalFormError(
            f"cannot extract {kind.with_article}: transformer does not act on"
            f" {missing}"
        )

    def view_run(s):
        return p.transform(c.Viewing(lambda a: a)).run(s)

    def over_run(u):
        return p.transform(c.Replacing(lambda f: f)).run(u)

    def preview_run(s):
        return p.transform(c.Previewing(lambda a: a)).run(s)

    def foci_run(s):
        return p.transform(c.Folding(lambda a: [a])).run(s)

    def build_run(b):
        return p.transform(c.Reviewing(lambda x: x)).run(b)

    if kind is OpticKind.ADAPTER:
        return Adapter(forward=view_run, backward=build_run)

    if kind is OpticKind.LENS:
        return Lens(view=view_run, update=lambda s, b: over_run(lambda _: b)(s))

    if kind is OpticKind.ACHROMATIC_LENS:
        return AchromaticLens(
            view=view_run,
            update=lambda s, b: over_run(lambda _: b)(s),
            create=build_run,
        )

    if kind is OpticKind.PRISM:
        def match(s):
            found = preview_run(s)
            if found is None:
                return Miss(over_run(lambda a: a)(s))
            return Focus(found)

        return Prism(match=match, build=build_run)

    if kind is OpticKind.AFFINE_TRAVERSAL:
        def access(s):
            found = preview_run(s)
            if found is None:
                return Miss(over_run(lambda a: a)(s))
            return Focus((found, lambda b: over_run(lambda _: b)(s)))

        return AffineTraversal(access=access)

    if kind is OpticKind.TRAVERSAL:
        def extract(s):
            foci = foci_run(s)

            def rebuild(bs, _n=len(foci), _s=s):
                if len(bs) != _n:
                    raise LengthError(
                        f"expected {_n} replacements, got {len(bs)}"
                    )
                queue = iter(bs)
                return over_run(lambda _: next(queue))(_s)

            return foci, rebuild

        return Traversal(extract=extract)

    if kind is OpticKind.GRATE:
        probe = c.Grating(lambda h: h(lambda a: a))
        return Grate(run=p.transform(probe).run)

    if kind is OpticKind.GLASS:
        probe = c.Glassing(lambda h, a: h(lambda x: x))
        return Glass(run=p.transform(probe).run)

    if kind is OpticKind.SETTER:
        return Setter(over=lambda f, s: over_run(f)(s))

    if kind is OpticKind.GETTER:
        return Getter(get=view_run)

    if kind is OpticKind.REVIEW:
        return Review(build=build_run)

    if kind is OpticKind.FOLD:
        return Fold(foci=foci_run)

    if kind is OpticKind.ALGEBRAIC_LENS:
        probe = c.Classifying(lambda ss, b: b)
        classify_run = p.transform(probe).run
        return AlgebraicLens(view=view_run, classify=classify_run)

    if kind is OpticKind.KALEIDOSCOPE:
        probe = c.Aggregating(lambda foci, f: f(foci))
        agg_run = p.transform(probe).run
        return Kaleidoscope(aggregate=lambda f: lambda ss: agg_run(ss, f))

    if kind is OpticKind.MONADIC_LENS:
        if p.pure is None:
            raise NormalFormError(
                "cannot extract an effectful lens: no effect context recorded"
            )
        probe = c.Updating(lambda b, a: p.pure(b))
        upd_run = p.transform(probe).run
        return MonadicLens(
            view=view_run,
            mupdate=lambda s, b: upd_run(b, s),
            pure=p.pure,
        )

    raise NormalFormError(f"no normal form registered for {kind!r}")
