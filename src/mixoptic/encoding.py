"""Profunctor encoding: optics as carrier transformers, and back.

``ex2prof`` turns a concrete optic into a ``ProfOptic``: a function that
rewrites any supported carrier over the focus pair into a carrier over the
whole pair. Most transformers, as for a Tambara module, lift the carrier
through an action, then apply one ``dimap``: a lens lifts through the
product, a prism the sum, an affine traversal the product then the sum, a
traversal FunList, a grate the closed action, a glass the closed action then
the product, an algebraic lens the list algebra, and an adapter, getter and
review through nothing; the other kinds build their carrier.

Each kind has one row, built at import: the carriers its transformer
supports and a builder. The builder makes the optic's own closures (a
lens's ``s -> (s, view(s))`` and ``pair -> update(*pair)``) once per
``ex2prof`` call, so a ``transform`` call makes only the carriers it lifts.

``prof2ex`` checks that the transformer supports the probes the kind's
record fields need and returns an instance of the kind's normal-form type,
also built at import: a view type (``records``), the one-item tuple of the
transformer, whose record fields are methods that each run the transformer
on one identity probe per call. It shares that record helper with the
chains of ``composition``, not how optics compose. The lens,
achromatic-lens, algebraic-lens, monadic-lens, prism, affine-traversal and
adapter forms run ``over`` (so ``set``) as one ``Replacing`` walk; the
prism and affine forms ``preview`` as one ``Previewing`` walk, and
``match`` and ``access`` as one ``Replacing`` walk that stops at the focus.
A traversal's ``over`` stays two walks, a fold and then a replace, so its
focus function runs only after every view, as the concrete chain's does,
and an error is the one the chain raises first.
"""

from __future__ import annotations

from functools import partial
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
from .records import View, record, view_type

K = OpticKind
_new = tuple.__new__  # builds a record without its ``__new__`` frame

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
        return _new(ProfOptic, (
            lambda p: self.transform(inner.transform(p)),
            self.supported & inner.supported,
            self.pure if self.pure is not None else inner.pure))


# ---------------------------------------------------------------------------
# ex2prof: one row per kind, ``_ROWS[kind] = (supported, builder)``. A
# builder takes the optic and returns its ``transform``.


def _ident(x):
    return x


def _feed(s):
    """The closed action's ``s -> ((s -> a) -> a)``."""
    return lambda k: k(s)


def _adapter(optic):
    fwd, bwd = optic.forward, optic.backward
    return lambda p: p.dimap(fwd, bwd)


def _lens(optic):
    v, u = optic.view, optic.update

    def l(s):
        return s, v(s)

    def r(pair):
        return u(*pair)

    return lambda p: p.lift_product().dimap(l, r)


def _achromatic(optic):
    v, u, create = optic.view, optic.update, optic.create
    t_lens = _lens(optic)

    def t_ach(p):
        if isinstance(p, c.Reviewing):
            return _new(c.Reviewing, (lambda b: create(p.run(b)),))
        if isinstance(p, c.Classifying):
            def classify(ss, b):
                b = p.run([v(s) for s in ss], b)
                return u(ss[0], b) if ss else create(b)

            return _new(c.Classifying, (classify,))
        return t_lens(p)

    return t_ach


def _prism(optic):
    match, build = optic.match, optic.build

    def r(m):
        return m.value if isinstance(m, Miss) else build(m.value)

    return lambda p: p.lift_sum().dimap(match, r)


def _affine(optic):
    access = optic.access

    def l(s):
        res = access(s)
        if isinstance(res, Miss):
            return res
        focus, rebuild = res.value
        return _new(Focus, ((rebuild, focus),))  # residual first

    def r(m):
        if isinstance(m, Miss):
            return m.value
        rebuild, b = m.value
        return rebuild(b)

    return lambda p: p.lift_product().lift_sum().dimap(l, r)


def _traversal(optic):
    extract = optic.extract

    def l(s):
        foci, rebuild = extract(s)
        return fl.of_extract(foci, rebuild)

    return lambda p: p.lift_funlist().dimap(l, fl.fuse)


def _grate(optic):
    grate = optic.run
    return lambda p: p.lift_closed().dimap(_feed, grate)


def _glass(optic):
    glass = optic.run

    def l(s):
        return s, _feed(s)

    def r(pair):
        return glass(pair[1], pair[0])

    return lambda p: p.lift_closed().lift_product().dimap(l, r)


def _setter(optic):
    over_fn = optic.over

    def t_setter(p):
        if not isinstance(p, c.Replacing):
            raise p._no("mapping")
        return _new(c.Replacing, (lambda u: partial(over_fn, p.run(u)),))

    return t_setter


def _getter(optic):
    get = optic.get

    def t_getter(p):
        if not isinstance(p, _READ_ONLY):
            raise p._no("read-only")
        return p.dimap(get, _ident)

    return t_getter


def _review(optic):
    build = optic.build

    def t_review(p):
        if not isinstance(p, c.Reviewing):
            raise p._no("write-only")
        return p.dimap(_ident, build)

    return t_review


def _fold(optic):
    foci = optic.foci

    def t_fold(p):
        if not isinstance(p, c.Folding):
            raise p._no("folding")
        return _new(c.Folding, (
            lambda s: [x for a in foci(s) for x in p.run(a)],))

    return t_fold


def _algebraic(optic):
    v, classify = optic.view, optic.classify

    def l(s):
        return [s], v(s)

    def r(pair):
        return classify(*pair)

    return lambda p: p.lift_list_algebra().dimap(l, r)


def _kaleidoscope(optic):
    agg = optic.aggregate

    def t_kal(p):
        if isinstance(p, c.Aggregating):
            return _new(c.Aggregating, (
                lambda ss, f: agg(lambda foci: p.run(foci, f))(ss),))
        if isinstance(p, c.Replacing):
            def replacing(u):
                f = p.run(u)
                return lambda s: agg(lambda foci: f(foci[0]))([s])

            return _new(c.Replacing, (replacing,))
        raise p._no("funlist-applicative")

    return t_kal


def _monadic(optic):
    v, mupd = optic.view, optic.mupdate

    def t_monadic(p):
        if isinstance(p, c.Updating):
            return _new(c.Updating, (
                lambda b, s: p.run(b, v(s)).bind(partial(mupd, s)),))
        if isinstance(p, c.Replacing):
            def replacing(u):
                f = p.run(u)
                return lambda s: mupd(s, f(v(s))).value

            return _new(c.Replacing, (replacing,))
        if not isinstance(p, _READ_ONLY):
            raise p._no("read-only")
        return p.dimap(v, _ident)

    return t_monadic


_LENS_CARRIERS = frozenset({c.Viewing, c.Previewing, c.Replacing, c.Folding,
                            c.Updating, c.Glassing})
_ROWS = {
    K.ADAPTER: (_ALL_CARRIERS, _adapter),
    K.LENS: (_LENS_CARRIERS, _lens),
    K.ACHROMATIC_LENS: (_LENS_CARRIERS | {c.Reviewing, c.Classifying},
                        _achromatic),
    K.PRISM: (frozenset({c.Previewing, c.Replacing, c.Folding, c.Reviewing}),
              _prism),
    K.AFFINE_TRAVERSAL: (frozenset({c.Previewing, c.Replacing, c.Folding}),
                         _affine),
    K.TRAVERSAL: (frozenset({c.Replacing, c.Folding}), _traversal),
    K.GRATE: (frozenset({c.Replacing, c.Grating, c.Glassing}), _grate),
    K.GLASS: (frozenset({c.Replacing, c.Glassing}), _glass),
    K.SETTER: (frozenset({c.Replacing}), _setter),
    K.GETTER: (frozenset(_READ_ONLY), _getter),
    K.REVIEW: (frozenset({c.Reviewing}), _review),
    K.FOLD: (frozenset({c.Folding}), _fold),
    K.ALGEBRAIC_LENS: (frozenset({c.Viewing, c.Previewing, c.Folding,
                                  c.Replacing, c.Classifying, c.Aggregating}),
                       _algebraic),
    K.KALEIDOSCOPE: (frozenset({c.Aggregating, c.Replacing}), _kaleidoscope),
    K.MONADIC_LENS: (frozenset({*_READ_ONLY, c.Updating, c.Replacing}),
                     _monadic),
}


def ex2prof(optic: Any) -> ProfOptic:
    kind = optic.kind
    row = _ROWS.get(kind)
    if row is None:
        raise NormalFormError(f"no transformer for kind {kind!r}")
    supported, build = row
    return _new(ProfOptic, (build(optic), supported, optic.pure
                            if kind is K.MONADIC_LENS else None))


# ---------------------------------------------------------------------------
# prof2ex. A normal form is an instance of its kind's view type
# (``records.view_type``): the one-item tuple of the transformer, whose
# record fields are methods. Each method runs the transformer on one
# identity probe per call.

_VIEW = c.Viewing(_ident)
_OVER = c.Replacing(_ident)
_PREVIEW = c.Previewing(_ident)
_FOCI = c.Folding(lambda a: [a])
_BUILD = c.Reviewing(_ident)
_CLASSIFY = c.Classifying(lambda ss, b: b)
_AGGREGATE = c.Aggregating(lambda foci, f: f(foci))
_GRATE = c.Grating(lambda h: h(_ident))
_GLASS = c.Glassing(lambda h, a: h(_ident))


def _probe(carrier):
    """The method that runs ``carrier``'s transform on its arguments."""
    def run(self, *args):
        return self[0].transform(carrier).run(*args)

    return run


def _over(self, fn, s):
    # one ``Replacing`` walk: ``fn`` reads the focus the walk reaches
    return self[0].transform(_OVER).run(fn)(s)


def _update(self, s, b):
    return self[0].transform(_OVER).run(lambda _: b)(s)


class _Found(Exception):
    """Stops a ``Replacing`` walk at its focus, which it carries."""


def _stop(a):
    raise _Found(a)


def _match(self, s):
    # one ``Replacing`` walk that stops at the focus, before any rebuild,
    # or rebuilds the whole on a miss
    try:
        return _new(Miss, (self[0].transform(_OVER).run(_stop)(s),))
    except _Found as hit:
        return _new(Focus, (hit.args[0],))


def _access(self, s):
    res = _match(self, s)
    if isinstance(res, Miss):
        return res
    return _new(Focus, ((res.value, partial(_update, self, s)),))


def _refill(self, s, n, bs):
    if len(bs) != n:
        raise LengthError(f"expected {n} replacements, got {len(bs)}")
    queue = iter(bs)
    return self[0].transform(_OVER).run(lambda _: next(queue))(s)


def _extract(self, s):
    foci = self[0].transform(_FOCI).run(s)
    return foci, partial(_refill, self, s, len(foci))


def _aggregate(self, f):
    run = self[0].transform(_AGGREGATE).run
    return lambda ss: run(ss, f)


def _mupdate(self, s, b):
    p = self[0]
    return p.transform(_new(c.Updating, (lambda x, _: p.pure(x),))).run(b, s)


_viewed, _built = _probe(_VIEW), _probe(_BUILD)

# The probes each record field needs (a grate's and a glass's ``run``, by
# their class): those its method runs, for ``match`` and ``access`` also
# the ``Previewing`` probe of the form's ``preview``, and for ``classify``
# and ``mupdate`` the ``Replacing`` probe of its ``over``; a kind needs what
# its fields need.
_NEEDS = {
    **dict.fromkeys(("view", "forward", "get"), {c.Viewing}),
    **dict.fromkeys(("build", "backward", "create"), {c.Reviewing}),
    "update": {c.Replacing}, "over": {c.Replacing},
    **dict.fromkeys(("match", "access"), {c.Previewing, c.Replacing}),
    "extract": {c.Folding, c.Replacing}, "foci": {c.Folding},
    "classify": {c.Classifying, c.Replacing}, "aggregate": {c.Aggregating},
    "mupdate": {c.Updating, c.Replacing}, "pure": set(),
    Grate: {c.Grating}, Glass: {c.Glassing},
}


def _form(base, *fields, **methods):
    """The normal-form type of ``base``'s kind, whose fields are the
    methods ``fields``, in order, and the probes they need."""
    return view_type(View, base, *fields, **methods), frozenset().union(
        *(_NEEDS[name if name in _NEEDS else base] for name in base._fields))


_FORMS = {form[0].kind: form for form in (
    _form(Adapter, _viewed, _built, _over=_over),
    _form(Lens, _viewed, _update, _over=_over),
    _form(AchromaticLens, _viewed, _update, _built, _over=_over),
    _form(Prism, _match, _built, _preview=_probe(_PREVIEW), _over=_over),
    _form(AffineTraversal, _access, _preview=_probe(_PREVIEW), _over=_over),
    _form(Traversal, _extract, _tolist=_probe(_FOCI)),
    _form(Grate, _probe(_GRATE)),
    _form(Glass, _probe(_GLASS)),
    _form(Setter, _over),
    _form(Getter, _viewed),
    _form(Review, _built),
    _form(Fold, _probe(_FOCI)),
    _form(AlgebraicLens, _viewed, _probe(_CLASSIFY), _over=_over),
    _form(Kaleidoscope, _aggregate),
    _form(MonadicLens, _viewed, _mupdate, property(lambda self: self[0].pure),
          _over=_over),
)}


def prof2ex(p: ProfOptic, kind: OpticKind) -> Any:
    form = _FORMS.get(kind)
    if form is None:
        raise NormalFormError(f"no normal form registered for {kind!r}")
    cls, needed = form
    if not needed <= p.supported:
        missing = ", ".join(sorted(
            probe.__name__ for probe in needed - p.supported
        ))
        raise NormalFormError(
            f"cannot extract {kind.with_article}: transformer does not act on"
            f" {missing}"
        )
    if kind is K.MONADIC_LENS and p.pure is None:
        raise NormalFormError(
            "cannot extract an effectful lens: no effect context recorded"
        )
    return _new(cls, (p,))
