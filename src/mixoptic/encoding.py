"""Profunctor encoding: optics as carrier transformers, and back.

``ex2prof`` turns a concrete optic into a ``ProfOptic``: a function that
rewrites any supported carrier over the focus pair into a carrier over the
whole pair. Each kind has one row, built at import. A lifting row, as for
a Tambara module, names the lifts its transformer applies, in order, before
one ``dimap``: a lens lifts through the product, a prism the sum, an affine
traversal both, a traversal FunList, a grate the closed action, a glass the
closed action then the product, an algebraic lens the list algebra, and an
adapter through nothing. A building row maps each carrier class it builds
to that carrier's builder, and refuses any other with one
``CapabilityError`` that names the capability the kind asks for; an
achromatic lens builds two carriers and lifts any other as a lens.
``supported`` is read off the row: the carriers that declare every lift
(``carriers``), and those the row builds, but for the traversal's
``Aggregating`` (``_ROWS`` says why). ``ex2prof`` makes the optic's own
closures (a lens's ``s -> (s, view(s))``) once per call.

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
# ex2prof: ``_ROWS[kind] = (supported, build, shape)``, and the optic's
# transform is ``build(optic, shape)``.


def _ident(x):
    return x


def _feed(s):
    """The closed action's ``s -> ((s -> a) -> a)``."""
    return lambda k: k(s)


def _lifting(lifts, maps, builds=None, unlisted=frozenset()):
    """The row of a kind whose transformer lifts through ``lifts``, then
    applies ``dimap(l, r)``; ``maps(optic, dimap)`` builds ``(l, r)`` and
    returns ``dimap(l, r)``. With ``builds``, it builds those carriers."""
    # ``lambda p: p.lift_a().lift_b().dimap(l, r)``, compiled once per row
    # so that a transform calls each lift as a plain method
    dimap = eval("lambda l, r: lambda p: p" + "".join(
        f".{lift}()" for lift in lifts) + ".dimap(l, r)")
    supported = frozenset(cls for cls in _CARRIERS if all(
        getattr(cls, lift) is not getattr(c.Carrier, lift) for lift in lifts)
    ) - unlisted
    if builds is None:
        return supported, maps, dimap
    return supported | builds.keys(), _bind, (builds,
                                               partial(maps, dimap=dimap))


def _building(capability, builds):
    """The row of a kind whose transformer builds the carriers ``builds``
    maps to their builders, ``(optic, p) -> carrier``, and refuses any other
    for lack of ``capability``."""
    def refuse(p):
        raise p._no(capability)

    return frozenset(builds), _bind, (builds, lambda optic: refuse)


def _bind(optic, shape):
    """The transform of a row that builds carriers: a carrier of a class
    the row builds is built, and any other goes to the row's other
    transform, which lifts it or refuses it."""
    builds, otherwise = shape
    other = otherwise(optic)

    def transform(p):
        build = builds.get(type(p))
        return other(p) if build is None else build(optic, p)

    return transform


def _lens(optic, dimap):
    v, u = optic.view, optic.update

    def l(s):
        return s, v(s)

    def r(pair):
        return u(*pair)

    return dimap(l, r)


def _prism(optic, dimap):
    build = optic.build

    def r(m):
        return m.value if isinstance(m, Miss) else build(m.value)

    return dimap(optic.match, r)


def _affine(optic, dimap):
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

    return dimap(l, r)


def _traversal(optic, dimap):
    extract = optic.extract

    def l(s):
        foci, rebuild = extract(s)
        return fl.of_extract(foci, rebuild)

    return dimap(l, fl.fuse)


def _glass(optic, dimap):
    glass = optic.run

    def l(s):
        return s, _feed(s)

    def r(pair):
        return glass(pair[1], pair[0])

    return dimap(l, r)


def _algebraic(optic, dimap):
    v, classify = optic.view, optic.classify

    def l(s):
        return [s], v(s)

    def r(pair):
        return classify(*pair)

    return dimap(l, r)


def _classifying(optic, p):
    v, u, create = optic.view, optic.update, optic.create

    def classify(ss, b):
        b = p.run([v(s) for s in ss], b)
        return u(ss[0], b) if ss else create(b)

    return _new(c.Classifying, (classify,))


def _mapping(optic, p):
    """A ``Replacing`` walk through the optic's own ``over``."""
    over = optic._over
    return _new(c.Replacing, (lambda u: partial(over, p.run(u)),))


_CARRIERS = (c.Viewing, c.Previewing, c.Replacing, c.Classifying,
             c.Aggregating, c.Updating, c.Folding, c.Reviewing, c.Grating,
             c.Glassing)
_READ_ONLY = tuple(cls for cls in _CARRIERS if issubclass(cls, c._Reading))
_ROWS = {
    K.ADAPTER: _lifting((), lambda o, dimap: dimap(o.forward, o.backward)),
    K.LENS: _lifting(("lift_product",), _lens),
    K.ACHROMATIC_LENS: _lifting(("lift_product",), _lens, {
        c.Reviewing: lambda o, p: p.dimap(_ident, o.create),
        c.Classifying: _classifying}),
    K.PRISM: _lifting(("lift_sum",), _prism),
    K.AFFINE_TRAVERSAL: _lifting(("lift_product", "lift_sum"), _affine),
    # Aggregating declares the funlist lift, and the transformer acts on it,
    # but a kaleidoscope read off it would aggregate wholes, not foci
    K.TRAVERSAL: _lifting(("lift_funlist",), _traversal,
                          unlisted={c.Aggregating}),
    K.GRATE: _lifting(("lift_closed",), lambda o, dimap: dimap(_feed, o.run)),
    K.GLASS: _lifting(("lift_closed", "lift_product"), _glass),
    K.ALGEBRAIC_LENS: _lifting(("lift_list_algebra",), _algebraic),
    K.SETTER: _building("mapping", {c.Replacing: _mapping}),
    K.GETTER: _building("read-only", dict.fromkeys(
        _READ_ONLY, lambda o, p: p.dimap(o.get, _ident))),
    K.REVIEW: _building("write-only", {
        c.Reviewing: lambda o, p: p.dimap(_ident, o.build)}),
    K.FOLD: _building("folding", {c.Folding: lambda o, p: _new(c.Folding, (
        lambda s: [x for a in o.foci(s) for x in p.run(a)],))}),
    K.KALEIDOSCOPE: _building("funlist-applicative", {
        c.Aggregating: lambda o, p: _new(c.Aggregating, (
            lambda ss, f: o.aggregate(lambda foci: p.run(foci, f))(ss),)),
        c.Replacing: _mapping}),
    K.MONADIC_LENS: _building("read-only", {
        **dict.fromkeys(_READ_ONLY, lambda o, p: p.dimap(o.view, _ident)),
        c.Updating: lambda o, p: _new(c.Updating, (lambda b, s: p.run(
            b, o.view(s)).bind(partial(o.mupdate, s)),)),
        c.Replacing: _mapping}),
}


def ex2prof(optic: Any) -> ProfOptic:
    kind = optic.kind
    row = _ROWS.get(kind)
    if row is None:
        raise NormalFormError(f"no transformer for kind {kind!r}")
    supported, build, shape = row
    return _new(ProfOptic, (build(optic, shape), supported, optic.pure
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
    LengthError.check(n, bs)
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
