"""Combinator carriers: the profunctor-like accessor states optics act on.

Each carrier wraps a single ``run`` function and supports ``dimap`` plus a
declared subset of capability lifts, one per action a transformer lifts
through. Lifting moves the carrier across a residual context: product lifts
act on ``(residual, value)`` pairs with the residual first, sum lifts act on
``Miss``/``Focus`` values, list-algebra lifts act on ``(list-residual,
value)`` pairs and flatten residuals, funlist lifts act on FunList
containers, and closed lifts (``Replacing``, ``Grating``, ``Glassing``) act
on functions into the focus.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

from . import funlist as fl
from .errors import CapabilityError
from .optics import Focus, Miss
from .records import record

# Every lift and ``dimap`` builds its carrier, and a sum lift its ``Focus``,
# with the tuple constructor, as ``values`` builds nodes: a NamedTuple's
# ``__new__`` adds a Python frame per record.
_new = tuple.__new__


class _Run(NamedTuple):
    run: Callable


@record
class Carrier(_Run):
    """Base carrier; every lift is undeclared until a subclass opts in.

    A carrier is a record of one field, ``run``; each subclass adds only
    methods, and equals only a carrier of its own class.
    """

    __slots__ = ()

    def dimap(self, l: Callable, r: Callable) -> "Carrier":
        raise NotImplementedError

    def _no(self, capability: str) -> CapabilityError:
        return CapabilityError(
            f"{type(self).__name__} does not declare the {capability} capability"
        )

    def lift_product(self) -> "Carrier":
        raise self._no("product")

    def lift_sum(self) -> "Carrier":
        raise self._no("sum")

    def lift_list_algebra(self) -> "Carrier":
        raise self._no("list-algebra")

    def lift_funlist(self) -> "Carrier":
        raise self._no("funlist")

    def lift_closed(self) -> "Carrier":
        raise self._no("closed")


class Viewing(Carrier):
    """run: S -> A. Read-only; dimap discards the output map."""

    __slots__ = ()

    def dimap(self, l, r):
        return _new(Viewing, (lambda s: self.run(l(s)),))

    def lift_product(self):
        return _new(Viewing, (lambda pair: self.run(pair[1]),))

    lift_list_algebra = lift_product


class Previewing(Carrier):
    """run: S -> A or None."""

    __slots__ = ()

    def dimap(self, l, r):
        return _new(Previewing, (lambda s: self.run(l(s)),))

    def lift_product(self):
        return _new(Previewing, (lambda pair: self.run(pair[1]),))

    def lift_sum(self):
        return _new(Previewing, (
            lambda m: None if isinstance(m, Miss) else self.run(m.value),))

    lift_list_algebra = lift_product


class Replacing(Carrier):
    """run: (A -> B) -> S -> T. Declares every capability.

    Each lift runs the inner ``run(u)`` once per ``u``, not once per whole,
    so a walk over n wholes calls the probe's ``run`` once.
    """

    __slots__ = ()

    def dimap(self, l, r):
        def lifted(u):
            f = self.run(u)
            return lambda s: r(f(l(s)))

        return _new(Replacing, (lifted,))

    def lift_product(self):
        def lifted(u):
            f = self.run(u)
            return lambda pair: (pair[0], f(pair[1]))

        return _new(Replacing, (lifted,))

    def lift_sum(self):
        def lifted(u):
            f = self.run(u)
            return lambda m: (m if isinstance(m, Miss)
                              else _new(Focus, (f(m.value),)))

        return _new(Replacing, (lifted,))

    lift_list_algebra = lift_product

    def lift_funlist(self):
        return _new(Replacing, (
            lambda u: partial(fl.map_sources, self.run(u)),))

    def lift_closed(self):
        def lifted(u):
            f = self.run(u)
            return lambda k: lambda x: f(k(x))

        return _new(Replacing, (lifted,))


class Classifying(Carrier):
    """run: (list of S, B) -> T."""

    __slots__ = ()

    def dimap(self, l, r):
        return _new(Classifying, (
            lambda ss, b: r(self.run([l(s) for s in ss], b)),))

    def lift_list_algebra(self):
        # residuals are themselves lists; the algebra flattens them
        def lifted(pairs, b):
            residual = [w for ws, _ in pairs for w in ws]
            return residual, self.run([a for _, a in pairs], b)

        return _new(Classifying, (lifted,))


class Aggregating(Carrier):
    """run: (list of S, list-of-A -> B) -> T."""

    __slots__ = ()

    def dimap(self, l, r):
        return _new(Aggregating, (
            lambda ss, f: r(self.run([l(s) for s in ss], f)),))

    def lift_list_algebra(self):
        def lifted(pairs, f):
            residual = [w for ws, _ in pairs for w in ws]
            return residual, self.run([a for _, a in pairs], f)

        return _new(Aggregating, (lifted,))

    def lift_funlist(self):
        # a list of FunLists is sequenced into a FunList of focus lists
        def lifted(flists, f):
            return fl.fmap(lambda ss: self.run(ss, f), fl.sequence(list(flists)))

        return _new(Aggregating, (lifted,))


class Updating(Carrier):
    """run: (B, S) -> effect of T. The effect must expose ``map``."""

    __slots__ = ()

    def dimap(self, l, r):
        return _new(Updating, (lambda b, s: self.run(b, l(s)).map(r),))

    def lift_product(self):
        return _new(Updating, (lambda b, pair: self.run(b, pair[1]).map(
            lambda t: (pair[0], t)),))


class Folding(Carrier):
    """run: S -> list of A."""

    __slots__ = ()

    def dimap(self, l, r):
        return _new(Folding, (lambda s: self.run(l(s)),))

    def lift_product(self):
        return _new(Folding, (lambda pair: self.run(pair[1]),))

    def lift_sum(self):
        return _new(Folding, (
            lambda m: [] if isinstance(m, Miss) else self.run(m.value),))

    lift_list_algebra = lift_product

    def lift_funlist(self):
        return _new(Folding, (lambda flist: [
            a for src in fl.sources(flist) for a in self.run(src)],))


class Reviewing(Carrier):
    """run: B -> T. Write-only; dimap discards the input map."""

    __slots__ = ()

    def dimap(self, l, r):
        return _new(Reviewing, (lambda b: r(self.run(b)),))

    def lift_sum(self):
        return _new(Reviewing, (lambda b: _new(Focus, (self.run(b),)),))


class Grating(Carrier):
    """run: ((S -> A) -> B) -> T."""

    __slots__ = ()

    def dimap(self, l, r):
        return _new(Grating, (
            lambda h: r(self.run(lambda k: h(lambda s: k(l(s))))),))

    def lift_closed(self):
        return _new(Grating, (
            lambda h: lambda m: self.run(lambda k: h(lambda f: k(f(m)))),))


class Glassing(Carrier):
    """run: (((S -> A) -> B), S) -> T."""

    __slots__ = ()

    def dimap(self, l, r):
        return _new(Glassing, (
            lambda h, s: r(self.run(lambda k: h(lambda x: k(l(x))), l(s))),))

    def lift_product(self):
        return _new(Glassing, (lambda h, pair: (
            pair[0], self.run(lambda k: h(lambda q: k(q[1])), pair[1])),))

    def lift_closed(self):
        return _new(Glassing, (lambda h, f: lambda m: self.run(
            lambda k: h(lambda g: k(g(m))), f(m)),))
