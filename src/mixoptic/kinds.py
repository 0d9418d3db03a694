"""Optic kinds and the one table that drives combinators and composition.

A capability names one of the monoidal actions an optic's transformer must
be lifted through. Implications (a capability presupposing another) are
closed over before any subset test.

Each kind has one row in ``_TABLE``: its capability requirement and the
combinators it admits. The combinators in ``optics`` check ``ADMITS``, and
``capability_set`` gives a kind's closed requirement. The join of kinds is
not derived from this table: ``composition`` reads it off the coercion
graph.
"""

from __future__ import annotations

import enum
from typing import FrozenSet


class Capability(enum.Enum):
    PRODUCT = "product"
    SUM = "sum"
    LIST_ALGEBRA = "list-algebra"
    FUNLIST_APPLICATIVE = "funlist-applicative"
    FUNLIST_TRAVERSABLE = "funlist-traversable"
    CLOSED = "closed"


_IMPLIES = {
    Capability.LIST_ALGEBRA: {Capability.PRODUCT},
    Capability.FUNLIST_TRAVERSABLE: {Capability.PRODUCT, Capability.SUM},
}


def closure(caps: FrozenSet[Capability]) -> FrozenSet[Capability]:
    """Close a capability set under the implication relation."""
    out = set(caps)
    changed = True
    while changed:
        changed = False
        for cap in list(out):
            extra = _IMPLIES.get(cap, set())
            if not extra <= out:
                out |= extra
                changed = True
    return frozenset(out)


class OpticKind(enum.Enum):
    ADAPTER = "adapter"
    LENS = "lens"
    ACHROMATIC_LENS = "achromatic-lens"
    PRISM = "prism"
    AFFINE_TRAVERSAL = "affine-traversal"
    TRAVERSAL = "traversal"
    GRATE = "grate"
    GLASS = "glass"
    SETTER = "setter"
    GETTER = "getter"
    REVIEW = "review"
    FOLD = "fold"
    ALGEBRAIC_LENS = "algebraic-lens"
    KALEIDOSCOPE = "kaleidoscope"
    MONADIC_LENS = "monadic-lens"

    # a member is its one instance, so hashing by identity agrees with
    # equality and keeps lookups in the tables keyed by kind in C
    __hash__ = object.__hash__

    @property
    def with_article(self) -> str:
        """The kind's name as messages print it: ``an affine-traversal``."""
        return ("an " if self.value[0] in "aeiou" else "a ") + self.value


_C = Capability
_ALL = frozenset(_C)

# One row per kind: the capabilities its transformer must lift through
# (pre-closure), and the combinators it admits, named as the CLI actions
# plus "mupdate" and "zip" (running a grate's or glass's continuation).
_TABLE = {
    OpticKind.ADAPTER: ((), "view preview set over tolist review"),
    OpticKind.LENS: ((_C.PRODUCT,), "view preview set over tolist"),
    OpticKind.ACHROMATIC_LENS: (
        (_C.LIST_ALGEBRA,), "view over tolist review classify"),
    OpticKind.PRISM: ((_C.SUM,), "preview set over tolist review"),
    OpticKind.AFFINE_TRAVERSAL: (
        (_C.PRODUCT, _C.SUM), "preview set over tolist"),
    OpticKind.TRAVERSAL: ((_C.FUNLIST_TRAVERSABLE,), "over tolist"),
    OpticKind.GRATE: ((_C.CLOSED,), "over zip"),
    OpticKind.GLASS: ((_C.PRODUCT, _C.CLOSED), "over zip"),
    OpticKind.SETTER: (_ALL, "over"),
    OpticKind.GETTER: ((_C.PRODUCT,), "view preview tolist"),
    OpticKind.REVIEW: ((_C.SUM,), "review"),
    OpticKind.FOLD: ((_C.FUNLIST_TRAVERSABLE,), "tolist"),
    OpticKind.ALGEBRAIC_LENS: ((_C.LIST_ALGEBRA,), "view over tolist classify"),
    OpticKind.KALEIDOSCOPE: ((_C.FUNLIST_APPLICATIVE,), "over aggregate"),
    OpticKind.MONADIC_LENS: ((_C.PRODUCT,), "view preview over tolist mupdate"),
}

# Capability requirements per kind (pre-closure).
CAPABILITIES = {kind: frozenset(caps) for kind, (caps, _) in _TABLE.items()}

# The combinators each kind admits.
ADMITS = {kind: frozenset(names.split()) for kind, (_, names) in _TABLE.items()}


# Closed capability sets per kind, computed once.
_CLOSED = {kind: closure(caps) for kind, caps in CAPABILITIES.items()}


def capability_set(kind: OpticKind) -> FrozenSet[Capability]:
    return _CLOSED[kind]

