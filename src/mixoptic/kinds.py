"""Optic kinds.

What each kind runs natively is read off the runners of its record class
(``optics.NATIVES``). What it admits, ``composition.ADMITS``, is derived
from that and the coercion edges, which also give the join of kinds.
"""

from __future__ import annotations

import enum


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
