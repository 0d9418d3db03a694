"""Optic kinds and the combinators each kind's own dispatch runs.

``NATIVES`` lists, per kind, the combinators that ``optics`` runs on an
optic of that kind directly. It is not the whole of what a kind admits:
``composition`` derives ``ADMITS`` from it and the coercion edges, since an
optic also admits whatever a kind it embeds into admits. The join of kinds
is read off the same edges.
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


_K = OpticKind

# The combinators each kind's dispatch runs, named as the CLI actions plus
# "mupdate" and "zip" (running a grate's or glass's continuation). Every
# kind that views previews, through the cases of ``view``; every kind that
# previews lists its foci; and ``set`` is ``over`` with a constant function,
# so every kind that runs ``over`` sets.
NATIVES = {kind: frozenset(names.split()) for kind, names in {
    _K.ADAPTER: "view preview set over tolist review",
    _K.LENS: "view preview set over tolist",
    _K.ACHROMATIC_LENS: "view preview set over tolist review classify",
    _K.PRISM: "preview set over tolist review",
    _K.AFFINE_TRAVERSAL: "preview set over tolist",
    _K.TRAVERSAL: "set over tolist",
    _K.GRATE: "set over zip",
    _K.GLASS: "set over zip",
    _K.SETTER: "set over",
    _K.GETTER: "view preview tolist",
    _K.REVIEW: "review",
    _K.FOLD: "tolist",
    _K.ALGEBRAIC_LENS: "view preview set over tolist classify",
    _K.KALEIDOSCOPE: "set over aggregate",
    _K.MONADIC_LENS: "view preview set over tolist mupdate",
}.items()}
