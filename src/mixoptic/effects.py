"""Effect contexts for monadic lenses.

Two effects are supported: ``Writer`` (a value plus an ordered log of text
lines) and ``Opt`` (a value that may be absent). Both expose the same
surface: ``pure``, ``map``, ``bind`` and ``strength``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Tuple

from .records import record


@record
class Writer(NamedTuple):
    """A value together with an append-only log of text lines."""

    value: object
    log: Tuple[str, ...] = ()

    @staticmethod
    def pure(value) -> "Writer":
        return Writer(value, ())

    @staticmethod
    def tell(value, line: str) -> "Writer":
        return Writer(value, (line,))

    def map(self, f: Callable) -> "Writer":
        return Writer(f(self.value), self.log)

    def bind(self, k: Callable[[object], "Writer"]) -> "Writer":
        out = k(self.value)
        # logs concatenate left-to-right: this writer's lines come first
        return Writer(out.value, self.log + out.log)

    def strength(self, left) -> "Writer":
        return Writer((left, self.value), self.log)


class _Absent:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "<absent>"


_ABSENT = _Absent()


@record
class Opt(NamedTuple):
    """An optional value: either present with a payload or absent."""

    payload: object = _ABSENT

    @staticmethod
    def pure(value) -> "Opt":
        return Opt(value)

    @staticmethod
    def absent() -> "Opt":
        return Opt()

    @property
    def present(self) -> bool:
        return self.payload is not _ABSENT

    @property
    def value(self):
        if not self.present:
            raise ValueError("no value in an absent Opt")
        return self.payload

    def map(self, f: Callable) -> "Opt":
        if not self.present:
            return self
        return Opt(f(self.payload))

    def bind(self, k: Callable[[object], "Opt"]) -> "Opt":
        if not self.present:
            return self
        return k(self.payload)

    def strength(self, left) -> "Opt":
        return self.map(lambda v: (left, v))
