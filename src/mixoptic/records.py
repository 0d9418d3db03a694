"""Small immutable records, and the view types built on them.

A record is a ``typing.NamedTuple`` class under ``@record``. It is built by
position or by keyword, with defaults; its fields cannot be assigned; it
hashes as the tuple of its fields; and it equals another record only of the
same class with equal fields, as a frozen dataclass does, so
``Focus(1) != Miss(1)`` and ``VText("a") != ("a",)``. The optics, the
document values, the carriers, ``FunList`` and ``ProfOptic`` are
records. A NamedTuple class is made without the code generation a
dataclass runs when it is defined, so no module of the library loads
``dataclasses`` or ``inspect``; a copy with some fields changed is
``r._replace(field=...)``. ``View`` is the base of the view types.
"""

from __future__ import annotations


def _eq(self, other):
    if type(other) is type(self):
        return tuple.__eq__(self, other)
    # tuple's own comparison, tried next, would take a record for a tuple
    return False if isinstance(other, tuple) else NotImplemented


def _ne(self, other):
    equal = _eq(self, other)
    return equal if equal is NotImplemented else not equal


def record(cls):
    """Compare instances of the NamedTuple class ``cls`` by class first."""
    cls.__eq__, cls.__ne__ = _eq, _ne
    return cls


class View:
    """A view type shows one item as a record: it subclasses ``View`` and a
    record class whose fields are its methods, run on the item. An instance
    is the one-item tuple of the item, as immutable and compared as records
    are, and building one makes no function; its ``len``, iteration and
    ``_replace`` are a one-item tuple's. Chains, normal forms and document
    segments are view types."""

    __slots__ = ()

    def __repr__(self):
        return f"{type(self).__name__}({self[0]!r})"


def view_type(view, base, *fields, **methods):
    """The view type of ``view`` (``View`` or a subclass) and ``base`` whose
    fields are the methods ``fields``, in order, besides ``methods``."""
    return type(base.__name__, (view, base),
                dict(zip(base._fields, fields), __slots__=(), **methods))
