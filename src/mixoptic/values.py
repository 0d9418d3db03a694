"""The runtime document universe and optics over it.

Values mirror JSON with one extension: an object with a single key starting
with ``@`` denotes a tagged variant. Records keep their key order, numbers
are 64-bit floats, and serialization prints integral floats without a
decimal point. The values are records (``records.record``); ``parse_json``
makes them inside the standard decoder, numbers in its number hooks and
records and tags in its one pairs hook, which converts the decoder's own list
of pairs in place, and converts the rest by exact type. Each call makes one
node per distinct string and per distinct number literal of its document, so
every repeated leaf is one shared node. Nodes are immutable and the optics
copy on write, a field write with one copy of a record's pairs, so no result
shows the sharing. ``serialize`` skips ``json``'s cycle check.
"""

from __future__ import annotations

import json
import sys
from typing import NamedTuple, Tuple, Union

from .errors import FocusError, LengthError, ParseError
from .optics import Focus, Lens, Miss, Prism, Traversal
from .records import record


@record
class VNull(NamedTuple):
    def __bool__(self):  # a tuple with no fields would be falsy
        return True


@record
class VBool(NamedTuple):
    value: bool


@record
class VNum(NamedTuple):
    value: float


@record
class VText(NamedTuple):
    value: str


@record
class VList(NamedTuple):
    items: Tuple["Value", ...]


@record
class VRec(NamedTuple):
    fields: Tuple[Tuple[str, "Value"], ...]  # ordered key/value pairs

    def get(self, key: str):
        for k, v in self.fields:
            if k == key:
                return v
        return None


@record
class VTag(NamedTuple):
    tag: str
    payload: "Value"


Value = Union[VNull, VBool, VNum, VText, VList, VRec, VTag]

NULL = VNull()

_FLOAT_MAX = sys.float_info.max

# The decoder and the optics below build nodes, and the optics themselves,
# with the tuple constructor itself: a NamedTuple's ``__new__`` does the
# same, but as a Python call.
_new = tuple.__new__

TRUE = _new(VBool, (True,))
FALSE = _new(VBool, (False,))

# What the decoder's hooks return as nodes already: numbers, records, tags.
_BUILT = frozenset((VNum, VRec, VTag))


class _Texts(dict):
    """One ``VText`` per distinct string of one document."""

    __slots__ = ()

    def __missing__(self, text):
        node = self[text] = _new(VText, (text,))
        return node


class _Numbers(dict):
    """One ``VNum`` per distinct number literal of one document, keyed on
    the literal's text, never on the value: ``-0.0`` and ``0`` are equal
    values with equal hashes, but they are different nodes.

    A literal no float holds maps to its error, raised when its object's
    values convert, after any fault the decoder met before that.
    """

    __slots__ = ()

    def __missing__(self, literal):
        # An integer literal goes through int(), which refuses at once more
        # digits than it reads.
        fraction = "." in literal or "e" in literal or "E" in literal
        try:
            num = float(literal if fraction else int(literal))
            if -_FLOAT_MAX <= num <= _FLOAT_MAX:  # 1e400 is inf
                node = self[literal] = _new(VNum, (num,))
                return node
        except OverflowError:  # an integer past the float range
            pass
        node = self[literal] = ParseError("number out of range")
        return node


def _not_a_number(name):
    raise ParseError(f"{name} is not a JSON number")


# ``_list``, like ``_to_python`` below, recurses once per level of the
# document. Both are loops, not comprehensions: a comprehension runs in a frame
# of its own before Python 3.12, which would halve their depth.
def _list(items, texts):
    for i, x in enumerate(items):  # the decoder's own list, in place
        if (kind := type(x)) is str:
            items[i] = texts[x]
        elif kind is list:
            items[i] = _list(x, texts)
        elif kind not in _BUILT:
            items[i] = _leaf(x)
    return _new(VList, (tuple(items),))


def _leaf(x):
    # what the decoder leaves as Python objects, besides strings and lists
    if x is None:
        return NULL
    if x is True:
        return TRUE
    if x is False:
        return FALSE
    raise x  # a number out of range


def parse_json(text: str) -> Value:
    # A repeated string or number is one C-level lookup, with no Python
    # frame. ``_record`` is the one closure and nothing refers back to the
    # call, so the tables go when it returns, not at a collection.
    texts = _Texts()
    numbers = _Numbers()

    def _record(pairs):
        for i, (k, v) in enumerate(pairs):  # the decoder's own list, in place
            if (kind := type(v)) is str:
                pairs[i] = (k, texts[v])
            elif kind is list:
                pairs[i] = (k, _list(v, texts))
            elif kind not in _BUILT:
                pairs[i] = (k, _leaf(v))
        if len(dict(pairs)) != len(pairs):  # the scan runs only on a duplicate
            keys = [k for k, _ in pairs]
            dup = next(k for k in keys if keys.count(k) > 1)
            raise ParseError(f"duplicate key {dup!r}")
        if len(pairs) == 1 and (key := pairs[0][0]).startswith("@"):
            return _new(VTag, (key[1:], pairs[0][1]))
        return _new(VRec, (tuple(pairs),))

    try:
        raw = json.loads(text, object_pairs_hook=_record,
                         parse_float=numbers.__getitem__,
                         parse_int=numbers.__getitem__,
                         parse_constant=_not_a_number)
        # the root converts as a list's one item
        return _list([raw], texts).items[0]
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    except ValueError:  # an integer past the digits int() reads
        raise ParseError("number out of range") from None
    except RecursionError:
        raise ParseError("document nests too deeply") from None


def _to_python(value: Value):
    kind = type(value)
    if kind is VText or kind is VBool:
        return value.value
    if kind is VNum:
        num = value.value  # an int when built by hand
        return int(num) if float(num).is_integer() and abs(num) < 2 ** 53 else num
    if kind is VRec:
        out = {}
        for k, v in value.fields:
            out[k] = _to_python(v)
        return out
    if kind is VList:
        out = []
        for v in value.items:
            out.append(_to_python(v))
        return out
    if kind is VNull:
        return None
    if kind is VTag:
        return {"@" + value.tag: _to_python(value.payload)}
    raise TypeError(f"not a Value: {value!r}")


def serialize(value: Value) -> str:
    try:
        # ``_to_python`` builds a fresh tree, which holds no cycle to check for
        return json.dumps(_to_python(value), ensure_ascii=False,
                          check_circular=False)
    except RecursionError:
        # records parse deeper than the conversion back can recurse
        raise ParseError("document nests too deeply") from None


# ---------------------------------------------------------------------------
# Generic optics over values.


def field_lens(key: str, *more: str) -> Lens:
    """Lens onto a path of one or more record fields, outermost key first.
    It reads, rebuilds and fails as the chain of one lens per key does, in
    one loop: shape errors surface at application time, at the first level
    that is no record or lacks its key, with that level's message. The pair
    a level reads and replaces is the first with its key; the other pairs
    are shared."""
    if not more:
        def view(value):
            if not isinstance(value, VRec):
                raise FocusError(f"expected a record with key {key!r}")
            for k, found in value.fields:
                if k == key:
                    return found
            raise FocusError(f"record has no key {key!r}")

        def update(value, new):
            if not isinstance(value, VRec):
                raise FocusError(f"expected a record with key {key!r}")
            fields = value.fields
            for i, (k, _) in enumerate(fields):
                if k == key:
                    fields = [*fields]
                    fields[i] = (key, new)
                    return _new(VRec, (tuple(fields),))
            raise FocusError(f"record has no key {key!r}")

        return _new(Lens, (view, update))

    keys = (key, *more)

    def view(value):
        for key in keys:
            if not isinstance(value, VRec):
                raise FocusError(f"expected a record with key {key!r}")
            for k, value in value.fields:
                if k == key:
                    break
            else:
                raise FocusError(f"record has no key {key!r}")
        return value

    def update(value, new):
        # down once, keeping each level's pairs and the index of its key's,
        # then up from the focus
        levels = []
        for key in keys:
            if not isinstance(value, VRec):
                raise FocusError(f"expected a record with key {key!r}")
            fields, i = value.fields, 0
            for k, value in fields:
                if k == key:
                    break
                i += 1
            else:
                raise FocusError(f"record has no key {key!r}")
            levels.append(fields)
            levels.append(i)
        pop = levels.pop
        for key in reversed(keys):
            i = pop()
            fields = [*pop()]
            fields[i] = (key, new)
            new = _new(VRec, (tuple(fields),))
        return new

    return _new(Lens, (view, update))


def each_traversal() -> Traversal:
    """Traversal over the elements of a list value, in order."""

    def extract(value):
        if not isinstance(value, VList):
            raise FocusError("expected a list")
        items = value.items

        def rebuild(bs, _n=len(items)):
            if len(bs) != _n:
                raise LengthError(f"expected {_n} replacements, got {len(bs)}")
            return _new(VList, (tuple(bs),))

        return list(items), rebuild

    return _new(Traversal, (extract,))


def variant_prism(tag: str) -> Prism:
    """Prism onto the payload of one tagged-variant constructor."""

    def match(value):
        if isinstance(value, VTag) and value.tag == tag:
            return Focus(value.payload)
        return Miss(value)

    return _new(Prism, (match, lambda payload: _new(VTag, (tag, payload))))
