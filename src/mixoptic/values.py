"""The runtime document universe and optics over it.

Values mirror JSON with one extension: an object with a single key starting
with ``@`` denotes a tagged variant. Records keep their key order, numbers
are 64-bit floats, and serialization prints integral floats without a
decimal point. The values are records (``records.record``); ``parse_json``
makes them inside the standard decoder, numbers in its number hooks and
records and tags in its one pairs hook, which converts the decoder's own list
of pairs in place, and converts the rest by exact type. Each call makes one
node per distinct string and per distinct number literal of its document, so
every repeated leaf is one shared node. So is every repeated pair of a key
and a leaf (a text, a number, ``true``, ``false`` or ``null``) or of a key
and a list of leaves, and every repeated list of leaves, except one that
holds a zero number (``0``, ``-0``, ``0.0``, ``-0.0``), whose literals are
equal values that print apart. An address book parses to about 10.9 nodes
the collector tracks a record, not 16.8, and a flower set to 5.1, not 10.0.
Nodes are immutable and the optics copy on write, a field write with one
copy of a record's pairs, so no result shows the sharing. ``serialize``
prints with one encoder, built at import, and skips ``json``'s cycle check.

The optics over values are three segment classes, ``Field``, ``Variant``
and ``Each``: each a view type (``records``), the one-item tuple of its
argument and a subclass of its kind's record class whose fields are
methods, with the walk steps of its own that a chain runs (``optics``).
"""

from __future__ import annotations

import json
import sys
from functools import partial
from typing import NamedTuple, Tuple, Union

from .errors import FocusError, LengthError, ParseError
from .optics import Focus, Lens, Miss, Prism, Traversal
from .records import View, record


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

# What the decoder's hooks return as nodes already, besides numbers.
_BUILT = frozenset((VRec, VTag))


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


class _Pairs(dict):
    """One pair per distinct key and leaf of one document, keyed on the
    decoder's own pair, whose leaf is still a string or a constant, or
    already a ``VNum``; a number's pair is its own key (``setdefault``).
    Nodes equal only nodes of their class, and ``VNum``s by value: ``1``
    and ``1.0`` share a pair, which shows nowhere, but a zero is never
    looked up, since ``0.0`` and ``-0.0`` are equal and print apart."""

    __slots__ = ("texts",)

    def __missing__(self, pair):  # a string or a constant
        key, leaf = pair
        node = self[pair] = (
            key, self.texts[leaf] if type(leaf) is str else _leaf(leaf))
        return node


def _not_a_number(name):
    raise ParseError(f"{name} is not a JSON number")


# ``_list``, like ``_to_python`` below, recurses once per level of the
# document. Both are loops, not comprehensions: a comprehension runs in a frame
# of its own before Python 3.12, which would halve their depth.
def _list(items, texts, lists, k=None):
    """The ``VList`` of the decoder's list ``items``, or, given a record's
    key ``k``, the record's pair of it. A list of leaves only is one node per
    document, kept in ``lists`` under its items, and so is its pair under
    each key, kept under the key and the node's id. Nodes equal only nodes
    of their class, so only a zero number, equal to the other zero, keeps a
    list out of the table."""
    leaves = True
    for i, x in enumerate(items):  # the decoder's own list, in place
        if (kind := type(x)) is str:
            items[i] = texts[x]
        elif kind is VNum:
            if not x[0]:
                leaves = False
        elif kind is list:
            items[i] = _list(x, texts, lists)
            leaves = False
        elif kind in _BUILT:
            leaves = False
        else:
            items[i] = _leaf(x)
    items = tuple(items)
    if leaves:
        node = lists.get(items)
        if node is not None:
            if k is None:
                return node
            pair = lists.get(key := (k, id(node)))
            if pair is None:
                pair = lists[key] = (k, node)
            return pair
        # a list new to the document is in no pair yet
        node = lists[items] = _new(VList, (items,))
    else:
        node = _new(VList, (items,))
    return node if k is None else (k, node)


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
    # frame, and so is a repeated pair of a key and a leaf. ``_record`` is
    # the one closure and nothing refers back to the call, so the tables go
    # when it returns, not at a collection.
    texts = _Texts()
    numbers = _Numbers()
    shared = _Pairs()
    shared.texts = texts
    numbered = shared.setdefault
    lists = {}

    def _record(pairs):
        for i, (k, v) in enumerate(pairs):  # the decoder's own list, in place
            if (kind := type(v)) is str:
                # a string new to the document is in no pair yet
                pairs[i] = shared[pairs[i]] if v in texts else (k, texts[v])
            elif kind is VNum:
                if v[0]:
                    pairs[i] = numbered(pair := pairs[i], pair)
            elif kind is list:
                pairs[i] = _list(v, texts, lists, k)
            elif kind not in _BUILT:
                pairs[i] = shared[pairs[i]]
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
        return _list([raw], texts, lists).items[0]
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


# ``json.dumps`` with options builds an encoder on every call; this one is
# built once, with the same options.
_encode = json.JSONEncoder(ensure_ascii=False, check_circular=False).encode


def serialize(value: Value) -> str:
    try:
        # ``_to_python`` builds a fresh tree, which holds no cycle to check for
        return _encode(_to_python(value))
    except RecursionError:
        # records parse deeper than the conversion back can recurse
        raise ParseError("document nests too deeply") from None


# ---------------------------------------------------------------------------
# Generic optics over values: one segment class per expression form, built
# by its factory (``field_lens``, ...).


class Field(View, Lens):
    """Lens onto a path of one or more record fields, the tuple of its keys,
    outermost first. It reads, rebuilds and fails as the chain of one lens
    per key does: shape errors surface at application time, at the first
    level that is no record or lacks its key, with that level's message. The
    pair a level reads and replaces is the first with its key; the other
    pairs are shared. Its steps across many wholes (``_down``, ``_up``) go
    one level at a time, as that chain's do, so they fail where it fails.
    ``compose`` fuses adjacent paths into one (``_fused``) and coerces a
    path into a fold one key at a time (``_unfused``)."""

    __slots__ = ()

    @staticmethod
    def _fused(run):  # the one path of a run of adjacent paths, built once
        return _new(Field, (tuple(key for path in run for key in path[0]),))

    def _unfused(self):  # one path per key; a path of one key is itself
        return (self,) if len(self[0]) == 1 else tuple(map(field_lens, self[0]))

    def view(self, value):
        for key in self[0]:
            if not isinstance(value, VRec):
                raise FocusError(f"expected a record with key {key!r}")
            for k, value in value.fields:
                if k == key:
                    break
            else:
                raise FocusError(f"record has no key {key!r}")
        return value

    _view = view

    def _over(self, fn, s):
        # one walk down and up; ``fn`` runs in this frame, as in a lens's
        # ``_over``, so a setter fallback nests no deeper
        levels = []
        return _rise(levels, fn(_descend(self[0], s, levels)))

    def update(self, value, new):
        keys = self[0]
        if len(keys) > 1:
            levels = []
            _descend(keys, value, levels)
            return _rise(levels, new)
        # one key, the common case, keeps no levels: through ``_descend``
        # and ``_rise`` it took about 1.4x as long
        key = keys[0]
        if not isinstance(value, VRec):
            raise FocusError(f"expected a record with key {key!r}")
        fields = value.fields
        for i, (k, _) in enumerate(fields):
            if k == key:
                fields = [*fields]
                fields[i] = (key, new)
                return _new(VRec, (tuple(fields),))
        raise FocusError(f"record has no key {key!r}")

    def _down(self, wholes):  # the memo: the wholes of each level
        levels = []
        for key in self[0]:
            levels.append(wholes)
            foci = []
            for value in wholes:
                if not isinstance(value, VRec):
                    raise FocusError(f"expected a record with key {key!r}")
                for k, value in value.fields:
                    if k == key:
                        foci.append(value)
                        break
                else:
                    raise FocusError(f"record has no key {key!r}")
            wholes = foci
        return wholes, levels

    def _up(self, levels, bs):
        # each whole is a record that holds its level's key, as ``_down`` saw
        for key, wholes in zip(reversed(self[0]), reversed(levels)):
            rebuilt = []
            for whole, b in zip(wholes, bs):
                fields, i = [*whole.fields], 0
                for k, _ in fields:
                    if k == key:
                        break
                    i += 1
                fields[i] = (key, b)
                rebuilt.append(_new(VRec, (tuple(fields),)))
            bs = rebuilt
        return bs


def _descend(keys, s, levels):
    """The focus of the path ``keys`` in ``s``: down once, keeping in
    ``levels`` each level's pairs, the index of its key's and the key."""
    for key in keys:
        if not isinstance(s, VRec):
            raise FocusError(f"expected a record with key {key!r}")
        fields, i = s.fields, 0
        for k, s in fields:
            if k == key:
                break
            i += 1
        else:
            raise FocusError(f"record has no key {key!r}")
        levels.append((fields, i, key))
    return s


def _rise(levels, new):
    """Up from ``new`` through the levels ``_descend`` kept."""
    for fields, i, key in reversed(levels):
        fields = [*fields]
        fields[i] = (key, new)
        new = _new(VRec, (tuple(fields),))
    return new


def field_lens(key: str, *more: str) -> Field:
    """Lens onto the record field ``key``, or onto the path of fields
    ``key, *more``, outermost first."""
    return _new(Field, ((key, *more),))


class Variant(View, Prism):
    """Prism onto the payload of one tagged-variant constructor, its tag."""

    __slots__ = ()

    def match(self, value):
        if isinstance(value, VTag) and value.tag == self[0]:
            return _new(Focus, (value.payload,))
        return _new(Miss, (value,))

    def build(self, payload):
        return _new(VTag, (self[0], payload))

    def _at(self, s):
        if isinstance(s, VTag) and s.tag == self[0]:
            return s.payload, self.build
        return _new(Miss, (s,))


def variant_prism(tag: str) -> Variant:
    """Prism onto the payload of the tagged variant ``tag``."""
    return _new(Variant, (tag,))


def _items(value):
    if not isinstance(value, VList):
        raise FocusError("expected a list")
    return value.items


def _relist(n, bs):
    LengthError.check(n, bs)
    return _new(VList, (tuple(bs),))


class Each(View, Traversal):
    """Traversal over the elements of a list value, in order. Its steps
    across many wholes hand the walk the items as they are and keep each
    list's length, so rebuilding makes no function."""

    __slots__ = ()

    def extract(self, value):
        items = _items(value)
        return list(items), partial(_relist, len(items))

    def _down(self, wholes):  # the memo: the length of each list
        foci, counts = [], []
        for value in wholes:
            items = _items(value)
            foci += items
            counts.append(len(items))
        return foci, counts

    def _up(self, counts, bs):
        rebuilt, cursor = [], 0
        for n in counts:
            rebuilt.append(_new(VList, (tuple(bs[cursor:cursor + n]),)))
            cursor += n
        return rebuilt


_EACH = _new(Each, (None,))


def each_traversal() -> Each:
    """Traversal over the elements of a list value, in order."""
    return _EACH
