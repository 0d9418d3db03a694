"""The runtime document universe and optics over it.

Values mirror JSON with one extension: an object with a single key starting
with ``@`` denotes a tagged variant. Records keep their key order, numbers
are 64-bit floats, and serialization prints integral floats without a
decimal point.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Tuple, Union

from .errors import FocusError, LengthError, ParseError
from .optics import Focus, Lens, Miss, Prism, Traversal


@dataclass(frozen=True)
class VNull:
    pass


@dataclass(frozen=True)
class VBool:
    value: bool


@dataclass(frozen=True)
class VNum:
    value: float


@dataclass(frozen=True)
class VText:
    value: str


@dataclass(frozen=True)
class VList:
    items: Tuple["Value", ...]


@dataclass(frozen=True)
class VRec:
    fields: Tuple[Tuple[str, "Value"], ...]  # ordered key/value pairs

    def get(self, key: str):
        for k, v in self.fields:
            if k == key:
                return v
        return None


@dataclass(frozen=True)
class VTag:
    tag: str
    payload: "Value"


Value = Union[VNull, VBool, VNum, VText, VList, VRec, VTag]

NULL = VNull()

_FLOAT_MAX = sys.float_info.max


def _from_pairs(pairs):
    keys = [k for k, _ in pairs]
    if len(set(keys)) != len(keys):
        dup = next(k for k in keys if keys.count(k) > 1)
        raise ParseError(f"duplicate key {dup!r}")
    if len(pairs) == 1 and keys[0].startswith("@"):
        return VTag(keys[0][1:], pairs[0][1])
    return VRec(tuple(pairs))


def _from_python(obj) -> Value:
    if _is_value(obj):
        return obj
    if obj is None:
        return NULL
    if isinstance(obj, bool):
        return VBool(obj)
    if isinstance(obj, (int, float)):
        num = float(obj)  # OverflowError past the float range
        if not -_FLOAT_MAX <= num <= _FLOAT_MAX:  # 1e400 decodes as inf
            raise ParseError("number out of range")
        return VNum(num)
    if isinstance(obj, str):
        return VText(obj)
    if isinstance(obj, list):
        return VList(tuple(_from_python(x) for x in obj))
    raise ParseError(f"unsupported document element {type(obj).__name__}")


def _not_a_number(name: str):
    raise ParseError(f"{name} is not a JSON number")


def parse_json(text: str) -> Value:
    try:
        raw = json.loads(
            text,
            object_pairs_hook=lambda pairs: _from_pairs(
                [(k, v if _is_value(v) else _from_python(v)) for k, v in pairs]
            ),
            parse_constant=_not_a_number,
        )
        return raw if _is_value(raw) else _from_python(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    except (OverflowError, ValueError):
        # an integer past the float range, or past the digits int() reads
        raise ParseError("number out of range") from None
    except RecursionError:
        raise ParseError("document nests too deeply") from None


def _is_value(obj) -> bool:
    return isinstance(obj, (VNull, VBool, VNum, VText, VList, VRec, VTag))


def _to_python(value: Value):
    if isinstance(value, VNull):
        return None
    if isinstance(value, VBool):
        return value.value
    if isinstance(value, VNum):
        num = value.value
        return int(num) if float(num).is_integer() and abs(num) < 2 ** 53 else num
    if isinstance(value, VText):
        return value.value
    if isinstance(value, VList):
        return [_to_python(v) for v in value.items]
    if isinstance(value, VRec):
        return {k: _to_python(v) for k, v in value.fields}
    if isinstance(value, VTag):
        return {"@" + value.tag: _to_python(value.payload)}
    raise TypeError(f"not a Value: {value!r}")


def serialize(value: Value) -> str:
    try:
        return json.dumps(_to_python(value), ensure_ascii=False)
    except RecursionError:
        # records parse deeper than the conversion back can recurse
        raise ParseError("document nests too deeply") from None


# ---------------------------------------------------------------------------
# Generic optics over values.


def field_lens(key: str) -> Lens:
    """Lens onto a record field; shape errors surface at application time."""

    def view(value):
        if not isinstance(value, VRec):
            raise FocusError(f"expected a record with key {key!r}")
        found = value.get(key)
        if found is None:
            raise FocusError(f"record has no key {key!r}")
        return found

    def update(value, new):
        view(value)  # same shape checks
        return VRec(tuple(
            (k, new if k == key else v) for k, v in value.fields
        ))

    return Lens(view=view, update=update)


def each_traversal() -> Traversal:
    """Traversal over the elements of a list value, in order."""

    def extract(value):
        if not isinstance(value, VList):
            raise FocusError("expected a list")
        items = value.items

        def rebuild(bs, _n=len(items)):
            if len(bs) != _n:
                raise LengthError(f"expected {_n} replacements, got {len(bs)}")
            return VList(tuple(bs))

        return list(items), rebuild

    return Traversal(extract=extract)


def variant_prism(tag: str) -> Prism:
    """Prism onto the payload of one tagged-variant constructor."""

    def match(value):
        if isinstance(value, VTag) and value.tag == tag:
            return Focus(value.payload)
        return Miss(value)

    return Prism(match=match, build=lambda payload: VTag(tag, payload))
