"""Optic expressions: parsing and resolution against a name registry.

Grammar::

    expr    := segment ("." segment)*
    segment := IDENT | IDENT "(" STRING ")"

where STRING is double-quoted with JSON's backslash escapes. The scanner
matches each name and each argument with a compiled pattern. Segments
resolve to optics through the registry (plain names) or through the
parameterized forms ``field("key")`` and ``variant("tag")``; the whole chain
is one call to the variadic ``compose``, at the join of all its kinds.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, NamedTuple, Optional, Tuple

from .composition import compose
from .errors import ExprError
from .records import record
from .values import each_traversal, field_lens, variant_prism


@record
class Segment(NamedTuple):
    name: str
    argument: Optional[str]
    position: int  # offset of the segment's first character

    def render(self) -> str:
        if self.argument is None:
            return self.name
        return f"{self.name}({json.dumps(self.argument)})"


# A name is the characters ``str.isalnum`` accepts, and "_"; it may not
# start with a character ``str.isnumeric`` accepts (``9``, ``²``, ``½``,
# ``Ⅻ``). A quoted argument with no backslash and no control character is
# its own value; any other goes through the JSON decoder, which reads the
# escapes and, as JSON does, rejects a raw control character.
_NAME = re.compile(r"\w+")
_PLAIN_STRING = re.compile(r'"([^"\\\x00-\x1f]*)"')
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"', re.DOTALL)


def _ident(text: str, pos: int) -> Tuple[str, int]:
    found = _NAME.match(text, pos)
    if found is None or text[pos].isnumeric():
        raise ExprError("expected a name", pos)
    return found.group(), found.end()


def _string(text: str, pos: int) -> Tuple[str, int]:
    plain = _PLAIN_STRING.match(text, pos)
    if plain is not None:
        return plain.group(1), plain.end()
    if not text.startswith('"', pos):
        raise ExprError("expected a double-quoted string", pos)
    quoted = _STRING.match(text, pos)
    if quoted is None:
        raise ExprError("unterminated string", pos)
    try:
        return json.loads(quoted.group()), quoted.end()
    except ValueError:
        raise ExprError("bad string escape", pos) from None


def parse_expr(text: str) -> List[Segment]:
    if not text:
        raise ExprError("empty expression", 0)
    segments, pos = [], 0
    while True:
        start = pos
        name, pos = _ident(text, pos)
        argument = None
        if pos < len(text) and text[pos] == "(":
            argument, pos = _string(text, pos + 1)
            if pos >= len(text) or text[pos] != ")":
                raise ExprError("expected ')'", pos)
            pos += 1
        segments.append(Segment(name, argument, start))
        if pos == len(text):
            return segments
        if text[pos] != ".":
            raise ExprError(f"unexpected character {text[pos]!r}", pos)
        pos += 1


def render_expr(segments: List[Segment]) -> str:
    return ".".join(seg.render() for seg in segments)


_PARAMETERIZED = {
    "field": field_lens,
    "variant": variant_prism,
}


def resolve_segment(segment: Segment, registry: Dict[str, object]):
    if segment.argument is not None:
        factory = _PARAMETERIZED.get(segment.name)
        if factory is None:
            raise ExprError(
                f"{segment.name!r} takes no argument", segment.position
            )
        return factory(segment.argument)
    if segment.name in _PARAMETERIZED:
        raise ExprError(
            f"{segment.name!r} needs a quoted argument", segment.position
        )
    if segment.name == "each":
        return each_traversal()
    found = registry.get(segment.name)
    if found is None:
        raise ExprError(f"unknown optic {segment.name!r}", segment.position)
    return found


def resolve_expr(segments: List[Segment], registry: Dict[str, object]):
    """Resolve every segment and compose the chain in one call."""
    return compose(*[resolve_segment(seg, registry) for seg in segments])
