"""Optic expression grammar and resolution."""

import json
import re
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from mixoptic import OpticKind, preview, view
from mixoptic.errors import ExprError
from mixoptic.expr import (
    Segment, parse_expr, render_expr, resolve_expr, resolve_segment,
)
from mixoptic.fixtures import registry
from mixoptic.values import parse_json

K = OpticKind


def test_parse_plain_chain():
    assert parse_expr("address.street") == [
        Segment("address", None, 0),
        Segment("street", None, 8),
    ]


def test_parse_parameterized_segments():
    segs = parse_expr('field("a").variant("x").each')
    assert [(s.name, s.argument) for s in segs] == [
        ("field", "a"), ("variant", "x"), ("each", None)]


def test_parse_string_escapes():
    segs = parse_expr(r'field("a\"b")')
    assert segs[0].argument == 'a"b'


@pytest.mark.parametrize("text", [
    "address.street", 'field("k")', 'each.variant("t").field("x")',
    'field("sp ace")',
])
def test_render_parse_round_trip(text):
    assert render_expr(parse_expr(text)) == text


# every ExprError message, keyed by the expression that raises it
MESSAGES = {
    "": "empty expression",
    ".street": "expected a name",
    "address..street": "expected a name",
    "address.": "expected a name",
    'field("a"': "expected ')'",
    'field("a': "unterminated string",
    "field(a)": "expected a double-quoted string",
    "9lives": "expected a name",
    "a b": "unexpected character ' '",
    r'field("\q")': "bad string escape",
    'field("a\x01b")': "bad string escape",
    'field("tab\there")': "bad string escape",
    'field("a\\': "unterminated string",
    'field("ab")x': "unexpected character 'x'",
    'field("ab"]': "expected ')'",
    "street(": "expected a double-quoted string",
    "x.2fast": "expected a name",
    "a.\u00b2b": "expected a name",
    "caf\u00e9.\u00bdx": "expected a name",
    "\u216b": "expected a name",
    "caf\u00e9\u2192street": "unexpected character '\u2192'",
}


@pytest.mark.parametrize("text,pos", [
    ("", 0),
    (".street", 0),
    ("address..street", 8),
    ("address.", 8),
    ('field("a"', 9),
    ('field("a', 6),
    ("field(a)", 6),
    ("9lives", 0),
    ("a b", 1),
    (r'field("\q")', 6),
    ('field("a\x01b")', 6),
    ('field("tab\there")', 6),
    ('field("a\\', 6),
    ('field("ab")x', 11),
    ('field("ab"]', 10),
    ("street(", 7),
    ("x.2fast", 2),
    ("a.\u00b2b", 2),
    ("caf\u00e9.\u00bdx", 5),
    ("\u216b", 0),
    ("caf\u00e9\u2192street", 4),
])
def test_parse_errors_report_position(text, pos):
    with pytest.raises(ExprError) as e:
        parse_expr(text)
    assert e.value.position == pos
    assert str(e.value) == f"{MESSAGES[text]} (at position {pos})"


@pytest.mark.parametrize("text,segments", [
    (r'field("a\"b")', [("field", 'a"b', 0)]),
    (r'field("\u00e9t\u00e9")', [("field", "\u00e9t\u00e9", 0)]),
    ('field("\u00e9t\u00e9")', [("field", "\u00e9t\u00e9", 0)]),
    (r'field("a\\").each', [("field", "a\\", 0), ("each", None, 13)]),
    ('field("")', [("field", "", 0)]),
    ("caf\u00e9.x\u00bd_1", [("caf\u00e9", None, 0), ("x\u00bd_1", None, 5)]),
])
def test_parse_names_and_escapes(text, segments):
    assert parse_expr(text) == [Segment(*seg) for seg in segments]


def test_resolve_against_registry():
    optic = resolve_expr(parse_expr("address.street"), registry())
    assert optic.kind is K.AFFINE_TRAVERSAL
    doc = parse_json('"221b Baker St, London, UK"')
    got = preview(optic, doc)
    from mixoptic import VText
    assert got == VText("221b Baker St")


def test_resolve_field_and_each():
    optic = resolve_expr(parse_expr('field("xs").each'), registry())
    doc = parse_json('{"xs": [1, 2]}')
    from mixoptic import to_list_of, VNum
    assert to_list_of(optic, doc) == [VNum(1.0), VNum(2.0)]


def test_resolve_errors():
    with pytest.raises(ExprError):
        resolve_segment(Segment("nonsense", None, 0), registry())
    with pytest.raises(ExprError):
        resolve_segment(Segment("street", "arg", 0), registry())
    with pytest.raises(ExprError):
        resolve_segment(Segment("field", None, 0), registry())


# ---------------------------------------------------------------------------
# The scanner reads a segment with one pattern and goes the long way only for
# an escaped argument or an error. Its oracle is the scanner it replaced,
# kept verbatim: a name pattern, then a string reader, per segment.

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


def reference_parse_expr(text: str) -> List[Segment]:
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


# ASCII and other word characters, digits and other numerics, the
# grammar's punctuation, a space, a non-word character and control
# characters
WORD = "abeuxZ_\u00e9\u00df\u01c5\u4e2d09\u00b2\u00bd\u216b"
ALPHABET = WORD + '()"\\. \u2192\x00\x01\t\n\x1f'
ESCAPES = ['\\"', "\\\\", "\\n", "\\u00e9", "\\ud800", "\\q", "\\"]

raw_texts = st.text(st.sampled_from(ALPHABET), max_size=24)
names = st.text(st.sampled_from(WORD), min_size=1, max_size=5)
arguments = st.lists(st.sampled_from([*ALPHABET, *ESCAPES]),
                     max_size=6).map("".join)
grammar_segments = st.one_of(
    names, st.tuples(names, arguments).map(lambda t: f'{t[0]}("{t[1]}")'))
# mostly the grammar's dot between segments, at times none or another
separators = st.sampled_from([".", ".", ".", ".", ".", ".", "", "(", ")", " "])


@st.composite
def grammar_texts(draw):
    segments = draw(st.lists(grammar_segments, min_size=1, max_size=4))
    return "".join(segments[0:1] + [draw(separators) + seg
                                    for seg in segments[1:]])


def outcome(parse, text):
    try:
        return [tuple(seg) for seg in parse(text)]
    except ExprError as e:
        return str(e), e.position


@settings(max_examples=500, deadline=None)
@given(st.one_of(raw_texts, grammar_texts()))
def test_scanner_matches_the_replaced_scanner(text):
    assert outcome(parse_expr, text) == outcome(reference_parse_expr, text)
