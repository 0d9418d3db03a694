"""Optic expression grammar and resolution."""

import pytest

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
