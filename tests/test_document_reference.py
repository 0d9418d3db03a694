"""The document runtime against a plain-Python reference.

The reference below reads the README's specification of the CLI over
``json.loads`` output and imports nothing from ``mixoptic``. It covers
``field("k")``, ``variant("t")`` (a one-key ``{"@t": ...}`` object) and
``each``, the actions ``tolist``, ``preview``, ``view``, ``set`` and
``over`` with the four ``--arg`` functions, and gives what the CLI prints:
the JSON text, or one ``error:`` line and the exit code. A chain walks its
document level by level, left to right within a level, so the first error
it meets is the one reported.

Cases are drawn from a path: the expression, then a document built along
it, with one segment sometimes changed afterwards, so that both the success
path and the error paths run.
"""

import json
import random

from hypothesis import given, settings, strategies as st

from conftest import run_cli
from mixoptic import (
    FocusError, KindError, over, parse_json, preview, serialize, set_value,
    to_list_of, view,
)
from mixoptic.cli import _over_fn
from mixoptic.expr import parse_expr, resolve_expr
from mixoptic.values import VList

# ---------------------------------------------------------------------------
# The reference: json, and nothing of mixoptic.


class Failure(Exception):
    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def _number(text):
    # a number is a 64-bit float, printed without a point when integral
    num = float(text)
    return int(num) if num.is_integer() and abs(num) < 2 ** 53 else num


def load(text):
    return json.loads(text, parse_int=_number, parse_float=_number)


def _is_tag(x):
    return isinstance(x, dict) and len(x) == 1 and next(iter(x))[0:1] == "@"


def _check(ok, message):
    if not ok:
        raise Failure(message)


# --arg name -> (whether it takes a focus, the focus it expects, its result)
FUNCTIONS = {
    "uppercase": (lambda x: isinstance(x, str), "a text", str.upper),
    "lowercase": (lambda x: isinstance(x, str), "a text", str.lower),
    "increment": (lambda x: type(x) in (int, float), "a number",
                  lambda x: _number(x + 1)),
    "head": (lambda x: isinstance(x, list) and x, "a non-empty list",
             lambda x: x[0]),
}


def _apply(name, x):
    takes, expects, result = FUNCTIONS[name]
    _check(takes(x), f"{name} expects {expects} focus")
    return result(x)


# kind -> the actions it admits, of the five the reference covers
ADMITS = {"lens": {"view", "preview", "tolist", "set", "over"},
          "prism": {"preview", "tolist", "set", "over"},
          "affine-traversal": {"preview", "tolist", "set", "over"},
          "traversal": {"tolist", "set", "over"}}
REFUSALS = {"view": "view through", "preview": "preview through",
            "set": "set through"}


def _kind(segments):
    names = {name for name, _ in segments}
    if "each" in names:
        return "traversal"
    if "variant" in names:
        return "affine-traversal" if "field" in names else "prism"
    return "lens"


def walk(doc, segments):
    """Every focus, in document order, found level by level."""
    foci = [doc]
    for name, arg in segments:
        found = []
        for x in foci:
            if name == "field":
                _check(isinstance(x, dict) and not _is_tag(x),
                       f"expected a record with key {arg!r}")
                _check(arg in x, f"record has no key {arg!r}")
                found.append(x[arg])
            elif name == "variant":
                if _is_tag(x) and "@" + arg in x:
                    found.append(x["@" + arg])
            else:
                _check(isinstance(x, list), "expected a list")
                found.extend(x)
        foci = found
    return foci


def rebuild(x, segments, new):
    """``x`` with its foci replaced, in order, from the iterator ``new``."""
    if not segments:
        return next(new)
    (name, arg), rest = segments[0], segments[1:]
    if name == "field":
        return {**x, arg: rebuild(x[arg], rest, new)}
    if name == "variant":
        tag = "@" + arg
        return {tag: rebuild(x[tag], rest, new)} if _is_tag(x) and tag in x else x
    return [rebuild(y, rest, new) for y in x]


def reference(action, segments, text, arg=None):
    """``(exit code, stdout, stderr)`` as the CLI prints them."""
    try:
        kind = _kind(segments)
        if action not in ADMITS[kind]:
            article = "an" if kind[0] in "aeiou" else "a"
            raise Failure(f"cannot {REFUSALS[action]} {article} {kind}", 2)
        doc = load(text)
        foci = walk(doc, segments)
        if action == "tolist":
            out = foci
        elif action in ("view", "preview"):
            out = foci[0] if foci else None
        else:
            new = [_apply(arg, x) if action == "over" else load(arg)
                   for x in foci]
            out = rebuild(doc, segments, iter(new))
        return 0, json.dumps(out, ensure_ascii=False) + "\n", ""
    except Failure as failure:
        return failure.code, "", f"error: {failure}\n"


# ---------------------------------------------------------------------------
# Cases, drawn from a ``random.Random``: hypothesis's, or a seeded one.

KEYS = ["a", "b", "c", "é"]
TAGS = ["t", "u"]
LEAVES = {"uppercase": ["Ab", "ü", ""], "lowercase": ["xY", "ß"],
          "increment": [0, -3, 2.5, -0.0, 1e20, 2 ** 53 + 1],
          "head": [[1, "x"], [[]], []]}


def _leaf(r, fn):
    if r.randint(0, 9) < 8:
        return r.choice(LEAVES[fn])
    return r.choice([None, True, "z", 7, [], {}, {"@t": 1}])


def _along(r, path, fn):
    """A document in which ``path`` exists, mostly, with other parts."""
    if not path:
        return _leaf(r, fn)
    (name, arg), rest = path[0], path[1:]
    if name == "variant":
        return {"@" + arg: _along(r, rest, fn)}
    if name == "each":
        return [_along(r, rest, fn) if r.randint(0, 9) else _leaf(r, fn)
                for _ in range(r.randint(0, 3))]
    items = [(k, _leaf(r, fn)) for k in KEYS if k != arg and not r.randint(0, 2)]
    items.insert(r.randint(0, len(items)), (arg, _along(r, rest, fn)))
    return dict(items)


def _segment(r):
    name = r.choice(["field", "field", "variant", "each"])
    return name, r.choice({"field": KEYS, "variant": TAGS, "each": [None]}[name])


def draw_case(r):
    """``(action, segments, document text, --arg)``."""
    path = [_segment(r) for _ in range(r.randint(1, 12))]
    fn = r.choice(sorted(FUNCTIONS))
    doc = _along(r, path, fn)
    if not r.randint(0, 3):
        path[r.randint(0, len(path) - 1)] = _segment(r)
    admitted = sorted(ADMITS[_kind(path)])
    action = r.choice(admitted if r.randint(0, 9) else sorted(ADMITS["lens"]))
    arg = {"over": fn, "set": json.dumps(_leaf(r, fn))}.get(action)
    return action, path, json.dumps(doc), arg


# ---------------------------------------------------------------------------
# The library route and the CLI, each against the reference.


def expression(segments):
    return ".".join(name if arg is None else f"{name}({json.dumps(arg)})"
                    for name, arg in segments)


def library(action, segments, text, arg=None):
    try:
        optic = resolve_expr(parse_expr(expression(segments)), {})
        doc = parse_json(text)
        if action == "tolist":
            out = serialize(VList(tuple(to_list_of(optic, doc))))
        elif action in ("view", "preview"):
            found = (view if action == "view" else preview)(optic, doc)
            out = "null" if found is None else serialize(found)
        elif action == "set":
            out = serialize(set_value(optic, doc, parse_json(arg)))
        else:
            out = serialize(over(optic, _over_fn(arg), doc))
        return 0, out + "\n", ""
    except FocusError as exc:
        return 1, "", f"error: {exc}\n"
    except KindError as exc:
        return 2, "", f"error: {exc}\n"


def check(action, segments, text, arg=None):
    expected = reference(action, segments, text, arg)
    assert library(action, segments, text, arg) == expected
    argv = [action, "--optic", expression(segments), "--input", "-"]
    result = run_cli(*argv, *(["--arg", arg] if arg is not None else []),
                     stdin=text)
    assert tuple(result) == expected


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_library_and_cli_match_the_reference(r):
    check(*draw_case(r))


def test_most_drawn_cases_succeed():
    codes = [reference(*draw_case(random.Random(seed)))[0]
             for seed in range(400)]
    assert codes.count(0) >= 0.6 * len(codes)
    assert codes.count(1) >= 0.1 * len(codes) and 2 in codes


def test_the_first_error_is_met_level_by_level():
    case = ("over", [("each", None), ("field", "a"), ("field", "c")],
            '[{"a": 5}, {"b": 1}]', "uppercase")
    assert reference(*case) == (1, "", "error: record has no key 'a'\n")
    check(*case)


def test_ten_thousand_records():
    doc = [{"a": {"b": f"w{i}", "c": i}, "é": [i, None]} for i in range(10_000)]
    text = json.dumps(doc)
    path = [("each", None), ("field", "a"), ("field", "b")]
    check("over", path, text, "uppercase")
    check("over", path[:2] + [("field", "c")], text, "uppercase")


def test_five_hundred_levels_of_lists_and_records():
    doc = 1.5
    for _ in range(250):
        doc = {"a": [doc], "b": None}
    text = json.dumps(doc)
    path = [("field", "a"), ("each", None), ("field", "a")]
    check("tolist", path, text)
    check("over", path, text, "head")
    check("set", path[:1], text, '"x"')
    check("preview", path[:1], text)
