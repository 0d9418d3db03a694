"""Command-line front end for running optics against JSON documents.

Every action is one row of ``_ACTIONS``: how it reads ``--arg``, what it
reads from ``--input``, the combinator it runs and how it prints the
result. ``main`` is one path through the row: parse the command line, build
the names (the registry and ``--defs``), resolve the expression, read
``--arg``, check that the optic admits the action, read the input, apply,
print.

Exit codes: 0 on success (a preview miss is success and prints ``null``),
1 for runtime errors raised while applying an optic (shape, length,
composition), 2 for usage errors (a malformed command line, bad expression,
unknown name, wrong kind, malformed input or ``--arg``). Every non-zero
exit prints one ``error:`` line on stderr. The command line is parsed by
hand (see ``_parse_argv``), which keeps start-up short, and input and
output are UTF-8 whatever the locale says.
"""

from __future__ import annotations

import json
import sys
import warnings
from functools import partial

from . import optics as op
from .errors import (
    CompositionError, EmptyInputError, EmptyTrainingError, FocusError,
    LengthError, OpticError, ParseError,
)
from .expr import _PARAMETERIZED, parse_expr, resolve_expr
from .fixtures import mean, read_flower, registry
from .values import (
    VList, VNum, VText, _new, each_traversal, parse_json, serialize,
)

_RUNTIME_ERRORS = (FocusError, LengthError, EmptyTrainingError,
                   EmptyInputError, CompositionError)


class UsageError(OpticError):
    """The command line, or a function name, file or ``--arg`` it gives,
    cannot be used."""


# --arg of over: name -> (whether it takes the focus, the focus in words, the
# function), and of aggregate: name -> the function of the list of foci
_OVER = {
    "uppercase": (lambda v: isinstance(v, VText), "a text",
                  lambda v: _new(VText, (v.value.upper(),))),
    "lowercase": (lambda v: isinstance(v, VText), "a text",
                  lambda v: _new(VText, (v.value.lower(),))),
    "increment": (lambda v: isinstance(v, VNum), "a number",
                  lambda v: _new(VNum, (v.value + 1,))),
    "head": (lambda v: isinstance(v, VList) and v.items, "a non-empty list",
             lambda v: v.items[0]),
}
_AGGREGATE = {"mean": mean, "maximum": max, "minimum": min,
              "head": lambda xs: xs[0]}


def _function(action: str, table: dict, name):
    """The entry of ``table`` that ``--arg`` names for ``action``."""
    if name is None:
        raise UsageError(f"{action} needs --arg with a function name")
    if name not in table:
        raise UsageError(f"unknown function {name!r} for {action}")
    return table[name]


def _over_fn(name: str):
    """The focus function ``over --arg NAME`` runs."""
    takes, words, fn = _function("over", _OVER, name)

    def checked(v):
        if not takes(v):
            raise FocusError(f"{name} expects {words} focus")
        return fn(v)

    return checked


def _json_arg(arg):
    if arg is None:
        raise UsageError("this action needs --arg")
    try:
        return parse_json(arg)
    except ParseError as exc:
        raise ParseError(f"--arg: {exc}") from None


def _read_input(source: str, action: str, reads: str):
    """The document at ``source``; for ``reads == "list"``, its items."""
    try:
        if source == "-":
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(source, "rb") as handle:
                text = handle.read().decode("utf-8")
    except OSError as exc:
        raise UsageError(str(exc))
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"invalid UTF-8 at byte {exc.start}: {exc.reason}") from None
    doc = parse_json(text)
    if reads == "document":
        return doc
    if not isinstance(doc, VList):
        raise UsageError(f"{action} expects a list document")
    return list(doc.items)


def _fmt(x: float) -> str:
    s = f"{x:.3f}".rstrip("0")
    return s + "0" if s.endswith(".") else s


def _render(value) -> str:
    """Flower records render as a one-line summary; everything else as JSON."""
    try:
        _, numbers, species = read_flower(value)
    except FocusError:
        return serialize(value)
    sepal_length, sepal_width, petal_length, petal_width = map(_fmt, numbers)
    return (f"{species}; Sepal ({sepal_length}, {sepal_width}); "
            f"Petal ({petal_length}, {petal_width})")


# action: (how it reads --arg into the combinator's argument, or None if it
# does not; what it reads from --input: None, "document" or "list"; the
# combinator, given the optic, the input and the argument; the printer)
_ACTIONS = {
    "view": (None, "document", lambda o, s, _: op.view(o, s), serialize),
    "preview": (None, "document", lambda o, s, _: op.preview(o, s),
                lambda a: "null" if a is None else serialize(a)),
    "set": (_json_arg, "document", op.set_value, serialize),
    "over": (_over_fn, "document", lambda o, s, f: op.over(o, f, s),
             serialize),
    "review": (_json_arg, None, lambda o, _, b: op.review(o, b), serialize),
    "aggregate": (partial(_function, "aggregate", _AGGREGATE), "list",
                  lambda o, ss, f: op.aggregate(o, f, ss), _render),
    "classify": (_json_arg, "list", op.classify, _render),
    "tolist": (None, "document", lambda o, s, _: op.to_list_of(o, s),
               lambda foci: serialize(VList(tuple(foci)))),
}
ACTIONS = tuple(_ACTIONS)
OPTIONS = ("--optic", "--input", "--arg", "--defs")

HELP = f"""\
Usage: mixoptic ACTION --optic TEXT [--input TEXT] [--arg TEXT] [--defs TEXT]

  Run an optic ACTION against a JSON document. ACTION is one of
  {", ".join(ACTIONS)}.

Options:
  --optic TEXT  Dot-composed optic expression, e.g. address.street  [required]
  --input TEXT  Input JSON document (path or - for stdin).  [default: -]
  --arg TEXT    JSON literal (set/classify/review) or function name
                (over/aggregate).
  --defs TEXT   JSON file with extra named field/variant/each optics.
  --help        Show this message and exit."""


def _parse_argv(argv):
    """Return ``(action, expression, source, arg, defs)`` from ``argv``.

    An option takes the next token as its value whatever it is, so
    ``--arg -1.5e3`` is a value, not an option; ``--name=value`` works too,
    a repeated option keeps its last value and no option name is
    abbreviated. ``--help`` prints ``HELP`` and exits 0.
    """
    given, positional, wants_help = {}, [], False
    tokens = iter(argv)
    for token in tokens:
        if token == "-" or not token.startswith("-"):
            positional.append(token)
            continue
        name, eq, value = token.partition("=")
        if name == "--help":
            if eq:
                raise UsageError("option --help takes no value")
            wants_help = True
            continue
        if name not in OPTIONS:
            raise UsageError(f"no such option: {name}")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"option {name} needs a value")
        given[name] = value
    if wants_help:
        _echo(sys.stdout, HELP)
        sys.exit(0)
    if not positional:
        raise UsageError(f"missing ACTION, one of {', '.join(ACTIONS)}")
    if positional[0] not in ACTIONS:
        raise UsageError(f"unknown action {positional[0]!r}; "
                         f"expected one of {', '.join(ACTIONS)}")
    if "--optic" not in given:
        raise UsageError("missing option --optic")
    if len(positional) > 1:
        raise UsageError(f"unexpected extra argument {positional[1]!r}")
    return (positional[0], given["--optic"], given.get("--input", "-"),
            given.get("--arg"), given.get("--defs"))


def _echo(stream, line: str):
    """Write ``line`` to ``stream`` as UTF-8, whatever its encoding says; a
    lone surrogate, which no UTF-8 text holds, is written as its JSON
    escape."""
    stream.flush()
    stream.buffer.write(line.encode("utf-8", "backslashreplace") + b"\n")
    stream.buffer.flush()


def _load_defs(path: str) -> dict:
    params = {"field": "key", "variant": "tag"}  # the spec key of the argument
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read definitions file: {exc}")
    if not isinstance(raw, dict):
        raise UsageError("definitions file must be a JSON object")
    out = {}
    for name, spec in raw.items():
        kind = isinstance(spec, dict) and spec.get("kind")
        if kind == "each":
            out[name] = each_traversal()
            continue
        if isinstance(kind, str) and kind in _PARAMETERIZED:
            value = spec.get(params[kind])
            if isinstance(value, str):
                out[name] = _PARAMETERIZED[kind](value)
                continue
        raise UsageError(f"bad definition for {name!r}")
    return out


def _warning_line(message, *_):
    _echo(sys.stderr, f"warning: {message}")


def main(argv=None):
    """Run an optic ACTION against a JSON document; ``argv`` defaults to
    ``sys.argv[1:]``."""
    try:
        action, expression, source, arg, defs = _parse_argv(
            sys.argv[1:] if argv is None else argv)
        read_arg, reads, run, prints = _ACTIONS[action]
        names = registry()
        if defs:
            names.update(_load_defs(defs))
        with warnings.catch_warnings():  # a setter fallback, as one line
            warnings.simplefilter("always")
            warnings.showwarning = _warning_line
            optic = resolve_expr(parse_expr(expression), names)
        given = None if read_arg is None else read_arg(arg)
        op._admit(optic, action)  # a wrong kind is usage, whatever the input
        doc = None if reads is None else _read_input(source, action, reads)
        out = prints(run(optic, doc, given))
    except _RUNTIME_ERRORS as exc:
        _echo(sys.stderr, f"error: {exc}")
        sys.exit(1)
    except OpticError as exc:  # every other library error is usage
        _echo(sys.stderr, f"error: {exc}")
        sys.exit(2)

    _echo(sys.stdout, out)


if __name__ == "__main__":
    main()
