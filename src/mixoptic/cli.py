"""Command-line front end for running optics against JSON documents.

Exit codes: 0 on success (a preview miss is success and prints ``null``),
1 for runtime errors raised while applying an optic (shape, length,
composition), 2 for usage errors (a malformed command line, bad expression,
unknown name, wrong kind, malformed input). Every non-zero exit prints one
``error:`` line on stderr. The command line is parsed by hand (see
``_parse_argv``), which keeps start-up short, and input and output are
UTF-8 whatever the locale says.
"""

from __future__ import annotations

import json
import sys
import warnings

from . import optics as op
from .errors import (
    CompositionError, EmptyInputError, EmptyTrainingError, FocusError,
    LengthError, OpticError, ParseError,
)
from .expr import _PARAMETERIZED, parse_expr, resolve_expr
from .fixtures import mean, registry, value_to_flower
from .values import VList, VNum, VText, each_traversal, parse_json, serialize

_RUNTIME_ERRORS = (FocusError, LengthError, EmptyTrainingError,
                   EmptyInputError, CompositionError)

ACTIONS = ("view", "preview", "set", "over", "review", "aggregate",
           "classify", "tolist")
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


class UsageError(OpticError):
    """The command line, or a function name, file or ``--arg`` it gives,
    cannot be used."""


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


def _over_fn(name: str):
    def uppercase(v):
        if not isinstance(v, VText):
            raise FocusError("uppercase expects a text focus")
        return VText(v.value.upper())

    def lowercase(v):
        if not isinstance(v, VText):
            raise FocusError("lowercase expects a text focus")
        return VText(v.value.lower())

    def increment(v):
        if not isinstance(v, VNum):
            raise FocusError("increment expects a number focus")
        return VNum(v.value + 1)

    def head(v):
        if not isinstance(v, VList) or not v.items:
            raise FocusError("head expects a non-empty list focus")
        return v.items[0]

    table = {"uppercase": uppercase, "lowercase": lowercase,
             "increment": increment, "head": head}
    if name not in table:
        raise UsageError(f"unknown function {name!r} for over")
    return table[name]


def _aggregate_fn(name: str):
    table = {
        "mean": mean,
        "maximum": max,
        "minimum": min,
        "head": lambda xs: xs[0],
    }
    if name not in table:
        raise UsageError(f"unknown function {name!r} for aggregate")
    return table[name]


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


def _read_document(source: str):
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
    return parse_json(text)


def _require_list(doc, action: str):
    if not isinstance(doc, VList):
        raise FocusError(f"{action} expects a list document")
    return list(doc.items)


def _fmt(x: float) -> str:
    s = f"{x:.3f}".rstrip("0")
    return s + "0" if s.endswith(".") else s


def _render(value) -> str:
    """Flower records render as a one-line summary; everything else as JSON."""
    try:
        flower = value_to_flower(value)
    except FocusError:
        return serialize(value)
    m = flower.measurements
    return (f"{flower.species}; "
            f"Sepal ({_fmt(m.sepal_length)}, {_fmt(m.sepal_width)}); "
            f"Petal ({_fmt(m.petal_length)}, {_fmt(m.petal_width)})")


def _warning_line(message, *_):
    _echo(sys.stderr, f"warning: {message}")


def _parse_arg(arg: str):
    if arg is None:
        raise UsageError("this action needs --arg")
    return parse_json(arg)


def main(argv=None):
    """Run an optic ACTION against a JSON document; ``argv`` defaults to
    ``sys.argv[1:]``."""
    try:
        action, expression, source, arg, defs = _parse_argv(
            sys.argv[1:] if argv is None else argv)
        names = registry()
        if defs:
            names.update(_load_defs(defs))
        with warnings.catch_warnings():  # a setter fallback, as one line
            warnings.simplefilter("always")
            warnings.showwarning = _warning_line
            optic = resolve_expr(parse_expr(expression), names)

        if action == "view":
            doc = _read_document(source)
            out = serialize(op.view(optic, doc))
        elif action == "preview":
            doc = _read_document(source)
            found = op.preview(optic, doc)
            out = "null" if found is None else serialize(found)
        elif action == "set":
            value = _parse_arg(arg)
            doc = _read_document(source)
            out = serialize(op.set_value(optic, doc, value))
        elif action == "over":
            if arg is None:
                raise UsageError("over needs --arg with a function name")
            fn = _over_fn(arg)
            doc = _read_document(source)
            out = serialize(op.over(optic, fn, doc))
        elif action == "review":
            out = serialize(op.review(optic, _parse_arg(arg)))
        elif action == "tolist":
            doc = _read_document(source)
            out = serialize(VList(tuple(op.to_list_of(optic, doc))))
        elif action == "classify":
            value = _parse_arg(arg)
            training = _require_list(_read_document(source), "classify")
            out = _render(op.classify(optic, training, value))
        else:  # aggregate
            if arg is None:
                raise UsageError(
                    "aggregate needs --arg with a function name"
                )
            fn = _aggregate_fn(arg)
            batch = _require_list(_read_document(source), "aggregate")
            out = _render(op.aggregate(optic, fn, batch))
    except _RUNTIME_ERRORS as exc:
        _echo(sys.stderr, f"error: {exc}")
        sys.exit(1)
    except OpticError as exc:  # every other library error is usage
        _echo(sys.stderr, f"error: {exc}")
        sys.exit(2)

    _echo(sys.stdout, out)


if __name__ == "__main__":
    main()
