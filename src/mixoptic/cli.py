"""Command-line front end for running optics against JSON documents.

Exit codes: 0 on success (a preview miss is success and prints ``null``),
1 for runtime errors raised while applying an optic (shape, length,
composition), 2 for usage errors (bad expression, unknown name, wrong
kind, malformed input).
"""

from __future__ import annotations

import json
import sys
import warnings

import click

from . import optics as op
from .errors import (
    CompositionError, EmptyInputError, EmptyTrainingError, FocusError,
    LengthError, OpticError,
)
from .expr import _PARAMETERIZED, parse_expr, resolve_expr
from .fixtures import mean, registry, value_to_flower
from .values import VList, VNum, VText, each_traversal, parse_json, serialize

_RUNTIME_ERRORS = (FocusError, LengthError, EmptyTrainingError,
                   EmptyInputError, CompositionError)

ACTIONS = ("view", "preview", "set", "over", "review", "aggregate",
           "classify", "tolist")


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
        raise click.UsageError(f"unknown function {name!r} for over")
    return table[name]


def _aggregate_fn(name: str):
    table = {
        "mean": mean,
        "maximum": max,
        "minimum": min,
        "head": lambda xs: xs[0],
    }
    if name not in table:
        raise click.UsageError(f"unknown function {name!r} for aggregate")
    return table[name]


def _load_defs(path: str) -> dict:
    params = {"field": "key", "variant": "tag"}  # the spec key of the argument
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot read definitions file: {exc}")
    if not isinstance(raw, dict):
        raise click.UsageError("definitions file must be a JSON object")
    out = {}
    for name, spec in raw.items():
        kind = isinstance(spec, dict) and spec.get("kind")
        if kind == "each":
            out[name] = each_traversal()
            continue
        if kind in _PARAMETERIZED:
            value = spec.get(params[kind])
            if isinstance(value, str):
                out[name] = _PARAMETERIZED[kind](value)
                continue
        raise click.UsageError(f"bad definition for {name!r}")
    return out


def _read_document(source: str):
    if source == "-":
        return parse_json(sys.stdin.read())
    try:
        with open(source, encoding="utf-8") as handle:
            return parse_json(handle.read())
    except OSError as exc:
        raise click.UsageError(str(exc))


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
    click.echo(f"warning: {message}", err=True)


def _parse_arg(arg: str):
    if arg is None:
        raise click.UsageError("this action needs --arg")
    return parse_json(arg)


@click.command(name="mixoptic")
@click.argument("action", type=click.Choice(ACTIONS))
@click.option("--optic", "expression", required=True,
              help="Dot-composed optic expression, e.g. address.street")
@click.option("--input", "source", default="-", show_default=True,
              help="Input JSON document (path or - for stdin).")
@click.option("--arg", default=None,
              help="JSON literal (set/classify/review) or function name "
                   "(over/aggregate).")
@click.option("--defs", default=None,
              help="JSON file with extra named field/variant/each optics.")
def main(action, expression, source, arg, defs):
    """Run an optic ACTION against a JSON document."""
    try:
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
                raise click.UsageError("over needs --arg with a function name")
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
                raise click.UsageError(
                    "aggregate needs --arg with a function name"
                )
            fn = _aggregate_fn(arg)
            batch = _require_list(_read_document(source), "aggregate")
            out = _render(op.aggregate(optic, fn, batch))
    except _RUNTIME_ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except OpticError as exc:  # every other library error is usage
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)

    click.echo(out)


if __name__ == "__main__":
    main()
