"""Shared test helpers: a zoo of typed optics plus input generators, and
an in-process runner for the CLI.

Each zoo entry carries an optic, a generator of random application cases,
and an ``observe`` function that runs every combinator the kind supports
and returns a comparable snapshot. Extensional equality of two optics of
the same kind means equal snapshots over many generated cases.
"""

from __future__ import annotations

import io
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, NamedTuple

from mixoptic import (
    Adapter, AchromaticLens, AlgebraicLens, Fold, Getter, Glass, Grate,
    Kaleidoscope, Lens, MonadicLens, OpticKind, Prism, Review, Setter,
    Focus, Miss, Writer, aggregate, classify, compose, grate_apply, mupdate,
    preview, review, over, to_list_of, upcast, view,
)
from mixoptic.cli import main

from typed_examples import (
    Address, Box, Flower, Measurements, address_prism, aggregate_kaleidoscope,
    box_lens, each, iris, measure_lens, street_lens,
)

K = OpticKind

_WORDS = ["Baker St", "Rowan Rd", "High Ln", "Elm Way", "Forge Yard",
          "Mill Bank", "Dean Gate", "Acre Fold"]
_CITIES = ["London", "Leeds", "York", "Bath", "Derby", "Truro"]
_COUNTRIES = ["UK", "USA", "France", "Norway"]


def gen_address(r: random.Random) -> Address:
    return Address(
        f"{r.randrange(1, 400)} {r.choice(_WORDS)}",
        r.choice(_CITIES),
        r.choice(_COUNTRIES),
    )


def gen_postal(r: random.Random) -> str:
    # half the samples parse, half miss
    if r.random() < 0.5:
        a = gen_address(r)
        return f"{a.street}, {a.city}, {a.country}"
    return r.choice(["no separators", "only, one", "x", "", "a,b"])


def gen_measurements(r: random.Random) -> Measurements:
    return Measurements(*(round(r.uniform(0.1, 8.0), 1) for _ in range(4)))


def gen_flower(r: random.Random) -> Flower:
    return Flower(gen_measurements(r), r.choice(iris).species)


# small structural optics used to build composition cells


def key_lens(key: str) -> Lens:
    return Lens(
        view=lambda d: d[key],
        update=lambda d, b: {**d, key: b},
    )


def tag_prism(tag: str) -> Prism:
    return Prism(
        match=lambda s: Focus(s[1]) if s[0] == tag else Miss(s),
        build=lambda b: (tag, b),
    )


def dict_grate(keys) -> Grate:
    return Grate(run=lambda h: {k: h(lambda s: s[k]) for k in keys})


def pair_kal() -> Kaleidoscope:
    return Kaleidoscope(aggregate=lambda f: lambda ss: (
        f([s[0] for s in ss]), f([s[1] for s in ss])
    ))


def addr_ach() -> AchromaticLens:
    base = street_lens()
    return AchromaticLens(
        view=base.view,
        update=base.update,
        create=lambda b: Address(b, "Nowhere", "ZZ"),
    )


def swap_adapter() -> Adapter:
    return Adapter(
        forward=lambda s: (s[1], s[0]),
        backward=lambda b: (b[1], b[0]),
    )


@dataclass
class ZooEntry:
    optic: Any
    make_case: Callable[[random.Random], dict]
    observe: Callable[[Any, dict], Any]


def _obs_adapter(o, c):
    return (view(o, c["s"]), review(o, c["b"]))


def _obs_lens(o, c):
    return (view(o, c["s"]), over(o, c["f"], c["s"]))


def _obs_ach(o, c):
    return _obs_lens(o, c) + (review(o, c["b"]),)


def _obs_prism(o, c):
    return (preview(o, c["s"]), over(o, c["f"], c["s"]), review(o, c["b"]))


def _obs_affine(o, c):
    return (preview(o, c["s"]), over(o, c["f"], c["s"]))


def _obs_traversal(o, c):
    return (tuple(to_list_of(o, c["s"])), over(o, c["f"], c["s"]))


def _obs_grate(o, c):
    return (
        over(o, c["f"], c["s"]),
        grate_apply(o, lambda k: c["f"](k(c["s"]))),
    )


def _obs_glass(o, c):
    return (
        over(o, c["f"], c["s"]),
        grate_apply(o, lambda k: c["f"](k(c["s"])), c["s"]),
    )


def _obs_setter(o, c):
    return over(o, c["f"], c["s"])


def _obs_getter(o, c):
    return view(o, c["s"])


def _obs_review(o, c):
    return review(o, c["b"])


def _obs_fold(o, c):
    return tuple(to_list_of(o, c["s"]))


def _obs_alg(o, c):
    return (view(o, c["s"]), classify(o, c["batch"], c["b"]))


def _obs_kal(o, c):
    return aggregate(o, c["agg"], c["batch"])


def _obs_monadic(o, c):
    return (view(o, c["s"]), mupdate(o, c["s"], c["b"]))


OBSERVERS = {
    K.ADAPTER: _obs_adapter,
    K.LENS: _obs_lens,
    K.ACHROMATIC_LENS: _obs_ach,
    K.PRISM: _obs_prism,
    K.AFFINE_TRAVERSAL: _obs_affine,
    K.TRAVERSAL: _obs_traversal,
    K.GRATE: _obs_grate,
    K.GLASS: _obs_glass,
    K.SETTER: _obs_setter,
    K.GETTER: _obs_getter,
    K.REVIEW: _obs_review,
    K.FOLD: _obs_fold,
    K.ALGEBRAIC_LENS: _obs_alg,
    K.KALEIDOSCOPE: _obs_kal,
    K.MONADIC_LENS: _obs_monadic,
}


def _upper(s):
    return s.upper() if isinstance(s, str) else s + 1


def zoo() -> Dict[OpticKind, ZooEntry]:
    """One representative built-in optic per kind."""
    first_affine = compose(address_prism(), street_lens())

    return {
        K.ADAPTER: ZooEntry(
            swap_adapter(),
            lambda r: {"s": (r.randrange(99), r.randrange(99)),
                       "b": (r.randrange(99), r.randrange(99)),
                       "batch": [(r.randrange(99), r.randrange(99))
                                 for _ in range(r.randrange(1, 4))]},
            OBSERVERS[K.ADAPTER],
        ),
        K.LENS: ZooEntry(
            street_lens(),
            lambda r: {"s": gen_address(r), "f": _upper},
            OBSERVERS[K.LENS],
        ),
        K.ACHROMATIC_LENS: ZooEntry(
            addr_ach(),
            lambda r: {"s": gen_address(r), "f": _upper, "b": "New St"},
            OBSERVERS[K.ACHROMATIC_LENS],
        ),
        K.PRISM: ZooEntry(
            address_prism(),
            lambda r: {"s": gen_postal(r), "f": lambda a: a._replace(
                city=a.city.upper()), "b": gen_address(r)},
            OBSERVERS[K.PRISM],
        ),
        K.AFFINE_TRAVERSAL: ZooEntry(
            first_affine,
            lambda r: {"s": gen_postal(r), "f": _upper},
            OBSERVERS[K.AFFINE_TRAVERSAL],
        ),
        K.TRAVERSAL: ZooEntry(
            each(),
            lambda r: {"s": [r.randrange(99) for _ in range(r.randrange(5))],
                       "f": lambda n: n + 1},
            OBSERVERS[K.TRAVERSAL],
        ),
        K.GRATE: ZooEntry(
            dict_grate(("a", "b")),
            lambda r: {"s": {"a": r.randrange(99), "b": r.randrange(99)},
                       "f": lambda n: n * 2 + 1},
            OBSERVERS[K.GRATE],
        ),
        K.GLASS: ZooEntry(
            compose(key_lens("p"), dict_grate(("a", "b"))),
            lambda r: {"s": {"p": {"a": r.randrange(99), "b": r.randrange(99)},
                             "n": r.randrange(99)},
                       "f": lambda n: n + 7},
            OBSERVERS[K.GLASS],
        ),
        K.SETTER: ZooEntry(
            Setter(over=lambda f, s: [f(x) for x in s]),
            lambda r: {"s": [r.randrange(99) for _ in range(r.randrange(5))],
                       "f": lambda n: n - 3},
            OBSERVERS[K.SETTER],
        ),
        K.GETTER: ZooEntry(
            Getter(get=lambda a: a.city),
            lambda r: {"s": gen_address(r)},
            OBSERVERS[K.GETTER],
        ),
        K.REVIEW: ZooEntry(
            Review(build=lambda b: f"[{b}]"),
            lambda r: {"b": r.randrange(999)},
            OBSERVERS[K.REVIEW],
        ),
        K.FOLD: ZooEntry(
            Fold(foci=lambda s: list(s)),
            lambda r: {"s": [r.randrange(99) for _ in range(r.randrange(5))]},
            OBSERVERS[K.FOLD],
        ),
        K.ALGEBRAIC_LENS: ZooEntry(
            measure_lens(),
            lambda r: {"s": gen_flower(r),
                       "batch": [gen_flower(r) for _ in range(r.randrange(1, 6))],
                       "b": gen_measurements(r)},
            OBSERVERS[K.ALGEBRAIC_LENS],
        ),
        K.KALEIDOSCOPE: ZooEntry(
            aggregate_kaleidoscope(),
            lambda r: {"batch": [gen_measurements(r)
                                 for _ in range(r.randrange(1, 6))],
                       "agg": lambda xs: max(xs)},
            OBSERVERS[K.KALEIDOSCOPE],
        ),
        K.MONADIC_LENS: ZooEntry(
            box_lens(),
            lambda r: {"s": Box(r.randrange(999)), "b": str(r.randrange(999))},
            OBSERVERS[K.MONADIC_LENS],
        ),
    }


def assert_extensionally_equal(kind, left, right, cases):
    observe = OBSERVERS[kind]
    for case in cases:
        got_left = observe(left, case)
        got_right = observe(right, case)
        assert got_left == got_right, (
            f"{kind.value}: {got_left!r} != {got_right!r} on {case!r}"
        )


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def run_cli(*args, stdin=None) -> CliResult:
    """Call the CLI's ``main(args)`` in this process, with ``stdin`` (text)
    as its standard input, and return its exit code and its standard output
    and error, each decoded as UTF-8."""
    streams = [io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
               for data in ((stdin or "").encode(), b"", b"")]
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = streams
    try:
        main(list(args))
        code = 0
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    out, err = (stream.buffer.getvalue().decode() for stream in streams[1:])
    return CliResult(code, out, err)
