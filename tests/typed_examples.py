"""The paper's typed examples: addresses, the iris dataset, and the logging box.

The address lens and prism, the iris classifier as an algebraic lens, the
component-wise kaleidoscope and the logging box as a monadic lens, over
typed records. The acceptance criteria run them as the paper's examples,
and ``typed_registry`` composes them into the reference the registry's
document optics (``mixoptic.fixtures``) are held to. ``iris`` is read on
first use.
"""

from __future__ import annotations

import json
from math import sqrt
from pathlib import Path
from typing import List, NamedTuple, Sequence

import mixoptic
from mixoptic.effects import Writer
from mixoptic.fixtures import _MEASUREMENT_KEYS, Species, _postal_parts
from mixoptic.optics import (
    AlgebraicLens, Focus, Kaleidoscope, Lens, Miss, MonadicLens, Prism,
    Traversal,
)
from mixoptic.records import record


@record
class Address(NamedTuple):
    street: str
    city: str
    country: str


@record
class Measurements(NamedTuple):
    sepal_length: float
    sepal_width: float
    petal_length: float
    petal_width: float

    def as_tuple(self):
        return tuple(self)


@record
class Flower(NamedTuple):
    measurements: Measurements
    species: Species


@record
class Box(NamedTuple):
    contents: object


home = "221b Baker St, London, UK"

mail = [
    "43 Adlington Rd, Wilmslow, United Kingdom",
    "26 Westcott Rd, Princeton, USA",
    "St James's Square, London, United Kingdom",
]

_IRIS_JSON = Path(mixoptic.__file__).parent / "data" / "iris.json"


def load_iris() -> List[Flower]:
    """The 150-row iris table shipped as ``data/iris.json``, in centimetres."""
    with open(_IRIS_JSON, encoding="utf-8") as handle:
        rows = json.load(handle)
    # the file writes whole numbers as 3, not 3.0
    return [
        Flower(
            Measurements(*(float(row["measurements"][key])
                           for key in _MEASUREMENT_KEYS)),
            Species(row["species"]),
        )
        for row in rows
    ]


def __getattr__(name):
    # ``iris`` is read on first use and then kept as a module global
    if name == "iris":
        globals()["iris"] = found = load_iris()
        return found
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def street_lens() -> Lens:
    return Lens(
        view=lambda a: a.street,
        update=lambda a, b: a._replace(street=b),
    )


def city_lens() -> Lens:
    return Lens(
        view=lambda a: a.city,
        update=lambda a, b: a._replace(city=b),
    )


def address_prism() -> Prism:
    """Prism from a postal string to an Address, splitting on ", " twice."""

    def match(text):
        parts = _postal_parts(text)
        return Miss(text) if parts is None else Focus(Address(*parts))

    def build(a: Address) -> str:
        return f"{a.street}, {a.city}, {a.country}"

    return Prism(match=match, build=build)


def each() -> Traversal:
    """Traversal over the elements of a plain list, in order."""

    def extract(items: Sequence):
        got = list(items)
        return got, lambda bs: list(bs)

    return Traversal(extract=extract)


def distance(a: Measurements, b: Measurements) -> float:
    return sqrt(sum(
        (x - y) ** 2 for x, y in zip(a, b)
    ))


def measure_lens() -> AlgebraicLens:
    """Nearest-neighbour classifying lens over flowers."""

    def learn(flowers: Sequence[Flower], m: Measurements) -> Flower:
        # min() keeps the earliest of tied distances
        nearest = min(flowers, key=lambda f: distance(m, f.measurements))
        return Flower(m, nearest.species)

    return AlgebraicLens(view=lambda f: f.measurements, classify=learn)


def aggregate_kaleidoscope() -> Kaleidoscope:
    """Folds each of the four measurement components independently."""

    def aggregate(f):
        def run(ms: Sequence[Measurements]) -> Measurements:
            return Measurements(
                f([m.sepal_length for m in ms]),
                f([m.sepal_width for m in ms]),
                f([m.petal_length for m in ms]),
                f([m.petal_width for m in ms]),
            )

        return run

    return Kaleidoscope(aggregate=aggregate)


def box_lens() -> MonadicLens:
    """Logs every update to the box contents."""

    def mupdate(box: Box, new) -> Writer:
        shown = json.dumps(new) if isinstance(new, (str, int, float)) \
            else str(new)
        return Writer.tell(Box(new), f"[box]: contents changed to {shown}.")

    return MonadicLens(
        view=lambda box: box.contents,
        mupdate=mupdate,
        pure=Writer.pure,
    )
