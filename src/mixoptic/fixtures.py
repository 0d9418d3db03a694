"""Built-in fixtures: addresses, the iris dataset, and the logging box.

The typed fixtures mirror the reference examples exactly. The ``value_*``
optics for the document runtime used by the CLI are those same typed
optics composed with ``Adapter``s built from the converters below, which
encode addresses, flowers and measurements as records.
"""

from __future__ import annotations

import json
import os
from enum import Enum
from math import fsum, sqrt
from typing import List, NamedTuple, Sequence

from .composition import compose
from .effects import Writer
from .errors import FocusError
from .optics import (
    Adapter, AlgebraicLens, Focus, Kaleidoscope, Lens, Miss, MonadicLens,
    Prism, Traversal,
)
from .records import record
from .values import (
    VNum, VRec, VText, Value, each_traversal, field_lens,
)


@record
class Address(NamedTuple):
    street: str
    city: str
    country: str


class Species(Enum):
    SETOSA = "Setosa"
    VERSICOLOR = "Versicolor"
    VIRGINICA = "Virginica"

    def __str__(self):
        return f"Iris {self.value}"


_SPECIES = {s.value: s for s in Species}


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


_MEASUREMENT_KEYS = ("sepalLength", "sepalWidth", "petalLength", "petalWidth")

_IRIS_JSON = os.path.join(os.path.dirname(__file__), "data", "iris.json")


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


# ---------------------------------------------------------------------------
# Typed optics.


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

    def read_until(text: str):
        if "," not in text:
            return None
        cut = text.index(",")
        return text[:cut], text[cut:]

    def match(text):
        first = read_until(text)
        if first is None:
            return Miss(text)
        street, rest = first
        second = read_until(rest[2:])  # drop ", "
        if second is None:
            return Miss(text)
        city, rest = second
        return Focus(Address(street, city, rest[2:]))

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


def mean(xs: Sequence[float]) -> float:
    try:
        return fsum(xs) / len(xs)
    except OverflowError:  # the sum leaves the float range; the mean need not
        n = len(xs)
        return fsum(x / n for x in xs)


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


# ---------------------------------------------------------------------------
# Value encodings for the document runtime.


def address_to_value(a: Address) -> Value:
    return VRec((
        ("street", VText(a.street)),
        ("city", VText(a.city)),
        ("country", VText(a.country)),
    ))


def value_to_address(v: Value) -> Address:
    if not isinstance(v, VRec):
        raise FocusError("expected an address record")
    parts = []
    for key in ("street", "city", "country"):
        item = v.get(key)
        if not isinstance(item, VText):
            raise FocusError(f"address record needs text field {key!r}")
        parts.append(item.value)
    return Address(*parts)


def measurements_to_value(m: Measurements) -> Value:
    return VRec(tuple(
        (key, VNum(component))
        for key, component in zip(_MEASUREMENT_KEYS, m)
    ))


def value_to_measurements(v: Value) -> Measurements:
    if not isinstance(v, VRec):
        raise FocusError("expected a measurements record")
    parts = []
    for key in _MEASUREMENT_KEYS:
        item = v.get(key)
        if not isinstance(item, VNum):
            raise FocusError(f"measurements record needs number field {key!r}")
        parts.append(item.value)
    return Measurements(*parts)


def flower_to_value(f: Flower) -> Value:
    return VRec((
        ("measurements", measurements_to_value(f.measurements)),
        ("species", VText(f.species.value)),
    ))


def value_to_flower(v: Value) -> Flower:
    if not isinstance(v, VRec):
        raise FocusError("expected a flower record")
    species = v.get("species")
    if not isinstance(species, VText):
        raise FocusError("flower record needs text field 'species'")
    measurements = value_to_measurements(v.get("measurements"))
    kind = _SPECIES.get(species.value)
    if kind is None:
        accepted = ", ".join(repr(s.value) for s in Species)
        raise FocusError(
            f"unknown species {species.value!r}; expected one of {accepted}")
    return Flower(measurements, kind)


def value_to_text(v: Value) -> str:
    if not isinstance(v, VText):
        raise FocusError("expected a text document")
    return v.value


def value_address_prism() -> Prism:
    """The address prism over text documents."""
    return compose(
        Adapter(forward=value_to_text, backward=VText),
        address_prism(),
        Adapter(forward=address_to_value, backward=value_to_address),
    )


def value_measure_lens() -> AlgebraicLens:
    # the chain views each level once, so each training flower is
    # converted once
    return compose(
        Adapter(forward=value_to_flower, backward=flower_to_value),
        measure_lens(),
        Adapter(forward=measurements_to_value, backward=value_to_measurements),
    )


def value_aggregate_kaleidoscope() -> Kaleidoscope:
    """Component-wise aggregation; the fold sees plain floats."""
    return compose(
        Adapter(forward=value_to_measurements, backward=measurements_to_value),
        aggregate_kaleidoscope(),
    )


# built-in names resolvable in optic expressions
def registry():
    return {
        "address": value_address_prism(),
        "street": field_lens("street"),
        "city": field_lens("city"),
        "country": field_lens("country"),
        "each": each_traversal(),
        "measure": value_measure_lens(),
        "aggregate": value_aggregate_kaleidoscope(),
    }
