"""Built-in fixtures: addresses, the iris dataset, and the logging box.

The typed fixtures mirror the reference examples exactly. The ``value_*``
optics, which the CLI's registry names, are the same optics over
documents: one prism, one algebraic lens and one kaleidoscope that read
and build address, flower and measurements records directly.
"""

from __future__ import annotations

import json
import os
from enum import Enum
from math import fsum, sqrt
from typing import List, NamedTuple, Sequence

from .effects import Writer
from .errors import FocusError
from .optics import (
    AlgebraicLens, Focus, Kaleidoscope, Lens, Miss, MonadicLens, Prism,
    Traversal,
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


def _postal_parts(text: str):
    """Street, city and country of a postal string, or None. Each part ends
    at a comma, and the two characters from a comma on, ", ", are dropped."""
    cut = text.find(",")
    if cut < 0:
        return None
    rest = text[cut + 2:]
    second = rest.find(",")
    if second < 0:
        return None
    return text[:cut], rest[:second], rest[second + 2:]


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
# The same optics over documents, for the CLI's registry. Each reads and
# builds its ``VRec``, ``VText`` and ``VNum`` records itself.

_ADDRESS_KEYS = ("street", "city", "country")


def _fields(v: Value, name: str, keys, cls, kind: str) -> list:
    """The items of ``keys`` in the record ``v``, each a ``cls``; the
    ``FocusError`` for the first miss names the record ``name``."""
    if not isinstance(v, VRec):
        article = "an" if name[0] in "aeiou" else "a"
        raise FocusError(f"expected {article} {name} record")
    items = []
    for key in keys:
        item = v.get(key)
        if not isinstance(item, cls):
            raise FocusError(f"{name} record needs {kind} field {key!r}")
        items.append(item)
    return items


def _measurements(m: Value):
    """A measurements record, ``VNum``s in ``_MEASUREMENT_KEYS`` order (``m``
    itself when it is one), and its numbers."""
    if type(m) is VRec and len(fields := m.fields) == 4:
        (k0, a), (k1, b), (k2, c), (k3, d) = fields
        if ((k0, k1, k2, k3) == _MEASUREMENT_KEYS
                and type(a) is type(b) is type(c) is type(d) is VNum):
            return m, [a.value, b.value, c.value, d.value]
    numbers = [item.value for item in _fields(
        m, "measurements", _MEASUREMENT_KEYS, VNum, "number")]
    return VRec(tuple(zip(_MEASUREMENT_KEYS, map(VNum, numbers)))), numbers


def read_flower(v: Value):
    """A flower record's measurements, as ``_measurements`` gives them, and
    ``Species``; ``FocusError`` for the first it lacks of a record, a text
    species, measurements and a known species."""
    if not isinstance(v, VRec):
        raise FocusError("expected a flower record")
    species = v.get("species")
    if not isinstance(species, VText):
        raise FocusError("flower record needs text field 'species'")
    m, numbers = _measurements(v.get("measurements"))
    kind = _SPECIES.get(species.value)
    if kind is None:
        accepted = ", ".join(repr(s.value) for s in Species)
        raise FocusError(
            f"unknown species {species.value!r}; expected one of {accepted}")
    return m, numbers, kind


def value_address_prism() -> Prism:
    """The address prism from a postal text to an address record."""

    def match(value):
        if not isinstance(value, VText):
            raise FocusError("expected a text document")
        parts = _postal_parts(value.value)
        if parts is None:
            return Miss(value)
        return Focus(VRec(tuple(zip(_ADDRESS_KEYS, map(VText, parts)))))

    def build(address):
        street, city, country = _fields(address, "address", _ADDRESS_KEYS,
                                        VText, "text")
        return VText(f"{street.value}, {city.value}, {country.value}")

    return Prism(match=match, build=build)


def value_measure_lens() -> AlgebraicLens:
    """The nearest-neighbour lens from a flower record to its measurements."""

    def learn(flowers, query):
        # a bad training flower is reported before a bad query or an
        # overflow, and the first of them before the rest
        flowers = iter(flowers)
        try:
            m, (a, b, c, d) = _measurements(query)
        except FocusError:
            for flower in flowers:
                read_flower(flower)
            raise
        best = None
        for flower in flowers:
            _, (w, x, y, z), kind = read_flower(flower)
            try:
                # sum() adds as ``distance`` does: left to right up to
                # Python 3.11, compensated from 3.12
                gap = sqrt(sum(((a - w) ** 2, (b - x) ** 2,
                                (c - y) ** 2, (d - z) ** 2)))
            except OverflowError:
                for flower in flowers:
                    read_flower(flower)
                raise
            if best is None or gap < best:  # the earliest of tied distances
                best, nearest = gap, kind
        return VRec((("measurements", m), ("species", VText(nearest.value))))

    return AlgebraicLens(view=lambda flower: read_flower(flower)[0],
                         classify=learn)


def value_aggregate_kaleidoscope() -> Kaleidoscope:
    """Folds each number of measurements records independently; the fold
    sees plain numbers."""

    def aggregate(f):
        def run(ms):
            columns = zip(*[_measurements(m)[1] for m in ms])
            return VRec(tuple((key, VNum(f(list(column))))
                              for key, column in zip(_MEASUREMENT_KEYS,
                                                     columns)))

        return run

    return Kaleidoscope(aggregate=aggregate)


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
