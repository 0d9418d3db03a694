"""The registry's optics over documents, and what the CLI reads with them.

``registry`` names the optics an expression can use: the address prism
from a postal text to an address record, the nearest-neighbour algebraic
lens from a flower record to its measurements, and the kaleidoscope that
folds each number of measurements records. Each reads and builds its
documents directly: a record with the keys it needs, in the order it builds
them and ``parse_json`` keeps, is read by position, and any other by key,
with the same errors. ``read_flower``, ``Species`` and ``mean`` serve the
CLI's flower summary and its folds.
"""

from __future__ import annotations

from enum import Enum
from math import fsum, sqrt

from .errors import FocusError
from .optics import AlgebraicLens, Focus, Kaleidoscope, Miss, Prism
from .values import (
    VNum, VRec, VText, Value, _new, each_traversal, field_lens,
)


class Species(Enum):
    SETOSA = "Setosa"
    VERSICOLOR = "Versicolor"
    VIRGINICA = "Virginica"

    def __str__(self):
        return f"Iris {self.value}"


_SPECIES = {s.value: s for s in Species}

_MEASUREMENT_KEYS = ("sepalLength", "sepalWidth", "petalLength", "petalWidth")


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


def mean(xs: list) -> float:
    try:
        return fsum(xs) / len(xs)
    except OverflowError:  # the sum leaves the float range; the mean need not
        n = len(xs)
        return fsum(x / n for x in xs)


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
    if type(v) is VRec and len(fields := v.fields) == 2:
        (k0, m), (k1, species) = fields
        if (k0 == "measurements" and k1 == "species"
                and type(species) is VText
                and (kind := _SPECIES.get(species.value)) is not None):
            return (*_measurements(m), kind)
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
            return _new(Miss, (value,))
        street, city, country = parts
        return _new(Focus, (_new(VRec, ((
            ("street", _new(VText, (street,))), ("city", _new(VText, (city,))),
            ("country", _new(VText, (country,)))),)),))

    def build(address):
        if type(address) is VRec and len(fields := address.fields) == 3:
            (k0, street), (k1, city), (k2, country) = fields
            if ((k0, k1, k2) == _ADDRESS_KEYS
                    and type(street) is type(city) is type(country) is VText):
                return _new(VText, (
                    f"{street.value}, {city.value}, {country.value}",))
        street, city, country = _fields(address, "address", _ADDRESS_KEYS,
                                        VText, "text")
        return VText(f"{street.value}, {city.value}, {country.value}")

    return _new(Prism, (match, build))


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
                # sum() adds as the typed example's ``distance`` does: left
                # to right up to Python 3.11, compensated from 3.12
                gap = sqrt(sum(((a - w) ** 2, (b - x) ** 2,
                                (c - y) ** 2, (d - z) ** 2)))
            except OverflowError:  # float ``**`` raises past the range
                for flower in flowers:
                    read_flower(flower)
                raise FocusError(
                    "distance between measurements out of range") from None
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
