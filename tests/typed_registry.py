"""The registry's document optics as typed examples composed with converters.

This is the reference the document-native ``value_*`` optics of
``mixoptic.fixtures`` are held to: each converts a document to a typed
record (``Address``, ``Flower``, ``Measurements``), runs the typed example
of ``typed_examples`` on it and converts the result back, through
``Adapter``s. ``render`` is the CLI's flower summary over the typed record.
"""

from __future__ import annotations

from mixoptic import Adapter, compose
from mixoptic.errors import FocusError
from mixoptic.fixtures import Species
from mixoptic.values import VNum, VRec, VText, serialize

from typed_examples import (
    Address, Flower, Measurements, address_prism, aggregate_kaleidoscope,
    measure_lens,
)

MEASUREMENT_KEYS = ("sepalLength", "sepalWidth", "petalLength", "petalWidth")
SPECIES = {s.value: s for s in Species}


def address_to_value(a: Address):
    return VRec((
        ("street", VText(a.street)),
        ("city", VText(a.city)),
        ("country", VText(a.country)),
    ))


def value_to_address(v) -> Address:
    if not isinstance(v, VRec):
        raise FocusError("expected an address record")
    parts = []
    for key in ("street", "city", "country"):
        item = v.get(key)
        if not isinstance(item, VText):
            raise FocusError(f"address record needs text field {key!r}")
        parts.append(item.value)
    return Address(*parts)


def measurements_to_value(m: Measurements):
    return VRec(tuple(
        (key, VNum(component))
        for key, component in zip(MEASUREMENT_KEYS, m)
    ))


def value_to_measurements(v) -> Measurements:
    if not isinstance(v, VRec):
        raise FocusError("expected a measurements record")
    parts = []
    for key in MEASUREMENT_KEYS:
        item = v.get(key)
        if not isinstance(item, VNum):
            raise FocusError(f"measurements record needs number field {key!r}")
        parts.append(item.value)
    return Measurements(*parts)


def flower_to_value(f: Flower):
    return VRec((
        ("measurements", measurements_to_value(f.measurements)),
        ("species", VText(f.species.value)),
    ))


def value_to_flower(v) -> Flower:
    if not isinstance(v, VRec):
        raise FocusError("expected a flower record")
    species = v.get("species")
    if not isinstance(species, VText):
        raise FocusError("flower record needs text field 'species'")
    measurements = value_to_measurements(v.get("measurements"))
    kind = SPECIES.get(species.value)
    if kind is None:
        accepted = ", ".join(repr(s.value) for s in Species)
        raise FocusError(
            f"unknown species {species.value!r}; expected one of {accepted}")
    return Flower(measurements, kind)


def value_to_text(v) -> str:
    if not isinstance(v, VText):
        raise FocusError("expected a text document")
    return v.value


def typed_address_prism():
    return compose(
        Adapter(forward=value_to_text, backward=VText),
        address_prism(),
        Adapter(forward=address_to_value, backward=value_to_address),
    )


def typed_measure_lens():
    lens = measure_lens()

    def learn(flowers, m):
        # the CLI reports a runtime error, not the float ``**`` overflow
        try:
            return lens.classify(flowers, m)
        except OverflowError:
            raise FocusError(
                "distance between measurements out of range") from None

    return compose(
        Adapter(forward=value_to_flower, backward=flower_to_value),
        lens._replace(classify=learn),
        Adapter(forward=measurements_to_value, backward=value_to_measurements),
    )


def typed_aggregate_kaleidoscope():
    return compose(
        Adapter(forward=value_to_measurements, backward=measurements_to_value),
        aggregate_kaleidoscope(),
    )


def _fmt(x: float) -> str:
    s = f"{x:.3f}".rstrip("0")
    return s + "0" if s.endswith(".") else s


def render(value) -> str:
    try:
        flower = value_to_flower(value)
    except FocusError:
        return serialize(value)
    m = flower.measurements
    return (f"{flower.species}; "
            f"Sepal ({_fmt(m.sepal_length)}, {_fmt(m.sepal_width)}); "
            f"Petal ({_fmt(m.petal_length)}, {_fmt(m.petal_width)})")
