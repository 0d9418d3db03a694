"""The typed examples (addresses, the flower dataset, the logging box) and
the species and mean that ``mixoptic.fixtures`` keeps for the CLI."""

import math
import random

import pytest

from mixoptic import (
    Writer, aggregate, classify, mupdate, over, preview, review, view,
)
from mixoptic.fixtures import Species, mean

from conftest import gen_address
from typed_examples import (
    Address, Box, Measurements, address_prism, aggregate_kaleidoscope,
    box_lens, city_lens, distance, home, iris, mail, measure_lens, street_lens,
)


def test_iris_is_read_once():
    import typed_examples

    assert typed_examples.iris is iris
    with pytest.raises(AttributeError, match="no_such_fixture"):
        typed_examples.no_such_fixture


def test_dataset_shape():
    assert len(iris) == 150
    by_species = {s: sum(1 for f in iris if f.species is s)
                  for s in Species}
    assert set(by_species.values()) == {50}
    assert iris[4].measurements.as_tuple() == (5.0, 3.6, 1.4, 0.2)
    assert iris[4].species is Species.SETOSA
    assert all(type(x) is float
               for f in iris for x in f.measurements.as_tuple())
    assert iris[-1].measurements.as_tuple() == (5.9, 3.0, 5.1, 1.8)
    assert iris[-1].species is Species.VIRGINICA


def test_species_rendering():
    assert str(Species.VERSICOLOR) == "Iris Versicolor"


def test_home_parses():
    assert preview(address_prism(), home) == Address(
        "221b Baker St", "London", "UK")


def test_mail_fixture_is_three_parseable_addresses():
    assert len(mail) == 3
    for line in mail:
        assert preview(address_prism(), line) is not None


def test_address_prism_round_trips_generated_addresses():
    r = random.Random(17)
    p = address_prism()
    for _ in range(150):
        a = gen_address(r)
        assert preview(p, review(p, a)) == a


def test_street_and_city_lenses():
    a = Address("10 High Ln", "Leeds", "UK")
    assert view(street_lens(), a) == "10 High Ln"
    assert over(city_lens(), str.upper, a) == Address(
        "10 High Ln", "LEEDS", "UK")


def test_distance_is_euclidean():
    a = Measurements(0.0, 0.0, 0.0, 0.0)
    b = Measurements(1.0, 2.0, 2.0, 0.0)
    assert distance(a, b) == pytest.approx(3.0)


def test_measure_lens_self_classification():
    alg = measure_lens()
    r = random.Random(23)
    for f in r.sample(iris, 30):
        assert classify(alg, iris, f.measurements).species is f.species


def test_mean():
    assert mean([1.0, 2.0, 6.0]) == pytest.approx(3.0)


def test_aggregate_kaleidoscope_componentwise_mean():
    kal = aggregate_kaleidoscope()
    got = aggregate(kal, mean, [f.measurements for f in iris])
    for component, want in zip(got.as_tuple(),
                               (5.843, 3.054, 3.759, 1.199)):
        assert math.isclose(component, want, abs_tol=0.001)


def test_box_lens_logs_every_update():
    lens = box_lens()
    assert view(lens, Box(42)) == 42
    w = mupdate(lens, Box(42), "hello")
    assert w == Writer(Box("hello"),
                       ('[box]: contents changed to "hello".',))
