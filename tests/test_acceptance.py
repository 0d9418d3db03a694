"""Acceptance gate: eight end-to-end criteria, one printed line each.

The pass/fail lines are written to the real stdout so they show up even
under pytest's output capture.
"""

import json
import math
import random
import sys
import time
import warnings
import zlib
from pathlib import Path

from mixoptic import (
    OpticKind, Setter, compose, ex2prof, prof2ex, Fallback, join_kind,
    mupdate, over, view,
)
from mixoptic.fixtures import Species

from conftest import assert_extensionally_equal, run_cli, zoo
from typed_examples import Box, box_lens, iris, measure_lens
import test_carriers
import test_composition
import test_funlist
import test_optics

K = OpticKind
DATA = Path(__file__).resolve().parents[1] / "src" / "mixoptic" / "data"


def _report(number, label, fn):
    try:
        fn()
    except BaseException:
        print(f"FAIL criterion {number}: {label}", file=sys.__stdout__)
        raise
    print(f"PASS criterion {number}: {label}", file=sys.__stdout__)


def test_criterion_1_preview_and_set_home_address():
    def check():
        start = time.monotonic()
        got = run_cli("preview", "--optic", "address.street",
                   "--input", str(DATA / "home.json"))
        assert got.exit_code == 0
        assert got.stdout.strip() == '"221b Baker St"'
        got = run_cli("set", "--optic", "address.street",
                   "--input", str(DATA / "home.json"),
                   "--arg", '"4 Marylebone Rd"')
        assert got.exit_code == 0
        assert got.stdout.strip() == '"4 Marylebone Rd, London, UK"'
        assert time.monotonic() - start < 1.0

    _report(1, "preview and set through address.street", check)


def test_criterion_2_uppercase_every_mail_city():
    def check():
        got = run_cli("over", "--optic", "each.address.city",
                   "--input", str(DATA / "mail.json"), "--arg", "uppercase")
        assert got.exit_code == 0
        assert json.loads(got.stdout) == [
            "43 Adlington Rd, WILMSLOW, United Kingdom",
            "26 Westcott Rd, PRINCETON, USA",
            "St James's Square, LONDON, United Kingdom",
        ]

    _report(2, "uppercase each mail city through the composite", check)


def test_criterion_3_view_and_classify_measurements():
    def check():
        alg = measure_lens()
        assert view(alg, iris[4]).as_tuple() == (5.0, 3.6, 1.4, 0.2)
        from mixoptic import classify
        from typed_examples import Measurements
        probe = Measurements(4.8, 3.2, 3.5, 2.1)
        got = classify(alg, iris, probe)
        assert got.species is Species.VERSICOLOR
        assert got.measurements == probe

    _report(3, "view a flower's measurements and classify a new one", check)


def test_criterion_4_aggregate_means_classify_versicolor():
    def check():
        from mixoptic import aggregate
        from mixoptic.fixtures import mean
        from typed_examples import aggregate_kaleidoscope, measure_lens
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            composite = compose(measure_lens(), aggregate_kaleidoscope())
        got = aggregate(composite, mean, iris)
        assert got.species is Species.VERSICOLOR

        columns = zip(*(f.measurements.as_tuple() for f in iris))
        true_means = [sum(col) / len(iris) for col in columns]
        quoted = (5.843, 3.054, 3.758, 1.198)
        for component, q, t in zip(got.measurements.as_tuple(),
                                   quoted, true_means):
            assert math.isclose(component, q, abs_tol=0.01)
            assert math.isclose(component, t, abs_tol=1e-9)

    _report(4, "mean measurements over the dataset classify as Versicolor",
            check)


def test_criterion_5_logged_updates_compose():
    def check():
        lens = box_lens()
        w = mupdate(lens, Box(42), "hello").bind(
            lambda box: mupdate(lens, box, "world"))
        assert w.value == Box("world")
        assert w.log == (
            '[box]: contents changed to "hello".',
            '[box]: contents changed to "world".',
        )

    _report(5, "chained logged updates keep both log lines in order", check)


def test_criterion_6_encoding_round_trips_every_kind():
    def check():
        start = time.monotonic()
        for kind, entry in zoo().items():
            recovered = prof2ex(ex2prof(entry.optic), kind)
            r = random.Random(zlib.crc32(kind.value.encode()))
            cases = [entry.make_case(r) for _ in range(100)]
            assert_extensionally_equal(kind, entry.optic, recovered, cases)
        assert time.monotonic() - start < 60.0

    _report(6, "profunctor round trip is the identity for every kind", check)


def test_criterion_7_composition_matches_the_transformer_oracle():
    def check():
        for label, outer, inner, kind, make_case in test_composition.CELLS:
            test_composition._run_cell(outer, inner, kind, make_case, label)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for label, outer, inner, make_case in \
                    test_composition.FALLBACK_CELLS:
                composed = compose(outer, inner)
                assert composed.kind is K.SETTER
                r = random.Random(37)
                for _ in range(100):
                    case = make_case(r)
                    nested = over(outer,
                                  lambda a: over(inner, case["f"], a),
                                  case["s"])
                    assert over(composed, case["f"], case["s"]) == nested
        joined = join_kind(K.KALEIDOSCOPE, K.LENS)
        assert isinstance(joined, Fallback) and joined.kind is K.SETTER

    _report(7, "every composition cell agrees with the transformer oracle",
            check)


def test_criterion_8_law_suites():
    def check():
        test_optics.test_lens_view_update()
        test_optics.test_prism_laws()
        test_optics.test_traversal_laws()
        test_optics.test_setter_composes_functorially()
        test_funlist.test_applicative_laws_to_depth_four()
        for cls in (test_carriers.Viewing, test_carriers.Previewing,
                    test_carriers.Replacing, test_carriers.Folding,
                    test_carriers.Updating):
            test_carriers.test_product_lift_unit_coherence(cls)
            test_carriers.test_double_product_lift_pairing_coherence(cls)

    _report(8, "optic, applicative, and strength law suites", check)
