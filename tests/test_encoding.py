"""Round trips between concrete optics and the carrier-transformer form."""

import random
import zlib

import pytest

from mixoptic import (
    Aggregating, Classifying, Focus, Folding, Glassing, Grating, Lens,
    OpticKind, Previewing, Replacing, Reviewing, Setter, Updating, Viewing,
    VList, VNum, Writer, ex2prof, parse_json, prof2ex, preview, serialize,
    set_value, view, over,
)
from mixoptic.errors import CapabilityError, NormalFormError
from mixoptic.values import each_traversal

from conftest import OBSERVERS, assert_extensionally_equal, zoo
from typed_examples import address_prism, box_lens, street_lens

K = OpticKind


@pytest.mark.parametrize("kind", list(zoo()), ids=lambda k: k.value)
def test_round_trip_is_extensional_identity(kind):
    entry = zoo()[kind]
    recovered = prof2ex(ex2prof(entry.optic), kind)
    r = random.Random(zlib.crc32(kind.value.encode()))
    cases = [entry.make_case(r) for _ in range(120)]
    assert_extensionally_equal(kind, entry.optic, recovered, cases)


def test_transformer_acts_on_carriers_directly():
    p = ex2prof(street_lens())
    assert p.transform(Viewing(run=lambda a: a)).run(
        zoo()[K.LENS].make_case(random.Random(0))["s"]
    ).startswith(tuple("0123456789"))

    q = ex2prof(address_prism())
    got = q.transform(Previewing(run=lambda a: a)).run(
        "221b Baker St, London, UK")
    assert got.street == "221b Baker St"


def test_composite_transformer_extracts_at_joined_kind():
    p = ex2prof(address_prism()).then(ex2prof(street_lens()))
    affine = prof2ex(p, K.AFFINE_TRAVERSAL)
    assert preview(affine, "221b Baker St, London, UK") == "221b Baker St"
    assert over(affine, str.upper, "no address") == "no address"


def test_extraction_fails_without_needed_carriers():
    p = ex2prof(street_lens()).then(ex2prof(address_prism()))
    # a lens-of-prisms supports no Viewing carrier, so it is not a lens
    with pytest.raises(NormalFormError):
        prof2ex(p, K.LENS)
    # but it is a perfectly good affine traversal
    from typed_examples import Address
    affine = prof2ex(p, K.AFFINE_TRAVERSAL)
    a = Address("221b Baker St, London, UK", "London", "UK")
    assert preview(affine, a) == Address("221b Baker St", "London", "UK")


def test_extraction_error_names_the_kind_with_its_article():
    with pytest.raises(NormalFormError) as e:
        prof2ex(ex2prof(street_lens()), K.ACHROMATIC_LENS)
    assert str(e.value) == (
        "cannot extract an achromatic-lens: transformer does not act on "
        "Reviewing")


def test_extraction_fails_without_effect_constructor():
    p = ex2prof(street_lens())
    with pytest.raises(NormalFormError):
        prof2ex(p, K.MONADIC_LENS)
    assert prof2ex(ex2prof(box_lens()), K.MONADIC_LENS).pure is not None


def test_setter_transformer_only_supports_replacing():
    setter = Setter(over=lambda f, s: [f(x) for x in s])
    p = ex2prof(setter)
    assert prof2ex(p, K.SETTER) is not None or True
    with pytest.raises(NormalFormError):
        prof2ex(p, K.TRAVERSAL)
    with pytest.raises(NormalFormError):
        prof2ex(p, K.FOLD)


def test_lens_transformer_downcasts_to_weaker_kinds():
    p = ex2prof(street_lens())
    getter = prof2ex(p, K.GETTER)
    fold = prof2ex(p, K.FOLD)
    setter = prof2ex(p, K.SETTER)
    r = random.Random(2)
    case = zoo()[K.LENS].make_case(r)
    assert view(getter, case["s"]) == view(street_lens(), case["s"])
    assert OBSERVERS[K.FOLD](fold, {"s": case["s"]}) == (
        view(street_lens(), case["s"]),)
    assert over(setter, case["f"], case["s"]) == over(
        street_lens(), case["f"], case["s"])
    # a monadic lens rewrites through its ``Replacing`` carrier too
    monadic = zoo()[K.MONADIC_LENS]
    case = monadic.make_case(r)
    setter = prof2ex(ex2prof(monadic.optic), K.SETTER)
    assert over(setter, str, case["s"]) == over(monadic.optic, str, case["s"])


def test_pure_propagates_through_composition():
    p = ex2prof(ex_lens_into_box()).then(ex2prof(box_lens()))
    assert p.pure is not None
    recovered = prof2ex(p, K.MONADIC_LENS)
    from typed_examples import Box
    from mixoptic import mupdate
    got = mupdate(recovered, {"box": Box("a"), "n": 1}, "b")
    assert got.value == {"box": Box("b"), "n": 1}
    assert got.log == ('[box]: contents changed to "b".',)


def ex_lens_into_box():
    return Lens(view=lambda d: d["box"], update=lambda d, b: {**d, "box": b})


# Each carrier class's identity probe, as ``prof2ex`` runs it.
PROBES = {
    Viewing: Viewing(run=lambda a: a),
    Previewing: Previewing(run=lambda a: a),
    Replacing: Replacing(run=lambda f: f),
    Folding: Folding(run=lambda a: [a]),
    Reviewing: Reviewing(run=lambda b: b),
    Classifying: Classifying(run=lambda ss, b: b),
    Aggregating: Aggregating(run=lambda foci, f: f(foci)),
    Updating: Updating(run=lambda b, a: Writer.pure(b)),
    Grating: Grating(run=lambda h: h(lambda a: a)),
    Glassing: Glassing(run=lambda h, a: h(lambda x: x)),
}

# The carriers a transformer accepts beyond its ``supported``: a traversal
# lifts ``Aggregating`` through FunList, but no kaleidoscope is read off it
# (``test_a_traversal_acts_on_aggregating_but_is_no_kaleidoscope``).
ACCEPTED_UNLISTED = {K.TRAVERSAL: {Aggregating}}


@pytest.mark.parametrize("kind", list(zoo()), ids=lambda k: k.value)
def test_supported_names_what_the_transformer_accepts(kind):
    """Every supported carrier transforms into a carrier of its class, and
    every other raises ``CapabilityError`` but for the gaps named above."""
    p = ex2prof(zoo()[kind].optic)
    accepted = set()
    for cls, probe in PROBES.items():
        try:
            out = p.transform(probe)
        except CapabilityError:
            continue
        accepted.add(cls)
        if cls in p.supported:
            assert type(out) is cls
    assert p.supported <= accepted
    assert accepted - p.supported == (
        ACCEPTED_UNLISTED.get(kind, set()) - p.supported)


@pytest.mark.parametrize("kind,capability", [
    (K.SETTER, "mapping"), (K.GETTER, "read-only"), (K.REVIEW, "write-only"),
    (K.FOLD, "folding"), (K.MONADIC_LENS, "read-only"),
    (K.KALEIDOSCOPE, "funlist-applicative"),
], ids=lambda x: getattr(x, "value", x))
def test_a_transformer_that_lifts_nothing_names_what_it_asks_for(
        kind, capability):
    """A transformer that builds its carriers refuses every other carrier
    with the one capability its kind asks for."""
    p = ex2prof(zoo()[kind].optic)
    refused = [cls for cls in PROBES if cls not in p.supported]
    assert Classifying in refused
    for cls in refused:
        with pytest.raises(CapabilityError, match=(
                f"^{cls.__name__} does not declare the {capability} "
                "capability$")):
            p.transform(PROBES[cls])


def test_a_traversal_acts_on_aggregating_but_is_no_kaleidoscope():
    """The traversal's transformer lifts ``Aggregating`` through FunList,
    but its ``supported`` leaves it out: a kaleidoscope read off it would
    pass the aggregating function the wholes, not the foci."""
    p = ex2prof(each_traversal())
    assert Aggregating not in p.supported
    with pytest.raises(NormalFormError, match="does not act on Aggregating"):
        prof2ex(p, K.KALEIDOSCOPE)
    lifted = p.transform(Aggregating(run=lambda ss, f: f(ss)))
    out = lifted.run(list(parse_json("[[1, 2], [3, 4]]").items), lambda rows: (
        VList(tuple(VNum(sum(x.value for x in column))
                    for column in zip(*(row.items for row in rows))))))
    assert serialize(out) == "[4, 6]"


def test_a_glass_names_the_first_lift_a_carrier_lacks():
    p = ex2prof(zoo()[K.GLASS].optic)
    with pytest.raises(CapabilityError, match="the closed capability"):
        p.transform(PROBES[Viewing])
    with pytest.raises(CapabilityError, match="the product capability"):
        p.transform(PROBES[Grating])


def _counting(p):
    """``p`` with a ``transform`` that records each carrier it is run on."""
    calls = []

    def transform(carrier):
        calls.append(type(carrier))
        return p.transform(carrier)

    return p._replace(transform=transform), calls


# The focus functions of the zoo kinds whose cases bring none.
_FOCUS_FNS = {K.ALGEBRAIC_LENS: lambda m: type(m)(*reversed(m)),
              K.MONADIC_LENS: lambda n: n + 1}
_ONE_FOCUS = (K.LENS, K.ACHROMATIC_LENS, K.ALGEBRAIC_LENS, K.MONADIC_LENS)


@pytest.mark.parametrize("kind", [
    *_ONE_FOCUS, K.PRISM, K.AFFINE_TRAVERSAL,
], ids=lambda k: k.value)
def test_a_normal_form_runs_one_probe_per_call(kind):
    """``prof2ex`` runs no probe, and each of ``view``, ``preview``,
    ``over`` and ``set_value`` runs the transformer once, on hits and
    misses alike, and agrees with the concrete optic."""
    entry = zoo()[kind]
    p, calls = _counting(ex2prof(entry.optic))
    form = prof2ex(p, kind)
    assert calls == []
    runs = {
        "preview": lambda o, c: preview(o, c["s"]),
        "over": lambda o, c: over(o, c["f"], c["s"]),
        "set_value": lambda o, c: set_value(o, c["s"], c.get("b", "New St")),
    }
    if kind in _ONE_FOCUS:
        runs["view"] = lambda o, c: view(o, c["s"])
    r = random.Random(zlib.crc32(b"one probe") + len(kind.value))
    hits = set()
    for _ in range(40):
        case = {"f": _FOCUS_FNS.get(kind), **entry.make_case(r)}
        hits.add(preview(entry.optic, case["s"]) is not None)
        for name, run in runs.items():
            calls.clear()
            assert run(form, case) == run(entry.optic, case), name
            assert len(calls) == 1, (name, calls)
        # the fields that rebuild a whole run one probe too
        calls.clear()
        if kind in (K.LENS, K.ACHROMATIC_LENS):
            assert form.update(case["s"], "New St") == entry.optic.update(
                case["s"], "New St")
        elif kind is K.ALGEBRAIC_LENS:
            assert form.classify(case["batch"], case["b"]) == \
                entry.optic.classify(case["batch"], case["b"])
        elif kind is K.MONADIC_LENS:
            assert form.mupdate(case["s"], case["b"]) == entry.optic.mupdate(
                case["s"], case["b"])
        elif kind is K.AFFINE_TRAVERSAL:
            got, want = form.access(case["s"]), entry.optic.access(case["s"])
            assert type(got) is type(want)
            if isinstance(got, Focus):
                calls.clear()
                assert got.value[0] == want.value[0]
                assert got.value[1]("New St") == want.value[1]("New St")
            else:
                assert got == want
        else:
            assert form.match(case["s"]) == entry.optic.match(case["s"])
        assert len(calls) == 1, calls
    assert hits == ({True} if kind in _ONE_FOCUS else {True, False})


def test_a_prism_form_lists_a_none_focus_as_the_concrete_prism_does():
    """A form's ``match`` is one walk that stops at the focus, so a focus
    that is ``None`` is a hit, as it is for the concrete prism."""
    from mixoptic import Miss, Prism, to_list_of

    prism = Prism(match=lambda s: Focus(None) if s == "none" else Miss(s),
                  build=lambda b: "none")
    form = prof2ex(ex2prof(prism), K.PRISM)
    assert repr(form).startswith("Prism(ProfOptic(transform=")
    for s in ("none", "other"):
        assert form.match(s) == prism.match(s)
        assert to_list_of(form, s) == to_list_of(prism, s)
        assert over(form, lambda b: b, s) == over(prism, lambda b: b, s)
