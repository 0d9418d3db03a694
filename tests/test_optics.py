"""Optic laws and combinator applicability."""

import random

import pytest
from hypothesis import given, strategies as st

from mixoptic import (
    Focus, Getter, Kaleidoscope, Miss, OpticKind, Setter,
    aggregate, classify, compose, grate_apply, mupdate, over, preview,
    review, set_value, to_list_of, upcast, view,
)
from mixoptic import optics
from mixoptic.composition import _CHAINS, ADMITS, _EDGES, _ROUTE
from mixoptic.errors import EmptyInputError, EmptyTrainingError, KindError
from mixoptic.fixtures import Species
from mixoptic.optics import NATIVES, natives

from conftest import addr_ach, gen_address, gen_postal, zoo
from typed_examples import (
    Address, Flower, address_prism, aggregate_kaleidoscope, each, iris,
    measure_lens, street_lens,
)

K = OpticKind

addresses = st.builds(
    Address,
    st.text(st.characters(blacklist_characters=","), max_size=12),
    st.sampled_from(["London", "Leeds", "York"]),
    st.sampled_from(["UK", "USA"]),
)


@given(addresses)
def test_lens_view_update(a):
    lens = street_lens()
    assert set_value(lens, a, view(lens, a)) == a          # get-put
    assert view(lens, set_value(lens, a, "New")) == "New"  # put-get
    twice = set_value(lens, set_value(lens, a, "X"), "Y")
    assert twice == set_value(lens, a, "Y")                # put-put


def test_prism_laws():
    r = random.Random(3)
    prism = address_prism()
    for _ in range(200):
        s = gen_postal(r)
        hit = preview(prism, s)
        if hit is not None:
            assert review(prism, hit) == s      # match-build
        a = gen_address(r)
        assert preview(prism, review(prism, a)) == a  # build-match


def test_prism_miss_leaves_source_alone():
    prism = address_prism()
    assert preview(prism, "nothing here") is None
    assert over(prism, lambda a: a._replace(city="X"), "nothing here") == \
        "nothing here"


def test_to_list_of_lists_a_focus_that_is_none_as_over_rewrites_it():
    p = optics.Prism(match=lambda s: Focus(None), build=lambda b: b)
    a = optics.AffineTraversal(access=lambda s: Focus((None, lambda b: b)))
    t = optics.Traversal(extract=lambda xs: (list(xs), list))
    for optic in (p, a, compose(p, p), compose(a, a), upcast(p, K.FOLD)):
        assert to_list_of(optic, 1) == [None]
    for optic in (p, a, compose(p, p), compose(a, a)):
        assert over(optic, lambda x: "hit", 1) == "hit"
    assert to_list_of(compose(t, p), [1, 2]) == [None, None]
    missing = optics.Prism(match=Miss, build=lambda b: b)
    assert to_list_of(missing, 1) == to_list_of(compose(missing, p), 1) == []


@given(st.lists(st.integers(), max_size=8))
def test_traversal_laws(xs):
    t = each()
    assert over(t, lambda n: n, xs) == xs                          # identity
    f, g = (lambda n: n + 1), (lambda n: n * 2)
    assert over(t, f, over(t, g, xs)) == over(t, lambda n: f(g(n)), xs)
    assert to_list_of(t, xs) == xs


@given(st.lists(st.integers(), max_size=8))
def test_setter_composes_functorially(xs):
    s = Setter(over=lambda f, src: [f(x) for x in src])
    f, g = (lambda n: n - 4), (lambda n: n * n)
    assert over(s, f, over(s, g, xs)) == over(s, lambda n: f(g(n)), xs)
    assert over(s, lambda n: n, xs) == xs


def test_achromatic_create_agrees_with_update():
    ach = addr_ach()
    built = review(ach, "1 Elm Way")
    assert view(ach, built) == "1 Elm Way"
    assert over(ach, lambda _: "2 Oak Rd", built) == built._replace(
        street="2 Oak Rd")


def test_achromatic_classify_falls_back_to_create():
    ach = addr_ach()
    sample = Address("9 Mill Bank", "Bath", "UK")
    assert classify(ach, [sample], "1 Elm Way") == sample._replace(
        street="1 Elm Way")
    assert classify(ach, [], "1 Elm Way") == Address("1 Elm Way",
                                                     "Nowhere", "ZZ")


def test_algebraic_lens_classifies_by_nearest_training_example():
    alg = measure_lens()
    flower = iris[4]
    assert view(alg, flower) == flower.measurements
    got = classify(alg, iris, flower.measurements)
    assert got == flower
    with pytest.raises(EmptyTrainingError):
        classify(alg, [], flower.measurements)


def test_algebraic_lens_tie_breaks_on_first_example():
    alg = measure_lens()
    m = iris[0].measurements
    twin = Flower(m, Species.VIRGINICA)
    assert classify(alg, [iris[0], twin], m) == Flower(m, iris[0].species)


def test_kaleidoscope_aggregates_componentwise():
    kal = aggregate_kaleidoscope()
    batch = [iris[0].measurements, iris[100].measurements]
    got = aggregate(kal, max, batch)
    assert got.as_tuple() == tuple(
        max(a, b) for a, b in zip(batch[0].as_tuple(), batch[1].as_tuple()))
    with pytest.raises(EmptyInputError):
        aggregate(kal, max, [])


def test_view_rejects_partial_optics():
    with pytest.raises(KindError):
        view(address_prism(), "x, y, z")
    with pytest.raises(KindError):
        view(each(), [1, 2])


def test_preview_rejects_multi_focus_optics():
    with pytest.raises(KindError):
        preview(each(), [1])


def test_an_algebraic_lens_previews_its_one_focus():
    assert preview(measure_lens(), iris[0]) == view(measure_lens(), iris[0])
    assert to_list_of(measure_lens(), iris[0]) == \
        [view(measure_lens(), iris[0])]


@pytest.mark.parametrize("kind", list(K), ids=lambda k: k.value)
def test_natives_rows_are_closed_under_their_implications(kind):
    # set is over with a constant function; a view is the one focus a
    # preview finds, and a preview's result is a list of at most one focus
    row = NATIVES[kind]
    assert ("set" in row) == ("over" in row)
    assert "view" not in row or "preview" in row
    assert "preview" not in row or "tolist" in row


# kind -> every record class of ``optics`` that declares it
RECORD_CLASSES = {kind: [cls for cls in vars(optics).values()
                         if isinstance(cls, type)
                         and vars(cls).get("kind") is kind]
                  for kind in K}


def test_each_kind_has_one_record_class_and_its_natives_are_read_off_it():
    assert NATIVES.keys() == set(K)
    for kind, classes in RECORD_CLASSES.items():
        assert len(classes) == 1, (kind, classes)
        assert NATIVES[kind] == natives(classes[0])


@pytest.mark.parametrize("kind", list(K), ids=lambda k: k.value)
def test_a_chain_runs_natively_what_its_record_runs(kind):
    # a chain overrides runners to walk in one pass, never to gain or drop
    # a combinator
    (record,) = RECORD_CLASSES[kind]
    chain = _CHAINS[kind]
    assert chain.kind is kind and issubclass(chain, record)
    assert natives(chain) == natives(record) == NATIVES[kind]


def test_set_rejects_read_only_optics():
    with pytest.raises(KindError, match="cannot set through a getter"):
        set_value(Getter(get=lambda s: s), 1, 2)


def test_set_runs_wherever_over_runs():
    assert set_value(each(), [1, 2], 5) == [5, 5]
    assert set_value(Setter(lambda f, s: f(s)), 1, 2) == 2
    nested = compose(each(), each())
    assert set_value(nested, [[1], [2, 3]], 0) == [[0], [0, 0]]


def test_review_rejects_non_build_optics():
    with pytest.raises(KindError):
        review(street_lens(), "X")


def test_aggregate_rejects_non_kaleidoscopes():
    with pytest.raises(KindError):
        aggregate(street_lens(), max, [])


def test_over_rejects_read_only_optics():
    with pytest.raises(KindError):
        over(Getter(get=lambda s: s), lambda n: n, 1)


def test_classify_rejects_plain_lenses():
    with pytest.raises(KindError):
        classify(street_lens(), [], "X")


def test_composite_affine_preview_and_set():
    first = compose(address_prism(), street_lens())
    assert first.kind is K.AFFINE_TRAVERSAL
    assert preview(first, "221b Baker St, London, UK") == "221b Baker St"
    assert set_value(first, "221b Baker St, London, UK",
                     "4 Marylebone Rd") == "4 Marylebone Rd, London, UK"
    assert set_value(first, "oops", "4 Marylebone Rd") == "oops"


# Each combinator, under the name the kind table uses, run on one case.
COMBINATORS = {
    "view": lambda o, c: view(o, c["s"]),
    "preview": lambda o, c: preview(o, c["s"]),
    "set": lambda o, c: set_value(o, c["s"], c["b"]),
    "over": lambda o, c: over(o, c["f"], c["s"]),
    "tolist": lambda o, c: to_list_of(o, c["s"]),
    "review": lambda o, c: review(o, c["b"]),
    "classify": lambda o, c: classify(o, c["batch"], c["b"]),
    "aggregate": lambda o, c: aggregate(o, c["agg"], c["batch"]),
    "mupdate": lambda o, c: mupdate(o, c["s"], c["b"]),
    "zip": lambda o, c: grate_apply(o, lambda k: c["f"](k(c["s"])), c["s"]),
}

# combinator -> what its refusal says cannot be done through the optic
REFUSALS = {
    "view": "view through", "preview": "preview through",
    "set": "set through", "over": "rewrite through",
    "tolist": "enumerate foci of", "review": "build through",
    "classify": "classify through", "aggregate": "aggregate through",
    "mupdate": "run an effectful update through", "zip": "zip through",
}

ADMITTED = {
    K.ADAPTER: {"view", "preview", "set", "over", "tolist", "review",
                "classify", "aggregate", "zip"},
    K.LENS: {"view", "preview", "set", "over", "tolist", "zip"},
    K.ACHROMATIC_LENS: {"view", "preview", "set", "over", "tolist", "review",
                        "classify", "zip"},
    K.PRISM: {"preview", "set", "over", "tolist", "review"},
    K.AFFINE_TRAVERSAL: {"preview", "set", "over", "tolist"},
    K.TRAVERSAL: {"set", "over", "tolist"},
    K.GRATE: {"set", "over", "zip"},
    K.GLASS: {"set", "over", "zip"},
    K.SETTER: {"set", "over"},
    K.GETTER: {"view", "preview", "tolist"},
    K.REVIEW: {"review"},
    K.FOLD: {"tolist"},
    K.ALGEBRAIC_LENS: {"view", "preview", "set", "over", "tolist",
                       "classify"},
    K.KALEIDOSCOPE: {"set", "over", "aggregate"},
    K.MONADIC_LENS: {"view", "preview", "set", "over", "tolist", "mupdate",
                     "zip"},
}


@pytest.mark.parametrize("kind", list(K), ids=lambda k: k.value)
def test_admissibility_matrix(kind):
    entry = zoo()[kind]
    case = {"s": None, "b": None, "batch": [], "f": lambda x: x, "agg": max}
    case.update(entry.make_case(random.Random(11)))
    if kind is K.KALEIDOSCOPE:
        case["s"] = case["batch"][0]
    for name, run in COMBINATORS.items():
        if name in ADMITTED[kind]:
            run(entry.optic, case)
        else:
            with pytest.raises(KindError) as refused:
                run(entry.optic, case)
            assert str(refused.value) == \
                f"cannot {REFUSALS[name]} {kind.with_article}"


def test_admits_is_the_spec_and_closed_under_public_edges():
    assert ADMITS == {kind: frozenset(names) for kind, names in ADMITTED.items()}
    for (source, goal), (_, public) in _EDGES.items():
        if public:
            assert ADMITS[source] >= ADMITS[goal], (source, goal)


# The cells a kind admits because a kind it upcasts to does: (kind,
# combinator, the nearest such kind, the first declared among the nearest).
UPCAST_CELLS = [
    (K.ADAPTER, "aggregate", K.KALEIDOSCOPE),
    (K.ADAPTER, "classify", K.ACHROMATIC_LENS),
    (K.ADAPTER, "zip", K.GRATE),
    (K.LENS, "zip", K.GLASS),
    (K.ACHROMATIC_LENS, "preview", K.LENS),
    (K.ACHROMATIC_LENS, "set", K.LENS),
    (K.ACHROMATIC_LENS, "zip", K.GLASS),
    (K.MONADIC_LENS, "set", K.LENS),
    (K.MONADIC_LENS, "zip", K.GLASS),
]


@pytest.mark.parametrize("kind,name,goal", UPCAST_CELLS,
                         ids=[f"{k.value}-{n}" for k, n, _ in UPCAST_CELLS])
def test_an_upcast_cell_runs_as_on_the_upcast_optic(kind, name, goal):
    if name not in NATIVES[kind]:
        assert _ROUTE[(kind, name)] is goal
    entry, run = zoo()[kind], COMBINATORS[name]
    upcast_optic = upcast(entry.optic, goal)
    r = random.Random(kind.value + name)
    for _ in range(20):
        case = {"f": lambda x: x, "agg": max, **entry.make_case(r)}
        assert run(entry.optic, case) == run(upcast_optic, case)
