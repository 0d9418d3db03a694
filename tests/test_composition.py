"""Join lattice properties, upcasts, and composition oracle equivalence.

Every representative cell of the join table is exercised with a typed
pair of optics. The concrete composition must agree, observation for
observation, with composing the carrier transformers and extracting at
the joined kind.
"""

import itertools
import random
import zlib
import warnings

import pytest

from mixoptic import (
    AchromaticLens, Adapter, Fallback, Fold, Getter, Glass, Grate,
    INCOMPATIBLE, Kaleidoscope, Lens, OpticKind, Opt, Prism, Review, Setter,
    Writer, compose, ex2prof, join_kind, mupdate, prof2ex,
    upcast, over, preview, review, to_list_of, view,
)
from mixoptic.errors import CompositionError, UpcastError
from mixoptic.fixtures import Species
from mixoptic.optics import AlgebraicLens, MonadicLens

from conftest import (
    OBSERVERS, addr_ach, dict_grate, gen_address, gen_flower,
    gen_measurements, gen_postal, key_lens, pair_kal, swap_adapter,
    tag_prism, zoo,
)
from typed_examples import (
    Address, Box, Flower, Measurements, address_prism, aggregate_kaleidoscope,
    box_lens, each, box_lens as _bl, measure_lens, street_lens,
)

K = OpticKind
ALL_KINDS = list(K)


# ---------------------------------------------------------------- join table


def test_join_is_total_and_commutative():
    for k1 in ALL_KINDS:
        for k2 in ALL_KINDS:
            j12 = join_kind(k1, k2)
            j21 = join_kind(k2, k1)
            assert j12 == j21, (k1, k2)
            assert (j12 is INCOMPATIBLE or isinstance(j12, Fallback)
                    or isinstance(j12, K))


def test_adapter_is_the_join_identity():
    for k in ALL_KINDS:
        assert join_kind(K.ADAPTER, k) is k
        assert join_kind(k, K.ADAPTER) is k


def test_join_is_idempotent():
    for k in ALL_KINDS:
        assert join_kind(k, k) is k


# The monoidal actions each core kind's transformer must be lifted through,
# closed under implication: a FunList traversal also lifts through products
# and sums. They are this test's own facts, independent of the coercion
# edges the join is read from.
CORE_CAPABILITIES = {
    K.ADAPTER: frozenset(),
    K.LENS: frozenset({"product"}),
    K.PRISM: frozenset({"sum"}),
    K.AFFINE_TRAVERSAL: frozenset({"product", "sum"}),
    K.TRAVERSAL: frozenset({"funlist-traversable", "product", "sum"}),
    K.GRATE: frozenset({"closed"}),
    K.GLASS: frozenset({"product", "closed"}),
}


def test_join_on_core_kinds_unions_capabilities():
    for k1, caps1 in CORE_CAPABILITIES.items():
        for k2, caps2 in CORE_CAPABILITIES.items():
            joined = join_kind(k1, k2)
            if isinstance(joined, Fallback):
                assert joined.kind is K.SETTER
                continue
            assert CORE_CAPABILITIES[joined] >= caps1 | caps2, (k1, k2, joined)


SPOT_JOINS = [
    (K.LENS, K.PRISM, K.AFFINE_TRAVERSAL),
    (K.LENS, K.GRATE, K.GLASS),
    (K.PRISM, K.GRATE, "fallback"),
    (K.TRAVERSAL, K.GRATE, "fallback"),
    (K.TRAVERSAL, K.GLASS, "fallback"),
    (K.AFFINE_TRAVERSAL, K.TRAVERSAL, K.TRAVERSAL),
    (K.ALGEBRAIC_LENS, K.KALEIDOSCOPE, K.KALEIDOSCOPE),
    (K.KALEIDOSCOPE, K.LENS, "fallback"),
    (K.KALEIDOSCOPE, K.PRISM, "fallback"),
    (K.ALGEBRAIC_LENS, K.LENS, K.LENS),
    # an achromatic lens coerces to an algebraic one, so classify survives
    (K.ALGEBRAIC_LENS, K.ACHROMATIC_LENS, K.ALGEBRAIC_LENS),
    (K.ACHROMATIC_LENS, K.KALEIDOSCOPE, K.KALEIDOSCOPE),
    (K.ALGEBRAIC_LENS, K.PRISM, K.AFFINE_TRAVERSAL),
    (K.ACHROMATIC_LENS, K.LENS, K.LENS),
    (K.ACHROMATIC_LENS, K.ACHROMATIC_LENS, K.ACHROMATIC_LENS),
    (K.ACHROMATIC_LENS, K.PRISM, K.AFFINE_TRAVERSAL),
    (K.MONADIC_LENS, K.LENS, K.MONADIC_LENS),
    (K.MONADIC_LENS, K.ADAPTER, K.MONADIC_LENS),
    (K.MONADIC_LENS, K.PRISM, INCOMPATIBLE),
    (K.MONADIC_LENS, K.MONADIC_LENS, K.MONADIC_LENS),
    (K.MONADIC_LENS, K.ALGEBRAIC_LENS, K.MONADIC_LENS),
    (K.ACHROMATIC_LENS, K.MONADIC_LENS, K.MONADIC_LENS),
    (K.GETTER, K.LENS, K.GETTER),
    (K.GETTER, K.TRAVERSAL, K.FOLD),
    (K.GETTER, K.FOLD, K.FOLD),
    (K.GETTER, K.REVIEW, INCOMPATIBLE),
    (K.GETTER, K.SETTER, INCOMPATIBLE),
    (K.FOLD, K.PRISM, K.FOLD),
    (K.REVIEW, K.PRISM, K.REVIEW),
    (K.REVIEW, K.LENS, INCOMPATIBLE),
    (K.SETTER, K.TRAVERSAL, K.SETTER),
    (K.SETTER, K.GETTER, INCOMPATIBLE),
]


@pytest.mark.parametrize("k1,k2,expected", SPOT_JOINS,
                         ids=lambda v: getattr(v, "value", str(v)))
def test_join_table_spot_checks(k1, k2, expected):
    got = join_kind(k1, k2)
    if expected == "fallback":
        assert isinstance(got, Fallback) and got.kind is K.SETTER
    else:
        assert got is expected


def _then(k1, k2):
    """The kind ``compose`` gives operands of kinds ``k1`` then ``k2``."""
    if INCOMPATIBLE in (k1, k2):
        return INCOMPATIBLE
    joined = join_kind(k1, k2)
    return K.SETTER if isinstance(joined, Fallback) else joined


def test_only_achromatic_prism_review_depends_on_bracketing():
    # achromatic-lens and prism have two least kinds, affine-traversal and
    # review; the join keeps affine-traversal, which review cannot reach
    ach, prism, rev = K.ACHROMATIC_LENS, K.PRISM, K.REVIEW
    assert {
        (k1, k2, k3) for k1, k2, k3 in itertools.product(ALL_KINDS, repeat=3)
        if _then(_then(k1, k2), k3) is not _then(k1, _then(k2, k3))
    } == {(ach, prism, rev), (prism, ach, rev),
          (rev, ach, prism), (rev, prism, ach)}


# -------------------------------------------------------------------- upcast


def test_upcast_paths():
    lens = street_lens()
    assert upcast(lens, K.LENS) is lens
    affine = upcast(lens, K.AFFINE_TRAVERSAL)
    a = Address("1 Elm Way", "York", "UK")
    assert preview(affine, a) == "1 Elm Way"
    trav = upcast(lens, K.TRAVERSAL)
    assert to_list_of(trav, a) == ["1 Elm Way"]
    setter = upcast(lens, K.SETTER)
    assert over(setter, str.upper, a) == a._replace(street="1 ELM WAY")
    getter = upcast(lens, K.GETTER)
    assert view(getter, a) == "1 Elm Way"
    fold = upcast(address_prism(), K.TRAVERSAL)
    assert to_list_of(fold, "zzz") == []


def test_upcast_adapter_reaches_every_core_kind():
    ad = swap_adapter()
    s = (3, 4)
    lens = upcast(ad, K.LENS)
    assert view(lens, s) == (4, 3)
    grate = upcast(ad, K.GRATE)
    assert over(grate, lambda p: (p[0] * 10, p[1]), s) == (3, 40)
    prism = upcast(ad, K.PRISM)
    assert preview(prism, s) == (4, 3)
    assert review(prism, (4, 3)) == s


def test_upcast_monadic_to_lens_drops_the_log():
    lens = upcast(box_lens(), K.LENS)
    assert view(lens, Box("x")) == "x"
    assert over(lens, str.upper, Box("x")) == Box("X")


def test_upcast_rejects_sideways_moves():
    with pytest.raises(UpcastError):
        upcast(street_lens(), K.PRISM)
    with pytest.raises(UpcastError):
        upcast(address_prism(), K.LENS)
    with pytest.raises(UpcastError):
        upcast(street_lens(), K.MONADIC_LENS)
    with pytest.raises(UpcastError):
        upcast(Setter(over=lambda f, s: f(s)), K.TRAVERSAL)


def test_upcast_coherence_with_observations():
    """Upcasting then observing agrees with observing then weakening."""
    r = random.Random(13)
    entry = zoo()[K.LENS]
    trav = upcast(entry.optic, K.TRAVERSAL)
    for _ in range(50):
        case = entry.make_case(r)
        assert to_list_of(trav, case["s"]) == [view(entry.optic, case["s"])]
        assert over(trav, case["f"], case["s"]) == over(
            entry.optic, case["f"], case["s"])


# -------------------------------------- oracle equivalence per join cell


def _int_lens():
    return Lens(view=lambda s: s, update=lambda s, b: b)


def _parity_prism():
    from mixoptic import Focus, Miss
    return Prism(
        match=lambda n: Focus(n // 2) if n % 2 == 0 else Miss(n),
        build=lambda b: b * 2,
    )


def _float_alg():
    # classify replaces the focus with the mean-shifted value; training
    # examples only contribute their count
    return AlgebraicLens(
        view=lambda x: x,
        classify=lambda xs, b: b + 0.0 * len(xs),
    )


def _measure_field_alg():
    return AlgebraicLens(
        view=lambda m: m.sepal_length,
        classify=lambda ms, b: ms[0]._replace(sepal_length=b),
    )


def _city_getter():
    return Getter(get=lambda a: a.city)


def _street_review():
    return Review(build=lambda b: Address(b, "London", "UK"))


def _list_setter():
    return Setter(over=lambda f, s: [f(x) for x in s])


def _ints(r, lo=0, hi=99):
    return r.randrange(lo, hi)


def _dict_x(inner):
    return lambda r: {"x": inner(r), "n": _ints(r)}


def _tagged(inner):
    return lambda r: ("t", inner(r)) if r.random() < 0.6 else ("u", _ints(r))


def _pairs(inner):
    return lambda r: (inner(r), inner(r))


def _batch(inner, lo=1, hi=5):
    return lambda r: [inner(r) for _ in range(r.randrange(lo, hi))]


# each cell: (label, outer, inner, expected kind, case generator)
# the case generator mirrors the observer contract for the joined kind
CELLS = [
    ("lens.lens", key_lens("x"), street_lens(), K.LENS,
     lambda r: {"s": _dict_x(gen_address)(r), "f": str.upper}),
    ("lens.adapter", key_lens("x"), swap_adapter(), K.LENS,
     lambda r: {"s": _dict_x(_pairs(_ints))(r),
                "f": lambda p: (p[1], p[0] + 1)}),
    ("adapter.lens",
     Adapter(forward=lambda s: s["w"], backward=lambda b: {"w": b}),
     key_lens("x"), K.LENS,
     lambda r: {"s": {"w": {"x": _ints(r), "n": _ints(r)}},
                "f": lambda n: n + 1}),
    ("lens.prism", key_lens("x"), tag_prism("t"), K.AFFINE_TRAVERSAL,
     lambda r: {"s": _dict_x(_tagged(_ints))(r), "f": lambda n: n * 3}),
    ("prism.lens", tag_prism("t"), key_lens("x"), K.AFFINE_TRAVERSAL,
     lambda r: {"s": _tagged(_dict_x(_ints))(r), "f": lambda n: n * 3}),
    ("prism.prism", tag_prism("t"), tag_prism("s"), K.PRISM,
     lambda r: {"s": r.choice([("t", ("s", _ints(r))), ("t", ("u", _ints(r))),
                               ("u", _ints(r))]),
                "f": lambda n: n + 9, "b": _ints(r)}),
    ("affine.affine",
     compose(key_lens("x"), tag_prism("t")),
     compose(tag_prism("s"), key_lens("y")),
     K.AFFINE_TRAVERSAL,
     lambda r: {"s": {"x": ("t", ("s", {"y": _ints(r)})) if r.random() < 0.5
                      else ("u", 0), "n": 1},
                "f": lambda n: n - 2}),
    ("traversal.traversal", each(), each(), K.TRAVERSAL,
     lambda r: {"s": [_batch(_ints, 0, 4)(r) for _ in range(r.randrange(4))],
                "f": lambda n: n + 1}),
    ("traversal.lens", each(), key_lens("x"), K.TRAVERSAL,
     lambda r: {"s": _batch(_dict_x(_ints), 0, 5)(r), "f": lambda n: n + 1}),
    ("lens.traversal", key_lens("x"), each(), K.TRAVERSAL,
     lambda r: {"s": {"x": _batch(_ints, 0, 5)(r), "n": 0},
                "f": lambda n: n - 1}),
    ("traversal.prism", each(), tag_prism("t"), K.TRAVERSAL,
     lambda r: {"s": _batch(_tagged(_ints), 0, 5)(r), "f": lambda n: n * 2}),
    ("lens.grate", key_lens("x"), dict_grate(("a", "b")), K.GLASS,
     lambda r: {"s": {"x": {"a": _ints(r), "b": _ints(r)}, "n": 0},
                "f": lambda n: n + 4}),
    ("grate.lens", dict_grate(("a", "b")), key_lens("x"), K.GLASS,
     lambda r: {"s": {"a": {"x": _ints(r)}, "b": {"x": _ints(r)}},
                "f": lambda n: n + 4}),
    ("grate.grate", dict_grate(("a", "b")), dict_grate(("c",)), K.GRATE,
     lambda r: {"s": {"a": {"c": _ints(r)}, "b": {"c": _ints(r)}},
                "f": lambda n: n * 5}),
    ("glass.glass",
     compose(key_lens("p"), dict_grate(("a", "b"))),
     upcast(key_lens("q"), K.GLASS),
     K.GLASS,
     lambda r: {"s": {"p": {"a": {"q": _ints(r)}, "b": {"q": _ints(r)}},
                      "n": 0},
                "f": lambda n: n + 6}),
    ("glass.lens",
     compose(key_lens("p"), dict_grate(("a", "b"))),
     key_lens("q"), K.GLASS,
     lambda r: {"s": {"p": {"a": {"q": _ints(r)}, "b": {"q": _ints(r)}}},
                "f": lambda n: n + 6}),
    ("lens.glass", key_lens("w"),
     compose(key_lens("p"), dict_grate(("a", "b"))), K.GLASS,
     lambda r: {"s": {"w": {"p": {"a": _ints(r), "b": _ints(r)}}},
                "f": lambda n: n + 2}),
]


def _box_ach():
    return AchromaticLens(
        view=lambda d: d["x"],
        update=lambda d, b: {**d, "x": b},
        create=lambda b: {"x": b},
    )


def _sepal_ach():
    return AchromaticLens(
        view=lambda m: m.sepal_length,
        update=lambda m, b: m._replace(sepal_length=b),
        create=lambda b: Measurements(b, b, b, b),
    )


def _mean_shift(xs):
    return sum(xs) / len(xs)


def _opt_box():
    """A box lens whose update refuses a negative number."""
    return MonadicLens(
        view=lambda box: box.contents,
        mupdate=lambda box, b: (Opt.absent() if isinstance(b, int) and b < 0
                                else Opt.pure(Box(b))),
        pure=Opt.pure,
    )


CELLS += [
    ("ach.ach", _box_ach(), addr_ach(), K.ACHROMATIC_LENS,
     lambda r: {"s": {"x": gen_address(r)}, "f": str.upper, "b": "9 New Sq"}),
    ("ach.lens", _box_ach(), street_lens(), K.LENS,
     lambda r: {"s": {"x": gen_address(r)}, "f": str.upper}),
    ("lens.ach", key_lens("w"), addr_ach(), K.LENS,
     lambda r: {"s": {"w": gen_address(r)}, "f": str.upper}),
    ("ach.prism", _box_ach(), tag_prism("t"), K.AFFINE_TRAVERSAL,
     lambda r: {"s": {"x": _tagged(_ints)(r)}, "f": lambda n: n + 1}),
    ("adapter.adapter", swap_adapter(),
     Adapter(forward=lambda p: p[0] - p[1], backward=lambda d: (d, 0)),
     K.ADAPTER,
     lambda r: {"s": _pairs(_ints)(r), "b": _ints(r)}),
    ("adapter.alg",
     Adapter(forward=lambda d: d["x"], backward=lambda f: {"x": f}),
     measure_lens(), K.ALGEBRAIC_LENS,
     lambda r: {"s": {"x": gen_flower(r)},
                "batch": [{"x": f} for f in _batch(gen_flower)(r)],
                "b": gen_measurements(r)}),
    ("adapter.kal",
     Adapter(forward=lambda d: d["m"], backward=lambda m: {"m": m}),
     aggregate_kaleidoscope(), K.KALEIDOSCOPE,
     lambda r: {"batch": [{"m": m} for m in _batch(gen_measurements)(r)],
                "agg": _mean_shift}),
    ("alg.alg", measure_lens(), _measure_field_alg(), K.ALGEBRAIC_LENS,
     lambda r: {"s": gen_flower(r),
                "batch": _batch(gen_flower)(r),
                "b": round(r.uniform(0.1, 8.0), 1)}),
    ("alg.lens", measure_lens(),
     Lens(view=lambda m: m.sepal_length,
          update=lambda m, b: m._replace(sepal_length=b)),
     K.LENS,
     lambda r: {"s": gen_flower(r), "f": lambda x: x + 0.5}),
    ("lens.alg", key_lens("x"), measure_lens(), K.LENS,
     lambda r: {"s": {"x": gen_flower(r)}, "f": lambda m: m._replace(
         petal_width=m.petal_width + 1)}),
    ("alg.kal", measure_lens(), aggregate_kaleidoscope(), K.KALEIDOSCOPE,
     lambda r: {"batch": _batch(gen_flower)(r), "agg": _mean_shift}),
    ("kal.alg", aggregate_kaleidoscope(), _float_alg(), K.KALEIDOSCOPE,
     lambda r: {"batch": _batch(gen_measurements)(r), "agg": max}),
    ("kal.kal", pair_kal(), pair_kal(), K.KALEIDOSCOPE,
     lambda r: {"batch": _batch(lambda q: _pairs(_pairs(_ints))(q))(r),
                "agg": min}),
    ("ach.alg", _box_ach(), measure_lens(), K.ALGEBRAIC_LENS,
     lambda r: {"s": {"x": gen_flower(r)},
                "batch": [{"x": f} for f in _batch(gen_flower)(r)],
                "b": gen_measurements(r)}),
    ("alg.ach", measure_lens(), _sepal_ach(), K.ALGEBRAIC_LENS,
     lambda r: {"s": gen_flower(r),
                "batch": _batch(gen_flower)(r),
                "b": round(r.uniform(0.1, 8.0), 1)}),
    ("monadic.lens", box_lens(), street_lens(), K.MONADIC_LENS,
     lambda r: {"s": Box(gen_address(r)), "b": "4 Forge Yard"}),
    ("lens.monadic", key_lens("x"), box_lens(), K.MONADIC_LENS,
     lambda r: {"s": {"x": Box(str(_ints(r)))}, "b": str(_ints(r))}),
    ("monadic.adapter", box_lens(), swap_adapter(), K.MONADIC_LENS,
     lambda r: {"s": Box(_pairs(_ints)(r)), "b": _pairs(_ints)(r)}),
    ("ach.monadic", _box_ach(), box_lens(), K.MONADIC_LENS,
     lambda r: {"s": {"x": Box(str(_ints(r)))}, "b": str(_ints(r))}),
    ("monadic.ach", box_lens(), addr_ach(), K.MONADIC_LENS,
     lambda r: {"s": Box(gen_address(r)), "b": "4 Forge Yard"}),
    ("monadic.monadic", box_lens(), box_lens(), K.MONADIC_LENS,
     lambda r: {"s": Box(Box(_ints(r))), "b": str(_ints(r))}),
    ("opt.opt", _opt_box(), _opt_box(), K.MONADIC_LENS,
     lambda r: {"s": Box(Box(_ints(r))), "b": _ints(r, -40, 60)}),
    ("opt.lens", _opt_box(), key_lens("x"), K.MONADIC_LENS,
     lambda r: {"s": Box({"x": _ints(r), "n": 0}), "b": _ints(r, -40, 60)}),
    ("lens.opt", key_lens("x"), _opt_box(), K.MONADIC_LENS,
     lambda r: {"s": {"x": Box(_ints(r)), "n": 0}, "b": _ints(r, -40, 60)}),
    ("getter.lens", Getter(get=lambda d: d["x"]), street_lens(), K.GETTER,
     lambda r: {"s": {"x": gen_address(r)}}),
    ("lens.getter", key_lens("x"), _city_getter(), K.GETTER,
     lambda r: {"s": {"x": gen_address(r)}}),
    ("traversal.getter", each(), _city_getter(), K.FOLD,
     lambda r: {"s": _batch(gen_address, 0, 4)(r)}),
    ("fold.lens", Fold(foci=lambda s: list(s)), street_lens(), K.FOLD,
     lambda r: {"s": _batch(gen_address, 0, 4)(r)}),
    ("getter.prism", Getter(get=lambda d: d["x"]), tag_prism("t"), K.FOLD,
     lambda r: {"s": {"x": _tagged(_ints)(r)}}),
    ("prism.review", address_prism(), _street_review(), K.REVIEW,
     lambda r: {"b": f"{_ints(r)} Dean Gate"}),
    ("review.prism", Review(build=str), _parity_prism(), K.REVIEW,
     lambda r: {"b": _ints(r)}),
    ("setter.lens", _list_setter(), street_lens(), K.SETTER,
     lambda r: {"s": _batch(gen_address, 0, 4)(r), "f": str.upper}),
    ("lens.setter", key_lens("x"), _list_setter(), K.SETTER,
     lambda r: {"s": {"x": _batch(_ints, 0, 4)(r)}, "f": lambda n: n + 1}),
]

FALLBACK_CELLS = [
    ("kal.lens", aggregate_kaleidoscope(),
     Lens(view=lambda x: x, update=lambda x, b: b),
     lambda r: {"s": gen_measurements(r), "f": lambda x: x + 1.0}),
    ("grate.prism", dict_grate(("a", "b")), tag_prism("t"),
     lambda r: {"s": {"a": _tagged(_ints)(r), "b": _tagged(_ints)(r)},
                "f": lambda n: n * 2}),
    ("traversal.grate", each(), dict_grate(("a",)),
     lambda r: {"s": _batch(lambda q: {"a": _ints(q)}, 0, 4)(r),
                "f": lambda n: n + 3}),
]

INCOMPATIBLE_CELLS = [
    (Getter(get=lambda s: s), _street_review()),
    (_list_setter(), _city_getter()),
    (box_lens(), tag_prism("t")),
    (box_lens(), _opt_box()),  # a Writer and an Opt effect
    (address_prism(), box_lens()),
]


def _run_cell(outer, inner, kind, make_case, label):
    composed = compose(outer, inner)
    assert composed.kind is kind, label
    p = ex2prof(outer).then(ex2prof(inner))
    extracted = prof2ex(p, kind)
    observe = OBSERVERS[kind]
    r = random.Random(zlib.crc32(label.encode()))
    for _ in range(110):
        case = make_case(r)
        assert observe(composed, case) == observe(extracted, case), (
            label, case)


@pytest.mark.parametrize("label,outer,inner,kind,make_case", CELLS,
                         ids=[c[0] for c in CELLS])
def test_concrete_composition_matches_transformer_composition(
        label, outer, inner, kind, make_case):
    _run_cell(outer, inner, kind, make_case, label)


def test_achromatic_kaleidoscope_matches_its_algebraic_upcast():
    # the achromatic-lens transformer does not act on Aggregating, so the
    # oracle starts from the algebraic lens the achromatic one embeds into
    outer = _box_ach()
    composed = compose(outer, aggregate_kaleidoscope())
    assert composed.kind is K.KALEIDOSCOPE
    p = ex2prof(upcast(outer, K.ALGEBRAIC_LENS)).then(
        ex2prof(aggregate_kaleidoscope()))
    extracted = prof2ex(p, K.KALEIDOSCOPE)
    observe = OBSERVERS[K.KALEIDOSCOPE]
    r = random.Random(zlib.crc32(b"ach.kal"))
    for _ in range(110):
        case = {"batch": [{"x": m} for m in _batch(gen_measurements)(r)],
                "agg": _mean_shift}
        assert observe(composed, case) == observe(extracted, case), case


def _trained_alg():
    # classify records how many wholes it learnt from
    return AlgebraicLens(view=lambda d: d["box"],
                         classify=lambda ds, b: {"box": b, "trained": len(ds)})


def test_monadic_and_algebraic_lens_classify_against_the_one_whole():
    # the algebraic-lens transformer does not act on Updating, so these
    # expectations are written out: the algebraic side runs as the lens
    # that classifies against the one whole it updates
    alg_monadic = compose(_trained_alg(), box_lens())
    assert alg_monadic.kind is K.MONADIC_LENS
    s = {"box": Box("old"), "trained": 0}
    assert view(alg_monadic, s) == "old"
    assert mupdate(alg_monadic, s, "new") == Writer(
        {"box": Box("new"), "trained": 1},
        ('[box]: contents changed to "new".',))

    monadic_alg = compose(box_lens(), measure_lens())
    assert monadic_alg.kind is K.MONADIC_LENS
    flower = Flower(Measurements(5.0, 3.6, 1.4, 0.2), Species.SETOSA)
    m = Measurements(6.1, 3.8, 3.1, 1.8)
    assert view(monadic_alg, Box(flower)) == flower.measurements
    learnt = Flower(m, Species.SETOSA)
    assert mupdate(monadic_alg, Box(flower), m) == Writer(
        Box(learnt), (f"[box]: contents changed to {learnt}.",))


@pytest.mark.parametrize("label,outer,inner,make_case", FALLBACK_CELLS,
                         ids=[c[0] for c in FALLBACK_CELLS])
def test_fallback_cells_degrade_to_setters(label, outer, inner, make_case):
    with pytest.warns(UserWarning):
        composed = compose(outer, inner)
    assert composed.kind is K.SETTER
    p = ex2prof(outer).then(ex2prof(inner))
    extracted = prof2ex(p, K.SETTER)
    nested = lambda f, s: over(outer, lambda a: over(inner, f, a), s)
    r = random.Random(zlib.crc32(label.encode()))
    for _ in range(110):
        case = make_case(r)
        want = nested(case["f"], case["s"])
        assert over(composed, case["f"], case["s"]) == want
        assert over(extracted, case["f"], case["s"]) == want


@pytest.mark.parametrize("pair", INCOMPATIBLE_CELLS,
                         ids=lambda p: "x")
def test_incompatible_cells_raise(pair):
    outer, inner = pair
    with pytest.raises(CompositionError):
        compose(outer, inner)


def test_compose_realizes_every_join_cell():
    entries = zoo()
    for k1 in ALL_KINDS:
        for k2 in ALL_KINDS:
            o1, o2 = entries[k1].optic, entries[k2].optic
            joined = join_kind(k1, k2)
            if joined is INCOMPATIBLE:
                with pytest.raises(CompositionError):
                    compose(o1, o2)
            elif isinstance(joined, Fallback):
                with pytest.warns(UserWarning):
                    assert compose(o1, o2).kind is K.SETTER, (k1, k2)
            else:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert compose(o1, o2).kind is joined, (k1, k2)


def test_composition_error_names_both_kinds():
    with pytest.raises(CompositionError) as e:
        compose(Getter(get=lambda s: s), _street_review())
    msg = str(e.value).lower()
    assert "getter" in msg and "review" in msg


def test_composition_error_names_kinds_with_their_articles():
    # nested, achromatic-lens and prism join to affine-traversal, which
    # review cannot reach
    entries = zoo()
    ach, prism, rev = (entries[k].optic for k in (
        K.ACHROMATIC_LENS, K.PRISM, K.REVIEW))
    with pytest.raises(CompositionError) as e:
        compose(compose(ach, prism), rev)
    assert str(e.value) == (
        "cannot compose an affine-traversal with a review")


@pytest.mark.parametrize("outer,inner,whole", [
    (_box_ach(), tag_prism("t"), lambda b: {"x": ("t", str(b))}),
    (tag_prism("t"), _box_ach(), lambda b: ("t", {"x": str(b)})),
], ids=["ach.prism.review", "prism.ach.review"])
def test_flat_achromatic_prism_review_is_a_review(outer, inner, whole):
    # review is the least kind all three coerce to, whichever of
    # achromatic-lens and prism comes first
    composed = compose(outer, inner, Review(build=str))
    assert composed.kind is K.REVIEW
    oracle = prof2ex(ex2prof(outer).then(ex2prof(inner)).then(
        ex2prof(Review(build=str))), K.REVIEW)
    for b in range(-3, 40):
        assert review(composed, b) == review(oracle, b) == whole(b)


def test_composition_is_associative():
    o1, o2, o3 = key_lens("x"), tag_prism("t"), key_lens("y")
    left = compose(compose(o1, o2), o3)
    right = compose(o1, compose(o2, o3))
    r = random.Random(21)
    observe = OBSERVERS[K.AFFINE_TRAVERSAL]
    for _ in range(110):
        s = {"x": ("t", {"y": _ints(r)}) if r.random() < 0.6 else ("u", 0)}
        case = {"s": s, "f": lambda n: n + 1}
        assert observe(left, case) == observe(right, case)


def test_kaleidoscope_lens_fallback_is_nested_over():
    kal = aggregate_kaleidoscope()
    lens = Lens(view=lambda x: x, update=lambda x, b: b)
    with pytest.warns(UserWarning):
        s = compose(kal, lens)
    m = Measurements(1.0, 2.0, 3.0, 4.0)
    assert over(s, lambda x: x * 2, m) == over(
        kal, lambda x: x * 2, m)
