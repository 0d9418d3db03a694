"""The contract of the small immutable records: the concrete optics, the
partial-match results, ``Fallback``, ``expr.Segment``, the effects, the
document values, the typed example records, the carriers, ``FunList`` and
``ProfOptic``.

Each is built by position and by keyword, cannot be assigned, prints as
``Class(field=...)`` and equals only a record of its own class with equal
fields.
"""

import pytest

from mixoptic import (
    Adapter, AffineTraversal, AchromaticLens, AlgebraicLens, Fallback, Focus,
    Fold, Getter, Glass, Grate, Kaleidoscope, Lens, Miss, MonadicLens,
    OpticKind, Opt, Prism, ProfOptic, Review, Setter, Traversal, VBool, VList,
    VNull, VNum, VRec, VTag, VText, Writer, carriers, compose,
)
from mixoptic.expr import Segment, parse_expr
from mixoptic.fixtures import Species
from mixoptic.funlist import FunList
from mixoptic.values import NULL

from typed_examples import Address, Box, Flower, Measurements

K = OpticKind

# kind -> (class, its fields in order)
OPTICS = {
    K.ADAPTER: (Adapter, ("forward", "backward")),
    K.LENS: (Lens, ("view", "update")),
    K.ACHROMATIC_LENS: (AchromaticLens, ("view", "update", "create")),
    K.PRISM: (Prism, ("match", "build")),
    K.AFFINE_TRAVERSAL: (AffineTraversal, ("access",)),
    K.TRAVERSAL: (Traversal, ("extract",)),
    K.GRATE: (Grate, ("run",)),
    K.GLASS: (Glass, ("run",)),
    K.SETTER: (Setter, ("over",)),
    K.GETTER: (Getter, ("get",)),
    K.REVIEW: (Review, ("build",)),
    K.FOLD: (Fold, ("foci",)),
    K.ALGEBRAIC_LENS: (AlgebraicLens, ("view", "classify")),
    K.KALEIDOSCOPE: (Kaleidoscope, ("aggregate",)),
    K.MONADIC_LENS: (MonadicLens, ("view", "mupdate", "pure")),
}


def functions(n):
    """``n`` distinct functions, named so that a repr is predictable."""
    out = []
    for i in range(n):
        def fn(x, _i=i):
            return x
        fn.__qualname__ = f"f{i}"
        out.append(fn)
    return out


def test_every_kind_has_a_class():
    assert set(OPTICS) == set(K)


@pytest.mark.parametrize("kind", list(K), ids=lambda k: k.value)
def test_optic_records(kind):
    cls, names = OPTICS[kind]
    fns = functions(len(names))
    optic = cls(*fns)
    assert cls(**dict(zip(names, fns))) == optic
    assert hash(cls(*fns)) == hash(optic)
    assert optic.kind is kind and cls.kind is kind
    assert [getattr(optic, name) for name in names] == fns
    assert repr(optic).startswith(f"{cls.__name__}({names[0]}=<function f0")
    if len(fns) > 1:
        assert cls(*reversed(fns)) != optic
    for name in names:
        with pytest.raises(AttributeError):
            setattr(optic, name, fns[0])
    with pytest.raises(TypeError):
        cls(*fns, fns[0])


@pytest.mark.parametrize("kind", [k for k in K if k is not K.MONADIC_LENS],
                         ids=lambda k: k.value)
def test_chain_records(kind):
    cls, names = OPTICS[kind]
    first, second = cls(*functions(len(names))), cls(*functions(len(names)))
    chain = compose(first, second)
    assert isinstance(chain, cls) and chain.kind is kind
    assert chain.parts == (first, second)
    assert repr(chain) == f"{cls.__name__}(parts=({first!r}, {second!r}))"
    for name in names:
        with pytest.raises(AttributeError):
            setattr(chain, name, None)


def test_records_of_different_classes_differ():
    f, g = functions(2)
    assert Focus(1) != Miss(1) and not Focus(1) == Miss(1)
    assert Focus(1) == Focus(1) and Focus(1) != Focus(2)
    assert Focus(1) != (1,) and (1,) != Focus(1)
    assert Lens(f, g) != Prism(f, g) and Lens(f, g) != (f, g)
    assert Getter(f) != Review(f)
    with pytest.raises(AttributeError):
        Focus(1).value = 2


def test_fallback_record():
    assert Fallback() == Fallback() == Fallback(K.SETTER)
    assert Fallback().kind is K.SETTER
    assert repr(Fallback()) == f"Fallback(kind={K.SETTER!r})"
    with pytest.raises(AttributeError):
        Fallback().kind = K.LENS


def test_segment_record():
    seg = Segment("field", "k", 0)
    assert seg == Segment(name="field", argument="k", position=0)
    assert seg != Segment("field", "k", 1)
    assert parse_expr('a.field("k")') == [Segment("a", None, 0),
                                           Segment("field", "k", 2)]
    assert repr(seg) == "Segment(name='field', argument='k', position=0)"
    with pytest.raises(AttributeError):
        seg.name = "x"


def test_effect_records():
    assert Writer(1) == Writer(1, ()) == Writer(value=1, log=())
    assert Writer(1, ("a",)) != Writer(1, ("b",))
    assert Writer(1) != Opt(1)
    assert repr(Writer(1, ("a",))) == "Writer(value=1, log=('a',))"
    assert Opt(1) == Opt.pure(1) and Opt() == Opt.absent() != Opt(None)
    with pytest.raises(AttributeError):
        Writer(1).log = ("x",)


# (class, field values in order, field names)
DATA = [
    (VNull, (), ()),
    (VBool, (True,), ("value",)),
    (VNum, (2.5,), ("value",)),
    (VText, ("a",), ("value",)),
    (VList, ((VNum(1.0), NULL),), ("items",)),
    (VRec, ((("k", VText("v")),),), ("fields",)),
    (VTag, ("t", VNum(3.0)), ("tag", "payload")),
    (Address, ("1 Elm Way", "York", "UK"), ("street", "city", "country")),
    (Measurements, (5.1, 3.5, 1.4, 0.2),
     ("sepal_length", "sepal_width", "petal_length", "petal_width")),
    (Flower, (Measurements(5.1, 3.5, 1.4, 0.2), Species.SETOSA),
     ("measurements", "species")),
    (Box, ("x",), ("contents",)),
]


@pytest.mark.parametrize("cls, args, names", DATA,
                         ids=[cls.__name__ for cls, _, _ in DATA])
def test_data_records(cls, args, names):
    item = cls(*args)
    assert cls._fields == names
    assert cls(**dict(zip(names, args))) == item
    assert hash(cls(*args)) == hash(item)
    assert [getattr(item, name) for name in names] == list(args)
    shown = ", ".join(f"{name}={arg!r}" for name, arg in zip(names, args))
    assert repr(item) == f"{cls.__name__}({shown})"
    assert bool(item)
    assert item != args and args != item and not item == args
    for name in names:
        with pytest.raises(AttributeError):
            setattr(item, name, None)
    with pytest.raises(TypeError):
        cls(*args, None)


def test_data_records_compare_by_class_first():
    assert VNum(1) == VNum(1.0) and hash(VNum(1)) == hash(VNum(1.0))
    assert VBool(True) != VNum(1.0) and not VBool(True) == VNum(1.0)
    assert VText("a") != ("a",) and VText("a") != Box("a")
    assert VNull() == NULL and NULL != () and bool(NULL)
    assert VList((VNum(1),)) == VList((VNum(1.0),))
    assert VList((VNum(1),)) != VList((VBool(True),))
    assert Address("a", "b", "c")._replace(city="d") == Address("a", "d", "c")


CARRIERS = [
    carriers.Viewing, carriers.Previewing, carriers.Replacing,
    carriers.Classifying, carriers.Aggregating, carriers.Updating,
    carriers.Folding, carriers.Reviewing, carriers.Grating, carriers.Glassing,
]


def frozen_without_dict(item):
    for name in item._fields:
        with pytest.raises(AttributeError):
            setattr(item, name, None)
    with pytest.raises(AttributeError):
        item.extra = 1
    assert not hasattr(item, "__dict__")


@pytest.mark.parametrize("cls", CARRIERS, ids=lambda cls: cls.__name__)
def test_carrier_records(cls):
    f, g = functions(2)
    carrier = cls(f)
    assert isinstance(carrier, carriers.Carrier) and cls._fields == ("run",)
    assert cls(run=f) == carrier and hash(cls(f)) == hash(carrier)
    assert carrier.run is f and cls(g) != carrier
    assert repr(carrier) == f"{cls.__name__}(run={f!r})"
    for other in CARRIERS:
        if other is not cls:
            assert other(f) != carrier and not other(f) == carrier
    assert carrier != (f,) and (f,) != carrier
    frozen_without_dict(carrier)


def test_funlist_and_prof_optic_records():
    f, g = functions(2)
    flist = FunList((1, 2), f)
    assert flist == FunList(sources=(1, 2), rebuild=f) != FunList((1,), f)
    assert repr(flist) == f"FunList(sources=(1, 2), rebuild={f!r})"
    prof = ProfOptic(f, frozenset())
    assert prof.pure is None
    assert prof == ProfOptic(transform=f, supported=frozenset(), pure=None)
    assert prof != ProfOptic(f, frozenset(), g)
    assert repr(prof) == (
        f"ProfOptic(transform={f!r}, supported=frozenset(), pure=None)")
    assert FunList(f, g) != ProfOptic(f, g) and flist != ((1, 2), f)
    frozen_without_dict(flist)
    frozen_without_dict(prof)
