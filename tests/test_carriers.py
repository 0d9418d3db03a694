"""Profunctor and strength coherence laws for the carrier types.

All laws are checked extensionally: two carriers are equal when they
agree on a batch of generated inputs.
"""

import random

import pytest

from mixoptic import (
    Aggregating, Classifying, Focus, Folding, Glassing, Grating, Miss,
    Previewing, Replacing, Reviewing, Updating, Viewing, Writer,
)
from mixoptic.errors import CapabilityError


def _samples(r, n=30):
    return [r.randrange(-50, 50) for _ in range(n)]


def _agree(r, left, right, apply):
    for x in _samples(r):
        assert apply(left, x) == apply(right, x)


APPLYERS = {
    Viewing: lambda c, x: c.run(x),
    Previewing: lambda c, x: c.run(x),
    Replacing: lambda c, x: c.run(lambda a: a * 2)(x),
    Folding: lambda c, x: c.run(x),
    Updating: lambda c, x: c.run(x, x + 3),
    Grating: lambda c, x: c.run(lambda k: k(x) - 7),
    Glassing: lambda c, x: c.run(lambda k: k(x) - 7, x + 5),
}


def _make(cls):
    if cls is Viewing:
        return cls(run=lambda s: s * 10)
    if cls is Previewing:
        return cls(run=lambda s: s if s % 2 == 0 else None)
    if cls is Replacing:
        return cls(run=lambda f: lambda s: f(s) + 1)
    if cls is Folding:
        return cls(run=lambda s: [s, s + 1])
    if cls is Updating:
        return cls(run=lambda b, s: Writer.tell(b + s, f"set {b}"))
    if cls is Grating:
        return cls(run=lambda h: h(lambda s: s * 3) + 1)
    if cls is Glassing:
        return cls(run=lambda h, s: h(lambda x: x * 3 + s) - s)
    raise AssertionError(cls)


@pytest.mark.parametrize("cls", [Viewing, Previewing, Replacing, Folding,
                                 Updating, Grating, Glassing])
def test_dimap_identity_and_composition(cls):
    r = random.Random(5)
    c = _make(cls)
    apply = APPLYERS[cls]
    _agree(r, c.dimap(lambda s: s, lambda t: t), c, apply)

    l1, l2 = (lambda s: s + 2), (lambda s: s * 3)
    r1, r2 = (lambda t: t - 1), (lambda t: t * 2)
    step = c.dimap(l1, r1).dimap(l2, r2)
    fused = c.dimap(lambda s: l1(l2(s)), lambda t: r2(r1(t)))
    _agree(r, step, fused, apply)


@pytest.mark.parametrize("cls", [Viewing, Previewing, Replacing, Folding,
                                 Updating, Glassing])
def test_product_lift_unit_coherence(cls):
    """Lifting then focusing through a unit residual is the identity."""
    r = random.Random(6)
    c = _make(cls)
    unit = c.lift_product().dimap(lambda s: ((), s),
                                  lambda pair: pair[1])
    _agree(r, unit, c, APPLYERS[cls])


@pytest.mark.parametrize("cls", [Previewing, Replacing, Folding])
def test_sum_lift_unit_coherence(cls):
    """A sum lift applied to an always-focused wrapper is the identity."""
    r = random.Random(8)
    c = _make(cls)
    unit = c.lift_sum().dimap(Focus, lambda out: out.value)
    _agree(r, unit, c, APPLYERS[cls])


@pytest.mark.parametrize("cls", [Viewing, Previewing, Replacing, Folding,
                                 Updating, Glassing])
def test_double_product_lift_pairing_coherence(cls):
    """Two nested residuals behave like one paired residual."""
    r = random.Random(9)
    c = _make(cls)
    apply = APPLYERS[cls]

    # run through residuals u then w, source shaped ((u, w), s)
    nested = c.lift_product().lift_product().dimap(
        lambda s: ("u", ("w", s)),
        lambda out: out[1][1],
    )
    paired = c.lift_product().dimap(
        lambda s: (("u", "w"), s),
        lambda out: out[1],
    )
    _agree(r, nested, paired, apply)
    _agree(r, nested, c, apply)


@pytest.mark.parametrize("cls", [Replacing, Grating, Glassing])
def test_closed_lift_unit_coherence(cls):
    """Lifting through a constant reader, then reading it back, is the
    identity."""
    r = random.Random(7)
    c = _make(cls)
    unit = c.lift_closed().dimap(lambda s: lambda m: s, lambda g: g(None))
    _agree(r, unit, c, APPLYERS[cls])


def test_undeclared_lifts_raise():
    with pytest.raises(CapabilityError):
        Viewing(run=lambda s: s).lift_sum()
    with pytest.raises(CapabilityError):
        Viewing(run=lambda s: s).lift_closed()
    with pytest.raises(CapabilityError):
        Previewing(run=lambda s: s).lift_funlist()
    with pytest.raises(CapabilityError):
        Reviewing(run=lambda b: b).lift_product()
    with pytest.raises(CapabilityError):
        Updating(run=lambda b, s: Writer.pure(b)).lift_sum()
    with pytest.raises(CapabilityError):
        Grating(run=lambda h: h(lambda s: s)).lift_product()
    with pytest.raises(CapabilityError):
        Classifying(run=lambda ss, b: b).lift_product()


def test_reviewing_sum_lift_tags_focus():
    c = Reviewing(run=lambda b: f"<{b}>")
    lifted = c.lift_sum()
    assert lifted.run(7) == Focus("<7>")


def test_classifying_list_algebra_flattens_residuals():
    c = Classifying(run=lambda sources, b: (tuple(sources), b))
    lifted = c.lift_list_algebra()
    residual, out = lifted.run([(["r1", "r2"], "s1"), (["r3"], "s2")], "b")
    assert residual == ["r1", "r2", "r3"]
    assert out == (("s1", "s2"), "b")


def test_aggregating_funlist_lift_sequences_foci():
    from mixoptic import funlist as fl

    c = Aggregating(run=lambda ss, f: f(ss))
    lifted = c.lift_funlist()
    flists = [fl.of_extract([1, 2], lambda bs: sum(bs)),
              fl.of_extract([3], lambda bs: bs[0])]
    out = lifted.run(flists, lambda xs: max(xs))
    foci, rebuild = fl.no_fun(out)
    assert foci == [1, 2, 3]
    assert rebuild([10, 20, 30]) == max([10 + 20, 30])


def test_replacing_closed_lift():
    c = Replacing(run=lambda f: lambda s: f(s))
    lifted = c.lift_closed()
    fn = lifted.run(lambda a: a + 1)(lambda k: k * 2)
    assert fn(5) == 11


def _counting_replacing():
    calls = []

    def run(u):
        calls.append(u)
        return u

    return Replacing(run=run), calls


def test_a_transformer_walk_runs_the_replacing_probe_once():
    """Every ``Replacing`` lift runs the inner ``run(u)`` once per ``u``,
    so one ``over`` through ``each`` then a field over 50 foci calls the
    probe's ``run`` once, not once per focus."""
    import json

    from mixoptic import ex2prof, parse_json, serialize
    from mixoptic.values import VText, each_traversal, field_lens

    probe, calls = _counting_replacing()
    p = ex2prof(each_traversal()).then(ex2prof(field_lens("v")))
    doc = parse_json(json.dumps([{"v": f"x{i}", "w": i} for i in range(50)]))
    out = p.transform(probe).run(lambda a: VText(a.value.upper()))(doc)
    assert len(calls) == 1
    assert json.loads(serialize(out)) == [
        {"v": f"X{i}", "w": i} for i in range(50)]


@pytest.mark.parametrize("lift", [
    lambda c: c.dimap(lambda s: s - 1, lambda t: t * 10),
    lambda c: c.lift_product().dimap(lambda s: ("r", s), lambda pair: pair[1]),
    lambda c: c.lift_sum().dimap(
        lambda s: Focus(s) if s % 2 else Miss(-s),
        lambda m: m.value),
    lambda c: c.lift_list_algebra().dimap(lambda s: ([s], s),
                                         lambda pair: pair[1]),
    lambda c: c.lift_closed().dimap(lambda s: lambda m: s + m,
                                    lambda g: g(100)),
], ids=["dimap", "product", "sum", "list_algebra", "closed"])
def test_each_replacing_lift_runs_the_inner_run_once_per_function(lift):
    probe, calls = _counting_replacing()
    fn = lift(probe).run(lambda a: a * 3)
    assert len(calls) == 1
    for s in range(20):
        fn(s)
    assert len(calls) == 1


def test_the_replacing_funlist_lift_runs_the_inner_run_once_per_function():
    from mixoptic import funlist as fl

    probe, calls = _counting_replacing()
    fn = probe.lift_funlist().run(lambda a: a + 1)
    for n in range(5):
        assert fl.fuse(fn(fl.of_extract(list(range(n)), list))) == list(
            range(1, n + 1))
    assert len(calls) == 1
