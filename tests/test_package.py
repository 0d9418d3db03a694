"""The package namespace: every public name resolves, on first access, and
the CLI loads only the modules it runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixoptic

SRC = str(Path(__file__).resolve().parents[1] / "src")

PUBLIC = [
    "AchromaticLens", "Adapter", "AffineTraversal", "Aggregating",
    "AlgebraicLens", "CapabilityError", "Carrier", "Classifying",
    "CompositionError", "EmptyInputError", "EmptyTrainingError", "ExprError",
    "Fallback", "Focus", "FocusError", "Fold", "Folding", "Getter", "Glass",
    "Glassing", "Grate", "Grating", "INCOMPATIBLE", "Kaleidoscope",
    "KindError", "LengthError", "Lens", "Miss", "MonadicLens",
    "NormalFormError", "Opt", "OpticError", "OpticKind", "ParseError",
    "Previewing", "Prism", "ProfOptic", "Replacing", "Review", "Reviewing",
    "Setter", "Traversal", "UpcastError", "Updating", "VBool", "VList",
    "VNull", "VNum", "VRec", "VTag", "VText", "Value", "Viewing", "Writer",
    "aggregate", "carriers", "classify", "compose", "composition",
    "each_traversal",
    "effects", "encoding", "errors", "ex2prof", "field_lens", "funlist",
    "grate_apply", "join_kind", "kinds", "mupdate", "optics", "over",
    "parse_json", "preview", "prof2ex", "review", "serialize", "set_value",
    "to_list_of", "upcast", "values", "variant_prism", "view",
]


def fresh(code):
    """Run ``code`` in a fresh interpreter and return its standard output."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": path},
    ).stdout.split()


def test_public_names_resolve():
    assert sorted(mixoptic.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(mixoptic, name)
    assert mixoptic.funlist is sys.modules["mixoptic.funlist"]
    assert mixoptic.Lens is mixoptic.optics.Lens
    assert mixoptic.Value is mixoptic.values.Value
    assert set(PUBLIC) <= set(dir(mixoptic))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_optic"):
        mixoptic.no_such_optic
    assert not hasattr(mixoptic, "cli_main")


def test_star_import_binds_every_public_name():
    names = fresh("from mixoptic import *\n"
                  "print(*sorted(n for n in dir() if not n.startswith('_')))")
    assert names == PUBLIC


def test_cli_import_loads_no_transformer_modules():
    loaded = fresh("import sys, mixoptic.cli\n"
                   "print(*sorted(m for m in sys.modules "
                   "if m.startswith('mixoptic')))")
    assert "mixoptic.optics" in loaded
    for module in ("carriers", "encoding", "funlist"):
        assert f"mixoptic.{module}" not in loaded


TYPED_EXAMPLES = (
    "Address", "Measurements", "Flower", "Box", "home", "mail", "load_iris",
    "iris", "street_lens", "city_lens", "address_prism", "each", "distance",
    "measure_lens", "aggregate_kaleidoscope", "box_lens",
)


def test_set_up_imports_load_no_typed_examples():
    # the typed examples live in the tests, so neither the CLI nor a
    # library set-up builds them or the effects their logging box needs
    for modules in ("mixoptic.cli",
                    "mixoptic, mixoptic.expr, mixoptic.fixtures"):
        loaded = fresh(f"import sys, {modules}\n"
                       "print(*sorted(m for m in sys.modules "
                       "if m.startswith('mixoptic')))")
        assert "mixoptic.fixtures" in loaded
        assert "mixoptic.effects" not in loaded
    import mixoptic.fixtures as fixtures

    assert [name for name in TYPED_EXAMPLES if hasattr(fixtures, name)] == []


def test_imports_leave_dataclasses_and_inspect_unloaded():
    probe = ("import sys\nbefore = set(sys.modules)\nimport {}\n"
             "print(*sorted(set(sys.modules) - before))")
    library = fresh(probe.format(
        "mixoptic, mixoptic.expr, mixoptic.fixtures, mixoptic.encoding"))
    assert "mixoptic.fixtures" in library and "mixoptic.encoding" in library
    assert "dataclasses" not in library and "inspect" not in library
    cli = fresh(probe.format("mixoptic.cli"))
    for module in ("dataclasses", "inspect", "click"):
        assert module not in cli
