"""mixoptic: mixed profunctor optics over plain Python values.

Optics (lenses, prisms, traversals, grates, algebraic lenses,
kaleidoscopes, effectful lenses and friends) with a total composition
lattice, a profunctor (carrier-transformer) encoding that round-trips with
the concrete forms, a JSON-like document runtime, and a CLI.

The public names load lazily: each is imported from its submodule on first
access, so ``import mixoptic.cli`` loads only the modules the CLI runs.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("carriers", "composition", "effects", "encoding", "errors",
            "funlist", "kinds", "optics", "values")

# public name -> the submodule that defines it
_SOURCE = {name: module for module, names in {
    "carriers": (
        "Aggregating", "Carrier", "Classifying", "Folding", "Glassing",
        "Grating", "Previewing", "Replacing", "Reviewing", "Updating",
        "Viewing",
    ),
    "composition": ("Fallback", "INCOMPATIBLE", "compose", "join_kind",
                    "upcast"),
    "effects": ("Opt", "Writer"),
    "encoding": ("ProfOptic", "ex2prof", "prof2ex"),
    "errors": (
        "CapabilityError", "CompositionError", "EmptyInputError",
        "EmptyTrainingError", "ExprError", "FocusError", "KindError",
        "LengthError", "NormalFormError", "OpticError", "ParseError",
        "UpcastError",
    ),
    "kinds": ("OpticKind",),
    "optics": (
        "Adapter", "AffineTraversal", "AchromaticLens", "AlgebraicLens",
        "Focus", "Fold", "Getter", "Glass", "Grate", "Kaleidoscope", "Lens",
        "Miss", "MonadicLens", "Prism", "Review", "Setter", "Traversal",
        "aggregate", "classify", "grate_apply", "mupdate", "over", "preview",
        "review", "set_value", "to_list_of", "view",
    ),
    "values": (
        "VBool", "VList", "VNull", "VNum", "VRec", "VTag", "VText", "Value",
        "each_traversal", "field_lens", "parse_json", "serialize",
        "variant_prism",
    ),
}.items() for name in names}

__all__ = sorted([*_SOURCE, *_MODULES])


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_SOURCE[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
