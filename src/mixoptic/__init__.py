"""mixoptic: mixed profunctor optics over plain Python values.

Optics (lenses, prisms, traversals, grates, algebraic lenses,
kaleidoscopes, effectful lenses and friends) with a total composition
lattice, a profunctor (carrier-transformer) encoding that round-trips with
the concrete forms, a JSON-like document runtime, and a CLI.
"""

from .carriers import (
    Aggregating, Carrier, Classifying, Folding, Glassing, Grating,
    Previewing, Replacing, Reviewing, Updating, Viewing,
)
from .composition import Fallback, INCOMPATIBLE, compose, join_kind, upcast
from .effects import Opt, Writer
from .encoding import ProfOptic, ex2prof, prof2ex
from .errors import (
    CapabilityError, CompositionError, EmptyInputError, EmptyTrainingError,
    ExprError, FocusError, KindError, LengthError, NormalFormError,
    OpticError, ParseError, UpcastError,
)
from .kinds import Capability, OpticKind, capability_set, closure
from .optics import (
    Adapter, AffineTraversal, AchromaticLens, AlgebraicLens, Focus, Fold,
    Getter, Glass, Grate, Kaleidoscope, Lens, Miss, MonadicLens, Prism,
    Review, Setter, Traversal, aggregate, classify, grate_apply, mupdate,
    over, preview, review, set_value, to_list_of, view,
)
from .values import (
    VBool, VList, VNull, VNum, VRec, VTag, VText, Value, each_traversal,
    field_lens, parse_json, serialize, variant_prism,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
