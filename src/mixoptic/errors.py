"""Exception hierarchy shared by the whole library.

Exit-code mapping for the CLI lives in ``cli.py``; the split there is
usage-level errors (bad expression, unknown name, wrong kind, malformed
document, and the CLI's own ``cli.UsageError`` for its command line)
versus runtime errors raised while an optic is applied to a document.
"""


class OpticError(Exception):
    """Base class for every error raised by this library."""


class KindError(OpticError):
    """An optic of this kind does not support the requested combinator."""


class CapabilityError(OpticError):
    """A combinator carrier was asked for a lift it does not declare."""


class CompositionError(OpticError):
    """The two optic kinds cannot be composed, for the reason ``why`` when
    their kinds alone do not say it."""

    def __init__(self, outer, inner, why=None):
        message = (f"cannot compose {outer.with_article} "
                   f"with {inner.with_article}")
        super().__init__(message if why is None else f"{message}: {why}")
        self.outer = outer
        self.inner = inner


class UpcastError(OpticError):
    """No embedding exists from the optic's kind into the target kind."""


class NormalFormError(OpticError):
    """A profunctor optic cannot be probed back into the requested kind."""


class FocusError(OpticError):
    """The document does not have the shape the optic expects."""


class LengthError(OpticError):
    """A traversal rebuild received the wrong number of replacement foci."""

    @staticmethod
    def check(n, bs):
        """Raise unless ``bs`` holds the ``n`` replacements a rebuild takes."""
        if len(bs) != n:
            raise LengthError(f"expected {n} replacements, got {len(bs)}")


class EmptyTrainingError(OpticError):
    """classify was called with an empty training list."""


class EmptyInputError(OpticError):
    """aggregate was called with an empty batch."""


class ParseError(OpticError):
    """A document failed to parse; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class ExprError(OpticError):
    """An optic expression failed to parse; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position
