"""Exception hierarchy shared across the package.

Every error that the library raises deliberately derives from TranslimError, so
callers can catch one class. Parse errors carry the offending position.  An
error that a built-in error named before keeps that built-in as a second base,
so `except ValueError` and `except KeyError` still catch it.
"""

from __future__ import annotations

import sys


class TranslimError(Exception):
    """Base class for all errors raised on purpose by this package."""


class ParseError(TranslimError):
    """Malformed textual input (ordinal, sequence, term, instance, diagram)."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


def nesting_message() -> str:
    """The message for input nested past the interpreter's recursion limit."""
    return (f"input nests deeper than the recursion limit "
            f"({sys.getrecursionlimit()})")


class OrdinalUnderflowError(TranslimError):
    """Left subtraction b + x = a requested with b > a."""


class IndexOutOfRangeError(TranslimError):
    """Index at or beyond the length of a sequence."""


class LengthMismatchError(TranslimError):
    """Two sequences that must share a length do not."""


class DivergentSumError(TranslimError):
    """Infinitary sum of a family whose nonzero part is not finite."""


class UnboundVariableError(TranslimError):
    """A variable (or family position) with no value under the assignment."""


class TheoryMismatchError(TranslimError):
    """Operation applied under a theory that does not provide it."""


class InfiniteCarrierError(TranslimError):
    """Enumeration requested of a module that is not finite."""


class InvalidAlphaError(TranslimError):
    """Ordinal parameter outside the range the construction is defined for."""


class ResourceLimitError(TranslimError):
    """An input whose answer the library cannot build or print within an
    interpreter limit or the enumeration limit; the message names the limit."""


ENUMERATION_LIMIT = 1 << 20  # items in one carrier, table or sample grid


def check_enumeration(count: int, what) -> None:
    """Refuse a listing of more than ENUMERATION_LIMIT items before it is
    built; what() names it, and is called only then."""
    if count > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"{what()} can list more than {ENUMERATION_LIMIT} items, the "
            "enumeration limit")


class LevelwiseNotEpiError(TranslimError):
    """A system morphism expected to be levelwise surjective is not."""


class HomomorphismValidationError(TranslimError):
    """Map table breaks a structure law; carries a witness."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class FrozenFieldError(TranslimError, AttributeError):
    """An assignment to, or deletion of, a field of an immutable value."""


class ModuleValidationError(TranslimError, ValueError):
    """A modulus or shape that defines no module or theory."""


class PositiveVerdictError(TranslimError, ValueError):
    """A refutation asked of a verdict that says the term exists."""


class UnknownSuiteError(TranslimError, KeyError):
    """A suite name that names no suite."""
