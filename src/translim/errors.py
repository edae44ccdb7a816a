"""Exception hierarchy shared across the package.

Every error that the library raises deliberately derives from TranslimError, so
callers can catch one class. Parse errors carry the offending position.  An
error that a built-in error named before keeps that built-in as a second base,
so `except ValueError` and `except KeyError` still catch it.
"""

from __future__ import annotations


class TranslimError(Exception):
    """Base class for all errors raised on purpose by this package."""


class ParseError(TranslimError):
    """Malformed textual input (ordinal, sequence, term, instance, diagram)."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


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
    interpreter limit; the message names the limit."""


class LevelwiseNotEpiError(TranslimError):
    """A system morphism expected to be levelwise surjective is not."""


class HomomorphismValidationError(TranslimError):
    """Map table breaks a structure law; carries a witness."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class ModuleValidationError(TranslimError, ValueError):
    """A modulus, shape or submodule carrier that defines no module or
    theory; a carrier not closed under + carries the pair as its witness."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class PositiveVerdictError(TranslimError, ValueError):
    """A refutation asked of a verdict that says the term exists."""


class UnknownSuiteError(TranslimError, KeyError):
    """A suite name that names no suite."""
