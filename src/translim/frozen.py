"""Immutable slotted classes, compared, hashed and shown by their fields.

Every value type and result record of the package derives from Frozen.
A class lists its fields as __slots__ and sets each once in __init__,
with set_field or _set_fields; after that, assigning or deleting any
attribute raises FrozenFieldError.  Equality holds only between
instances of the same class whose fields are equal, the hash is the hash
of the tuple of the fields, and the repr reads ClassName(field=value,
...).  A class whose slots also hold derived values names the fields
that count in _fields.  The value types that are built and compared in
the evaluators' loops define their own __eq__ and __hash__ over the same
fields, spelled out for speed.
"""

from __future__ import annotations

from .errors import FrozenFieldError

# sets a field from __init__, past the __setattr__ that refuses it
set_field = object.__setattr__


class Frozen:
    __slots__ = ()
    # the fields that equality, hash and repr read, in order: those of the
    # base class, then the class's own __slots__, unless it names them
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = cls._fields + cls.__dict__.get("__slots__", ())

    def __setattr__(self, name, value):
        raise FrozenFieldError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenFieldError(f"cannot delete field {name!r}")

    def _set_fields(self, *values):
        """Set the fields from __init__, in the order of _fields."""
        for name, value in zip(self._fields, values, strict=True):
            set_field(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields)
        return f"{self.__class__.__qualname__}({inner})"
