"""The immutable value record behind the package's result and parameter
types.

A subclass lists its fields in ``__slots__``, in the order its ``__init__``
takes them, and writes each one there through ``set_field``
(``object.__setattr__``). A subclass that keeps a field under another slot
name lists its fields in ``_fields`` instead. Equality and hash go by the
field values, ``repr`` names the fields, and any later assignment or
deletion raises ``AttributeError``.
"""

from __future__ import annotations

# how a subclass's __init__ writes its fields
set_field = object.__setattr__


class Record:
    __slots__ = ()

    @property
    def _fields(self) -> tuple:
        return self.__slots__

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__qualname__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__qualname__} is immutable")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which takes the fields
        # in slot order
        return type(self), self._values()
