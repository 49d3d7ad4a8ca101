"""Record base classes: slotted classes that compare, hash and print as
the standard library's generated records do, without importing that module
(and ``inspect``) or generating code at import.  A record's fields are its
``__slots__``; ``__match_args__`` names its constructor's, in order."""

set_field = object.__setattr__     # how a Frozen record's __init__ sets a field


class Record:
    """Mutable and unhashable: == holds only between instances of one class
    with equal fields, and the repr is ``Name(field=value, ...)``."""
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """Immutable and hashed by its fields: assignment and deletion raise
    AttributeError."""
    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):   # copy and pickle call __init__ with the slots
        return type(self), self._values()
