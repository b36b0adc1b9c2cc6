"""The base of the immutable records that check their fields.

A subclass lists its fields in ``__slots__`` and checks them in its own
``__init__``, which hands the values, in field order, to
:meth:`Record.__init__`. A record refuses attribute assignment and
deletion. Equality, hashing and ``repr`` follow its fields. A pickle (a
pool worker's argument, say) rebuilds it through the subclass's
``__init__``, so the checks run again. The package's plain records are
``typing.NamedTuple`` classes. Both kinds cost far less at import than a
dataclass, which compiles several functions of each class from source.
"""


class Record:
    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
