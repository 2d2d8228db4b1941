"""The base of otplab's immutable records: plain classes whose fields are their `__slots__`.

`Record.__init__` sets each field once, in `__slots__` order; after that,
assigning or deleting an attribute raises `AttributeError`.  As a frozen
dataclass does, a record equals one of its own class with equal fields and
hashes as its fields, but making the class generates no code.  A subclass
that adds no field declares no `__slots__`, so its fields stay its parent's.
"""


class Record:
    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())
