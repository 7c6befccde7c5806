"""Record classes with hand-written methods.

A record lists its fields, in order, as `__slots__`, and its `__init__`
sets them with `_set`.  Two records are equal when they are of the same
class and their fields are equal in order, so `And(a, b)` never equals
`Or(a, b)`.  A :class:`Frozen` record is hashable and cannot be assigned
to, so a value such as an expression node or a TFPG edge can be shared
without a copy and can be a set member or a dict key.  The methods are
written once here, so importing a module that defines records generates
no code: start-up is most of a command-line request.
"""


class Record:
    """A mutable record: equal by class and fields, and unhashable."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild a record through its __init__, which takes
        # the fields in slot order: a frozen one refuses setattr
        return type(self), self._values()


class Frozen(Record):
    """An immutable record."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
