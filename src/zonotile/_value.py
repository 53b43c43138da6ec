"""Frozen value types, written once and generated for no class.

A subclass's fields are the public names its class body annotates, in
order.  `Value` gives it a constructor taking them by position or keyword,
equality and hashing over their tuple (the hash a frozen dataclass has), a
dataclass-style repr, and pickling and copying through the constructor, so
every copy runs the class's own checks again.  Assigning or deleting an
attribute raises `dataclasses.FrozenInstanceError`; every construction
path sets the fields once with `_fill`, where a subclass may check them.
A `Value` keeps its fields in the instance dict, which leaves room for
cached properties, unless the subclass declares them as slots, as
`SetFamily` does: an enumeration makes it by the hundred thousand, and a
slotted instance is smaller.  `OrderedValue` keeps them in slots the
subclass declares, adds the comparisons of the field tuples, and keeps the
field tuple and its hash in slots, set when filled, which `_values` and
`__hash__` read.  Defining a subclass builds one `attrgetter` over its
fields and compiles nothing.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from operator import attrgetter, ge, gt, le, lt

_set = object.__setattr__


def _compare(op):
    """`op` on the field tuples of two instances of one class."""

    def compare(self, other):
        if other.__class__ is self.__class__:
            return op(self._values(self), self._values(other))
        return NotImplemented

    return compare


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(name for name in cls.__annotations__ if not name.startswith("_"))
        if fields:
            get = attrgetter(*fields)
            cls._fields = fields
            # the field tuple; attrgetter gives a bare value for one name
            cls._values = get if len(fields) > 1 else staticmethod(lambda obj: (get(obj),))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs:
            named = dict(zip(fields, args), **kwargs)
            bound = len(named) == len(args) + len(kwargs) and named.keys() == set(fields)
            args = tuple(map(named.get, fields)) if bound else ()
        if len(args) != len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        self._fill(*args)

    def _fill(self, *values) -> None:
        # one by one: a whole new __dict__ would cost each instance a full
        # dict and slow every attribute read (CPython's inline values)
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(map("{}={!r}".format, self._fields, self._values(self)))
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values(self)


class OrderedValue(Value):
    __slots__ = ("_key", "_hash")

    __lt__, __le__, __gt__, __ge__ = map(_compare, (lt, le, gt, ge))

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter("_key")

    def _fill(self, *values) -> None:
        super()._fill(*values)
        _set(self, "_key", values)
        _set(self, "_hash", hash(values))

    def __hash__(self) -> int:
        return self._hash
