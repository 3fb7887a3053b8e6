"""Record classes over ``__slots__``: the dataclass behaviour the package
uses, without importing ``dataclasses``, which loads inspect, ast, dis and
tokenize at every start-up.

A subclass names two or more fields in ``__slots__`` and sets them in
``__init__``, through ``object.__setattr__`` when it is a frozen Value.
"""

from __future__ import annotations

import operator


class Record:
    """Shown as Name(field=value, ...), fields in slot order; ``_values`` is
    the tuple of the field values, read in one C call."""

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__slots__:
            cls._values = property(operator.attrgetter(*cls.__slots__))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values))
        return f"{type(self).__qualname__}({fields})"


def _compare(op):
    def compare(self, other):
        if other.__class__ is self.__class__:
            return op(self._values, other._values)
        return NotImplemented

    return compare


class Value(Record):
    """A frozen record compared, ordered and hashed as the tuple of its
    field values; records of different classes are not comparable.  Its
    fields cannot be assigned or deleted after __init__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    __eq__ = _compare(operator.eq)
    __lt__ = _compare(operator.lt)
    __le__ = _compare(operator.le)
    __gt__ = _compare(operator.gt)
    __ge__ = _compare(operator.ge)

    def __hash__(self):
        return hash(self._values)
