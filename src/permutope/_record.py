"""Immutable value classes without ``dataclasses``.

``Record`` gives a class with ``__slots__`` a constructor over its slots, in
order, plus equality and ``hash((field, ...))`` over the compared fields and
``Name(field=value, ...)`` over the shown ones: the methods a frozen
dataclass would generate, without importing ``dataclasses`` (and with it
``inspect``) or generating code when the package loads, both of which a cold
CLI process would pay for.

Every value class in the package is a ``Record``: ``Permutation``,
``PatternVector``, ``Walk`` and ``SimpleCycle`` too.  Those keep their own
checking constructors and ``_trusted`` builders, and inherit the rest.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Subclass with ``__slots__`` naming the fields, in constructor order;
    the class keywords ``hidden`` (fields ``repr`` leaves out) and
    ``uncompared`` (fields equality and hashing leave out) take field names.
    A subclass that adds no slot keeps its parent's fields and keywords."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _shown: tuple[str, ...] = ()
    _setters: tuple = ()

    def __init_subclass__(cls, hidden: tuple[str, ...] = (), uncompared: tuple[str, ...] = ()):
        if not cls.__slots__:
            return
        cls._fields = cls.__slots__
        cls._shown = tuple(name for name in cls._fields if name not in hidden)
        # The compared fields' tuple, read in C; attrgetter of one name gives no tuple.
        compared = tuple(name for name in cls._fields if name not in uncompared)
        get = attrgetter(*compared)
        cls._key = staticmethod(get if len(compared) > 1 else lambda record: (get(record),))
        # Set through the slots themselves: object.__setattr__ would first
        # check it against the refusing __setattr__ below.
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs:
            rest = fields[len(args) :]
            args = (*args, *map(kwargs.get, rest)) if kwargs.keys() == set(rest) else ()
        if len(args) != len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    def __setattr__(self, name: str, *_) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])
