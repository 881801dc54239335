"""Immutable value records, built without the dataclasses module.

A Record subclass names its fields in __slots__ and gets what a frozen
dataclass would give it: construction by position or keyword, followed by
its __post_init__ check; fields that cannot be assigned or deleted;
equality only with instances of the same class, field by field, and a hash
that agrees with it; the dataclass repr, such as GainInterval(lo=-1, hi=1);
and pickle and copy round trips, which rebuild the record through its
constructor. Importing dataclasses loads inspect, ast, dis and tokenize,
and every frozen dataclass compiles its methods with exec when its class is
created; together they took about a fifth of the start-up of a command.
"""

from operator import attrgetter


class Record:
    """Base of the immutable value types; subclasses set __slots__ to their
    field names, in constructor order."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # What equality and hashing compare: the tuple of field values, or the
        # value itself when there is one field.
        cls._key = staticmethod(attrgetter(*cls.__slots__))

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = _bind(type(self), args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Check the fields; runs at the end of every construction."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


def _bind(cls, args, kwargs):
    """The field values of cls(*args, **kwargs), in field order, or the
    TypeError a dataclass constructor would raise."""
    names = cls.__slots__
    if len(args) > len(names):
        raise TypeError(
            f"{cls.__qualname__}() takes {len(names)} arguments but {len(args)} were given"
        )
    given = names[: len(args)]
    for name in kwargs:
        if name in given:
            raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
        if name not in names:
            raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
    missing = [name for name in names[len(args) :] if name not in kwargs]
    if missing:
        raise TypeError(f"{cls.__qualname__}() missing argument {missing[0]!r}")
    return args + tuple(kwargs[name] for name in names[len(args) :])
