"""Base of the immutable value classes, written out by hand: importing
``dataclasses`` and decorating the classes cost the CLI more start-up
time than any report it answers takes."""


class Value:
    """An immutable value whose fields are its class's ``__slots__``.

    ``__init__`` takes the fields in slot order and sets each once; any
    later assignment or deletion raises AttributeError.  Two values are
    equal when they are of the same class and their fields are equal, and
    equal values hash alike.

    >>> class Point(Value):
    ...     __slots__ = ("x", "y")
    >>> Point(1, 2) == Point(1, 2), Point(1, 2) == (1, 2)
    (True, False)
    >>> Point(1, 2)
    Point(x=1, y=2)
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._field_names = tuple(cls.__slots__)

    def __init__(self, *fields) -> None:
        names = self._field_names
        if len(fields) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(fields)}")
        for name, value in zip(names, fields):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self._field_names))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._field_names, self._fields()))
        return f"{type(self).__name__}({fields})"
