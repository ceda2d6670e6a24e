"""The immutable base of the package's checked records.

A checked record is a ``__slots__`` class whose ``__init__`` checks its
arguments and stores each field once through :data:`store`.  Defining
one runs no generated code, where a frozen ``dataclasses.dataclass``
``exec``-s its methods and needs ``import dataclasses`` (with ``inspect``
and ``ast``), which a cold command would pay for.  The plain value
records are ``typing.NamedTuple`` classes.
"""

from __future__ import annotations

from operator import attrgetter

#: sets a field of a record that refuses assignment, in its ``__init__``
store = object.__setattr__


class Record:
    """Fields in ``__slots__``, set once by the subclass's ``__init__``.

    As a frozen dataclass, a record refuses assignment and deletion, is
    equal to a record of its own class with equal fields, hashes as the
    tuple of its fields and shows them in its repr; a copy or a pickle is
    rebuilt through the constructor, which checks the fields again.
    ``_asdict`` gives the fields by name, as a NamedTuple's does."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls.__slots__)  # the fields as a tuple, given two or more

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(self._asdict().values())

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}
