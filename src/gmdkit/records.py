"""Slot records: one constructor, and field equality where a record is a value.

A record subclass lists its fields in ``__slots__`` and nothing else; this
module writes their constructor, equality and hashing once.  It imports
nothing, so the records cost no start-up beyond their own module.
"""


class Record:
    """Fields from the subclass's ``__slots__``, given by position or keyword.

    A missing, extra, repeated or unknown field is a ``TypeError`` naming
    the class.  Records compare and hash by identity; see ``ValueRecord``.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(args)}")
        for name, value in zip(names, args):
            setattr(self, name, value)
        for name, value in kwargs.items():
            if name not in names[len(args):]:
                how = "twice" if name in names else "as an unknown field"
                raise TypeError(f"{type(self).__name__} got {name!r} {how}")
            setattr(self, name, value)
        if len(args) + len(kwargs) < len(names):
            missing = ", ".join(name for name in names[len(args):] if name not in kwargs)
            raise TypeError(f"{type(self).__name__} is missing fields {missing}")


class ValueRecord(Record):
    """A record that compares (exact type only) and hashes by all its fields."""

    __slots__ = ()

    def _fields(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        return type(other) is type(self) and self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())
