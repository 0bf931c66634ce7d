"""The base of the package's immutable value types.

Each value type is a `collections.namedtuple` subclass that also derives
from `Value`, first, so that

    class Word(Value, namedtuple("Word", "symbols")):
        __slots__ = ()

is built by keyword or position, prints as `Word(symbols=...)`, and has
read-only fields and no instance dictionary, so assigning any attribute
raises AttributeError. A type that converts or validates its fields does
so in `__new__`, which every way of building a value goes through.
"""


class Value(tuple):
    """A named tuple that equals only instances of its own type.

    Plain tuple equality would make `Word(s) == PointPrefix(s)` and
    `NcVerdict(True) == (True, None)` true. Both `==` and `!=` are
    defined, since tuple's own `!=` would answer for the other type.
    The hash is the tuple hash of the fields, so equal values hash
    equally.
    """

    __slots__ = ()

    def __eq__(self, other):
        if type(self) is type(other):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if type(self) is type(other):
            return tuple.__ne__(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace also calls, skips __new__.
        return cls(*iterable)
