"""Plain slotted records: the value classes of the package.

A record's fields are its ``__slots__`` whose names do not start with an
underscore, in order, and its class writes its own ``__init__``, so
keyword arguments, defaults and argument checks read as plain Python.  A
slot named with a leading underscore holds what the class keeps beside its
fields, such as an arrow's order or a problem's validation snapshot, and
nothing below sees it.  ``Record`` derives the rest from the fields, as
``@dataclass`` would:

- ``__eq__`` holds only between instances of the same class, and compares
  the tuples of their fields;
- ``__repr__`` reads ``App(fun=Index(n=1), arg=Meta(name='X'))``;
- ``__match_args__`` lists the fields, for positional ``match`` patterns;
- ``__reduce__`` rebuilds a record from its fields, for ``copy`` and
  ``pickle``, so a copy's hidden slots are what its ``__init__`` sets.

A ``Record`` is mutable and unhashable.  A ``FrozenRecord`` refuses
assignment and deletion, and it hashes as ``hash(tuple(fields))``.  Its
``__init__`` sets each slot by calling the ``__set__`` of the slot's
member descriptor, which ``slot_setters`` returns once per class, right
after it, as in ``_set_app_fun, _set_app_arg = slot_setters(App)``.  That
passes by the refusing ``__setattr__`` with no lookup by name: a two-field
node takes about 0.27 us to build, against 0.43 us through
``object.__setattr__`` (CPython 3.11.7, 2-vCPU VM), and the evaluator and
the stepper build nodes for every rule instance.

The package defines no ``@dataclass``: importing ``dataclasses`` and
generating each class's methods took most of its import time.  The price
is ``__eq__``: it reads the fields through ``operator.attrgetter``, not
through generated code, and a deep comparison of two terms costs up to
about 70 % more per node.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(name for name in cls.__slots__ if name[0] != "_")
        if not names:
            return
        # attrgetter returns a bare value for one name and a tuple for more
        get = attrgetter(*names)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                mine, theirs = get(self), get(other)
                return mine is theirs or mine == theirs  # a tuple compare's shortcut, for one field
            return NotImplemented

        cls.__eq__ = __eq__
        cls.__match_args__ = names
        cls._values = staticmethod(get if len(names) > 1 else lambda record: (get(record),))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def slot_setters(cls: type) -> tuple:
    """The ``__set__`` of each slot cls declares itself, in ``__slots__``
    order, hidden slots included: ``setter(record, value)`` sets the slot
    whatever the class's ``__setattr__`` does."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)
