"""Error types and the record base shared across the package.

The CLI maps the errors onto its exit-code contract: schema/input problems
exit with 2, internal consistency failures with 3, and failed verification
checks with 1.
"""


class SchemaError(ValueError):
    """Malformed or invalid input document; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class ConsistencyError(RuntimeError):
    """An internal exactness invariant failed (e.g. J^2 != -I)."""


class NotHodgeClass(ValueError):
    """A form that was required to lie in the Neron-Severi space does not."""


_setattr = object.__setattr__


class FrozenRecord:
    """Immutable record whose fields are its `__slots__`, in order.

    A subclass's `__init__` checks its arguments, if it has any to check,
    and stores the fields once with `_set`; after that, assigning or
    deleting a field raises `AttributeError`.  Records of one class compare
    and hash by their field values, and `repr` reads `Name(field=value,
    ...)`, as for a frozen dataclass.  The package defines its records this
    way because `dataclasses` generated their methods at every import, which
    cost about 0.5 ms per class.
    """

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        # Copies and pickles rebuild a record through its `__init__`.
        return self.__class__, self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
