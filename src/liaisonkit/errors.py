"""Typed errors raised across the package, and the frozen record base
class of its value types.

Every precondition failure raises one of these; callers that want
failure-as-a-value (the chain searches) never raise, they return report
objects instead.
"""

from operator import attrgetter


class LiaisonkitError(Exception):
    """Base class for all package errors."""


def _require_int(name: str, value) -> None:
    """Raise :class:`LiaisonkitError` unless ``value`` is an int (a bool
    is refused too)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise LiaisonkitError(f"{name} must be an integer, got {value!r}")


class BasisMismatchError(LiaisonkitError):
    """Two divisor classes (or a class and a surface) live in different lattices."""


class InvalidClassError(LiaisonkitError):
    """A divisor class is malformed: wrong length, non-integer entries, or
    not a member of the expected family (line class, conic class, ...)."""


class UnknownSurfaceError(LiaisonkitError):
    """Requested surface id is not in the catalog."""

    def __init__(self, surface_id: str, valid_ids: tuple[str, ...]):
        self.surface_id = surface_id
        self.valid_ids = valid_ids
        super().__init__(
            f"unknown surface {surface_id!r}; valid ids: {', '.join(valid_ids)}"
        )


class CatalogError(LiaisonkitError):
    """The surface catalog file violates one of its invariants."""


class UnsupportedSurfaceError(LiaisonkitError):
    """Operation not defined for this surface: a family dimension off P4,
    or default line seeds on surfaces that carry no line class."""


class MissingWitnessError(LiaisonkitError):
    """A curve record has no surface witness, but the operation needs one."""


class LinkageError(LiaisonkitError):
    """A liaison step is arithmetically impossible (negative residual degree,
    containment violation, invalid residual h-vector)."""

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        if index is not None:
            message = f"{message} (at index {index})"
        super().__init__(message)


class InvalidInvocationError(LiaisonkitError):
    """CLI-level input validation failure (maps to exit code 2)."""


class FrozenRecordError(AttributeError):
    """A field of a :class:`Record` was assigned or deleted."""


# Sets a field of a record being built; a record's own ``__setattr__``
# refuses every assignment.
_set = object.__setattr__


class Record:
    """Immutable value with the fields named in ``__slots__``.

    A subclass lists its fields in ``__slots__`` and sets each in its own
    ``__init__``, through :data:`_set`, with the parameters in field
    order.  Records of one class are equal when their fields are, hash
    their field tuple and print as ``Name(field=value, ...)``.  Pickling
    and copying call the class on the fields, so every check in
    ``__init__`` runs again.

    >>> class Pair(Record):
    ...     __slots__ = ("x", "y")
    ...     def __init__(self, x, y=0):
    ...         _set(self, "x", x)
    ...         _set(self, "y", y)
    >>> Pair(1) == Pair(1, 0), Pair(1, 2)
    (True, Pair(x=1, y=2))
    >>> Pair(1).x = 3
    Traceback (most recent call last):
    ...
    liaisonkit.errors.FrozenRecordError: cannot assign to field 'x'
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        cls._astuple = property(get if len(cls.__slots__) > 1 else lambda r: (get(r),))

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple == other._astuple
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple
