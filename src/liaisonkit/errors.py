"""Typed errors raised across the package.

Every precondition failure raises one of these; callers that want
failure-as-a-value (the chain searches) never raise, they return report
objects instead.
"""


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
    """Operation not defined for this surface (wrong lattice or ambient)."""


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


class CharacterError(LiaisonkitError):
    """A Hilbert-function input does not stabilize to a curve's growth."""


class InvalidInvocationError(LiaisonkitError):
    """CLI-level input validation failure (maps to exit code 2)."""
