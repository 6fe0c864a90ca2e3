"""Exception hierarchy and value base shared by all ribbonsurf modules.

Every domain failure derives from RibbonError so callers (and the CLI) can
catch one base class.  InternalInvariantViolation deliberately does not: it
signals a bug in this library, not bad input.  A MapError subclass's
``code`` is the issue code a validation report uses for the same problem.

``_Value`` is the base of the library's immutable value types (faces,
reports, move records, presentations and the rest).  A subclass lists its
fields in ``__slots__`` and sets them in its own ``__init__`` through
``object.__setattr__``.  The base derives ``__match_args__`` from the slots
of the class and its bases, and gives: equality of the same class with
equal fields, a hash of the field tuple, a ``Name(field=value, ...)`` repr,
refusal of assignment and deletion with AttributeError, and a
``__reduce__`` that rebuilds from the fields for pickle and copy.  Building
these methods once here, rather than generating them per class, keeps
``dataclasses`` (and ``inspect``) out of the import.
"""


class RibbonError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "Error"


class MapError(RibbonError):
    """A rotation system failed validation."""

    code = "InvalidMap"


class DuplicateDartError(MapError):
    code = "DuplicateDart"


class MissingDartError(MapError):
    code = "MissingDart"


class UnknownLabelError(MapError):
    code = "UnknownLabel"


class DuplicateLabelError(MapError):
    code = "DuplicateLabel"


class DisconnectedError(MapError):
    code = "Disconnected"


class EmptyMapError(RibbonError):
    """An operation that needs at least one edge was given an edgeless map."""

    code = "EmptyMap"


class LoopNotContractibleError(RibbonError):
    code = "LoopNotContractible"


class PreconditionError(RibbonError):
    """A documented operation precondition does not hold for the input."""

    code = "PreconditionViolation"


class MalformedWordError(RibbonError):
    code = "MalformedWord"


class UnsupportedPresentationError(RibbonError):
    code = "UnsupportedPresentation"


class EndpointMismatchError(RibbonError):
    code = "EndpointMismatch"


class DocumentSyntaxError(RibbonError):
    """A graph document could not be parsed."""

    code = "SyntaxError"


class InternalInvariantViolation(RuntimeError):
    """An internal consistency check failed; this is a bug, not bad input."""


class _Value:
    """An immutable record whose fields are its slots, in order."""

    __slots__ = ()
    __match_args__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        own = cls.__dict__.get("__slots__", ())
        cls.__match_args__ += tuple(name for name in own if name != "__dict__")

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}"
                            for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()
