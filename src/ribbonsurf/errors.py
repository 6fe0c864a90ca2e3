"""Exception hierarchy shared by all ribbonsurf modules.

Every domain failure derives from RibbonError so callers (and the CLI) can
catch one base class.  InternalInvariantViolation deliberately does not: it
signals a bug in this library, not bad input.  A MapError subclass's
``code`` is the issue code a validation report uses for the same problem.
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
