"""Exception hierarchy shared by all hdus modules."""


class HdusError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(HdusError):
    """Array shapes are inconsistent with the operation's contract."""


class DomainError(HdusError):
    """A scalar argument is outside its valid domain (e.g. T <= 0)."""


class ValidationError(HdusError):
    """Structured input (one-hot rows, repository entries) is malformed."""


class DivergenceError(HdusError):
    """Training stopped at a non-finite output, gradient or parameter; `index`
    is the lowest position at fault in a stack, when one was trained."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class ConfigError(HdusError):
    """An experiment or module configuration is invalid."""


class ParseError(HdusError):
    """Binary input could not be decoded; carries the failing byte offset."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NotFoundError(HdusError):
    """A referenced client/neighbor id does not exist."""


class ConflictError(HdusError):
    """An insert would overwrite an existing entry."""


class StateError(HdusError):
    """Operation requires state (active clients, a pre-unlearn global) that is missing."""
