"""Exception hierarchy shared by all hdus modules, and the one type rule of
numeric config fields."""

import numbers


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


# The number rule of every config route: `harness._typed` stores an int or
# float field by it, and a module config checks a field by it before its
# bounds, so a wrongly typed value is a ConfigError naming its experiment
# key, not a bare TypeError or a float count.
def is_count(value) -> bool:
    """Any integral number but a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_rate(value) -> bool:
    """Any real number but a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_count(key: str, value) -> None:
    if not is_count(value):
        raise ConfigError(f"{key}: expected int, got {value!r}")


def check_rate(key: str, value) -> None:
    if not is_rate(value):
        raise ConfigError(f"{key}: expected float, got {value!r}")
