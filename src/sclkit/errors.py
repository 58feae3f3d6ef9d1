"""Exception types shared across the package."""


class SclError(Exception):
    """Base class for package-specific errors."""


class ChainSyntaxError(SclError):
    """A chain expression could not be parsed; carries the 0-based offset."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at offset %d)" % (message, position)
        super().__init__(message)
        self.position = position


class RankMismatchError(SclError):
    """Words or chains from free groups of different rank were combined."""


class NotBoundaryError(SclError):
    """A chain (or word) that must be homologically trivial is not."""


class ResourceLimitError(SclError):
    """A computation exceeded a configured size, node, or pivot cap."""


class InvariantViolationError(SclError):
    """An internal consistency check failed; results cannot be trusted."""
