"""Exception types shared across the package."""


class GlasseyLabError(Exception):
    """Base class for package-specific errors."""


class PreconditionViolation(GlasseyLabError):
    """An operation was called outside its documented domain."""


class Divergence(GlasseyLabError):
    """Fixed-point iteration is visibly diverging."""

    def __init__(self, message, trace=()):
        super().__init__(message)
        self.trace = tuple(trace)
