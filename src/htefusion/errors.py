"""Exception types shared across the package."""

__all__ = ["ValidationError", "NumericalError"]


class ValidationError(ValueError):
    """Unusable input: malformed data, inconsistent shapes, or bad options."""


class NumericalError(RuntimeError):
    """A numerical routine failed: non-convergence or a singular system."""
