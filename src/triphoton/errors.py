"""Exception types shared across the package."""

from __future__ import annotations


class NormalizationError(ValueError):
    """A spectral density cannot be rescaled to unit area."""


class IntegrationError(RuntimeError):
    """A quadrature result failed its accuracy target.

    Carries the best available estimate so callers can inspect how far
    off the integration was, and, when an array of delays was being
    evaluated, the position ``index`` of the first one that failed.
    """

    def __init__(self, message: str, value=None, error_estimate: float | None = None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.index = None


class InsufficientSamplingError(ValueError):
    """A sweep table is too sparse or too short for metric extraction."""


class ParseError(ValueError):
    """Malformed configuration text."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ValidationError(ValueError):
    """A parsed configuration violates an invariant."""
