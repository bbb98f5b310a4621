"""Exception types shared across the package, and the one rule for a
real-valued field: :func:`_real` gives a record's scalar as a float, or one
``ValueError`` line that names the field. Every other module imports this one;
it imports none of them."""

from __future__ import annotations

import math


class NormalizationError(ValueError):
    """A spectral density cannot be rescaled to unit area."""


class CarrierPhaseOverflowError(ValueError):
    """A geometry whose carrier phase ``omega * tau`` overflows a double."""


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


def _real(name: str, v, bound: str = "") -> float:
    """``v`` as a float, finite and, if ``bound`` is ``">= 0"`` or
    ``"positive"``, within it; else a ValueError that names ``name`` (and not
    the digits of an int too large for a float). What is not a real number,
    a string say, is a TypeError."""
    try:
        finite = math.isfinite(v)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None
    v = float(v)
    if not finite or bound == ">= 0" and not v >= 0 or bound == "positive" and not v > 0:
        raise ValueError(f"{name} must be finite{bound and ' and ' + bound}, got {v!r}")
    return v


def _store_reals(record, names, bound: str = "") -> None:
    """Store each of the ``names`` fields of a frozen ``record`` as its :func:`_real`."""
    for name in names:
        object.__setattr__(record, name, _real(name, getattr(record, name), bound))
