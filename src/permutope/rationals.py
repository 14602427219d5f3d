"""Exact rational conversion and formatting helpers.

All decision procedures in this package take and return exact rationals
(``fractions.Fraction``, or integer numerators over one exact common
denominator inside a kernel); floats are rejected at the boundary rather than
silently converted, because a float carries a binary approximation of what the
caller meant.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import RationalityError


def as_fraction(value) -> Fraction:
    """Convert int / Fraction / 'p/q' string to Fraction; reject floats."""
    if type(value) is Fraction:
        return value  # immutable, so it is its own exact copy
    if isinstance(value, float):
        raise RationalityError(
            f"refusing float {value!r}; pass int, Fraction or a 'p/q' string"
        )
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise RationalityError(f"not an exact rational: {value!r}") from exc


def float_str(value: Fraction, digits: int = 12) -> str:
    """Decimal rendering for display only (never used in decisions)."""
    return f"{float(value):.{digits}g}"
